"""Self-tests for the benchmark's own arithmetic and checks.

Run from the repository root: python3 -m pytest bench/test_bench.py
They need neither the xmhash package nor a benchmark run.
"""

import json
import os
import shutil
import sys
import types
from types import SimpleNamespace

import numpy as np
import pytest

from metrics import (
    entries_per_pair_epoch, hd_quantile, layer_table, layer_values, percentile, quartile_spread,
    self_times,
)
from run import (
    ROOT, WORKLOADS, Checks, Step, mean_relevant_fraction, measure, retrieve_order_error, trace,
)
from traced_cli import (
    LAYERS, Tracer, count_code_flips, count_distances, count_feature_grad,
    count_pairwise_nll, count_sim_block,
)


def test_percentile_interpolates_between_ranks():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile(range(1, 11), 90) == pytest.approx(9.1)
    assert percentile([7.0], 90) == 7.0
    assert percentile([3, 1, 2], 0) == 1 and percentile([3, 1, 2], 100) == 3


def test_percentile_matches_numpy_default():
    xs = np.random.default_rng(0).exponential(size=101)
    for q in (10, 50, 90, 99):
        assert percentile(xs.tolist(), q) == pytest.approx(np.percentile(xs, q), rel=1e-12)


def test_hd_quantile_matches_scipy():
    from scipy.stats.mstats import hdquantiles
    xs = np.random.default_rng(1).exponential(size=57)
    for q in (0.1, 0.5, 0.9):
        assert hd_quantile(xs.tolist(), q) == pytest.approx(hdquantiles(xs, [q])[0], rel=1e-12)


def test_hd_quantile_moves_with_the_share_of_tied_ticks():
    # 100 epochs of 24 or 32 ms: the sample median jumps a whole tick when
    # the share of 32 ms epochs crosses one half, the estimate does not
    few, many = [24] * 52 + [32] * 48, [24] * 48 + [32] * 52
    assert percentile(many, 50) - percentile(few, 50) == 8
    assert 0 < hd_quantile(many, 0.5) - hd_quantile(few, 0.5) < 8 / 2
    assert hd_quantile([5.0] * 9, 0.9) == pytest.approx(5.0)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        hd_quantile([], 0.5)
    with pytest.raises(ValueError):
        hd_quantile([1.0], 1.0)
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0.0, 10.0, -1),  # 0: root
        (1.0, 4.0, 0),    # 1: child of root
        (2.0, 3.0, 1),    # 2: grandchild, counted against 1 only
        (5.0, 9.0, 0),    # 3: second child of root
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_layer_table_sums_across_processes():
    first = [["a", 0.0, 2.0, -1, 0, None], ["b", 0.5, 1.5, 0, 0, {"pairs": 6}]]
    second = [["b", 0.0, 1.0, -1, 1, {"pairs": 4}]]
    table = layer_table([first, second])
    assert table["a"] == {"calls": 1, "self_s": pytest.approx(1.0), "errors": 0}
    assert table["b"] == {"calls": 2, "self_s": pytest.approx(2.0), "errors": 1, "pairs": 10}


def test_quartile_spread_is_iqr_over_median():
    assert quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9]) == pytest.approx((7.5 - 2.5) / 5)


# A hand-sized training run: n_train = 6, batch 4 (batches of 4 and 2), one
# epoch per direction. Each sweep builds similarity rows for every batch
# against all 6 items, and the logged objective builds all 6 x 6 once.
N, R = 6, 3


def _state():
    return SimpleNamespace(image_feats=np.zeros((R, N)), text_feats=np.zeros((R, N)))


def test_counts_on_a_hand_sized_case():
    state, sim = _state(), SimpleNamespace(n=N)
    batches = [np.arange(4), np.arange(4, 6)]
    grad_pairs = sum(count_feature_grad((state, None, sim, b), {}, None, None)["pairs"]
                     for b in batches)
    assert grad_pairs == 4 * 6 + 2 * 6
    assert count_pairwise_nll((state.image_feats, state.text_feats, sim), {}, None, None) \
        == {"pairs": 36}
    assert count_sim_block((sim, np.arange(4)), {}, None, None) == {"entries": 24}
    assert count_sim_block((sim, [0, 1], [2, 3, 4]), {}, None, None) == {"entries": 6}
    assert count_sim_block((sim,), {"rows": [0], "cols": None}, None, None) == {"entries": 6}
    assert count_distances((np.zeros((10, 1), dtype=np.uint64), None), {}, None, None) \
        == {"rows": 10}

    # per direction and epoch: two sweeps of batch blocks plus one full block
    per_direction = 2 * grad_pairs + N * N
    assert per_direction == 108
    assert entries_per_pair_epoch(2 * per_direction, N, epochs=1) == pytest.approx(3.0)


def test_code_flips_compare_successive_updates_under_one_parent():
    tracer = SimpleNamespace(stack=[7], last_codes={})
    first = SimpleNamespace(signs=np.array([[1, -1], [1, 1]], dtype=np.int8))
    second = SimpleNamespace(signs=np.array([[1, 1], [-1, 1]], dtype=np.int8))
    assert count_code_flips((), {}, first, tracer) == {"bits_flipped": 0, "bits_compared": 0}
    assert count_code_flips((), {}, second, tracer) == {"bits_flipped": 2, "bits_compared": 4}
    tracer.stack = [9]  # a new training run has no predecessor
    assert count_code_flips((), {}, first, tracer)["bits_compared"] == 0


def test_layer_values_derive_ratios():
    table = {"data.sim_block": {"calls": 3, "self_s": 0.5, "errors": 0, "entries": 216},
             "training.update_codes": {"calls": 2, "self_s": 0.1, "errors": 0,
                                       "bits_flipped": 1, "bits_compared": 4}}
    values = layer_values(table, LAYERS, n_train=N, epochs=1)
    assert values["data.sim_block.entries_per_pair_epoch"] == pytest.approx(3.0)
    assert values["training.update_codes.bits_flipped_frac"] == 0.25
    assert values["mlp.forward.calls"] == 0 and values["mlp.forward.self_s"] == 0.0


def test_declared_per_layer_metrics_are_all_computed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    computed = set(layer_values({}, LAYERS, 1, 1)) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == computed


@pytest.fixture
def fake_module():
    mod = types.ModuleType("fake_layers")

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    def outer(x):
        return mod.inner(x) + mod.inner(x)

    mod.inner, mod.outer = inner, outer
    sys.modules["fake_layers"] = mod
    yield mod
    del sys.modules["fake_layers"]


def test_tracer_records_nesting_errors_and_missing_targets(fake_module):
    ticks = iter(range(100))
    layers = {
        "outer": (["fake_layers:outer"], None),
        "inner": (["fake_layers:inner", "fake_layers:renamed_away"], None),
        "gone": (["fake_layers:merged_kernel", "no_such_module:f"], None),
    }
    tracer = Tracer(layers, clock=lambda: float(next(ticks)))
    original = fake_module.inner
    assert tracer.install() == ["fake_layers:renamed_away", "fake_layers:merged_kernel",
                                "no_such_module:f"]
    assert fake_module.outer(2) == 4
    with pytest.raises(ValueError):
        fake_module.inner(-1)
    tracer.uninstall()
    assert fake_module.inner is original
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    errors = [s[4] for s in tracer.spans]
    assert names == ["outer", "inner", "inner", "inner"]
    assert parents == [-1, 0, 0, -1]
    assert errors == [0, 0, 0, 1]
    table = layer_table([tracer.spans])
    # outer spans ticks 0..5, its two children 1..2 and 3..4
    assert table["outer"]["self_s"] == pytest.approx(3.0)
    assert table["inner"]["calls"] == 3 and table["inner"]["errors"] == 1


@pytest.fixture
def work_dir():
    """A throwaway directory inside the ignored benchmark output directory."""
    path = ROOT / ".bench_out" / f"selftest-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path)


def test_relevant_fraction_and_retrieve_order(work_dir):
    # 4 items, 2 labels: item 0 {a}, 1 {b}, 2 {a, b}, 3 {b}; query 0, database 1..3
    (work_dir / "manifest.json").write_text(json.dumps({"n": 4, "c": 2,
                                                        "label_blob": "labels.u8"}))
    (work_dir / "labels.u8").write_bytes(bytes([1, 0, 1, 0, 0, 1, 1, 1]))
    (work_dir / "query.ids").write_text("0\n")
    (work_dir / "retrieval.ids").write_text("1\n2\n3\n")
    assert mean_relevant_fraction(work_dir) == pytest.approx(1 / 3)

    hits = work_dir / "hits.csv"
    hits.write_text("query_id,rank,db_id,distance\n0,1,3,0\n0,2,1,1\n0,3,2,1\n")
    assert retrieve_order_error(hits, [0], 3, bits=16) == ""
    hits.write_text("query_id,rank,db_id,distance\n0,1,3,0\n0,2,2,1\n0,3,1,1\n")
    assert "not after" in retrieve_order_error(hits, [0], 3, bits=16)
    assert "rows" in retrieve_order_error(hits, [0], 2, bits=16)


def test_benchmark_json_workloads_match_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(2 * WORKLOADS[w]["epochs"] >= 100 for w in WORKLOADS)


class FailingRunner:
    """Stands in for Runner: every step exits 1 and writes nothing."""

    def __init__(self, work):
        self.work, self.deadline, self.labels = work, float("inf"), []

    def cli(self, label, args, spans=None):
        self.labels.append(label)
        return Step(label, 1, 0.5, 10.0, "", "error: no space left on device\n")


@pytest.mark.parametrize("traced", [0, 1])
def test_failed_synth_is_counted_not_raised(work_dir, traced):
    runner, checks = FailingRunner(work_dir), Checks()
    if traced:
        values, record = trace(runner, WORKLOADS["recipe"], 2, checks)
    else:
        values, record = measure(runner, WORKLOADS["recipe"], 2, 30, checks)
    assert runner.labels == ["synth-u" if traced else "synth-0"]
    assert checks.failed == len(checks.items) == 1
    assert "synth" in checks.items[0]["name"]
    assert json.dumps(record) and all(v > 0 for v in values.values())
