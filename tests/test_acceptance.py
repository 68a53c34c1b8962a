"""Acceptance suite: one test per shipped criterion, one printed verdict each.

Every test prints a single `[criterion N] PASS/FAIL ...` line straight to the
terminal (bypassing capture) before asserting, so a plain `pytest -v` run
shows all eight verdicts inline. Budgets and tolerances are stated next to
their assertions.

The training-log CSV carries wall-clock seconds, which no two runs reproduce;
criterion 7 therefore asserts byte-identity on model files and evaluation
CSVs, and column-identity (epoch, objective) on training logs.
"""

import itertools
import time
from dataclasses import replace

import numpy as np
import pytest

from reference import hamming_distance
from xmhash import training
from xmhash.cli import main
from xmhash.data import PairwiseSimilarity, make_split, synth
from xmhash.evaluation import evaluate
from xmhash.gradcheck import run_suite
from xmhash.hamming import (
    CodeMatrix, RetrievalIndex, distances_to_all, encode_database, encode_queries,
)
from xmhash.objective import HyperParams, ObjectiveState, objective_value
from xmhash.training import TrainConfig, train_task, update_codes, update_projection

SEED_TRIPLE = (0, 1, 2)


def verdict(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'} {detail}")


def random_signs(rng, r, n):
    return (rng.integers(0, 2, size=(r, n)) * 2 - 1).astype(np.int8)


# --- 1: gradient fidelity ---------------------------------------------------------

def test_criterion_1_gradient_fidelity(capsys):
    tic = time.perf_counter()
    report = run_suite(trials=50, seed=0, tol=1e-4)
    elapsed = time.perf_counter() - tic
    tags = {r.name.split("task=")[1] for r in report.results}
    tasks = {t.split(" ")[0] for t in tags}
    corners = {t.split("weights=")[1].split(" trial")[0] for t in tags}
    ok = (report.all_passed and len(report.results) >= 50
          and len(corners) == 16 and tasks == {"i2t", "t2i"} and elapsed < 30)
    verdict(capsys, 1, ok,
            f"gradient fidelity: {len(report.results)} checks, worst scaled error "
            f"{report.worst.max_err:.2e} (tol 1e-4), {len(corners)}/16 weight corners, "
            f"directions {sorted(tasks)}, {elapsed:.1f}s (budget 30s)")
    assert report.all_passed, f"worst {report.worst}"
    assert len(report.results) >= 50
    assert len(corners) == 16 and tasks == {"i2t", "t2i"}
    assert elapsed < 30


# --- 2: exact subproblem optimality -----------------------------------------------

def quant_cost(signs, img, txt, hp):
    return (hp.quant_image * ((signs - img) ** 2).sum()
            + hp.quant_text * ((signs - txt) ** 2).sum())


def enumerate_best(img, txt, hp):
    r, n = img.shape
    best = np.inf
    for bits in itertools.product((-1.0, 1.0), repeat=r * n):
        cand = np.array(bits).reshape(r, n)
        best = min(best, quant_cost(cand, img, txt, hp))
    return best


def projection_grad(proj, feats, labels, lw, bw):
    return -2.0 * lw * (feats - proj @ labels) @ labels.T + 2.0 * bw * proj


def projection_gd_oracle(feats, labels, lw, bw):
    """Plain gradient descent to convergence at a 1/Lipschitz step."""
    lip = 2.0 * lw * np.linalg.norm(labels @ labels.T, 2) + 2.0 * bw
    proj = np.zeros((feats.shape[0], labels.shape[0]))
    for _ in range(200_000):
        g = projection_grad(proj, feats, labels, lw, bw)
        if np.abs(g).max() < 1e-12:
            break
        proj = proj - g / lip
    return proj


def test_criterion_2_exact_subproblems(capsys):
    tic = time.perf_counter()
    rng = np.random.default_rng(0)

    code_gap = 0.0
    shapes = [(1, 1), (2, 2), (1, 8), (4, 2), (2, 4), (3, 4), (4, 4), (2, 8), (8, 2), (16, 1)]
    for trial, (r, n) in enumerate(shapes):
        assert r * n <= 16
        img = rng.standard_normal((r, n))
        txt = rng.standard_normal((r, n))
        hp = HyperParams(0.5 * (trial % 3) + 0.1, 0.3, 1e-4, 1e-3, task="i2t")
        got = quant_cost(update_codes(img, txt, hp), img, txt, hp)
        code_gap = max(code_gap, got - enumerate_best(img, txt, hp))

    grad_norm = 0.0
    oracle_gap = 0.0
    for trial in range(10):
        r, c, n = 2 + trial % 4, 2 + trial % 3, 5 + trial
        feats = rng.standard_normal((r, n))
        labels = np.zeros((c, n))
        labels[rng.integers(0, c, size=n), np.arange(n)] = 1.0
        lw, bw = 0.1 * (1 + trial % 3), 1e-3 * (1 + trial % 4)
        proj = update_projection(feats, labels, lw, bw)
        grad_norm = max(grad_norm, float(np.linalg.norm(
            projection_grad(proj, feats, labels, lw, bw))))
        oracle_gap = max(oracle_gap, float(np.abs(
            proj - projection_gd_oracle(feats, labels, lw, bw)).max()))

    elapsed = time.perf_counter() - tic
    ok = code_gap <= 1e-12 and grad_norm < 1e-8 and oracle_gap < 1e-6 and elapsed < 10
    verdict(capsys, 2, ok,
            f"exact subproblems: code-vs-enumeration gap {code_gap:.1e} (tol 1e-12), "
            f"projection grad norm {grad_norm:.1e} (tol 1e-8), GD-oracle gap "
            f"{oracle_gap:.1e} (tol 1e-6), {elapsed:.1f}s (budget 10s)")
    assert code_gap <= 1e-12
    assert grad_norm < 1e-8
    assert oracle_gap < 1e-6
    assert elapsed < 10


# --- 3: monotone convergence ------------------------------------------------------

def watch_exact_blocks(monkeypatch, hp, sim):
    """The objective right before and right after each exact block of an
    ordinary train_task run, as {"codes": [...], "projection": [...]} lists
    of (before, after) pairs, one per epoch.

    Wraps xmhash.training's ObjectiveState, to keep the trainer's live
    state, and its update_codes and update_projection, which evaluate the
    objective on that state around the real block; "after" puts the block's
    result where the trainer stores it. The label term regresses the
    query-side embeddings, as in every variant but v1.
    """
    states, blocks = [], {"codes": [], "projection": []}

    def value(state):
        return objective_value(state, hp, sim)

    def live_state(*fields):
        states.append(ObjectiveState(*fields))
        return states[-1]

    def codes_block(*args):
        before = value(states[-1])
        codes = update_codes(*args)
        after = replace(states[-1], codes=codes)
        blocks["codes"].append((before, value(after)))
        return codes

    def projection_block(*args):
        before = value(states[-1])
        proj = update_projection(*args)
        blocks["projection"].append((before, value(replace(states[-1], proj=proj))))
        return proj

    monkeypatch.setattr(training, "ObjectiveState", live_state)
    monkeypatch.setattr(training, "update_codes", codes_block)
    monkeypatch.setattr(training, "update_projection", projection_block)
    return blocks


def test_criterion_3_monotone_convergence(capsys, monkeypatch):
    tic = time.perf_counter()
    ds = synth(200, 8, 8, 4, noise=0.1, seed=11)
    split = make_split(200, 40, 48, seed=3)
    cfg = TrainConfig(bits=16, epochs=100, batch_size=48, lr_image=1e-3,
                      lr_text=1e-3, seed=0, hidden_dim=64)
    hp = HyperParams(0.1, 0.01, 1e-4, 1e-3, task="i2t")
    blocks = watch_exact_blocks(monkeypatch, hp,
                                PairwiseSimilarity(ds.labels[:, split.train_ids]))
    model = train_task(ds, split, cfg, hp)
    elapsed = time.perf_counter() - tic

    first = model.train_log[0].objective
    last = model.train_log[-1].objective
    violations = sum(after > before + 1e-9
                     for pairs in blocks.values() for before, after in pairs)
    after_ridge = [after for _, after in blocks["projection"]]
    ok = last < first and violations == 0 and elapsed < 120
    verdict(capsys, 3, ok,
            f"monotone convergence: objective {first:.1f} (epoch 1) -> {last:.1f} "
            f"(epoch 100), {violations} discrete/ridge substep increases (tol 1e-9), "
            f"{elapsed:.1f}s (budget 120s)")
    assert len(blocks["codes"]) == len(after_ridge) == 100
    # each epoch's after-ridge value is its logged objective, bit for bit
    assert after_ridge == [row.objective for row in model.train_log]
    assert last < first
    assert violations == 0
    assert elapsed < 120


# --- 4 and 5 share one trained grid ------------------------------------------------

@pytest.fixture(scope="module")
def retrieval_grid():
    """mAP for {3 seeds} x {full, v2} x {both directions} on one dataset,
    plus the two random baselines and the grid's wall time."""
    tic = time.perf_counter()
    ds = synth(500, 16, 32, 4, noise=0.2, seed=4)
    split = make_split(500, 100, 400, seed=2)
    weights = (0.1, 0.01, 1e-4, 0.1)
    maps = {}
    for seed in SEED_TRIPLE:
        for variant in ("full", "v2"):
            cfg = TrainConfig(bits=16, epochs=200, batch_size=128, lr_image=1e-5,
                              lr_text=1e-5, variant=variant, seed=seed, hidden_dim=64)
            for task in ("i2t", "t2i"):
                model = train_task(ds, split, cfg, HyperParams(*weights, task=task))
                index = encode_database(model, ds, split)
                queries = encode_queries(model, ds, split)
                report = evaluate(index, queries, ds.labels[:, split.query_ids], task=task)
                maps[(seed, variant, task)] = report.map

    # random-code baseline, measured in the same protocol
    rng = np.random.default_rng(99)
    db_labels = ds.labels[:, split.retrieval_ids]
    q_labels = ds.labels[:, split.query_ids]
    rand_index = RetrievalIndex(
        CodeMatrix.from_real(random_signs(rng, 16, len(split.retrieval_ids))),
        db_labels,
        np.asarray(split.retrieval_ids, dtype=np.int64),
    )
    rand_queries = CodeMatrix.from_real(random_signs(rng, 16, len(split.query_ids)))
    baseline_map = evaluate(rand_index, rand_queries, q_labels).map
    # analytic form of the same baseline: mean relevant fraction per query
    frac = float(np.mean(q_labels.astype(np.float64).T
                         @ db_labels.astype(np.float64) > 0))
    return maps, baseline_map, frac, time.perf_counter() - tic


def test_criterion_4_retrieval_beats_random(capsys, retrieval_grid):
    maps, baseline_map, frac, elapsed = retrieval_grid
    assert abs(baseline_map - frac) < 0.05, "random-code baseline sanity check"
    m_i2t = maps[(0, "full", "i2t")]
    m_t2i = maps[(0, "full", "t2i")]
    margin = min(m_i2t, m_t2i) - baseline_map
    ok = margin >= 0.25 and elapsed < 300
    verdict(capsys, 4, ok,
            f"retrieval quality: mAP i2t {m_i2t:.3f} / t2i {m_t2i:.3f} vs random "
            f"{baseline_map:.3f} (relevant fraction {frac:.3f}), margin {margin:.3f} "
            f"(need 0.25), grid took {elapsed:.0f}s (budget 300s)")
    assert m_i2t >= baseline_map + 0.25
    assert m_t2i >= baseline_map + 0.25
    assert elapsed < 300


def test_criterion_5_supervision_helps(capsys, retrieval_grid):
    maps, _, _, _ = retrieval_grid
    stats = {}
    for task in ("i2t", "t2i"):
        diffs = np.array([maps[(s, "full", task)] - maps[(s, "v2", task)]
                          for s in SEED_TRIPLE])
        std = float(diffs.std(ddof=1))
        stats[task] = (float(diffs.mean()), std)
    ok = all(mean >= -std for mean, std in stats.values())
    detail = ", ".join(
        f"{task} mean(full - v2)={mean:+.4f} std={std:.4f}"
        for task, (mean, std) in stats.items()
    )
    verdict(capsys, 5, ok,
            f"ablation direction over seeds {SEED_TRIPLE}: {detail} "
            f"(need mean >= -std)")
    for task, (mean, std) in stats.items():
        assert mean >= -std, f"{task}: {mean} < -{std}"


# --- 6: metric oracles ---------------------------------------------------------------

def eval_oracle(index, q_codes, q_labels):
    """Brute-force ranking (elementwise distances, explicit (dist, id) sort);
    metric arithmetic in the same float operation order as evaluate()."""
    n_db, n_q = index.codes.n, q_codes.n
    aps = np.empty(n_q)
    rels = []
    for q in range(n_q):
        scored = sorted(
            (sum(1 for bit in range(index.codes.r)
                 if index.codes.signs[bit, p] != q_codes.signs[bit, q]),
             int(index.ids[p]), p)
            for p in range(n_db)
        )
        rel = np.array([
            float(bool(np.any(q_labels[:, q].astype(bool)
                              & index.labels[:, p].astype(bool))))
            for _, _, p in scored
        ])
        rels.append(rel)
        cum = np.cumsum(rel)
        if cum[-1] == 0:
            aps[q] = 0.0
        else:
            prec = cum / np.arange(1, n_db + 1)
            aps[q] = float(prec[rel > 0].sum() / cum[-1])
    return float(aps.mean()), aps, rels


def test_criterion_6_metric_oracles(capsys):
    tic = time.perf_counter()
    rng = np.random.default_rng(6)

    map_exact = curve_exact = True
    for trial in range(20):
        r = int(rng.integers(2, 17))
        n_db = int(rng.integers(5, 31))
        n_q = int(rng.integers(2, 7))
        c = int(rng.integers(2, 5))
        db_labels = rng.integers(0, 2, size=(c, n_db)).astype(np.uint8)
        db_labels[rng.integers(0, c, size=n_db), np.arange(n_db)] = 1
        q_labels = rng.integers(0, 2, size=(c, n_q)).astype(np.uint8)
        ids = rng.permutation(1000)[:n_db].astype(np.int64)
        index = RetrievalIndex(CodeMatrix.from_real(random_signs(rng, r, n_db)),
                               db_labels, ids)
        q_codes = CodeMatrix.from_real(random_signs(rng, r, n_q))
        ks = (1, max(1, n_db // 2), n_db)
        report = evaluate(index, q_codes, q_labels, ks=ks)
        want_map, want_aps, rels = eval_oracle(index, q_codes, q_labels)
        map_exact &= report.map == want_map and np.array_equal(report.per_query_ap, want_aps)
        for pos, k in enumerate(ks):
            want_p = float(np.mean([rel[:k].mean() for rel in rels]))
            curve_exact &= report.topk_curve[pos] == (k, want_p)

    packed_exact = True
    for r in (1, 63, 64, 65, 128):
        signs = random_signs(rng, r, 40)
        packed = CodeMatrix.from_real(signs).packed
        for a in range(0, 40, 3):
            for b in range(1, 40, 3):
                want = int(np.sum(signs[:, a] != signs[:, b]))
                packed_exact &= hamming_distance(packed[a], packed[b], r) == want
        same = hamming_distance(packed[0], packed[0], r) == 0
        flipped = CodeMatrix.from_real(-signs)
        allbits = hamming_distance(packed[0], flipped.packed[0], r) == r
        bulk = np.array_equal(
            distances_to_all(packed, packed[0]),
            [int(np.sum(signs[:, 0] != signs[:, j])) for j in range(40)],
        )
        packed_exact &= same and allbits and bulk

    elapsed = time.perf_counter() - tic
    ok = map_exact and curve_exact and packed_exact and elapsed < 10
    verdict(capsys, 6, ok,
            f"metric oracles: 20 evaluate() instances exact={map_exact}, "
            f"topk curves exact={curve_exact}, packed Hamming == elementwise for "
            f"r in (1, 63, 64, 65, 128): {packed_exact}, {elapsed:.1f}s (budget 10s)")
    assert map_exact and curve_exact and packed_exact
    assert elapsed < 10


# --- 7: determinism --------------------------------------------------------------------

def run_pipeline(root):
    data = root / "data"
    models = root / "models"
    assert main(["synth", "--out", str(data), "--n", "120", "--dx", "8",
                 "--dy", "12", "--c", "3", "--noise", "0.1", "--seed", "9",
                 "--n-query", "20", "--n-train", "40"]) == 0
    assert main(["train", "--data", str(data), "--out", str(models),
                 "--task", "both", "--bits", "16", "--epochs", "5",
                 "--batch-size", "16", "--lr-image", "1e-3", "--lr-text", "1e-3",
                 "--hidden", "32", "--seed", "0",
                 "--hp-i2t", "0.1,0.01,1e-4,1e-3",
                 "--hp-t2i", "0.1,0.01,1e-4,1e-3"]) == 0
    for task in ("i2t", "t2i"):
        assert main(["eval", "--model", str(models / f"{task}.model"),
                     "--data", str(data), "--out", str(root / f"{task}_eval.csv"),
                     "--ks", "5,10"]) == 0


def log_without_seconds(path):
    rows = path.read_text().splitlines()
    return [",".join(line.split(",")[:2]) for line in rows]


def test_criterion_7_determinism(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    run_pipeline(a)
    run_pipeline(b)

    same = {}
    for rel in ("models/i2t.model", "models/t2i.model",
                "i2t_eval.csv", "t2i_eval.csv"):
        same[rel] = (a / rel).read_bytes() == (b / rel).read_bytes()
    for task in ("i2t", "t2i"):
        rel = f"models/{task}_train_log.csv"
        same[rel + " (epoch,objective)"] = (
            log_without_seconds(a / rel) == log_without_seconds(b / rel)
        )
    ok = all(same.values())
    verdict(capsys, 7, ok,
            "determinism: synth -> train both -> eval twice; byte-identical "
            f"{sum(same.values())}/{len(same)} artifacts "
            "(train logs compared on epoch+objective; wall seconds excluded)")
    for rel, good in same.items():
        assert good, f"{rel} differs between identical runs"


# --- 8: scaling shape ----------------------------------------------------------------

def test_criterion_8_scaling_shape(capsys):
    ns = (250, 500, 1000)
    med = []
    for n in ns:
        ds = synth(n, 8, 8, 4, noise=0.1, seed=1)
        split = make_split(n, n // 10, n - n // 10, seed=1)
        cfg = TrainConfig(bits=16, epochs=8, batch_size=128, lr_image=1e-6,
                          lr_text=1e-6, seed=0, hidden_dim=64)
        hp = HyperParams(0.1, 0.01, 1e-4, 1e-3, task="i2t")
        model = train_task(ds, split, cfg, hp)
        # drop the first epoch (cache warmup), take the median of the rest
        med.append(float(np.median([row.seconds for row in model.train_log[1:]])))

    slope = float(np.polyfit(np.log(ns), np.log(med), 1)[0])
    ok = slope <= 2.3
    times = ", ".join(f"n={n}: {t * 1e3:.1f}ms" for n, t in zip(ns, med))
    verdict(capsys, 8, ok,
            f"scaling shape: median epoch time {times}; log-log slope "
            f"{slope:.2f} (bound 2.3)")
    assert slope <= 2.3
