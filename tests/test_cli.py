"""End-to-end checks of the command-line pipeline via main(argv)."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import child_env
from reference import average_precision
from xmhash import cli, evaluation, hamming
from xmhash.cli import main
from xmhash.data import MANIFEST_NAME, SPLIT_FILES, load_dataset, load_split
from xmhash.errors import NumericalError
from xmhash.hamming import read_codes
from xmhash.training import load_model

CLI_MAIN = "import sys; from xmhash.cli import main; sys.exit(main())"

# small-but-stable pipeline settings used across the tests in this module:
# explicit low learning rate because the CLI default targets larger runs
TRAIN_FLAGS = [
    "--bits", "8", "--epochs", "4", "--batch-size", "16",
    "--lr-image", "1e-3", "--lr-text", "1e-3",
    "--hidden", "32", "--seed", "0",
    "--hp-i2t", "0.1,0.01,1e-4,1e-3", "--hp-t2i", "0.1,0.01,1e-4,1e-3",
]


def synth_argv(out, n=60, seed=7):
    return [
        "synth", "--out", str(out), "--n", str(n), "--dx", "8", "--dy", "12",
        "--c", "3", "--noise", "0.1", "--seed", str(seed),
        "--n-query", "10", "--n-train", "40",
    ]


def run_synth(out, n=60, seed=7):
    return main(synth_argv(out, n, seed))


@pytest.fixture()
def data_dir(tmp_path):
    out = tmp_path / "data"
    assert run_synth(out) == 0
    return out


@pytest.fixture()
def model_dir(tmp_path, data_dir):
    out = tmp_path / "models"
    code = main(["train", "--data", str(data_dir), "--out", str(out),
                 "--task", "both", *TRAIN_FLAGS])
    assert code == 0
    return out


# --- synth -----------------------------------------------------------------------

def test_synth_writes_dataset_and_split(tmp_path, capsys):
    out = tmp_path / "d"
    assert run_synth(out) == 0
    printed = capsys.readouterr().out
    assert "wrote" in printed and "10 query / 50 retrieval / 40 train" in printed
    assert (out / MANIFEST_NAME).is_file()
    for fname in SPLIT_FILES:
        assert (out / fname).is_file()
    ds = load_dataset(out)
    split = load_split(out, ds.n)
    assert ds.n == 60
    assert len(split.query_ids) == 10 and len(split.train_ids) == 40


def test_synth_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_synth(a) == 0
    assert run_synth(b) == 0
    for fname in [MANIFEST_NAME, *SPLIT_FILES, "image.f32", "text.f32", "labels.u8"]:
        assert (a / fname).read_bytes() == (b / fname).read_bytes(), fname


def test_synth_requires_out_flag():
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--n", "10", "--dx", "2", "--dy", "2", "--c", "2"])
    assert exc.value.code == 2


def test_synth_rejects_nonpositive_n(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", str(tmp_path), "--n", "0", "--dx", "2",
              "--dy", "2", "--c", "2"])
    assert exc.value.code == 2


# --- train --------------------------------------------------------------------------

def test_train_both_writes_models_and_logs(data_dir, tmp_path, capsys):
    out = tmp_path / "m"
    code = main(["train", "--data", str(data_dir), "--out", str(out),
                 "--task", "both", *TRAIN_FLAGS])
    assert code == 0
    printed = capsys.readouterr().out
    assert "trained i2t" in printed and "trained t2i" in printed
    for task in ("i2t", "t2i"):
        model = load_model(out / f"{task}.model")
        assert model.task == task and model.r == 8
        log_lines = (out / f"{task}_train_log.csv").read_text().splitlines()
        assert log_lines[0] == "epoch,objective,seconds"
        assert len(log_lines) == 1 + 4
        first = log_lines[1].split(",")
        assert first[0] == "1" and float(first[1]) > 0


def test_train_single_task_writes_one_model(data_dir, tmp_path):
    out = tmp_path / "m"
    code = main(["train", "--data", str(data_dir), "--out", str(out),
                 "--task", "t2i", *TRAIN_FLAGS])
    assert code == 0
    assert (out / "t2i.model").is_file()
    assert not (out / "i2t.model").exists()


def test_train_rejects_zero_bits(data_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", str(data_dir), "--out", str(tmp_path),
              "--bits", "0"])
    assert exc.value.code == 2


def test_train_rejects_out_of_range_lr(data_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", str(data_dir), "--out", str(tmp_path),
              "--lr-image", "5.0"])
    assert exc.value.code == 2


def test_train_rejects_malformed_hp(data_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", str(data_dir), "--out", str(tmp_path),
              "--hp-i2t", "0.1,0.2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["synth", "train", "gradcheck"])
def test_negative_seed_is_usage_error(command, tmp_path):
    argv = {
        "synth": synth_argv(tmp_path / "d", seed=-1),
        "train": ["train", "--data", str(tmp_path), "--out", str(tmp_path / "m"),
                  "--seed", "-1"],
        "gradcheck": ["gradcheck", "--seed", "-1"],
    }[command]
    proc = subprocess.run([sys.executable, "-c", CLI_MAIN, *argv], env=child_env("1"),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "--seed" in proc.stderr and "Traceback" not in proc.stderr


def test_train_missing_data_dir_is_runtime_error(tmp_path, capsys):
    code = main(["train", "--data", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "m"), *TRAIN_FLAGS])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def train_argv(data_dir, out, task, *extra):
    return ["train", "--data", str(data_dir), "--out", str(out), "--task", task,
            *TRAIN_FLAGS, *extra]


@pytest.mark.parametrize("variant", ["full", "v1"])
def test_train_both_equals_each_task_alone(variant, data_dir, tmp_path, capsys):
    # --task both trains t2i in a forked child; nothing about it may differ
    # from training each direction on its own
    both, alone = tmp_path / "both", tmp_path / "alone"
    assert main(train_argv(data_dir, both, "both", "--variant", variant)) == 0
    printed_both = capsys.readouterr().out.replace(str(both), "OUT")
    printed_alone = ""
    for task in ("i2t", "t2i"):
        assert main(train_argv(data_dir, alone, task, "--variant", variant)) == 0
        printed_alone += capsys.readouterr().out.replace(str(alone), "OUT")
    assert printed_both.splitlines() == printed_alone.splitlines()
    assert sorted(p.name for p in both.iterdir()) == sorted(p.name for p in alone.iterdir())
    for task in ("i2t", "t2i"):
        assert (both / f"{task}.model").read_bytes() == (alone / f"{task}.model").read_bytes()
        logs = [[line.rsplit(",", 1)[0] for line in
                 (d / f"{task}_train_log.csv").read_text().splitlines()]
                for d in (both, alone)]
        assert logs[0] == logs[1]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def train_task_failing_at(task, action):
    """cli.train_task, except that training `task` calls action() instead."""
    real = cli.train_task

    def train(ds, split, cfg, hp):
        return action() if hp.task == task else real(ds, split, cfg, hp)
    return train


def raise_numerical():
    raise NumericalError("epoch 1, image sweep: test failure")


def test_train_both_t2i_failure_keeps_i2t_output(data_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "train_task", train_task_failing_at("t2i", raise_numerical))
    out = tmp_path / "m"
    assert main(train_argv(data_dir, out, "both")) == 1
    printed = capsys.readouterr()
    assert sorted(p.name for p in out.iterdir()) == ["i2t.model", "i2t_train_log.csv"]
    assert printed.out.splitlines()[0].startswith("trained i2t")
    assert printed.err.splitlines() == ["error: epoch 1, image sweep: test failure"]
    assert_no_child_left()


def test_train_both_i2t_failure_writes_nothing(data_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "train_task", train_task_failing_at("i2t", raise_numerical))
    out = tmp_path / "m"
    assert main(train_argv(data_dir, out, "both")) == 1
    printed = capsys.readouterr()
    assert list(out.iterdir()) == []
    assert printed.out == ""
    assert printed.err.splitlines() == ["error: epoch 1, image sweep: test failure"]
    assert_no_child_left()


def test_train_both_child_that_dies_is_an_error(data_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "train_task", train_task_failing_at("t2i", lambda: os._exit(3)))
    out = tmp_path / "m"
    assert main(train_argv(data_dir, out, "both")) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: training t2i: child process ended without a result "
                   "(exit status 3)"]
    assert sorted(p.name for p in out.iterdir()) == ["i2t.model", "i2t_train_log.csv"]
    assert_no_child_left()


DIVERGING_TRAIN = ["--preset", "iaprtc12", "--lr-image", "1e-2", "--lr-text", "1e-2",
                   "--hidden", "64", "--epochs", "5"]
DIVERGED = "error: epoch 2, image sweep: layer 0: parameters became non-finite after step"


def synth_recipe(out):
    assert main(["synth", "--out", str(out), "--n", "500", "--dx", "16", "--dy", "32",
                 "--c", "4", "--noise", "0.2", "--seed", "1",
                 "--n-query", "100", "--n-train", "400"]) == 0


def test_diverging_train_ends_in_one_error_line(tmp_path, capsys):
    data = tmp_path / "data"
    synth_recipe(data)
    capsys.readouterr()
    out = tmp_path / "m"
    assert main(["train", "--data", str(data), "--out", str(out), "--task", "both",
                 *DIVERGING_TRAIN]) == 1
    assert capsys.readouterr().err.splitlines() == [DIVERGED]
    assert list(out.iterdir()) == []
    assert_no_child_left()


@pytest.mark.parametrize("task", ["both", "i2t"])
def test_diverging_train_writes_one_stderr_line(task, tmp_path):
    # a fresh interpreter under the default warning filters: the overflows
    # that precede the divergence must not reach stderr as RuntimeWarnings
    data, out = tmp_path / "data", tmp_path / "m"
    synth_recipe(data)
    proc = subprocess.run([sys.executable, "-c", CLI_MAIN, "train", "--data", str(data),
                           "--out", str(out), "--task", task, *DIVERGING_TRAIN],
                          env=child_env("1"), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == DIVERGED + "\n"
    assert list(out.iterdir()) == []


def test_killed_train_leaves_no_trainer(data_dir, tmp_path):
    argv = train_argv(data_dir, tmp_path / "m", "both")
    argv[argv.index("--epochs") + 1] = "100000"
    assert_killed_command_leaves_no_child(CLI_MAIN, argv, "the t2i trainer")


# an eval whose ranking forks (one-query tiles, FORK_ENTRIES 1) and whose
# tiles each take a second, so the child is still ranking when the command
# is killed
SLOW_FORKED_RANKING = """
import sys, time
from xmhash import evaluation, hamming
from xmhash.cli import main
overlap = evaluation.label_overlap
def slow_overlap(*args):
    time.sleep(1)
    return overlap(*args)
evaluation.label_overlap = slow_overlap
hamming.TILE_ENTRIES = hamming.FORK_ENTRIES = 1
sys.exit(main())
"""


def test_killed_eval_leaves_no_ranking_child(data_dir, model_dir, tmp_path):
    argv = ["eval", "--model", str(model_dir / "i2t.model"), "--data", str(data_dir),
            "--out", str(tmp_path / "eval.csv")]
    assert_killed_command_leaves_no_child(SLOW_FORKED_RANKING, argv, "the ranking child")


def assert_killed_command_leaves_no_child(code, argv, child_name):
    """Run `python -c code argv`, SIGKILL it once it has forked, and check
    that its child ends too."""
    proc = subprocess.Popen([sys.executable, "-c", code, *argv], env=child_env("1"),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
    child = None
    try:
        deadline = time.monotonic() + 60
        while child is None and time.monotonic() < deadline:
            if not children.exists() and proc.poll() is None:
                pytest.skip("this kernel does not list a task's children in /proc")
            found = children.read_text().split() if children.exists() else []
            child = int(found[0]) if found else None
            assert proc.poll() is None, f"{argv[0]} ended before it forked"
            time.sleep(0.05)
        assert child is not None, f"{argv[0]} never forked {child_name}"
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 5
        while process_alive(child) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not process_alive(child), f"{child_name} outlived its killed parent"
    finally:
        proc.kill()
        proc.wait()
        if child is not None and process_alive(child):
            os.kill(child, signal.SIGKILL)


def process_alive(pid):
    """True while pid runs; a zombie waiting for its new parent has ended."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


# --- encode ----------------------------------------------------------------------

def test_encode_writes_readable_code_files(data_dir, model_dir, tmp_path, capsys):
    out = tmp_path / "codes"
    code = main(["encode", "--model", str(model_dir / "i2t.model"),
                 "--data", str(data_dir), "--out-dir", str(out)])
    assert code == 0
    db = read_codes(out / "db.codes")
    q = read_codes(out / "query.codes")
    assert db.r == 8 and q.r == 8
    assert db.n == 50 and q.n == 10
    printed = capsys.readouterr().out
    assert "db.codes" in printed and "query.codes" in printed


def test_encode_custom_names(data_dir, model_dir, tmp_path):
    out = tmp_path / "codes"
    code = main(["encode", "--model", str(model_dir / "t2i.model"),
                 "--data", str(data_dir), "--out-dir", str(out),
                 "--db-name", "d.bin", "--queries-name", "q.bin"])
    assert code == 0
    assert read_codes(out / "d.bin").n == 50
    assert read_codes(out / "q.bin").n == 10


# --- retrieve -------------------------------------------------------------------

def test_retrieve_row_count_and_sorting(data_dir, model_dir, tmp_path):
    out = tmp_path / "hits.csv"
    code = main(["retrieve", "--model", str(model_dir / "i2t.model"),
                 "--data", str(data_dir), "--k", "5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "query_id,rank,db_id,distance"
    assert len(lines) == 1 + 10 * 5
    rows = [line.split(",") for line in lines[1:]]
    by_query = {}
    for qid, rank, db_id, dist in rows:
        by_query.setdefault(qid, []).append((int(rank), int(db_id), int(dist)))
    for hits in by_query.values():
        assert [h[0] for h in hits] == [1, 2, 3, 4, 5]
        dists = [h[2] for h in hits]
        assert dists == sorted(dists)


@pytest.mark.parametrize("task", ["i2t", "t2i"])
def test_retrieve_full_ranking_is_the_order_eval_scores(task, data_dir, model_dir, tmp_path):
    # --k n_db lists every database item; scoring those rows must give the
    # eval report's mAP and precision@k exactly
    model = str(model_dir / f"{task}.model")
    hits, report = tmp_path / "hits.csv", tmp_path / "eval.csv"
    assert main(["retrieve", "--model", model, "--data", str(data_dir),
                 "--k", "50", "--out", str(hits)]) == 0
    assert main(["eval", "--model", model, "--data", str(data_dir),
                 "--ks", "5,50", "--out", str(report)]) == 0
    labels = load_dataset(data_dir / MANIFEST_NAME).labels.astype(bool)
    rels = {}
    for line in hits.read_text().splitlines()[1:]:
        qid, _, db_id, _ = map(int, line.split(","))
        rels.setdefault(qid, []).append(float((labels[:, qid] & labels[:, db_id]).any()))
    assert len(rels) == 10 and all(len(rel) == 50 for rel in rels.values())
    aps = [average_precision(rel) for rel in rels.values()]
    lines = report.read_text().splitlines()
    assert f",map={float(np.mean(aps))!r}," in lines[0]
    for line, k in zip(lines[2:], (5, 50)):
        prec = float(sum(np.mean(rel[:k]) for rel in rels.values()) / len(rels))
        assert line == f"{k},{prec!r}"


def test_retrieve_into_a_directory_fails_cleanly(data_dir, model_dir, tmp_path, capsys):
    code = main(["retrieve", "--model", str(model_dir / "i2t.model"),
                 "--data", str(data_dir), "--k", "5", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "directory" in err[0], err


def test_retrieve_rejects_oversized_k(data_dir, model_dir, tmp_path, capsys, monkeypatch):
    def encode_database(*args, **kwargs):
        raise AssertionError("the database was encoded before k was checked")
    monkeypatch.setattr(hamming, "encode_database", encode_database)
    code = main(["retrieve", "--model", str(model_dir / "i2t.model"),
                 "--data", str(data_dir), "--k", "51",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "k must lie in [1, 50]" in capsys.readouterr().err


# --- eval ------------------------------------------------------------------------

def test_forked_ranking_writes_the_serial_files(data_dir, model_dir, tmp_path, monkeypatch):
    # shuffled retrieval ids, so that ties are broken by id, not by storage
    ids = data_dir / "retrieval.ids"
    ids.write_text("\n".join(np.random.default_rng(4).permutation(ids.read_text().split()))
                   + "\n")
    monkeypatch.setattr(hamming, "TILE_ENTRIES", 3 * 50)  # four tiles of 10 queries
    written = []
    for fork_entries in (hamming.FORK_ENTRIES, 1):
        monkeypatch.setattr(hamming, "FORK_ENTRIES", fork_entries)
        out = tmp_path / f"fork{fork_entries}"
        for task in ("i2t", "t2i"):
            model = str(model_dir / f"{task}.model")
            assert main(["eval", "--model", model, "--data", str(data_dir), "--ks", "1,5,50",
                         "--out", str(out / f"{task}.csv")]) == 0
            assert main(["retrieve", "--model", model, "--data", str(data_dir), "--k", "7",
                         "--out", str(out / f"{task}_hits.csv")]) == 0
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert len(written[0]) == 4 and written[0] == written[1]
    assert_no_child_left()


@pytest.mark.parametrize("how", ["raises", "dies"])
def test_failing_ranking_child_is_one_error_line(how, data_dir, model_dir, tmp_path, capsys,
                                                 monkeypatch):
    parent, overlap = os.getpid(), evaluation.label_overlap

    def overlap_failing_in_the_child(*args):
        if os.getpid() != parent:
            if how == "dies":
                os._exit(3)
            raise NumericalError("test failure in the ranking child")
        return overlap(*args)
    monkeypatch.setattr(evaluation, "label_overlap", overlap_failing_in_the_child)
    monkeypatch.setattr(hamming, "TILE_ENTRIES", 50)
    monkeypatch.setattr(hamming, "FORK_ENTRIES", 1)
    out = tmp_path / "eval.csv"
    assert main(["eval", "--model", str(model_dir / "i2t.model"), "--data", str(data_dir),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [{
        "raises": "error: test failure in the ranking child",
        "dies": "error: ranking queries: child process ended without a result (exit status 3)",
    }[how]]
    assert not out.exists()
    assert_no_child_left()


def test_eval_prints_map_and_writes_report(data_dir, model_dir, tmp_path, capsys):
    out = tmp_path / "eval.csv"
    code = main(["eval", "--model", str(model_dir / "i2t.model"),
                 "--data", str(data_dir), "--out", str(out),
                 "--ks", "10,20"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "task=i2t r=8 map=" in printed
    map_val = float(printed.split("map=")[1].split()[0])
    assert 0.0 <= map_val <= 1.0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert lines[1] == "k,precision"
    assert lines[2].startswith("10,") and lines[3].startswith("20,")


def test_eval_default_ks_clip_to_database(data_dir, model_dir, tmp_path):
    # database holds 50 items, smaller than the default 100-step grid, so
    # the report must fall back to mAP only
    out = tmp_path / "eval.csv"
    code = main(["eval", "--model", str(model_dir / "t2i.model"),
                 "--data", str(data_dir), "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 2


def test_eval_map_grid_appends(data_dir, model_dir, tmp_path):
    grid = tmp_path / "grid.csv"
    for task, method in (("i2t", "full"), ("t2i", "full")):
        code = main(["eval", "--model", str(model_dir / f"{task}.model"),
                     "--data", str(data_dir), "--out", str(tmp_path / f"{task}.csv"),
                     "--ks", "5", "--map-grid", str(grid), "--method", method])
        assert code == 0
    lines = grid.read_text().splitlines()
    assert lines[0] == "method,task,r,map"
    assert len(lines) == 3
    assert lines[1].startswith("full,i2t,8,")
    assert lines[2].startswith("full,t2i,8,")


class ClosedPipe:
    """A block-buffered stdout whose reader has gone away: writes are
    buffered, the flush fails."""

    def write(self, text):
        return len(text)

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


def test_eval_into_a_closed_pipe_fails_cleanly(data_dir, model_dir, tmp_path,
                                               monkeypatch, capsys):
    out = tmp_path / "eval.csv"
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["eval", "--model", str(model_dir / "i2t.model"),
                 "--data", str(data_dir), "--out", str(out)])
    monkeypatch.undo()
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: [Errno 32] Broken pipe"]
    assert out.is_file()


def test_eval_rejects_bad_ks_at_parse_time(data_dir, model_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--model", str(model_dir / "i2t.model"),
              "--data", str(data_dir), "--out", str(tmp_path / "e.csv"),
              "--ks", "20,10"])
    assert exc.value.code == 2


def test_eval_mismatched_model_and_data_fails_cleanly(model_dir, tmp_path, capsys):
    other = tmp_path / "other"
    assert main(["synth", "--out", str(other), "--n", "30", "--dx", "5",
                 "--dy", "6", "--c", "2", "--seed", "1"]) == 0
    code = main(["eval", "--model", str(model_dir / "i2t.model"),
                 "--data", str(other), "--out", str(tmp_path / "e.csv")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_eval_with_a_split_id_beyond_int64_fails_cleanly(data_dir, model_dir, tmp_path,
                                                          capsys):
    ids = data_dir / SPLIT_FILES[0]
    ids.write_text("9223372036854775808\n" + ids.read_text())
    code = main(["eval", "--model", str(model_dir / "i2t.model"),
                 "--data", str(data_dir), "--out", str(tmp_path / "e.csv")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {ids}:1: index does not fit in 64 bits: '9223372036854775808'"]


@pytest.mark.parametrize("command", ["encode", "eval", "retrieve"])
def test_model_on_a_split_with_another_train_size_fails_cleanly(
        command, model_dir, tmp_path, capsys):
    # the model's code block covers 40 train items; a split with more (which
    # used to index past the code block) or fewer must be refused the same way
    model = str(model_dir / "i2t.model")
    for n_train in (30, 50):
        other = tmp_path / f"train{n_train}"
        assert main(["synth", "--out", str(other), "--n", "60", "--dx", "8",
                     "--dy", "12", "--c", "3", "--seed", "7",
                     "--n-query", "10", "--n-train", str(n_train)]) == 0
        out = tmp_path / f"{command}{n_train}"
        extra = {
            "encode": ["--out-dir", str(out)],
            "eval": ["--out", str(out)],
            "retrieve": ["--k", "5", "--out", str(out)],
        }[command]
        capsys.readouterr()
        assert main([command, "--model", model, "--data", str(other), *extra]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert "trained on 40 items" in err[0]


# --- BLAS threads ----------------------------------------------------------------

# the README recipe's synth flags; at 32 bits a threaded OpenBLAS sums some
# of the trainer's products in another order
RECIPE_SYNTH = ["--n", "500", "--dx", "16", "--dy", "32", "--c", "4", "--noise", "0.2",
                "--seed", "0", "--n-query", "100", "--n-train", "400"]
RECIPE_TRAIN = ["--task", "both", "--bits", "32", "--epochs", "3", "--batch-size", "128",
                "--hidden", "64", "--lr-image", "1e-5", "--lr-text", "1e-5"]


def test_model_bytes_do_not_depend_on_blas_threads(tmp_path):
    runs = {
        "1 thread": ("1", "import sys; from xmhash.cli import main; sys.exit(main())"),
        "2 threads": ("2", "import sys; from xmhash.cli import main; sys.exit(main())"),
        # numpy loaded before xmhash, as a program that wraps the CLI loads it
        "2 threads, numpy first":
            ("2", "import numpy, sys; from xmhash.cli import main; sys.exit(main())"),
    }
    models = {}
    for name, (threads, program) in runs.items():
        data, out = tmp_path / name / "data", tmp_path / name / "models"
        for argv in (["synth", "--out", str(data), *RECIPE_SYNTH],
                     ["train", "--data", str(data), "--out", str(out), *RECIPE_TRAIN]):
            subprocess.run([sys.executable, "-c", program, *argv], env=child_env(threads),
                           check=True, capture_output=True)
        models[name] = [(out / f"{task}.model").read_bytes() for task in ("i2t", "t2i")]
    first = models.pop("1 thread")
    for name, found in models.items():
        assert found == first, f"{name} wrote other model bytes than 1 thread"


SCIPY_MODULES = "sorted(m for m in sys.modules if m.startswith('scipy'))"


@pytest.mark.parametrize("module", ["xmhash", "xmhash.cli"])
def test_importing_xmhash_loads_no_scipy(module):
    program = f"import sys, {module}; print({SCIPY_MODULES})"
    out = subprocess.run([sys.executable, "-c", program], env=child_env("1"), check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_synth_encode_eval_retrieve_load_no_scipy(tmp_path, model_dir):
    # the child writes the same dataset the model was trained on (synth is
    # deterministic), then queries it
    data, model = tmp_path / "child_data", str(model_dir / "i2t.model")
    program = f"""
import sys
from xmhash.cli import main
assert main({synth_argv(data)!r}) == 0
for argv in (["encode", "--out-dir", {str(tmp_path / "codes")!r}],
             ["eval", "--out", {str(tmp_path / "eval.csv")!r}],
             ["retrieve", "--k", "5", "--out", {str(tmp_path / "hits.csv")!r}]):
    assert main([*argv, "--model", {model!r}, "--data", {str(data)!r}]) == 0
print({SCIPY_MODULES})
"""
    out = subprocess.run([sys.executable, "-c", program], env=child_env("1"), check=True,
                         capture_output=True, text=True).stdout
    assert out.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "eval.csv").is_file() and (tmp_path / "hits.csv").is_file()


def test_train_and_gradcheck_load_no_scipy(tmp_path):
    data, models = tmp_path / "data", tmp_path / "models"
    program = f"""
import sys
from xmhash.cli import main
assert main({synth_argv(data)!r}) == 0
assert main({["train", "--data", str(data), "--out", str(models), "--task", "both",
              *TRAIN_FLAGS]!r}) == 0
assert main(["gradcheck", "--trials", "2"]) == 0
print({SCIPY_MODULES})
"""
    out = subprocess.run([sys.executable, "-c", program], env=child_env("1"), check=True,
                         capture_output=True, text=True).stdout
    assert out.strip().splitlines()[-1] == "[]"
    assert sorted(p.name for p in models.glob("*.model")) == ["i2t.model", "t2i.model"]


# --- gradcheck -------------------------------------------------------------------

def test_gradcheck_passes_and_is_deterministic(capsys):
    assert main(["gradcheck", "--trials", "3", "--seed", "0"]) == 0
    first = capsys.readouterr().out
    assert main(["gradcheck", "--trials", "3", "--seed", "0"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.strip().splitlines()[-1].startswith("PASS: 12 checks")


def test_gradcheck_tight_tol_exits_nonzero(capsys):
    assert main(["gradcheck", "--trials", "2", "--tol", "1e-16"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
def test_gradcheck_rejects_meaningless_tol(tol, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", "--trials", "1", "--tol", tol])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
