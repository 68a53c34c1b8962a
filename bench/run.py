"""xmhash benchmark: one client types the README walkthrough, closed loop.

Usage, from the repository root:
    python3 bench/run.py --workload recipe --seed 1 --seconds 40 --trace 0

Every step is a fresh interpreter that calls xmhash.cli.main with
PYTHONPATH=src (the package is not installed), and each step starts when
the previous one exits, so the load never uses more cores than one step's
BLAS threads:

    synth                       the set-up
    train --task both           \
    eval    i2t, then t2i        | the pipeline; eval and retrieve
    retrieve i2t, then t2i      /  form a query round (k = 100)

The seed only picks the synthetic dataset; the training seed stays at the
CLI default. BLAS thread variables are passed through as found and
recorded in the environment block.

--trace 0 runs synth and train once, then query rounds on the trained
models while another round fits in --seconds, as a user who keeps
querying would. Further synth runs are interleaved after train and after
each round's evals and retrieves, so that the set-up samples spread over
the run. It reports the end-to-end metrics of BENCHMARK.json: setup_s,
eval_s and retrieve_s are medians over their samples; pipeline_s, the
time from the start of train to the end of the last retrieve without
the interleaved synth runs, is train_s + eval_s + retrieve_s; epoch_s_p50
and epoch_s_p90 are Harrell-Davis estimates over every logged epoch of
both directions.

--trace 1 runs one untraced set-up and pipeline and the same steps
through bench/traced_cli.py, the first of the two alternating with the
seed's parity. It reports the per-layer metrics of BENCHMARK.json, the
share of the traced wall time that each traced step and each layer's
self time take, and the tracing overhead (traced wall time minus
untraced). That overhead is a single pair, so it is only resolved where
it exceeds run-to-run drift, some seconds on a shared 2-vCPU machine.
Both runs must write the same dataset and model bytes.

Every run checks the outputs and counts each failed step or check. The
last stdout line is {"correct", "attempted", "failed", "metrics"}; the
full record (environment, samples, model SHA-256, every check) is written
to .bench_out/<workload>-seed<seed>-trace<t>.json.
"""

import argparse
import csv
import hashlib
import json
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

from metrics import hd_quantile, layer_table, layer_values, median
from traced_cli import LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

COMMON = ["--dx", "16", "--dy", "32", "--c", "4", "--noise", "0.2"]
TRAIN_COMMON = ["--batch-size", "128", "--hidden", "64"]
TOP_K = 100
RUN_DEADLINE_S = 170.0  # every run must end within 180 s
TASKS = ("i2t", "t2i")
MAP_MARGIN = 0.25       # acceptance criterion 4: beat the random baseline by this

# "epochs" is per direction. Each workload logs at least 100 epochs over
# both directions, so that epoch_s_p90 has ten samples beyond it. Why each
# workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "recipe": {"n": 500, "n_query": 100, "n_train": 400, "bits": 16, "lr": "1e-5",
               "epochs": 100},
    "scale1600": {"n": 2000, "n_query": 400, "n_train": 1600, "bits": 16, "lr": "1e-6",
                  "epochs": 50},
    "retrieval50k": {"n": 50000, "n_query": 1000, "n_train": 400, "bits": 64, "lr": "1e-5",
                     "epochs": 50},
}

CLI_MAIN = "import sys; from xmhash.cli import main; sys.exit(main())"

ENV_PROBE = r'''
import ctypes, json, os, platform
import numpy, scipy, scipy.linalg
libs = []
with open("/proc/self/maps") as fh:
    paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
for path in paths:
    entry = {"lib": os.path.basename(path)}
    lib = ctypes.CDLL(path)
    for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                           ("openblas", "64_"), ("openblas", "")):
        threads = getattr(lib, prefix + "_get_num_threads" + suffix, None)
        config = getattr(lib, prefix + "_get_config" + suffix, None)
        if threads is not None and config is not None:
            threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
            entry["config"] = config().decode()
            entry["threads"] = threads()
            break
    libs.append(entry)
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "numpy_blas": blas.get("name", "") + " " + blas.get("version", ""),
    "openblas": libs,
}))
'''


class Step(NamedTuple):
    """One finished child process."""

    label: str
    rc: int
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


class Runner:
    """Spawns steps one at a time, times them, and never leaves one running."""

    def __init__(self, work: Path, env: dict, deadline: float):
        self.work, self.env, self.deadline = work, env, deadline

    def run(self, label: str, argv: list) -> Step:
        out, err = self.work / f"{label}.out", self.work / f"{label}.err"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return Step(label, -1, 0.0, 0.0, "", "not started: run deadline passed")
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
        tic = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env,
                             file_actions=actions)
        reaped = False
        try:
            pidfd = os.pidfd_open(pid)
            try:
                finished, _, _ = select.select([pidfd], [], [], timeout)
            finally:
                os.close(pidfd)
            if not finished:
                os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
            reaped = True
        finally:
            if not reaped:
                os.kill(pid, signal.SIGKILL)
                os.wait4(pid, 0)
        wall = time.perf_counter() - tic
        rc = os.waitstatus_to_exitcode(status) if finished else -1
        stderr = err.read_text() if finished else "killed: run deadline passed"
        return Step(label, rc, wall, usage.ru_maxrss / 1024.0, out.read_text(), stderr)

    def cli(self, label: str, args: list, spans: Path | None = None) -> Step:
        if spans is None:
            return self.run(label, ["-c", CLI_MAIN, *args])
        return self.run(label, [str(BENCH_DIR / "traced_cli.py"), str(spans), *args])


class Checks:
    """Named pass/fail output checks; each counts as one attempted operation."""

    def __init__(self):
        self.items = []

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.items.append({"name": name, "ok": bool(ok), "detail": detail})
        return ok

    @property
    def failed(self) -> int:
        return sum(not c["ok"] for c in self.items)


def synth_args(w: dict, seed: int, out: Path) -> list:
    return ["synth", "--out", str(out), "--n", str(w["n"]), *COMMON, "--seed", str(seed),
            "--n-query", str(w["n_query"]), "--n-train", str(w["n_train"])]


def train_args(w: dict, data: Path, models: Path) -> list:
    return ["train", "--data", str(data), "--out", str(models), "--task", "both",
            "--bits", str(w["bits"]), "--epochs", str(w["epochs"]),
            "--lr-image", w["lr"], "--lr-text", w["lr"], *TRAIN_COMMON]


def run_steps(runner: Runner, tag: str, steps: list, traced: bool) -> dict:
    """Run (label, args) steps back to back; returns them with the wall time."""
    done, spans = {}, []
    tic = time.perf_counter()
    for label, args in steps:
        span_path = runner.work / f"{tag}-{label}.spans.json" if traced else None
        done[label] = runner.cli(f"{tag}-{label}", args, span_path)
        spans.append(span_path)
    return {"tag": tag, "steps": done, "wall_s": time.perf_counter() - tic, "spans": spans}


def query_steps(work: Path, tag: str, models: Path, data: Path) -> list:
    """eval for each direction, then retrieve for each direction."""
    steps = []
    for task in TASKS:
        steps.append((f"eval_{task}", ["eval", "--model", str(models / f"{task}.model"),
                                       "--data", str(data),
                                       "--out", str(work / f"{tag}-{task}_eval.csv")]))
    for task in TASKS:
        steps.append((f"retrieve_{task}", ["retrieve", "--model", str(models / f"{task}.model"),
                                           "--data", str(data), "--k", str(TOP_K),
                                           "--out", str(work / f"{tag}-{task}_hits.csv")]))
    return steps


def run_pipeline(runner: Runner, tag: str, data: Path, w: dict, traced: bool) -> dict:
    """train --task both, then one query round, on one dataset."""
    models = runner.work / f"models-{tag}"
    steps = [("train", train_args(w, data, models)),
             *query_steps(runner.work, tag, models, data)]
    return {**run_steps(runner, tag, steps, traced), "models": models}


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else "absent"


def tree_digest(path: Path) -> str:
    """SHA-256 over the names and bytes of every file in a directory."""
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def read_ids(path: Path) -> list:
    return [int(line) for line in path.read_text().split()]


def mean_relevant_fraction(data: Path) -> float:
    """Mean over queries of the share of database items sharing a label.

    This is the mAP of a random ranking, the baseline of acceptance
    criterion 4. Items are grouped by label pattern, so the cost is
    linear in n.
    """
    manifest = json.loads((data / "manifest.json").read_text())
    n, c = manifest["n"], manifest["c"]
    blob = (data / manifest["label_blob"]).read_bytes()
    masks = [0] * n
    for k in range(c):
        row = blob[k * n:(k + 1) * n]
        for i in range(n):
            if row[i]:
                masks[i] |= 1 << k
    db = Counter(masks[i] for i in read_ids(data / "retrieval.ids"))
    n_db = sum(db.values())
    queries = read_ids(data / "query.ids")
    hits = {m: sum(cnt for p, cnt in db.items() if p & m) / n_db for m in set(masks)}
    return sum(hits[masks[q]] for q in queries) / len(queries)


def retrieve_order_error(path: Path, query_ids: list, k: int, bits: int) -> str:
    """'' when the hits file lists k rows per query, ranked 1..k, in strictly
    increasing (distance, db_id) order; otherwise the first problem."""
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "query_id,rank,db_id,distance":
        return "bad header"
    if len(lines) - 1 != len(query_ids) * k:
        return f"{len(lines) - 1} rows, expected {len(query_ids) * k}"
    for qi, qid in enumerate(query_ids):
        prev = None
        for rank in range(1, k + 1):
            q, rk, db, dist = map(int, lines[qi * k + rank].split(","))
            if q != qid or rk != rank or not 0 <= dist <= bits:
                return f"row {qi * k + rank}: query {q} rank {rk} distance {dist}"
            if prev is not None and (dist, db) <= prev:
                return f"query {qid} rank {rank}: ({dist}, {db}) not after {prev}"
            prev = (dist, db)
    return ""


def epoch_seconds(log: Path) -> list:
    """The train log's seconds column, found by its header name."""
    with log.open(newline="") as fh:
        return [float(row["seconds"]) for row in csv.DictReader(fh)]


def check_exits(checks: Checks, run: dict) -> None:
    for label, step in run["steps"].items():
        last = step.stderr.strip().splitlines()[-1:] if step.rc else []
        checks.add(f"{run['tag']}: {label} exits 0", step.rc == 0, "".join(last))


def check_training(checks: Checks, pipe: dict, w: dict) -> dict:
    """Train log shape and model digests; returns epoch times and digests."""
    epochs, digests = [], {}
    for task in TASKS:
        try:
            secs = epoch_seconds(pipe["models"] / f"{task}_train_log.csv")
            detail = f"{len(secs)} rows"
        except (OSError, KeyError, ValueError) as exc:
            secs, detail = [], f"{type(exc).__name__}: {exc}"
        if checks.add(f"{pipe['tag']}: {task} train log has {w['epochs']} epochs of seconds",
                      len(secs) == w["epochs"], detail):
            epochs.extend(secs)
        digests[task] = file_digest(pipe["models"] / f"{task}.model")
    return {"epoch_s": epochs, "model_sha256": digests}


def check_queries(checks: Checks, run: dict, work: Path, data: Path, w: dict,
                  baseline: float) -> dict:
    """mAP consistency and baseline, retrieve order; returns mAPs and the
    digest of every file the round wrote."""
    tag, steps = run["tag"], run["steps"]
    query_ids = read_ids(data / "query.ids")
    maps, outputs = {}, {}
    for task in TASKS:
        report, hits = work / f"{tag}-{task}_eval.csv", work / f"{tag}-{task}_hits.csv"
        outputs[task] = [file_digest(report), file_digest(hits)]
        printed = re.search(r"\bmap=(\S+)", steps[f"eval_{task}"].stdout)
        header = report.read_text().split("\n", 1)[0] if report.is_file() else ""
        stored = re.search(r"\bmap=([^,]+)", header)
        value = float(printed.group(1)) if printed else None
        checks.add(f"{tag}: {task} eval CSV mAP equals printed mAP",
                   printed is not None and stored is not None
                   and float(stored.group(1)) == value,
                   f"printed {printed and printed.group(1)}, csv {stored and stored.group(1)}")
        checks.add(f"{tag}: {task} mAP beats random baseline by {MAP_MARGIN}",
                   value is not None and value >= baseline + MAP_MARGIN,
                   f"map {value}, baseline {baseline:.4f}")
        if value is not None:
            maps[task] = value
        problem = (retrieve_order_error(hits, query_ids, TOP_K, w["bits"])
                   if hits.is_file() else "missing")
        checks.add(f"{tag}: {task} retrieve rows sorted by (distance, id)", not problem, problem)
    return {"map": maps, "outputs": outputs}


def probe_environment(env: dict) -> dict:
    """Versions and BLAS threads as a step sees them, plus the inherited
    thread variables. Runs in a child with the steps' environment."""
    out = subprocess.run([sys.executable, "-c", ENV_PROBE], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    info = json.loads(out.strip().splitlines()[-1])
    info["nproc"] = len(os.sched_getaffinity(0))
    info["cpu_count"] = os.cpu_count()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        info[var] = os.environ.get(var)
    threads = {lib.get("threads") for lib in info["openblas"]}
    info["blas_threads"] = threads.pop() if len(threads) == 1 else sorted(threads, key=str)
    return info


class Setups:
    """Runs of xmhash synth, the set-up, each into its own directory."""

    def __init__(self, runner: Runner, w: dict, seed: int, checks: Checks):
        self.runner, self.w, self.seed, self.checks = runner, w, seed, checks
        self.steps, self.dirs = [], []

    def run(self, tag: str, spans: Path | None = None) -> Step:
        out = self.runner.work / f"data-{tag}"
        step = self.runner.cli(f"synth-{tag}", synth_args(self.w, self.seed, out), spans)
        self.checks.add(f"{step.label} exits 0", step.rc == 0, step.stderr.strip()[-200:])
        self.steps.append(step)
        self.dirs.append(out)
        return step

    def check_identical(self) -> None:
        digests = {tree_digest(d) if d.is_dir() else "absent" for d in self.dirs}
        self.checks.add("every synth writes identical dataset bytes", len(digests) == 1)


def measure(runner: Runner, w: dict, seed: int, seconds: int, checks: Checks) -> tuple:
    """Untraced run: synth, train, then query rounds (eval x2, retrieve x2
    on the same models) while another round fits in `seconds`.

    Set-up time drifts with the machine over tens of seconds, and runs of
    synth back to back read alike, so further synth runs are spread over
    the whole run: one after train, one after each round's evals and one
    after its retrieves. setup_s is their median.
    """
    tic = time.perf_counter()
    setups = Setups(runner, w, seed, checks)
    record = {"baseline_map": None, "setup_s_samples": [], "epoch_samples": 0,
              "model_sha256": {}, "rounds": []}
    if setups.run("0").rc != 0:
        record["setup_s_samples"] = [setups.steps[0].wall_s]
        return {"setup_s": setups.steps[0].wall_s}, record
    data = setups.dirs[0]
    baseline = mean_relevant_fraction(data)

    models = runner.work / "models"
    train = {"tag": "p0", "steps": {"train": runner.cli("p0-train", train_args(w, data, models))},
             "models": models}
    check_exits(checks, train)
    trained = check_training(checks, train, w)
    setups.run("1")
    rounds, answers = [], []
    while True:
        tag = f"q{len(rounds)}"
        round_tic = time.perf_counter()
        steps = {}
        for label, args in query_steps(runner.work, tag, models, data):
            steps[label] = runner.cli(f"{tag}-{label}", args)
            if label.endswith(TASKS[-1]):
                setups.run(str(len(setups.steps)))
        rnd = {"tag": tag, "steps": steps}
        check_exits(checks, rnd)
        rounds.append(rnd)
        answers.append(check_queries(checks, rnd, runner.work, data, w, baseline))
        last = time.perf_counter() - round_tic
        if (checks.failed or time.perf_counter() - tic + last > seconds
                or time.monotonic() + last > runner.deadline):
            break
    setups.check_identical()
    if len(rounds) > 1:
        checks.add("every query round writes identical eval and retrieve files",
                   all(a["outputs"] == answers[0]["outputs"] for a in answers))

    evals = [f"eval_{t}" for t in TASKS]
    retrieves = [f"retrieve_{t}" for t in TASKS]

    def walls(*labels):
        return [sum(r["steps"][lb].wall_s for lb in labels) for r in rounds]

    train_s = train["steps"]["train"].wall_s
    eval_s, retrieve_s = median(walls(*evals)), median(walls(*retrieves))
    values = {
        "setup_s": median([s.wall_s for s in setups.steps]),
        "pipeline_s": train_s + eval_s + retrieve_s,
        "train_s": train_s,
        "eval_s": eval_s,
        "retrieve_s": retrieve_s,
        "train_peak_rss_mb": train["steps"]["train"].maxrss_mb,
        "eval_peak_rss_mb": median([max(r["steps"][lb].maxrss_mb for lb in evals + retrieves)
                                    for r in rounds]),
    }
    if trained["epoch_s"]:
        values["epoch_s_p50"] = hd_quantile(trained["epoch_s"], 0.5)
        values["epoch_s_p90"] = hd_quantile(trained["epoch_s"], 0.9)
    for task, value in answers[0]["map"].items():
        values[f"map_{task}"] = value
    record.update({
        "baseline_map": baseline,
        "setup_s_samples": [s.wall_s for s in setups.steps],
        "epoch_samples": len(trained["epoch_s"]),
        "model_sha256": trained["model_sha256"],
        "rounds": [{"tag": r["tag"],
                    "steps": {lb: {"wall_s": st.wall_s, "maxrss_mb": st.maxrss_mb, "rc": st.rc}
                              for lb, st in r["steps"].items()}}
                   for r in rounds],
    })
    return values, record


def trace(runner: Runner, w: dict, seed: int, checks: Checks) -> tuple:
    """One untraced and one traced set-up + pipeline; per-layer metrics.

    Which side runs first alternates with the seed's parity, so that the
    machine's drift does not always count against the same side.
    """
    setups = Setups(runner, w, seed, checks)
    sides = ["u", "t"] if seed % 2 == 0 else ["t", "u"]
    runs, span_paths = {}, []
    for tag in sides:
        traced = tag == "t"
        span_synth = runner.work / "synth-t.spans.json" if traced else None
        setup = setups.run(tag, span_synth)
        if setup.rc != 0:
            break
        pipe = run_pipeline(runner, tag, setups.dirs[-1], w, traced)
        runs[tag] = {"setup": setup, "pipe": pipe, "data": setups.dirs[-1]}
        if traced:
            span_paths = [span_synth, *pipe["spans"]]
    record = {"order": sides, "missing_targets": [], "missing_layers": [],
              "layers": {}, "shares": {}, "step_shares": {}}
    if len(runs) < 2:
        return {}, record
    setups.check_identical()

    baseline = mean_relevant_fraction(runs["u"]["data"])
    outcomes = {}
    for tag in ("u", "t"):
        pipe = runs[tag]["pipe"]
        check_exits(checks, pipe)
        outcomes[tag] = {**check_training(checks, pipe, w),
                         **check_queries(checks, pipe, runner.work, runs[tag]["data"], w,
                                         baseline)}
    checks.add("traced run writes the untraced model bytes",
               outcomes["u"]["model_sha256"] == outcomes["t"]["model_sha256"],
               json.dumps(outcomes["t"]["model_sha256"]))

    traces, missing = [], set()
    for path in span_paths:
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            checks.add(f"span file {path.name} readable", False, str(exc))
            continue
        traces.append(payload["spans"])
        missing.update(payload["missing"])
    table = layer_table(traces)
    raised = {name: row["errors"] for name, row in table.items() if row["errors"]}
    checks.add("no traced span raised", not raised, json.dumps(raised))

    values = layer_values(table, LAYERS, w["n_train"], w["epochs"])
    wall = {tag: runs[tag]["setup"].wall_s + runs[tag]["pipe"]["wall_s"] for tag in runs}
    values["trace.overhead_s"] = wall["t"] - wall["u"]
    record.update({
        "baseline_map": baseline,
        "untraced_wall_s": wall["u"],
        "traced_wall_s": wall["t"],
        "missing_targets": sorted(missing),
        "missing_layers": sorted(name for name, (targets, _) in LAYERS.items()
                                 if all(t in missing for t in targets)),
        "layers": table,
        "shares": {name: row["self_s"] / wall["t"] for name, row in table.items()},
        "step_shares": {label: st.wall_s / wall["t"] for label, st in
                        [("synth", runs["t"]["setup"]), *runs["t"]["pipe"]["steps"].items()]},
        "model_sha256": outcomes["t"]["model_sha256"],
        "map": outcomes["t"]["map"],
    })
    return values, record


def declared_metrics(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not (SRC / "xmhash" / "cli.py").is_file():
        print(f"error: no xmhash sources under {SRC}", file=sys.stderr)
        return 2
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    w = WORKLOADS[args.workload]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    environment = probe_environment(env)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT_DIR / f"work-{stem}-{os.getpid()}"
    work.mkdir(parents=True)
    runner = Runner(work, env, deadline)
    checks = Checks()
    try:
        if args.trace:
            values, record = trace(runner, w, args.seed, checks)
        else:
            values, record = measure(runner, w, args.seed, args.seconds, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = len(checks.items), checks.failed
    values["ops_failed_frac"] = failed / attempted
    missing_layers = record.get("missing_layers", [])
    absent = {name for name in declared if name not in values
              or name.rsplit(".", 1)[0] in missing_layers}
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "params": w, "environment": environment,
        "metrics": values, "checks": checks.items, **record,
    }
    results_path = OUT_DIR / f"{stem}.json"
    results_path.write_text(json.dumps(result, indent=1) + "\n")

    print(f"xmhash benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds}")
    print("environment: " + json.dumps(environment))
    if args.trace:
        if "traced_wall_s" in record:
            print(f"traced wall {fmt(record['traced_wall_s'])} s, untraced wall "
                  f"{fmt(record['untraced_wall_s'])} s, run first: {record['order'][0]}")
        for target in record["missing_targets"]:
            print(f"missing target: {target}")
        print("each traced step's wall time as a share of the traced wall time:")
        for label, share in record["step_shares"].items():
            print(f"  {label:44} {share:>8.1%}")
        print("self time as a share of the traced wall time (1% or more):")
        for name, share in sorted(record["shares"].items(), key=lambda kv: -kv[1]):
            if share >= 0.01:
                print(f"  {name:44} {share:>8.1%}")
    else:
        print(f"set-up: {len(record['setup_s_samples'])} synth runs; "
              f"query rounds: {len(record['rounds'])}; "
              f"epoch samples: {record['epoch_samples']}")
        for task in TASKS:
            print(f"model sha256 {task}: {record['model_sha256'].get(task, 'absent')}")
    for name, unit in declared.items():
        print(f"  {name:44} {fmt(values.get(name, 0.0)):>14} {unit}"
              + ("  MISSING" if name in absent else ""))
    print(f"  {'ops_failed_frac':44} {fmt(values['ops_failed_frac']):>14} "
          f"({failed} of {attempted} steps and checks failed)")
    for c in checks.items:
        if not c["ok"]:
            print(f"FAIL {c['name']}: {c['detail']}")
    print(f"full record: {results_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
