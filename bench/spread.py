"""End-to-end metrics of several workloads and seeds, with their spread.

Usage, from the repository root:
    python3 bench/spread.py --workloads all --seeds 1-10 [--seconds 40]

Runs bench/run.py once per workload and seed (untraced) and prints, for
each workload and metric, the median with its unit and the distance
between the first and third quartile as a share of the median, next to
the metric's bound from BENCHMARK.json. The benchmark counts as steady
when every spread, setup_s's included, is below a third of its bound.
Runs whose output checks fail are reported with their failure count.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from metrics import median, quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workloads", default="all",
                   help="comma-separated workload names, or all")
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args(argv)
    names = ([w["name"] for w in spec["workloads"]] if args.workloads == "all"
             else args.workloads.split(","))
    failures = 0
    for workload in names:
        samples = {}
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            ).stdout
            result = json.loads(out.strip().splitlines()[-1])
            failures += result["failed"]
            for name, m in result["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} "
                  "checks failed; " + " ".join(f"{k}={m['value']:.4g}"
                                               for k, m in result["metrics"].items()),
                  flush=True)
        print(f"{workload:14} {'metric':20} {'median':>12} {'unit':6} {'spread':>8} {'bound':>6}")
        for m in spec["end_to_end"]:
            vals = samples[m["name"]]
            spread = quartile_spread(vals) if len(vals) > 1 else 0.0
            flag = "" if spread < m["bound"] / 3 else "  above bound/3"
            print(f"{workload:14} {m['name']:20} {median(vals):>12.6g} {m['unit']:6} "
                  f"{spread:>8.4f} {m['bound']:>6}{flag}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
