"""Command-line pipeline: synth / train / encode / retrieve / eval / gradcheck.

Exit codes: 0 success, 1 runtime failure (bad data, numerical breakdown,
unreadable files, outputs that cannot be written, a closed stdout pipe),
2 usage errors (argparse rejects the flags before any work starts). All
flag validation happens at parse time.
"""

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import data as D
from . import evaluation as E
from . import hamming as H
from .errors import ContractError, LoadError, NumericalError
from .fork import Forked
from .gradcheck import run_suite
from .objective import TASKS, HyperParams
from .training import (
    LR_MAX, LR_MIN, TrainConfig, VARIANTS, load_model, save_model, train_task,
)

# preset objective weights (quant_image, quant_text, label_weight,
# balance_weight) per direction, tuned on the three standard benchmarks
PRESETS = {
    "mirflickr": {"i2t": (0.1, 0.01, 1e-4, 0.1), "t2i": (0.1, 0.01, 1e-4, 0.1)},
    "nuswide": {"i2t": (0.1, 1.0, 1.0, 0.1), "t2i": (0.1, 1.0, 1.0, 0.1)},
    "iaprtc12": {"i2t": (1.0, 1e-5, 0.1, 0.1), "t2i": (1.0, 10.0, 0.1, 1e-5)},
}
DEFAULT_PRESET = "mirflickr"


def _int_at_least(low: int):
    def parse(s: str) -> int:
        try:
            v = int(s)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {s!r}")
        if v < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {v}")
        return v
    return parse


_positive_int = _int_at_least(1)
_seed = _int_at_least(0)  # numpy's generators reject a negative seed


def _finite_float(strict: bool):
    def parse(s: str) -> float:
        try:
            v = float(s)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {s!r}")
        if not (np.isfinite(v) and (v > 0 if strict else v >= 0)):
            raise argparse.ArgumentTypeError(
                f"must be finite and {'>' if strict else '>='} 0, got {s}")
        return v
    return parse


_nonneg_float = _finite_float(strict=False)
_positive_float = _finite_float(strict=True)


def _lr(s: str) -> float:
    try:
        v = float(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {s!r}")
    if not (LR_MIN <= v <= LR_MAX):
        raise argparse.ArgumentTypeError(
            f"learning rate must lie in [{LR_MIN:g}, {LR_MAX:g}], got {s}"
        )
    return v


def _hp_quad(s: str) -> tuple:
    parts = s.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"expected 4 comma-separated weights, got {len(parts)}: {s!r}"
        )
    return tuple(_nonneg_float(p) for p in parts)


def _ks(s: str) -> tuple:
    try:
        ks = tuple(int(p) for p in s.split(",") if p.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {s!r}")
    if any(k < 1 for k in ks) or any(b <= a for a, b in zip(ks, ks[1:])):
        raise argparse.ArgumentTypeError(
            f"cutoffs must be positive and strictly increasing: {s!r}"
        )
    return ks


def _load_data(data_dir: str):
    ds = D.load_dataset(Path(data_dir) / D.MANIFEST_NAME)
    split = D.load_split(data_dir, ds.n)
    return ds, split


def cmd_synth(args) -> int:
    n_query = args.n_query if args.n_query is not None else max(1, args.n // 10)
    n_train = args.n_train if args.n_train is not None else args.n - n_query
    ds = D.synth(args.n, args.dx, args.dy, args.c, noise=args.noise,
                 seed=args.seed, name=args.name)
    split = D.make_split(ds.n, n_query, n_train, seed=args.seed + 1)
    manifest = D.save_dataset(ds, args.out)
    D.save_split(split, args.out)
    print(f"wrote {manifest}")
    print(f"split: {len(split.query_ids)} query / {len(split.retrieval_ids)} retrieval "
          f"/ {len(split.train_ids)} train")
    return 0


def _resolve_hp(args, task: str) -> HyperParams:
    override = getattr(args, f"hp_{task}")
    quad = PRESETS[args.preset][task] if override is None else override
    return HyperParams(*quad, task=task)


def _write_train_log(model, path: Path) -> None:
    lines = ["epoch,objective,seconds"]
    for row in model.train_log:
        lines.append(f"{row.epoch},{row.objective!r},{row.seconds!r}")
    path.write_text("\n".join(lines) + "\n")


def cmd_train(args) -> int:
    ds, split = _load_data(args.data)
    cfg = TrainConfig(
        bits=args.bits, epochs=args.epochs, batch_size=args.batch_size,
        lr_image=args.lr_image, lr_text=args.lr_text, variant=args.variant,
        seed=args.seed, hidden_dim=args.hidden,
        early_stop=args.early_stop,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tasks = TASKS if args.task == "both" else (args.task,)
    # The directions share no state, so every direction after the first
    # trains in a forked child, on another core, while this process trains
    # the first. Each is saved as it arrives, so files and lines follow the
    # task order, and a direction that fails leaves the earlier ones saved.
    children = [Forked(f"training {task}", train_task, ds, split, cfg,
                        _resolve_hp(args, task)) for task in tasks[1:]]
    try:
        for task, child in zip(tasks, [None, *children]):
            model = (child.result() if child else
                     train_task(ds, split, cfg, _resolve_hp(args, task)))
            model_path = save_model(model, out / f"{task}.model")
            _write_train_log(model, out / f"{task}_train_log.csv")
            final = model.train_log[-1].objective
            print(f"trained {task}: r={model.r} variant={model.variant} "
                  f"epochs={len(model.train_log)} final_objective={final!r}")
            print(f"wrote {model_path}")
    finally:
        for child in children:
            child.close()
    return 0


def cmd_encode(args) -> int:
    model = load_model(args.model)
    ds, split = _load_data(args.data)
    out = Path(args.out_dir)
    index = H.encode_database(model, ds, split, reencode_train=args.reencode_train)
    queries = H.encode_queries(model, ds, split)
    db_path = H.write_codes(index.codes, out / args.db_name)
    q_path = H.write_codes(queries, out / args.queries_name)
    print(f"wrote {db_path} ({index.codes.n} codes, r={index.codes.r})")
    print(f"wrote {q_path} ({queries.n} codes, r={queries.r})")
    return 0


def cmd_retrieve(args) -> int:
    model = load_model(args.model)
    ds, split = _load_data(args.data)
    H.check_k(args.k, len(split.retrieval_ids))  # before the database is encoded
    index = H.encode_database(model, ds, split, reencode_train=args.reencode_train)
    queries = H.encode_queries(model, ds, split)
    blocks = H.retrieve(index, queries, split.query_ids, args.k)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(["query_id,rank,db_id,distance", *blocks]) + "\n")
    print(f"wrote {out} ({len(split.query_ids)} queries, top {args.k})")
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.model)
    ds, split = _load_data(args.data)
    index = H.encode_database(model, ds, split, reencode_train=args.reencode_train)
    queries = H.encode_queries(model, ds, split)
    n_db = len(split.retrieval_ids)
    ks = args.ks
    if ks is None:
        ks = tuple(k for k in range(100, 1001, 100) if k <= n_db)
    report = E.evaluate(index, queries, ds.labels[:, split.query_ids],
                        ks=ks, task=model.task)
    path = E.emit_csv(report, args.out)
    print(f"task={report.task} r={report.r} map={report.map!r}")
    print(f"wrote {path}")
    if args.map_grid:
        grid = Path(args.map_grid)
        row = f"{args.method},{report.task},{report.r},{report.map!r}\n"
        if grid.is_file():
            with grid.open("a") as fh:
                fh.write(row)
        else:
            grid.parent.mkdir(parents=True, exist_ok=True)
            grid.write_text("method,task,r,map\n" + row)
        print(f"appended {grid}")
    return 0


def cmd_gradcheck(args) -> int:
    report = run_suite(trials=args.trials, seed=args.seed, tol=args.tol)
    for line in report.lines():
        print(line)
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="xmhash",
        description="Direction-specific cross-modal hashing pipeline",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic dataset + split")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--n", type=_positive_int, required=True)
    sp.add_argument("--dx", type=_positive_int, required=True,
                    help="image feature dimension")
    sp.add_argument("--dy", type=_positive_int, required=True,
                    help="text feature dimension")
    sp.add_argument("--c", type=_positive_int, required=True, help="label count")
    sp.add_argument("--noise", type=_nonneg_float, default=0.1)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--name", default="synth")
    sp.add_argument("--n-query", type=_positive_int, default=None,
                    help="query set size (default n/10)")
    sp.add_argument("--n-train", type=_positive_int, default=None,
                    help="train set size (default all retrieval items)")
    sp.set_defaults(func=cmd_synth)

    tp = sub.add_parser("train", help="train one or both retrieval directions")
    tp.add_argument("--data", required=True, help="dataset directory")
    tp.add_argument("--out", required=True, help="output directory for models/logs")
    tp.add_argument("--task", choices=(*TASKS, "both"), default="both")
    tp.add_argument("--variant", choices=VARIANTS, default="full")
    tp.add_argument("--bits", type=_positive_int, default=16, help="code length")
    tp.add_argument("--epochs", type=_positive_int, default=500)
    tp.add_argument("--batch-size", type=_positive_int, default=128)
    tp.add_argument("--lr-image", type=_lr, default=1e-2)
    tp.add_argument("--lr-text", type=_lr, default=1e-2)
    tp.add_argument("--seed", type=_seed, default=0)
    tp.add_argument("--hidden", type=_positive_int, default=512,
                    help="encoder hidden width")
    tp.add_argument("--preset", choices=sorted(PRESETS), default=DEFAULT_PRESET,
                    help="benchmark-tuned objective weights")
    tp.add_argument("--hp-i2t", type=_hp_quad, default=None,
                    metavar="QI,QT,LW,BW", help="override the i2t preset weights")
    tp.add_argument("--hp-t2i", type=_hp_quad, default=None,
                    metavar="QI,QT,LW,BW", help="override the t2i preset weights")
    tp.add_argument("--early-stop", action="store_true",
                    help="stop when the objective plateaus")
    tp.set_defaults(func=cmd_train)

    ep = sub.add_parser("encode", help="hash the query and database sets")
    ep.add_argument("--model", required=True)
    ep.add_argument("--data", required=True)
    ep.add_argument("--out-dir", required=True)
    ep.add_argument("--db-name", default="db.codes")
    ep.add_argument("--queries-name", default="query.codes")
    ep.add_argument("--reencode-train", action="store_true",
                    help="hash train items with the encoder instead of reusing learned codes")
    ep.set_defaults(func=cmd_encode)

    rp = sub.add_parser("retrieve", help="top-k Hamming neighbors per query")
    rp.add_argument("--model", required=True)
    rp.add_argument("--data", required=True)
    rp.add_argument("--k", type=_positive_int, required=True)
    rp.add_argument("--out", required=True, help="output CSV path")
    rp.add_argument("--reencode-train", action="store_true")
    rp.set_defaults(func=cmd_retrieve)

    vp = sub.add_parser("eval", help="mAP and precision@k report")
    vp.add_argument("--model", required=True)
    vp.add_argument("--data", required=True)
    vp.add_argument("--out", required=True, help="report CSV path")
    vp.add_argument("--ks", type=_ks, default=None,
                    help="comma-separated precision cutoffs "
                         "(default: 100..1000 step 100, clipped to database size)")
    vp.add_argument("--map-grid", default=None,
                    help="append a method,task,r,map row to this CSV")
    vp.add_argument("--method", default="full",
                    help="method label for the map grid row")
    vp.add_argument("--reencode-train", action="store_true")
    vp.set_defaults(func=cmd_eval)

    gp = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    gp.add_argument("--trials", type=_positive_int, default=50)
    gp.add_argument("--seed", type=_seed, default=0)
    gp.add_argument("--tol", type=_positive_float, default=1e-4)
    gp.set_defaults(func=cmd_gradcheck)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except (ContractError, NumericalError, LoadError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            _drop_stdout()
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _drop_stdout() -> None:
    """Point stdout at the null device, so the flush at exit cannot fail
    on a reader that has gone away."""
    try:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except (OSError, ValueError, AttributeError):
        pass


if __name__ == "__main__":
    sys.exit(main())
