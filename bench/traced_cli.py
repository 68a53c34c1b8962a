"""Run one xmhash CLI command with timing wrappers around its layers.

Usage:
    PYTHONPATH=src python3 bench/traced_cli.py SPANS.json synth --out ... ...

Everything after SPANS.json is handed to xmhash.cli.main unchanged. Each
wrapper is installed under the name its caller looks up: training.py
imports image_feature_grad into its own namespace, so the wrapper goes on
xmhash.training.image_feature_grad, not on xmhash.objective. Spans stay
in memory and are written to SPANS.json once the command returns, as
{"spans": [[name, start, end, parent, error, counts], ...],
 "missing": [target, ...]}.

A target that does not exist at the commit under test (a function merged
or renamed by a refactor) is listed under "missing" instead of failing
the run. Counts come from argument shapes only; a counter that cannot
read its arguments records None instead of raising into the program.
"""

import functools
import importlib
import json
import sys
import time

import numpy as np


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def count_feature_grad(args, kwargs, result, tracer):
    """Pairs one feature-gradient call touches: batch size x train size."""
    state = _arg(args, kwargs, 0, "state")
    batch = _arg(args, kwargs, 3, "batch")
    return {"pairs": np.size(batch) * state.image_feats.shape[1]}


def count_pairwise_nll(args, kwargs, result, tracer):
    """Pairs in the full likelihood sum: train size squared."""
    n = _arg(args, kwargs, 0, "img_feats").shape[1]
    return {"pairs": n * n}


def count_sim_block(args, kwargs, result, tracer):
    """Similarity entries one block call builds (self is args[0])."""
    sim = args[0]
    rows = _arg(args, kwargs, 1, "rows")
    cols = _arg(args, kwargs, 2, "cols")
    return {"entries": np.size(rows) * (sim.n if cols is None else np.size(cols))}


def count_distances(args, kwargs, result, tracer):
    """Database rows one distance scan compares against."""
    return {"rows": _arg(args, kwargs, 0, "packed_db").shape[0]}


def count_code_flips(args, kwargs, result, tracer):
    """Bits that changed since the previous code update under the same
    parent span (one training run). The first update of a run has no
    predecessor here and is not compared."""
    signs = getattr(result, "signs", result)
    key = tracer.stack[-1] if tracer.stack else -1
    prev = tracer.last_codes.get(key)
    tracer.last_codes[key] = signs.copy()
    if prev is None or prev.shape != signs.shape:
        return {"bits_flipped": 0, "bits_compared": 0}
    return {"bits_flipped": int((prev != signs).sum()), "bits_compared": int(signs.size)}


# layer name -> (targets "module:attr[.attr]", counter or None)
LAYERS = {
    "cli.cmd_synth": (["xmhash.cli:cmd_synth"], None),
    "cli.cmd_train": (["xmhash.cli:cmd_train"], None),
    "cli.cmd_eval": (["xmhash.cli:cmd_eval"], None),
    "cli.cmd_retrieve": (["xmhash.cli:cmd_retrieve"], None),
    "data.synth": (["xmhash.data:synth"], None),
    "data.save_dataset": (["xmhash.data:save_dataset"], None),
    "data.load_dataset": (["xmhash.data:load_dataset"], None),
    "data.load_split": (["xmhash.data:load_split"], None),
    "data.sim_block": (["xmhash.data:PairwiseSimilarity.block"], count_sim_block),
    "training.train_task": (["xmhash.cli:train_task"], None),
    "training.save_model": (["xmhash.cli:save_model"], None),
    "training.load_model": (["xmhash.cli:load_model"], None),
    "training.update_codes": (["xmhash.training:update_codes"], count_code_flips),
    "training.update_projection": (["xmhash.training:update_projection"], None),
    "objective.feature_grad": (
        ["xmhash.training:image_feature_grad", "xmhash.training:text_feature_grad"],
        count_feature_grad,
    ),
    "objective.objective_value": (["xmhash.training:objective_value"], None),
    "objective.pairwise_nll": (
        ["xmhash.objective:pairwise_nll", "xmhash.training:pairwise_nll"],
        count_pairwise_nll,
    ),
    "linalg.spd_solve": (["xmhash.training:spd_solve"], None),
    "mlp.forward": (["xmhash.training:forward", "xmhash.hamming:forward"], None),
    "mlp.backward": (["xmhash.training:backward"], None),
    "mlp.sgd_step": (["xmhash.training:sgd_step"], None),
    "hamming.encode_database": (["xmhash.hamming:encode_database"], None),
    "hamming.encode_queries": (["xmhash.hamming:encode_queries"], None),
    "hamming.distances_to_all": (
        ["xmhash.evaluation:distances_to_all", "xmhash.hamming:distances_to_all"],
        count_distances,
    ),
    "evaluation.evaluate": (["xmhash.evaluation:evaluate"], None),
    "evaluation.average_precision": (["xmhash.evaluation:average_precision"], None),
}


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self, layers=LAYERS, clock=time.perf_counter):
        self.layers = layers
        self.clock = clock
        self.spans = []       # [name, start, end, parent, error, counts]
        self.stack = []       # indices of open spans
        self.last_codes = {}  # parent span -> previous code signs
        self.missing = []
        self._patched = []    # (owner, attr, original)

    def wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, 0, None]
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            result = None
            span[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span[4] = 1
                raise
            finally:
                span[2] = self.clock()
                self.stack.pop()
                if counter is not None and not span[4]:
                    try:
                        span[5] = counter(args, kwargs, result, self)
                    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                        span[5] = None
        return traced

    def install(self) -> list:
        wrapped = {}  # (layer, id(original)) -> wrapper, so aliases share one
        for name, (targets, counter) in self.layers.items():
            for target in targets:
                module_name, _, path = target.partition(":")
                try:
                    owner = importlib.import_module(module_name)
                    *parents, attr = path.split(".")
                    for part in parents:
                        owner = getattr(owner, part)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.missing.append(target)
                    continue
                key = (name, id(original))
                if key not in wrapped:
                    wrapped[key] = self.wrap(name, original, counter)
                setattr(owner, attr, wrapped[key])
                self._patched.append((owner, attr, original))
        return self.missing

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    import xmhash.cli

    try:
        return xmhash.cli.main(cli_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"spans": tracer.spans, "missing": tracer.missing}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
