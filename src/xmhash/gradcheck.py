"""Finite-difference verification of the analytic gradients.

Two families of checks, both against central differences of the actual
objective:

  feature gradients   the closed-form gradient of the image block and of
                      the text block (one shared formula, mirrored), for
                      each retrieval direction, on random states swept
                      over on/off corners of the four objective weights;
  encoder chain       gradients pushed through forward/backward onto MLP
                      parameters, i.e. the whole train-step path.

Errors are scaled by max(1, |analytic|, |numeric|) per entry. The gradient
functions are injectable so tests can prove the suite catches a planted
sign error.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .mlp import backward, forward, glorot_mlp
from .objective import (
    HyperParams, ObjectiveState, image_feature_grad, objective_value,
    text_feature_grad,
)
from .data import PairwiseSimilarity

DEFAULT_TOL = 1e-4
DEFAULT_STEP = 1e-6

# every on/off combination of the four objective weights
_HP_CORNERS = tuple(itertools.product((0.0, 0.1), repeat=4))


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_err: float
    worst_at: str
    passed: bool


@dataclass(frozen=True)
class SuiteReport:
    results: tuple
    tol: float

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def worst(self) -> CheckResult:
        return max(self.results, key=lambda r: r.max_err)

    def lines(self):
        for r in self.results:
            yield (f"{'ok  ' if r.passed else 'FAIL'} {r.name}: "
                   f"max scaled error {r.max_err:.3e} at {r.worst_at}")
        w = self.worst
        yield (f"{'PASS' if self.all_passed else 'FAIL'}: {len(self.results)} checks, "
               f"tol {self.tol:g}, worst {w.max_err:.3e} ({w.name} at {w.worst_at})")


def _scaled_errors(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return np.abs(analytic - numeric) / scale


def _fd_over(arr: np.ndarray, eval_fn) -> np.ndarray:
    """Central finite differences of eval_fn over every entry of arr.

    arr is mutated in place entry by entry and restored, so it must be the
    very array eval_fn reads. Multi-index assignment keeps this correct for
    non-contiguous views (e.g. one column of a row-major matrix).
    """
    h = DEFAULT_STEP
    grad = np.zeros(arr.shape)
    for idx in np.ndindex(arr.shape):
        orig = arr[idx]
        arr[idx] = orig + h
        jp = eval_fn()
        arr[idx] = orig - h
        jm = eval_fn()
        arr[idx] = orig
        grad[idx] = (jp - jm) / (2.0 * h)
    return grad


def _random_state(rng: np.random.Generator):
    r = int(rng.integers(2, 5))
    n = int(rng.integers(5, 9))
    c = int(rng.integers(2, 4))
    labels = np.zeros((c, n))
    for i in range(n):
        k = int(rng.integers(1, c + 1))
        labels[rng.choice(c, size=k, replace=False), i] = 1.0
    state = ObjectiveState(
        image_feats=0.5 * rng.standard_normal((r, n)),
        text_feats=0.5 * rng.standard_normal((r, n)),
        codes=(rng.integers(0, 2, size=(r, n)) * 2 - 1).astype(np.float64),
        proj=0.3 * rng.standard_normal((r, c)),
        labels=labels,
    )
    sim = PairwiseSimilarity(labels.astype(np.uint8))
    batch = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
    return state, sim, batch


def _check_feature_grads(state, sim, batch, hp, tag, tol,
                         image_grad_fn, text_grad_fn):
    out = []

    def eval_obj():
        return objective_value(state, hp, sim, binary_codes=False)

    # FD loops mutate live column views of the state entry by entry
    for modality, feats, symbol, grad_fn in (
        ("image", state.image_feats, "dF", image_grad_fn),
        ("text", state.text_feats, "dG", text_grad_fn),
    ):
        analytic = grad_fn(state, hp, sim, batch)
        fd = np.zeros_like(analytic)
        for pos, col in enumerate(batch):
            fd[:, pos] = _fd_over(feats[:, col], eval_obj).ravel()
        errs = _scaled_errors(analytic, fd)
        k = np.unravel_index(np.argmax(errs), errs.shape)
        out.append(CheckResult(
            name=f"{modality}-grad {tag}",
            max_err=float(errs[k]),
            worst_at=f"{symbol}[{k[0]},{int(batch[k[1]])}]",
            passed=float(errs[k]) < tol,
        ))
    return out


def _check_encoder_chain(rng, state, sim, batch, hp, tag, tol,
                         image_grad_fn, text_grad_fn):
    """Verify dObjective/dParameters through forward + backward."""
    out = []
    r = state.image_feats.shape[0]
    for modality, feats_block, grad_fn in (
        ("image", state.image_feats, image_grad_fn),
        ("text", state.text_feats, text_grad_fn),
    ):
        d_in = int(rng.integers(2, 5))
        enc = glorot_mlp((d_in, 4, r), seed=int(rng.integers(0, 2 ** 31)))
        xb = rng.standard_normal((batch.size, d_in))

        def eval_obj():
            block, _ = forward(enc, xb)
            feats_block[:, batch] = block
            return objective_value(state, hp, sim, binary_codes=False)

        block, tape = forward(enc, xb)
        feats_block[:, batch] = block
        feature_grad = grad_fn(state, hp, sim, batch)
        buffers, _ = backward(enc, tape, feature_grad)

        worst_err, worst_at = -1.0, ""
        for k, layer in enumerate(enc.layers):
            for pname, arr, analytic in (
                ("W", layer.weights, buffers.weight_grads[k]),
                ("b", layer.bias, buffers.bias_grads[k]),
            ):
                fd = _fd_over(arr, eval_obj)
                errs = _scaled_errors(analytic, fd)
                j = np.unravel_index(np.argmax(errs), errs.shape)
                if errs[j] > worst_err:
                    worst_err = float(errs[j])
                    worst_at = f"layer{k}.{pname}{[int(v) for v in j]}"
        eval_obj()  # leave the state consistent with the unperturbed encoder
        out.append(CheckResult(
            name=f"encoder-chain {modality} {tag}",
            max_err=worst_err,
            worst_at=worst_at,
            passed=worst_err < tol,
        ))
    return out


def run_suite(trials: int = 50, seed: int = 0, tol: float = DEFAULT_TOL,
              image_grad_fn=image_feature_grad,
              text_grad_fn=text_feature_grad) -> SuiteReport:
    """Run the whole verification suite.

    Each trial draws a random state/batch, picks the next weight corner and
    direction round-robin, and runs both feature-gradient checks plus both
    encoder-chain checks.
    """
    if trials < 1:
        raise ContractError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    results = []
    for t in range(trials):
        corner = _HP_CORNERS[t % len(_HP_CORNERS)]
        task = ("i2t", "t2i")[t % 2]
        hp = HyperParams(*corner, task=task)
        state, sim, batch = _random_state(rng)
        tag = f"task={task} weights={corner} trial={t}"
        results.extend(_check_feature_grads(
            state, sim, batch, hp, tag, tol, image_grad_fn, text_grad_fn))
        results.extend(_check_encoder_chain(
            rng, state, sim, batch, hp, tag, tol, image_grad_fn, text_grad_fn))
    return SuiteReport(tuple(results), tol)
