"""Training objective and its exact feature-space gradients.

One objective per retrieval direction. Shared pieces: a pairwise logistic
term that pushes the inner-product similarity of image/text embeddings
toward the label-overlap relation, two quantization penalties tying each
embedding block to the shared binary codes, and a bit-balance penalty on
embedding row sums. The direction decides which embedding block is also
regressed onto the labels through the linear projection: the query-side
modality keeps the label term (image for i2t, text for t2i). Sides index
the modalities, 0 image and 1 text (data.SIDES): one gradient formula
serves both, and HyperParams.query_side names a direction's query side.

Embeddings are stored column-wise: feats[:, i] is instance i. The n x n
similarity matrix is never formed; everything walks PairwiseSimilarity in
blocks.
"""

from dataclasses import dataclass

import numpy as np

from .data import PairwiseSimilarity
from .errors import ContractError, NumericalError

TASKS = ("i2t", "t2i")

# column-block width for streaming over the pairwise term
_CHUNK = 512


@dataclass(frozen=True)
class HyperParams:
    """Objective weights plus the retrieval direction they apply to.

    quant_image / quant_text scale the code-quantization penalties of the
    image and text embedding blocks, label_weight scales the
    projection-regression term, balance_weight scales the row-sum balance
    penalty and the projection ridge. Checked when built.
    """

    quant_image: float
    quant_text: float
    label_weight: float
    balance_weight: float
    task: str = "i2t"

    @property
    def query_side(self) -> int:
        """The side that queries and keeps the label term: 0 for i2t, 1 for t2i."""
        return 0 if self.task == "i2t" else 1

    def __post_init__(self) -> None:
        if self.task not in TASKS:
            raise ContractError(f"task must be one of {TASKS}, got {self.task!r}")
        for field in ("quant_image", "quant_text", "label_weight", "balance_weight"):
            v = getattr(self, field)
            if not np.isfinite(v) or v < 0:
                raise ContractError(f"{field} must be finite and >= 0, got {v}")


@dataclass
class ObjectiveState:
    """Everything the alternating steps read and write.

    codes stay in {-1,+1} during standard training; the relaxed trainer
    variant holds real values there until it binarizes them at the end.
    """

    image_feats: np.ndarray  # (r, n)
    text_feats: np.ndarray   # (r, n)
    codes: np.ndarray        # (r, n)
    proj: np.ndarray         # (r, c)
    labels: np.ndarray       # (c, n) float 0/1

    @property
    def feats(self) -> tuple:
        """The embedding blocks by side: (image_feats, text_feats)."""
        return self.image_feats, self.text_feats


def softplus(x, out=None):
    """log(1 + exp(x)) without overflow for large |x|, into out if given.

    exp(-|x|) may gradually underflow to zero for huge |x|; that is the
    intended limit, so the underflow signal is suppressed locally.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x) if out is None else out
    np.negative(np.abs(x, out=out), out=out)
    with np.errstate(under="ignore"):
        np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(x, 0.0)
    return out


def pairwise_nll(img_feats: np.ndarray, txt_feats: np.ndarray,
                 sim: PairwiseSimilarity) -> float:
    """Negative log likelihood of label overlaps under the logistic model.

    Pair (i, j) scores half the inner product of image embedding i and text
    embedding j; the term is softplus(score) - overlap * score, summed over
    all n^2 pairs, streamed in row blocks through two buffers made once per
    call. The blocks are taken as finite: the trainer checks each one it makes.
    """
    if img_feats.shape != txt_feats.shape:
        raise ContractError(
            f"embedding blocks must share shape, got {img_feats.shape} vs {txt_feats.shape}"
        )
    n = img_feats.shape[1]
    if sim.n != n:
        raise ContractError(f"similarity oracle covers {sim.n} instances, embeddings {n}")
    phi_buf, work_buf = np.empty((2, min(_CHUNK, n), n))
    total = 0.0
    for i0 in range(0, n, _CHUNK):
        rows = np.arange(i0, min(i0 + _CHUNK, n))
        phi, work = phi_buf[:rows.size], work_buf[:rows.size]
        np.matmul(0.5 * img_feats[:, rows].T, txt_feats, out=phi)
        fit = np.multiply(sim.overlap(rows), phi, out=work).sum()
        total += float(softplus(phi, out=work).sum() - fit)
    return total


def _label_fit(state: ObjectiveState) -> np.ndarray:
    return state.proj @ state.labels


def objective_value(state: ObjectiveState, hp: HyperParams, sim: PairwiseSimilarity,
                    label_target: np.ndarray | None = None) -> float:
    """Full objective for the direction named by hp.task.

    The label term regresses label_target onto the labels. It defaults to
    the query-side embedding block; the v1 trainer variant passes the codes.
    """
    f, g, b = state.image_feats, state.text_feats, state.codes
    if label_target is None:
        label_target = state.feats[hp.query_side]
    with np.errstate(all="ignore"):
        terms = {"pairwise": pairwise_nll(f, g, sim),
                 "quant-image": hp.quant_image * float(((b - f) ** 2).sum()),
                 "quant-text": hp.quant_text * float(((b - g) ** 2).sum())}
        if hp.label_weight > 0:
            terms["label"] = hp.label_weight * float(
                ((label_target - _label_fit(state)) ** 2).sum())
        terms["balance"] = hp.balance_weight * (
            float((f.sum(axis=1) ** 2).sum())
            + float((g.sum(axis=1) ** 2).sum())
            + float((state.proj ** 2).sum())
        )
    total = 0.0
    for name, value in terms.items():  # a fixed order, so the sum's bits are fixed
        if not np.isfinite(value):
            raise NumericalError(f"objective is non-finite: {name} term is {value}")
        total += value
    return total


def _pairwise_grad(own, other, sim, batch):
    """Likelihood gradient wrt the batch columns of the `own` block.

    Label overlap is symmetric, so one formula serves both modalities: the
    text-block gradient is the image-block one with the blocks swapped.
    """
    n = own.shape[1]
    out = np.zeros((own.shape[0], batch.size))
    neg_own_b, sim_rows = -0.5 * own[:, batch].T, sim.overlap(batch)
    for j0 in range(0, n, _CHUNK):
        # other[:, cols] is a copy: a strided view of `other` rounds the products differently
        cols = np.arange(j0, min(j0 + _CHUNK, n))
        # sigmoid(phi) - s in place, phi = 0.5 * own_b^T other_c: exp(-phi)
        # overflows to inf for very negative phi, whose limit 1/inf = 0 is
        # the intended sigmoid value
        z = neg_own_b @ other[:, cols]
        with np.errstate(over="ignore"):
            np.exp(z, out=z)
        z += 1.0
        np.reciprocal(z, out=z)
        z -= sim_rows[:, j0:j0 + _CHUNK]  # a view: a fancy-index copy is slow
        out += 0.5 * other[:, cols] @ z.T
    return out


def feature_grad(state: ObjectiveState, hp: HyperParams,
                 sim: PairwiseSimilarity, batch: np.ndarray, side: int) -> np.ndarray:
    """Exact objective gradient wrt the chosen columns of one side's
    embedding block (0 image, 1 text).

    batch indexes columns of the training blocks. Returned shape is
    (r, len(batch)). The label-regression term contributes only on the
    query side of hp.task; the balance term contributes the same row-sum
    vector to every column. The state's blocks are taken as well formed and
    finite: hp is checked when built, and the trainer checks each block
    where it is made (forward, update_codes, update_projection).
    """
    if side not in (0, 1):
        raise ContractError(f"side must be 0 (image) or 1 (text), got {side!r}")
    own, other = state.feats[side], state.feats[1 - side]
    quant = (hp.quant_image, hp.quant_text)[side]
    n = own.shape[1]
    batch = _as_batch(batch, n)
    if sim.n != n:
        raise ContractError(f"similarity oracle covers {sim.n} instances, state {n}")
    grad = _pairwise_grad(own, other, sim, batch)
    grad += 2.0 * quant * (own[:, batch] - state.codes[:, batch])
    if hp.label_weight > 0 and side == hp.query_side:
        grad += 2.0 * hp.label_weight * (own[:, batch] - _label_fit(state)[:, batch])
    grad += 2.0 * hp.balance_weight * own.sum(axis=1)[:, None]
    _check_grad(grad)
    return grad


def _as_batch(batch, n: int) -> np.ndarray:
    idx = np.asarray(batch, dtype=np.intp).ravel()
    if idx.size == 0:
        raise ContractError("batch is empty")
    if idx.min() < 0 or idx.max() >= n:
        raise ContractError(f"batch indices out of range for n={n}")
    return idx


def _check_grad(grad: np.ndarray) -> None:
    if not np.all(np.isfinite(grad)):
        raise NumericalError("gradient contains non-finite entries")
