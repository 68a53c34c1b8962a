"""Reference helpers that only the tests call.

Each one does for a single item what the library does in bulk, or
combines library calls the way a user would: the AP of one ranked
relevance list, the Hamming distance of one code pair, the top-k ids of
one query, the similarity of one instance pair, both retrieval directions
trained one after the other, and a Welch test on two per-query AP lists.
Four more are the library's earlier kernels, kept as oracles: a
similarity block as a float product of the labels, the pairwise likelihood
with fresh temporaries per block, synth's label draw as one rng.choice per
item, and the split files' plain-text check as one regex. Tests compare
the library against them.
"""

import re

import numpy as np

from xmhash.errors import ContractError
from xmhash.evaluation import _ap
from xmhash.hamming import CodeMatrix, rank_tiles
from xmhash.training import train_task

ALPHA = 0.05

# a plain split file: one unsigned decimal of 1-18 digits per LF-terminated line
PLAIN_IDS = re.compile(r"(?:[0-9]{1,18}\n)*")


def average_precision(ranked_rel) -> float:
    """AP of one ranked 0/1 relevance list; 0 when nothing is relevant."""
    rel = np.asarray(ranked_rel, dtype=np.float64).ravel()
    if rel.size == 0:
        raise ContractError("ranking is empty")
    if not np.isin(rel, (0.0, 1.0)).all():
        raise ContractError("relevance entries must be 0 or 1")
    pos = np.flatnonzero(rel)
    return _ap(pos, np.arange(1, pos.size + 1))


def welch_t_test(ap_a, ap_b):
    """Welch two-sample t-test on per-query AP lists.

    Returns (t, p, h) with h = 1 when p < 0.05. Requires two or more
    samples per side and nonzero variance in at least one list.
    """
    from scipy.special import stdtr

    a = np.asarray(ap_a, dtype=np.float64).ravel()
    b = np.asarray(ap_b, dtype=np.float64).ravel()
    if a.size < 2 or b.size < 2:
        raise ContractError("each AP list needs at least two entries")
    va, vb = a.var(ddof=1), b.var(ddof=1)
    if va == 0.0 and vb == 0.0:
        raise ContractError("both AP lists have zero variance")
    sa, sb = va / a.size, vb / b.size
    t = (a.mean() - b.mean()) / np.sqrt(sa + sb)
    dof = (sa + sb) ** 2 / (sa ** 2 / (a.size - 1) + sb ** 2 / (b.size - 1))
    p = 2.0 * float(stdtr(dof, -abs(t)))
    return float(t), p, int(p < ALPHA)


def hamming_distance(a: np.ndarray, b: np.ndarray, r: int) -> int:
    """Hamming distance between two packed codes of the same length r."""
    a = np.asarray(a, dtype=np.uint64).ravel()
    b = np.asarray(b, dtype=np.uint64).ravel()
    words = (r + 63) // 64
    if a.size != words or b.size != words:
        raise ContractError(
            f"packed codes must have {words} words for r={r}, got {a.size} and {b.size}"
        )
    return int(np.bitwise_count(a ^ b).sum())


def topk(db, query_packed: np.ndarray, k: int) -> np.ndarray:
    """Ids of the k nearest database items; ties broken by ascending id."""
    if not (1 <= k <= db.codes.n):
        raise ContractError(f"k must be in [1, {db.codes.n}], got {k}")
    query = CodeMatrix(np.asarray(query_packed, dtype=np.uint64).reshape(1, -1), db.codes.r)
    [order] = rank_tiles(lambda rows, order, dists: order, db, query)
    return db.ids[order[0, :k]]


def train_both(ds, split, cfg, hp_i2t, hp_t2i) -> dict:
    """Train the two directions independently (sequentially; they share no
    state, so this equals any concurrent schedule). `xmhash train --task
    both` relies on that: it trains t2i in a forked child process while it
    trains i2t."""
    if hp_i2t.task != "i2t" or hp_t2i.task != "t2i":
        raise ContractError("hyperparameter tasks must match their direction")
    return {
        "i2t": train_task(ds, split, cfg, hp_i2t),
        "t2i": train_task(ds, split, cfg, hp_t2i),
    }


def similarity(labels: np.ndarray, i: int, j: int) -> int:
    """1 when instances i and j share at least one label, else 0."""
    lab = np.asarray(labels)
    n = lab.shape[1]
    for name, idx in (("i", i), ("j", j)):
        if not 0 <= idx < n:
            raise ContractError(f"instance id {name}={idx} out of range [0, {n})")
    return int(np.any(lab[:, i].astype(bool) & lab[:, j].astype(bool)))


def pair(sim, i: int, j: int) -> int:
    """One entry of a PairwiseSimilarity oracle, from the labels it holds."""
    for name, idx in (("i", i), ("j", j)):
        if not 0 <= idx < sim.n:
            raise ContractError(f"instance id {name}={idx} out of range [0, {sim.n})")
    return int((sim._packed[:, i] & sim._packed[:, j]).any())


def overlap_block(labels: np.ndarray, rows, cols=None) -> np.ndarray:
    """The similarity block as a float product of the 0/1 labels: entry
    (a, b) is 1.0 when rows[a] and cols[b] share a label; cols=None means
    all instances."""
    lab = np.asarray(labels, dtype=np.float64)
    lc = lab if cols is None else lab[:, cols]
    return (lab[:, rows].T @ lc > 0.0).astype(np.float64)


def pairwise_nll(img_feats: np.ndarray, txt_feats: np.ndarray, labels: np.ndarray) -> float:
    """The pairwise likelihood as the library computed it before it reused
    buffers: fresh temporaries per 512-row block, softplus as
    max(phi, 0) + log1p(exp(-|phi|)), a float 0/1 similarity block."""
    n = img_feats.shape[1]
    total = 0.0
    for i0 in range(0, n, 512):
        rows = np.arange(i0, min(i0 + 512, n))
        phi = 0.5 * img_feats[:, rows].T @ txt_feats
        s = overlap_block(labels, rows)
        with np.errstate(under="ignore"):
            soft = np.maximum(phi, 0.0) + np.log1p(np.exp(-np.abs(phi)))
        total += float(soft.sum() - (s * phi).sum())
    return total


def synth_labels(rng: np.random.Generator, n: int, c: int) -> np.ndarray:
    """synth's (c, n) label draw as the library made it before it was
    vectorised: 1 or 2 of c classes per item, one rng.choice per item."""
    labels = np.zeros((c, n), dtype=np.uint8)
    n_cls = rng.integers(1, min(2, c) + 1, size=n)
    for i in range(n):
        chosen = rng.choice(c, size=n_cls[i], replace=False)
        labels[chosen, i] = 1
    return labels
