"""Retrieval metrics over Hamming rankings, CSV emission, and a Welch test.

A query's ranking is the whole database sorted by (Hamming distance,
database id) ascending, as hamming.ranked produces it a tile of queries at
a time. Relevance is label overlap, the same rule the trainer's similarity
oracle uses. Average precision of a query with no relevant database item
is defined as 0 and the query still counts in the mean.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError
from .hamming import CodeMatrix, RetrievalIndex, ranked

# two-sample significance is a Welch (unequal-variance) t-test; the choice
# is stamped into every report header
TTEST_NAME = "welch"
ALPHA = 0.05


@dataclass(frozen=True)
class EvalReport:
    task: str
    r: int
    map: float
    topk_curve: tuple        # (k, precision) pairs, k strictly increasing
    per_query_ap: np.ndarray
    n_query: int
    n_db: int


def average_precision(ranked_rel) -> float:
    """AP of one ranked 0/1 relevance list; 0 when nothing is relevant."""
    rel = np.asarray(ranked_rel, dtype=np.float64).ravel()
    if rel.size == 0:
        raise ContractError("ranking is empty")
    if not np.isin(rel, (0.0, 1.0)).all():
        raise ContractError("relevance entries must be 0 or 1")
    return _ap(np.flatnonzero(rel))


def _ap(pos: np.ndarray) -> float:
    """AP from the ascending ranks (0-based) of the relevant items.

    The hit at pos[j] is the (j+1)-th, so its precision is (j+1)/(pos[j]+1);
    the quotients are summed in rank order and divided by the hit count.
    """
    if pos.size == 0:
        return 0.0
    return float((np.arange(1, pos.size + 1) / (pos + 1)).sum() / pos.size)


def evaluate(index: RetrievalIndex, query_codes: CodeMatrix,
             query_labels: np.ndarray, ks=(), task: str = "",
             map_cutoff: int | None = None) -> EvalReport:
    """mAP and precision@k for every query against the database index.

    ks must be strictly increasing and within [1, n_db]; an empty ks means
    mAP only. query_labels is (c, n_query) aligned with query_codes columns.
    map_cutoff, when given, truncates each ranking to its first map_cutoff
    entries before the average-precision computation (default: full ranking).
    """
    index.validate()
    query_codes.validate()
    if query_codes.r != index.codes.r:
        raise ContractError(
            f"query codes have r={query_codes.r} but database has r={index.codes.r}"
        )
    query_labels = np.asarray(query_labels)
    if query_labels.shape != (index.labels.shape[0], query_codes.n):
        raise ContractError(
            f"query labels shape {query_labels.shape} does not match "
            f"(c={index.labels.shape[0]}, n_query={query_codes.n})"
        )
    ks = tuple(int(k) for k in ks)
    n_db = index.codes.n
    if any(not (1 <= k <= n_db) for k in ks):
        raise ContractError(f"every k must lie in [1, {n_db}], got {ks}")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ContractError(f"ks must be strictly increasing, got {ks}")
    if map_cutoff is not None and not 1 <= map_cutoff <= n_db:
        raise ContractError(f"map_cutoff must lie in [1, {n_db}], got {map_cutoff}")

    db_lab = index.labels.astype(np.float64)
    cut = n_db if map_cutoff is None else map_cutoff
    ks_arr = np.array(ks, dtype=np.int64)
    ap = np.empty(query_codes.n)
    prec_sum = np.zeros(len(ks))
    for rows, order, _ in ranked(index, query_codes.packed):
        related = query_labels[:, rows].T.astype(np.float64) @ db_lab > 0
        for q, rel, row_order in zip(range(rows.start, rows.stop), related, order):
            pos = np.flatnonzero(rel.take(row_order))
            ap[q] = _ap(pos[:np.searchsorted(pos, cut)])
            # precision@k: hits ranked before k, over k
            prec_sum += np.searchsorted(pos, ks_arr) / ks_arr

    curve = tuple((k, float(prec_sum[i] / query_codes.n)) for i, k in enumerate(ks))
    return EvalReport(
        task=task,
        r=query_codes.r,
        map=float(ap.mean()),
        topk_curve=curve,
        per_query_ap=ap,
        n_query=query_codes.n,
        n_db=n_db,
    )


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


def emit_csv(report: EvalReport, path) -> Path:
    """Write one report: a '#' header line, then k,precision rows.

    Header carries task, code length, mAP, query/database sizes, and the
    significance-test choice. Floats are written with repr-level precision
    so identical reports give identical bytes.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        f"# task={report.task},r={report.r},map={report.map!r},"
        f"n_query={report.n_query},n_db={report.n_db},ttest={TTEST_NAME}",
        "k,precision",
    ]
    for k, prec in report.topk_curve:
        lines.append(f"{k},{prec!r}")
    path.write_text("\n".join(lines) + "\n")
    return path
