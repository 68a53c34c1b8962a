"""Retrieval metrics over Hamming rankings, and their CSV report.

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


@dataclass(frozen=True)
class EvalReport:
    task: str
    r: int
    map: float
    topk_curve: tuple        # (k, precision) pairs, k strictly increasing
    per_query_ap: np.ndarray
    n_query: int
    n_db: int


def _ap(pos: np.ndarray) -> float:
    """AP from the ascending ranks (0-based) of the relevant items.

    The hit at pos[j] is the (j+1)-th, so its precision is (j+1)/(pos[j]+1);
    the quotients are summed in rank order and divided by the hit count.
    """
    if pos.size == 0:
        return 0.0
    return float((np.arange(1, pos.size + 1) / (pos + 1)).sum() / pos.size)


def evaluate(index: RetrievalIndex, query_codes: CodeMatrix,
             query_labels: np.ndarray, ks=(), task: str = "") -> EvalReport:
    """mAP and precision@k for every query against the database index.

    ks must be strictly increasing and within [1, n_db]; an empty ks means
    mAP only. query_labels is (c, n_query) aligned with query_codes columns.
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

    db_lab = index.labels.astype(np.float64)
    ks_arr = np.array(ks, dtype=np.int64)
    ap = np.empty(query_codes.n)
    prec_sum = np.zeros(len(ks))
    for rows, order, _ in ranked(index, query_codes.packed):
        related = query_labels[:, rows].T.astype(np.float64) @ db_lab > 0
        for q, rel, row_order in zip(range(rows.start, rows.stop), related, order):
            pos = np.flatnonzero(rel.take(row_order))
            ap[q] = _ap(pos)
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
