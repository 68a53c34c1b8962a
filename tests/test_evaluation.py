"""Ranking metrics, the Welch test, and report emission."""

import numpy as np
import pytest
from scipy import stats

from reference import average_precision, welch_t_test
from xmhash import hamming
from xmhash.errors import ContractError
from xmhash.evaluation import emit_csv, evaluate
from xmhash.fork import Forked
from xmhash.hamming import CodeMatrix, RetrievalIndex, distances_to_all


def random_signs(rng, r, n):
    return (rng.integers(0, 2, size=(r, n)) * 2 - 1).astype(np.int8)


def random_index(rng, r, n_db, c):
    labels = rng.integers(0, 2, size=(c, n_db)).astype(np.uint8)
    labels[rng.integers(0, c, size=n_db), np.arange(n_db)] = 1
    return RetrievalIndex(
        CodeMatrix.from_signs(random_signs(rng, r, n_db)),
        labels,
        np.arange(n_db, dtype=np.int64),
    )


def ap_oracle(rel):
    """Average precision by the definition, one rank at a time."""
    hits = 0
    total = 0.0
    for pos, x in enumerate(rel, start=1):
        if x:
            hits += 1
            total += hits / pos
    return total / hits if hits else 0.0


def evaluate_oracle(index, query_codes, query_labels, ks):
    """Re-derive mAP and precision@k with plain loops and explicit sorting."""
    n_db = index.codes.n
    n_q = query_codes.n
    aps = []
    prec = {k: 0.0 for k in ks}
    for q in range(n_q):
        scored = []
        for p in range(n_db):
            dist = sum(
                1 for bit in range(index.codes.r)
                if index.codes.signs[bit, p] != query_codes.signs[bit, q]
            )
            scored.append((dist, int(index.ids[p]), p))
        scored.sort()
        rel = [
            int(bool(np.any(query_labels[:, q].astype(bool)
                            & index.labels[:, p].astype(bool))))
            for _, _, p in scored
        ]
        aps.append(ap_oracle(rel))
        for k in ks:
            prec[k] += sum(rel[:k]) / k
    return float(np.mean(aps)), {k: prec[k] / n_q for k in ks}, aps


def lexsort_evaluate(index, query_codes, query_labels, ks):
    """One query at a time: a two-key lexsort by (distance, id), a relevance
    matvec, and AP/precision@k in the float operation order evaluate keeps."""
    db_lab = index.labels.astype(np.float64)
    ap = np.empty(query_codes.n)
    prec_sum = np.zeros(len(ks))
    for q in range(query_codes.n):
        dists = distances_to_all(index.codes.packed, query_codes.packed[q])
        order = np.lexsort((index.ids, dists))
        overlap = query_labels[:, q].astype(np.float64) @ db_lab
        rel = (overlap[order] > 0).astype(np.float64)
        ap[q] = average_precision(rel)
        for pos, k in enumerate(ks):
            prec_sum[pos] += rel[:k].mean()
    curve = tuple((k, float(prec_sum[pos] / query_codes.n)) for pos, k in enumerate(ks))
    return float(ap.mean()), ap, curve


# --- average precision ----------------------------------------------------------

def test_ap_examples():
    assert average_precision([1, 1, 0]) == 1.0
    assert average_precision([0, 1]) == 0.5
    assert average_precision([1, 0, 1]) == pytest.approx(5.0 / 6.0, abs=1e-15)


def test_ap_no_relevant_items_is_zero():
    assert average_precision([0, 0, 0, 0]) == 0.0


def test_ap_matches_oracle_and_stays_in_unit_interval():
    rng = np.random.default_rng(0)
    for _ in range(50):
        rel = rng.integers(0, 2, size=rng.integers(1, 40))
        got = average_precision(rel)
        assert got == pytest.approx(ap_oracle(rel.tolist()), abs=1e-12)
        assert 0.0 <= got <= 1.0


def test_ap_ignores_order_past_last_relevant():
    rel = [0, 1, 0, 1, 0, 0, 0]
    base = average_precision(rel)
    assert average_precision([0, 1, 0, 1] + [0, 0, 0]) == base
    assert average_precision([0, 1, 0, 1]) == base


def test_ap_rejects_bad_input():
    with pytest.raises(ContractError, match="empty"):
        average_precision([])
    with pytest.raises(ContractError, match="0 or 1"):
        average_precision([1, 2, 0])


# --- evaluate -----------------------------------------------------------------

def test_evaluate_matches_brute_force_oracle():
    rng = np.random.default_rng(1)
    index = random_index(rng, 8, 30, 3)
    q_codes = CodeMatrix.from_signs(random_signs(rng, 8, 5))
    q_labels = rng.integers(0, 2, size=(3, 5)).astype(np.uint8)
    q_labels[rng.integers(0, 3, size=5), np.arange(5)] = 1
    ks = (1, 3, 10, 30)
    report = evaluate(index, q_codes, q_labels, ks=ks, task="i2t")
    want_map, want_prec, want_aps = evaluate_oracle(index, q_codes, q_labels, ks)
    assert report.map == pytest.approx(want_map, abs=1e-12)
    assert report.per_query_ap.tolist() == pytest.approx(want_aps, abs=1e-12)
    for k, prec in report.topk_curve:
        assert prec == pytest.approx(want_prec[k], abs=1e-12)
    assert report.task == "i2t" and report.r == 8
    assert report.n_query == 5 and report.n_db == 30


BLOCK = 4


@pytest.mark.parametrize("k_cut", (None, 1, 7))
@pytest.mark.parametrize("r", (1, 4, 63, 64, 65, 128))
@pytest.mark.parametrize("n_query", (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1))
def test_evaluate_tiles_equal_per_query_lexsort(monkeypatch, n_query, r, k_cut):
    # k_cut: a single precision@k depth besides n_db (None: the default ks).
    # Each case is scored in one process, then with FORK_ENTRIES at 1, which
    # cuts any ranking of two tiles or more between this process and a
    # forked child; 2 * BLOCK + 1 queries make three tiles
    n_db, c = 25, 3
    monkeypatch.setattr(hamming, "TILE_ENTRIES", BLOCK * n_db)
    forks = []
    monkeypatch.setattr(hamming, "Forked", lambda *args: forks.append(args) or Forked(*args))
    rng = np.random.default_rng(1000 * r + 10 * n_query + (k_cut or 0))
    index = random_index(rng, r, n_db, c)
    # unsorted ids, so the tie order comes from ids, not storage
    index = RetrievalIndex(index.codes, index.labels, rng.permutation(100)[:n_db])
    q_codes = CodeMatrix.from_signs(random_signs(rng, r, n_query))
    q_labels = rng.integers(0, 2, size=(c, n_query)).astype(np.uint8)
    ks = (1, 5, n_db) if k_cut is None else (k_cut, n_db)
    want_map, want_aps, want_curve = lexsort_evaluate(index, q_codes, q_labels, ks)
    for fork_entries in (hamming.FORK_ENTRIES, 1):
        monkeypatch.setattr(hamming, "FORK_ENTRIES", fork_entries)
        report = evaluate(index, q_codes, q_labels, ks=ks)
        assert report.map == want_map
        assert np.array_equal(report.per_query_ap, want_aps)
        assert report.topk_curve == want_curve
    assert len(forks) == (n_query > BLOCK)


def test_evaluate_ties_break_by_database_id():
    # two db items with identical codes but different labels: the relevant
    # one has the smaller id, so it must rank first and give AP 1
    signs = np.array([[1, 1], [1, 1]], dtype=np.int8)
    labels = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    index = RetrievalIndex(CodeMatrix.from_signs(signs), labels,
                           np.array([4, 9], dtype=np.int64))
    q_codes = CodeMatrix.from_signs(np.array([[1], [1]], dtype=np.int8))
    report = evaluate(index, q_codes, np.array([[1], [0]], dtype=np.uint8), ks=(1,))
    assert report.map == 1.0
    assert report.topk_curve == ((1, 1.0),)


def test_evaluate_all_relevant_gives_map_one():
    rng = np.random.default_rng(2)
    index = random_index(rng, 8, 12, 2)
    index = RetrievalIndex(index.codes, np.ones((2, 12), dtype=np.uint8), index.ids)
    q_codes = CodeMatrix.from_signs(random_signs(rng, 8, 3))
    q_labels = np.ones((2, 3), dtype=np.uint8)
    report = evaluate(index, q_codes, q_labels)
    assert report.map == 1.0
    assert report.topk_curve == ()


def test_evaluate_map_is_mean_of_per_query_ap():
    rng = np.random.default_rng(3)
    index = random_index(rng, 16, 25, 3)
    q_codes = CodeMatrix.from_signs(random_signs(rng, 16, 7))
    q_labels = rng.integers(0, 2, size=(3, 7)).astype(np.uint8)
    report = evaluate(index, q_codes, q_labels, ks=(5, 25))
    assert report.map == pytest.approx(report.per_query_ap.mean(), abs=1e-12)
    assert all(0.0 <= p <= 1.0 for _, p in report.topk_curve)


def test_evaluate_validation_errors():
    rng = np.random.default_rng(5)
    index = random_index(rng, 8, 10, 2)
    q_codes = CodeMatrix.from_signs(random_signs(rng, 8, 2))
    q_labels = np.ones((2, 2), dtype=np.uint8)
    with pytest.raises(ContractError, match="r=16"):
        evaluate(index, CodeMatrix.from_signs(random_signs(rng, 16, 2)), q_labels)
    with pytest.raises(ContractError, match="query labels shape"):
        evaluate(index, q_codes, np.ones((3, 2), dtype=np.uint8))
    with pytest.raises(ContractError, match=r"k must lie"):
        evaluate(index, q_codes, q_labels, ks=(0, 5))
    with pytest.raises(ContractError, match=r"k must lie"):
        evaluate(index, q_codes, q_labels, ks=(5, 11))
    with pytest.raises(ContractError, match="strictly increasing"):
        evaluate(index, q_codes, q_labels, ks=(5, 5))


def test_evaluate_random_codes_map_matches_relevant_fraction():
    # with codes independent of labels, expected AP per query is the
    # fraction of the database relevant to it
    rng = np.random.default_rng(6)
    n_db, n_q, c = 200, 1000, 4
    db_labels = np.zeros((c, n_db), dtype=np.uint8)
    db_labels[rng.integers(0, c, size=n_db), np.arange(n_db)] = 1
    index = RetrievalIndex(
        CodeMatrix.from_signs(random_signs(rng, 16, n_db)),
        db_labels,
        np.arange(n_db, dtype=np.int64),
    )
    q_labels = np.zeros((c, n_q), dtype=np.uint8)
    q_labels[rng.integers(0, c, size=n_q), np.arange(n_q)] = 1
    q_codes = CodeMatrix.from_signs(random_signs(rng, 16, n_q))
    report = evaluate(index, q_codes, q_labels)
    frac = float(np.mean(q_labels.astype(np.float64).T @ db_labels > 0))
    assert abs(report.map - frac) < 0.05


# --- welch --------------------------------------------------------------------

def welch_oracle(a, b):
    """Direct transcription of the two-sample unequal-variance formulas."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    sa = a.var(ddof=1) / a.size
    sb = b.var(ddof=1) / b.size
    t = (a.mean() - b.mean()) / np.sqrt(sa + sb)
    dof = (sa + sb) ** 2 / (sa ** 2 / (a.size - 1) + sb ** 2 / (b.size - 1))
    p = 2 * stats.t.sf(abs(t), dof)
    return t, p


def test_welch_identical_samples():
    a = [0.2, 0.4, 0.6, 0.8]
    t, p, h = welch_t_test(a, list(a))
    assert t == 0.0
    assert p == pytest.approx(1.0, abs=1e-12)
    assert h == 0


def test_welch_extreme_separation_rejects_null():
    rng = np.random.default_rng(7)
    a = 0.9 + 0.01 * rng.standard_normal(30)
    b = 0.1 + 0.01 * rng.standard_normal(30)
    t, p, h = welch_t_test(a, b)
    assert t > 0 and p < 1e-6 and h == 1


def test_welch_matches_formula_and_scipy():
    rng = np.random.default_rng(8)
    for _ in range(20):
        a = rng.uniform(size=rng.integers(2, 30))
        b = rng.uniform(size=rng.integers(2, 30))
        t, p, h = welch_t_test(a, b)
        t0, p0 = welch_oracle(a, b)
        assert t == pytest.approx(t0, abs=1e-10)
        assert p == pytest.approx(p0, abs=1e-10)
        sp = stats.ttest_ind(a, b, equal_var=False)
        assert t == pytest.approx(sp.statistic, abs=1e-10)
        assert p == pytest.approx(sp.pvalue, abs=1e-10)
        assert h == int(p < 0.05)


def test_welch_rejects_degenerate_input():
    with pytest.raises(ContractError, match="two entries"):
        welch_t_test([0.5], [0.1, 0.2])
    with pytest.raises(ContractError, match="zero variance"):
        welch_t_test([0.5, 0.5], [0.2, 0.2])


def test_welch_one_constant_side_is_fine():
    t, p, h = welch_t_test([0.5, 0.5, 0.5], [0.1, 0.3, 0.2])
    assert np.isfinite(t) and 0.0 <= p <= 1.0


# --- emission -----------------------------------------------------------------

def small_report():
    rng = np.random.default_rng(9)
    index = random_index(rng, 8, 10, 2)
    q_codes = CodeMatrix.from_signs(random_signs(rng, 8, 3))
    q_labels = rng.integers(0, 2, size=(2, 3)).astype(np.uint8)
    q_labels[0] = 1
    return evaluate(index, q_codes, q_labels, ks=(1, 2), task="t2i")


def test_emit_csv_layout(tmp_path):
    report = small_report()
    path = emit_csv(report, tmp_path / "eval.csv")
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("# task=t2i,r=8,map=")
    assert "ttest=welch" in lines[0]
    assert f"n_query={report.n_query},n_db={report.n_db}" in lines[0]
    assert lines[1] == "k,precision"
    assert lines[2].startswith("1,") and lines[3].startswith("2,")
    k1 = float(lines[2].split(",")[1])
    assert k1 == report.topk_curve[0][1]


def test_emit_csv_is_deterministic(tmp_path):
    report = small_report()
    a = emit_csv(report, tmp_path / "a.csv").read_bytes()
    b = emit_csv(report, tmp_path / "b.csv").read_bytes()
    assert a == b


def test_emit_csv_empty_ks_writes_headers_only(tmp_path):
    rng = np.random.default_rng(10)
    index = random_index(rng, 8, 6, 2)
    q_codes = CodeMatrix.from_signs(random_signs(rng, 8, 2))
    report = evaluate(index, q_codes, np.ones((2, 2), dtype=np.uint8), task="i2t")
    lines = emit_csv(report, tmp_path / "eval.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1] == "k,precision"

