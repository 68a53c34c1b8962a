"""Bit packing, Hamming ranking, database encoding, and the code file format."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from reference import hamming_distance, topk
from xmhash import hamming
from xmhash.data import MultiModalDataset, SplitSpec, make_split, synth
from xmhash.errors import ContractError, LoadError
from xmhash.evaluation import evaluate
from xmhash.hamming import (
    CodeMatrix,
    RetrievalIndex,
    all_pm1,
    distances_to_all,
    encode_chunks,
    encode_database,
    encode_queries,
    encode_with,
    pack_signs,
    rank_tiles,
    read_codes,
    unpack_codes,
    write_codes,
)
from xmhash.mlp import Layer, MlpEncoder, forward, glorot_mlp
from xmhash.objective import HyperParams
from xmhash.training import TaskModel

PAD_BOUNDARY_LENGTHS = (1, 63, 64, 65, 128)


def hamming_oracle(sa, sb):
    """Elementwise sign comparison, no bit tricks."""
    return int(sum(1 for x, y in zip(sa, sb) if x != y))


def rank_oracle(signs_db, signs_q, ids):
    """Full sort by (distance, id) on unpacked signs."""
    dists = [hamming_oracle(signs_db[:, j], signs_q) for j in range(signs_db.shape[1])]
    return [i for _, i in sorted(zip(dists, ids), key=lambda t: (t[0], t[1]))]


def lexsort_oracle(index, q_packed):
    """Per query: pairwise distances to every row, then one two-key lexsort
    by (distance, id); returns ranked ids and their distances."""
    ids, dists = [], []
    for q in q_packed:
        d = np.array([hamming_distance(row, q, index.codes.r) for row in index.codes.packed])
        order = np.lexsort((index.ids, d))
        ids.append(index.ids[order])
        dists.append(d[order])
    return np.array(ids), np.array(dists)


def random_signs(rng, r, n):
    return (rng.integers(0, 2, size=(r, n)) * 2 - 1).astype(np.int8)


def constant_encoder(column):
    """Single-layer encoder whose output is the given column for any input."""
    d = 3
    column = np.asarray(column, dtype=np.float64)
    return MlpEncoder((Layer(np.zeros((column.size, d)), column, "identity"),))


# --- packing ------------------------------------------------------------------

@pytest.mark.parametrize("r", PAD_BOUNDARY_LENGTHS)
def test_pack_unpack_round_trip(r):
    rng = np.random.default_rng(r)
    signs = random_signs(rng, r, 9)
    packed = pack_signs(signs)
    assert packed.shape == (9, (r + 63) // 64)
    assert np.array_equal(unpack_codes(packed, r), signs)


@pytest.mark.parametrize("r", (1, 63, 65))
def test_pack_pad_bits_are_zero(r):
    rng = np.random.default_rng(2 * r)
    packed = pack_signs(random_signs(rng, r, 5))
    tail_bits = r % 64
    assert not np.any(packed[:, -1] >> np.uint64(tail_bits))


def test_pack_bit_convention_plus_one_is_one():
    packed = pack_signs(np.array([[1], [-1], [1]], dtype=np.int8))
    assert packed[0, 0] == 0b101


def test_pack_rejects_non_sign_entries():
    with pytest.raises(ContractError, match=r"\+/-1"):
        pack_signs(np.array([[1, 0], [-1, 1]], dtype=np.int8))


# per kind: its dtype, the +/-1 values it holds, and values to plant among them
SIGN_LIKE_KINDS = (
    (np.int8, [-1, 1], st.sampled_from([-128, -2, 0, 2, 127]) | st.integers(-128, 127)),
    (np.int64, [-1, 1], st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max)),
    (np.uint8, [1], st.integers(0, 255)),
    (np.float64, [-1.0, 1.0],
     st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, np.nextafter(1.0, 2.0),
                      np.nextafter(1.0, 0.0), np.nextafter(-1.0, -2.0), np.nextafter(-1.0, 0.0)])
     | st.floats()),
    (np.bool_, [True], st.booleans()),
)


@st.composite
def sign_like(draw):
    """A +/-1 array of one kind, with one planted value half of the time."""
    dtype, signs, planted = draw(st.sampled_from(SIGN_LIKE_KINDS))
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=2, max_side=6))
    a = np.array(draw(st.lists(st.sampled_from(signs), min_size=int(np.prod(shape)),
                               max_size=int(np.prod(shape)))), dtype=dtype).reshape(shape)
    if draw(st.booleans()):
        a.flat[draw(st.integers(0, a.size - 1))] = draw(planted)
    return a


@given(sign_like())
def test_all_pm1_equals_isin(a):
    assert all_pm1(a) == bool(np.isin(a, (-1, 1)).all())


def test_code_matrix_from_real_zero_maps_to_plus_one():
    cm = CodeMatrix.from_real(np.array([[0.0, -0.5], [2.0, 0.0]]))
    assert np.array_equal(cm.signs, [[1, -1], [1, 1]])


@pytest.mark.parametrize("r", PAD_BOUNDARY_LENGTHS)
def test_code_matrix_from_real_equals_from_signs(r):
    rng = np.random.default_rng(r)
    values = rng.standard_normal((r, 9))
    values[rng.random((r, 9)) < 0.3] = 0.0
    values[0, :3] = (0.0, -0.0, 0.0)
    cm = CodeMatrix.from_real(values)
    want = CodeMatrix.from_signs(np.where(values >= 0, 1, -1))
    assert cm.r == want.r == r
    assert np.array_equal(cm.packed, want.packed)
    assert np.array_equal(cm.signs, want.signs)


def test_code_matrix_validate_detects_nonzero_padding():
    cm = CodeMatrix.from_signs(np.array([[1, -1], [1, 1]], dtype=np.int8))
    with pytest.raises(ContractError, match="padding"):
        CodeMatrix(cm.packed | (np.uint64(1) << np.uint64(63)), cm.r)
    with pytest.raises(ContractError, match="does not fit r=65"):
        CodeMatrix(cm.packed, 65)


def test_retrieval_index_rejects_misaligned_labels_and_ids():
    cm = CodeMatrix.from_signs(np.array([[1, -1], [1, 1]], dtype=np.int8))
    with pytest.raises(ContractError, match="misaligned"):
        RetrievalIndex(cm, np.ones((1, 3), dtype=np.uint8), np.arange(2))
    with pytest.raises(ContractError, match="misaligned"):
        RetrievalIndex(cm, np.ones((1, 2), dtype=np.uint8), np.arange(3))


# --- distances ------------------------------------------------------------------

def test_hamming_hand_value():
    a = CodeMatrix.from_signs(np.array([[1], [1], [-1], [-1]], dtype=np.int8))
    b = CodeMatrix.from_signs(np.array([[1], [-1], [-1], [1]], dtype=np.int8))
    assert hamming_distance(a.packed[0], b.packed[0], 4) == 2


def test_hamming_self_distance_zero():
    rng = np.random.default_rng(0)
    cm = CodeMatrix.from_signs(random_signs(rng, 16, 1))
    assert hamming_distance(cm.packed[0], cm.packed[0], 16) == 0


def test_hamming_matches_elementwise_oracle_across_boundaries():
    rng = np.random.default_rng(1)
    for r in range(1, 131):
        signs = random_signs(rng, r, 2)
        packed = pack_signs(signs)
        expected = hamming_oracle(signs[:, 0], signs[:, 1])
        assert hamming_distance(packed[0], packed[1], r) == expected


def test_hamming_rejects_word_count_mismatch():
    with pytest.raises(ContractError, match="words"):
        hamming_distance(np.zeros(1, dtype=np.uint64), np.zeros(2, dtype=np.uint64), 65)


def test_hamming_metric_axioms():
    rng = np.random.default_rng(2)
    signs = random_signs(rng, 24, 6)
    packed = pack_signs(signs)
    for a in range(6):
        for b in range(6):
            dab = hamming_distance(packed[a], packed[b], 24)
            assert dab == hamming_distance(packed[b], packed[a], 24)
            for c in range(6):
                assert dab <= (hamming_distance(packed[a], packed[c], 24)
                               + hamming_distance(packed[c], packed[b], 24))


def test_distances_to_all_matches_pairwise():
    rng = np.random.default_rng(3)
    signs = random_signs(rng, 65, 7)
    packed = pack_signs(signs)
    q = packed[4]
    dists = distances_to_all(packed, q)
    for j in range(7):
        assert dists[j] == hamming_distance(packed[j], q, 65)


def test_distances_to_all_block_equals_stacked_rows():
    rng = np.random.default_rng(14)
    for r in PAD_BOUNDARY_LENGTHS:
        db = pack_signs(random_signs(rng, r, 11))
        queries = pack_signs(random_signs(rng, r, 4))
        block = distances_to_all(db, queries)
        assert block.shape == (4, 11)
        assert np.array_equal(block, np.stack([distances_to_all(db, q) for q in queries]))


def test_distances_to_all_dtype_holds_every_distance():
    # all bits differ: the widest distance must not wrap in the small dtype
    for r in (1, 64, 192, 193, 256):
        signs = np.ones((r, 1), dtype=np.int8)
        d = distances_to_all(pack_signs(signs), pack_signs(-signs)[0])
        assert d.tolist() == [r]


# --- the shared ranker ------------------------------------------------------------

def ranked_ids_and_dists(index, q_packed):
    """Ids and distances in rank order, concatenated over the ranker's tiles."""
    ids, dists, seen = [], [], 0
    queries = CodeMatrix(q_packed, index.codes.r)
    for rows, order, d in rank_tiles(lambda *tile: tile, index, queries):
        assert rows.start == seen and order.shape == (rows.stop - rows.start, index.codes.n)
        assert np.array_equal(d, distances_to_all(index.codes.packed, q_packed[rows]))
        seen = rows.stop
        ids.append(index.ids[order])
        dists.append(np.take_along_axis(d, order, axis=1))
    assert seen == len(q_packed)
    return np.concatenate(ids), np.concatenate(dists)


BLOCK = 4


@pytest.mark.parametrize("id_order", ("ascending", "shuffled"))
@pytest.mark.parametrize("r", PAD_BOUNDARY_LENGTHS + (2, 3, 4))
@pytest.mark.parametrize("n_query", (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1))
def test_ranked_matches_lexsort_oracle_across_tiles(monkeypatch, r, n_query, id_order):
    n_db = 30
    monkeypatch.setattr(hamming, "TILE_ENTRIES", BLOCK * n_db + n_db - 1)
    rng = np.random.default_rng(100 * r + n_query)
    # r <= 4 gives heavy distance ties among 30 items
    ids = rng.permutation(1000)[:n_db]
    if id_order == "ascending":
        ids = np.sort(ids)
    index = make_index(random_signs(rng, r, n_db), ids=ids)
    q_packed = pack_signs(random_signs(rng, r, n_query))
    want_ids, want_dists = lexsort_oracle(index, q_packed)
    got_ids, got_dists = ranked_ids_and_dists(index, q_packed)
    assert np.array_equal(got_ids, want_ids)
    assert np.array_equal(got_dists, want_dists)


def test_ranked_tile_is_at_least_one_row(monkeypatch):
    monkeypatch.setattr(hamming, "TILE_ENTRIES", 1)
    rng = np.random.default_rng(15)
    index = make_index(random_signs(rng, 8, 6))
    tiles = rank_tiles(lambda *tile: tile, index, CodeMatrix.from_signs(random_signs(rng, 8, 3)))
    assert [t[0] for t in tiles] == [slice(0, 1), slice(1, 2), slice(2, 3)]


def test_ranking_rejects_queries_of_another_code_length():
    # r = 8 and r = 16 both pack into one word, so only the length tells them apart
    rng = np.random.default_rng(16)
    index = make_index(random_signs(rng, 16, 6))
    queries = CodeMatrix.from_signs(random_signs(rng, 8, 3))
    message = "query codes have r=8 but database has r=16"
    with pytest.raises(ContractError, match=message):
        hamming.retrieve(index, queries, np.arange(3), 2)
    with pytest.raises(ContractError, match=message):
        evaluate(index, queries, index.labels[:, :3])


# --- topk --------------------------------------------------------------------------

def make_index(signs, ids=None):
    cm = CodeMatrix.from_signs(signs)
    n = cm.n
    labels = np.ones((1, n), dtype=np.uint8)
    if ids is None:
        ids = np.arange(n, dtype=np.int64)
    return RetrievalIndex(cm, labels, np.asarray(ids, dtype=np.int64))


def test_topk_full_ranking_is_permutation():
    rng = np.random.default_rng(4)
    index = make_index(random_signs(rng, 16, 20))
    q = pack_signs(random_signs(rng, 16, 1))[0]
    ranked = topk(index, q, 20)
    assert sorted(ranked.tolist()) == list(range(20))


def test_topk_exact_match_ranks_first():
    rng = np.random.default_rng(5)
    signs = random_signs(rng, 16, 10)
    index = make_index(signs)
    # force uniqueness of the match by flipping the other columns' first bit
    target = signs[:, 3].copy()
    q = pack_signs(target[:, None])[0]
    dists = distances_to_all(index.codes.packed, q)
    if (dists == 0).sum() == 1:
        assert topk(index, q, 1)[0] == 3


def test_topk_breaks_ties_by_ascending_id():
    signs = np.array([[1, 1, -1], [1, 1, -1]], dtype=np.int8)
    # ids deliberately not in storage order
    index = make_index(signs, ids=[7, 2, 9])
    q = pack_signs(np.array([[1], [1]], dtype=np.int8))[0]
    # columns 0 and 1 both at distance 0: id 2 must precede id 7
    assert topk(index, q, 3).tolist() == [2, 7, 9]


def test_topk_matches_full_sort_oracle():
    rng = np.random.default_rng(6)
    signs = random_signs(rng, 16, 50)
    ids = rng.permutation(50).astype(np.int64)
    index = make_index(signs, ids=ids)
    q_signs = random_signs(rng, 16, 1)
    q = pack_signs(q_signs)[0]
    assert topk(index, q, 50).tolist() == rank_oracle(signs, q_signs[:, 0], ids)


def test_topk_rejects_out_of_range_k():
    rng = np.random.default_rng(7)
    index = make_index(random_signs(rng, 8, 5))
    q = pack_signs(random_signs(rng, 8, 1))[0]
    with pytest.raises(ContractError, match="k must"):
        topk(index, q, 0)
    with pytest.raises(ContractError, match="k must"):
        topk(index, q, 6)


# --- encoding ------------------------------------------------------------------------

def test_encode_with_constant_output():
    enc = constant_encoder([0.5, -0.5])
    cm = encode_with(enc, np.zeros((4, 3)))
    assert np.array_equal(cm.signs, np.tile([[1], [-1]], (1, 4)))


def test_encode_with_zero_output_becomes_plus_one():
    enc = constant_encoder([0.0, 0.0])
    cm = encode_with(enc, np.ones((2, 3)))
    assert np.all(cm.signs == 1)


def test_encode_with_peaks_below_three_hidden_blocks():
    # the tape holds layer inputs only, and bias and relu work in place, so
    # a (32, 64, 64) encoder needs about two (64, batch) float64 blocks
    from xmhash.mlp import glorot_mlp
    enc = glorot_mlp((32, 64, 64), seed=10)
    feats = np.random.default_rng(11).standard_normal((20000, 32))
    block = 64 * feats.shape[0] * 8
    tracemalloc.start()
    try:
        encode_with(enc, feats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * block, f"peak {peak / block:.2f} hidden blocks"


# the bench's encoders (16 or 32 features, --hidden 64, 64 bits) and the
# CLI's default --hidden 512, with the chunk rows C the sizing rule gives each
CHUNKED_ENCODERS = [((16, 64, 64), 4096), ((32, 64, 64), 4096),
                    ((16, 512, 64), 512), ((32, 512, 64), 512)]


@pytest.mark.parametrize("dims, c", CHUNKED_ENCODERS)
def test_encode_chunks_are_whole_multiples_of_64_rows(dims, c):
    enc = glorot_mlp(dims, seed=1)
    for n, sizes in ((1, [1]), (2 * c - 1, [2 * c - 1]), (2 * c, [c, c]),
                     (2 * c + 1, [c, c + 1]), (3 * c + 7, [c, c, c + 7])):
        chunks = encode_chunks(enc, n)
        assert [s.stop - s.start for s in chunks] == sizes
        assert chunks[0].start == 0 and chunks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(chunks, chunks[1:]))
    # retrieval50k's 48,600 fresh items: 48,600 // C chunks of even size, all
    # but the last whole 64-row blocks of at least C rows (4,416 x 10 + 4,440
    # at C = 4,096, where the rest once made a last chunk of 7,640)
    sizes = [s.stop - s.start for s in encode_chunks(enc, 48_600)]
    assert len(sizes) == 48_600 // c and sum(sizes) == 48_600
    assert all(s % 64 == 0 and s >= c for s in sizes[:-1])
    assert max(sizes) - min(sizes) < 128
    assert c != 4096 or sizes == [4416] * 10 + [4440]


@pytest.mark.parametrize("mult, extra", [(2, -1), (2, 0), (2, 1), (3, 7), (0, 49_000)])
@pytest.mark.parametrize("dims, c", CHUNKED_ENCODERS)
def test_chunked_encoding_matches_the_one_block_bits(dims, c, mult, extra):
    # each chunk's floats and codes are the one-block pass's columns, bit
    # for bit: the sizing rule keeps every column in the OpenBLAS kernel
    # the whole product gives it, so the chunk must not be shrunk here
    enc = glorot_mlp(dims, seed=sum(dims))
    n = mult * c + extra
    x = np.random.default_rng(n).standard_normal((n, dims[0]))
    whole, codes = forward(enc, x)[0], encode_with(enc, x).packed
    chunks = encode_chunks(enc, n)
    assert len(chunks) == max(1, n // c)
    for rows in chunks:
        assert np.array_equal(forward(enc, x[rows])[0], whole[:, rows])
        assert np.array_equal(encode_with(enc, x[rows]).packed, codes[rows])


def test_chunked_database_matches_the_per_item_oracle(trained_i2t):
    # 3 * 512 + 7 fresh items through a --hidden 512 text encoder: three chunks
    ds = synth(1553, 8, 12, 3, noise=0.1, seed=6)
    split = make_split(ds.n, 10, len(trained_i2t.codes.packed), seed=7)
    model = replace(trained_i2t, text_encoder=glorot_mlp((12, 512, trained_i2t.r), seed=8))
    assert len(encode_chunks(model.text_encoder, len(split.retrieval_ids))) == 3
    index = encode_database(model, ds, split, reencode_train=True)
    for p, i in enumerate(split.retrieval_ids):
        oracle = encode_with(model.text_encoder, ds.text_features[[i]])
        assert np.array_equal(index.codes.packed[p], oracle.packed[0])


def test_encode_database_memory_stays_flat_in_the_fresh_items():
    # 49,000 fresh rows through 32 -> 64 -> 64, the retrieval50k text side:
    # encoded in one block the hidden activations alone take 48 MiB
    rng = np.random.default_rng(20)
    n = 50_400
    labels = np.zeros((4, n), dtype=np.uint8)
    labels[rng.integers(0, 4, n), np.arange(n)] = 1
    ds = MultiModalDataset("flat", rng.standard_normal((n, 16)),
                           rng.standard_normal((n, 32)), labels)
    split = SplitSpec(np.arange(1000), np.arange(1000, n), np.arange(1000, 1400), n)
    model = TaskModel("i2t", "full", glorot_mlp((16, 64, 64), seed=21),
                      glorot_mlp((32, 64, 64), seed=22), np.zeros((64, 4)),
                      CodeMatrix.from_signs(np.ones((64, 400))),
                      HyperParams(0.1, 0.01, 1e-4, 1e-3, task="i2t"), ())
    tracemalloc.start()
    try:
        index = encode_database(model, ds, split)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert index.codes.n == n - 1000
    assert peak < 16 * 2 ** 20, f"encode_database peaked at {peak / 2 ** 20:.1f} MiB"


def test_encode_with_matches_forward_sign_oracle():
    from xmhash.mlp import glorot_mlp
    enc = glorot_mlp((5, 4, 3), seed=8)
    rng = np.random.default_rng(9)
    feats = rng.standard_normal((6, 5))
    cm = encode_with(enc, feats)
    out, _ = forward(enc, feats)
    for j in range(6):
        assert np.array_equal(cm.signs[:, j], np.where(out[:, j] >= 0, 1, -1))


def test_encode_with_rejects_dim_mismatch():
    enc = constant_encoder([1.0])
    with pytest.raises(ContractError, match="dims"):
        encode_with(enc, np.zeros((2, 5)))


def test_encode_queries_uses_query_side_encoder(tiny_ds, tiny_split, trained_i2t, trained_t2i):
    q_i2t = encode_queries(trained_i2t, tiny_ds, tiny_split)
    oracle = encode_with(trained_i2t.image_encoder,
                         tiny_ds.image_features[tiny_split.query_ids])
    assert np.array_equal(q_i2t.signs, oracle.signs)
    q_t2i = encode_queries(trained_t2i, tiny_ds, tiny_split)
    oracle = encode_with(trained_t2i.text_encoder,
                         tiny_ds.text_features[tiny_split.query_ids])
    assert np.array_equal(q_t2i.signs, oracle.signs)


def test_encode_database_mixed_split_column_rule(tiny_ds, tiny_split, trained_i2t):
    index = encode_database(trained_i2t, tiny_ds, tiny_split)
    train_pos = {int(t): p for p, t in enumerate(tiny_split.train_ids)}
    fresh_oracle = encode_with(trained_i2t.text_encoder, tiny_ds.text_features)
    for p, i in enumerate(index.ids):
        if int(i) in train_pos:
            expected = trained_i2t.codes.signs[:, train_pos[int(i)]]
        else:
            expected = fresh_oracle.signs[:, int(i)]
        assert np.array_equal(index.codes.signs[:, p], expected)


def test_encode_database_follows_train_id_order(tiny_ds, tiny_split, trained_i2t):
    # a model's code columns follow split.train_ids, sorted or not
    perm = np.random.default_rng(18).permutation(len(tiny_split.train_ids))
    split = SplitSpec(tiny_split.query_ids, tiny_split.retrieval_ids,
                      tiny_split.train_ids[perm], tiny_split.n)
    model = replace(trained_i2t,
                    codes=CodeMatrix.from_signs(trained_i2t.codes.signs[:, perm]))
    want = encode_database(trained_i2t, tiny_ds, tiny_split)
    assert np.array_equal(encode_database(model, tiny_ds, split).codes.signs, want.codes.signs)


def test_encode_database_train_equals_retrieval_reuses_codes(tiny_ds, desk_cfg):
    from xmhash.data import make_split
    from xmhash.objective import HyperParams
    from xmhash.training import train_task
    split = make_split(tiny_ds.n, 10, 50, seed=4)
    assert np.array_equal(split.train_ids, split.retrieval_ids)
    hp = HyperParams(0.1, 0.01, 1e-4, 1e-3, task="i2t")
    model = train_task(tiny_ds, split, desk_cfg, hp)
    index = encode_database(model, tiny_ds, split)
    assert np.array_equal(index.codes.signs, model.codes.signs)


def test_encode_database_reencode_flag_hashes_everything(tiny_ds, tiny_split, trained_i2t):
    index = encode_database(trained_i2t, tiny_ds, tiny_split, reencode_train=True)
    oracle = encode_with(trained_i2t.text_encoder,
                         tiny_ds.text_features[tiny_split.retrieval_ids])
    assert np.array_equal(index.codes.signs, oracle.signs)


def test_encode_database_t2i_uses_image_encoder(tiny_ds, tiny_split, trained_t2i):
    index = encode_database(trained_t2i, tiny_ds, tiny_split, reencode_train=True)
    oracle = encode_with(trained_t2i.image_encoder,
                         tiny_ds.image_features[tiny_split.retrieval_ids])
    assert np.array_equal(index.codes.signs, oracle.signs)


# --- code files -------------------------------------------------------------------------

@pytest.mark.parametrize("r", PAD_BOUNDARY_LENGTHS)
def test_code_file_round_trip(tmp_path, r):
    rng = np.random.default_rng(10 + r)
    cm = CodeMatrix.from_signs(random_signs(rng, r, 6))
    path = write_codes(cm, tmp_path / "x.codes")
    loaded = read_codes(path)
    assert loaded.r == r and loaded.n == 6
    assert np.array_equal(loaded.signs, cm.signs)
    assert np.array_equal(loaded.packed, cm.packed)


def test_code_file_rejects_truncation(tmp_path):
    rng = np.random.default_rng(11)
    path = write_codes(CodeMatrix.from_signs(random_signs(rng, 16, 4)), tmp_path / "x.codes")
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(LoadError, match="wrong size"):
        read_codes(path)


def test_code_file_rejects_bad_version(tmp_path):
    rng = np.random.default_rng(12)
    path = write_codes(CodeMatrix.from_signs(random_signs(rng, 8, 2)), tmp_path / "x.codes")
    payload = bytearray(path.read_bytes())
    payload[8:12] = (9).to_bytes(4, "little")
    path.write_bytes(bytes(payload))
    with pytest.raises(LoadError, match="version 9"):
        read_codes(path)


def test_code_file_rejects_nonzero_padding(tmp_path):
    rng = np.random.default_rng(13)
    path = write_codes(CodeMatrix.from_signs(random_signs(rng, 5, 2)), tmp_path / "x.codes")
    payload = bytearray(path.read_bytes())
    payload[12 + 7] |= 0x80  # set the top pad bit of instance 0's only word
    path.write_bytes(bytes(payload))
    with pytest.raises(LoadError, match="padding"):
        read_codes(path)


# each case rewrites the header of an r = 16, n = 4 code file
CODE_HEADER_ERRORS = {
    "8 bytes": (lambda payload: payload[:8], "code file too short for its header: {path}"),
    "r = 0": (lambda payload: (0).to_bytes(4, "little") + payload[4:],
              "code file header has bad dims r=0 n=4"),
    "n = 0": (lambda payload: payload[:4] + (0).to_bytes(4, "little") + payload[8:],
              "code file header has bad dims r=16 n=0"),
}


@pytest.mark.parametrize("case", CODE_HEADER_ERRORS)
def test_code_file_names_a_corrupt_header(tmp_path, case):
    rng = np.random.default_rng(14)
    path = write_codes(CodeMatrix.from_signs(random_signs(rng, 16, 4)), tmp_path / "x.codes")
    corrupt, message = CODE_HEADER_ERRORS[case]
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(LoadError) as exc:
        read_codes(path)
    assert str(exc.value) == message.format(path=path)


def test_code_file_rejects_missing(tmp_path):
    with pytest.raises(LoadError, match="not found"):
        read_codes(tmp_path / "nope.codes")
