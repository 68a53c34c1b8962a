"""Dataset container, similarity oracle, synth generator, and disk formats."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import PLAIN_IDS, overlap_block, pair, similarity, synth_labels
from xmhash import data
from xmhash.data import (
    MANIFEST_NAME,
    SPLIT_FILES,
    MultiModalDataset,
    PairwiseSimilarity,
    SplitSpec,
    load_dataset,
    load_split,
    make_split,
    save_dataset,
    save_split,
    synth,
)
from xmhash.errors import ContractError, LoadError


def labels_from_rows(rows):
    """Column-per-instance label matrix from per-instance row vectors."""
    return np.asarray(rows, dtype=np.uint8).T


# --- similarity -----------------------------------------------------------

def test_similarity_shared_label():
    lab = labels_from_rows([[1, 0, 1], [0, 0, 1]])
    assert similarity(lab, 0, 1) == 1


def test_similarity_disjoint_labels():
    lab = labels_from_rows([[1, 0, 0], [0, 1, 0]])
    assert similarity(lab, 0, 1) == 0


def test_similarity_self_is_one():
    lab = labels_from_rows([[1, 0, 0], [0, 1, 0]])
    assert similarity(lab, 1, 1) == 1


def test_similarity_symmetric_over_all_pairs():
    rng = np.random.default_rng(0)
    lab = rng.integers(0, 2, size=(3, 8)).astype(np.uint8)
    lab[0, lab.sum(axis=0) == 0] = 1
    for i in range(8):
        for j in range(8):
            assert similarity(lab, i, j) == similarity(lab, j, i)


def test_similarity_out_of_range_rejected():
    lab = labels_from_rows([[1, 0], [0, 1]])
    with pytest.raises(ContractError, match="out of range"):
        similarity(lab, 0, 2)


# --- pairwise oracle ------------------------------------------------------

def test_pairwise_pair_matches_similarity():
    rng = np.random.default_rng(1)
    lab = rng.integers(0, 2, size=(3, 7)).astype(np.uint8)
    lab[0, lab.sum(axis=0) == 0] = 1
    sim = PairwiseSimilarity(lab)
    for i in range(7):
        for j in range(7):
            assert pair(sim, i, j) == similarity(lab, i, j)


def test_pairwise_block_matches_pair():
    rng = np.random.default_rng(2)
    lab = rng.integers(0, 2, size=(2, 6)).astype(np.uint8)
    lab[0, lab.sum(axis=0) == 0] = 1
    sim = PairwiseSimilarity(lab)
    rows, cols = [1, 4], [0, 2, 5]
    blk = sim.overlap(rows, cols)
    assert blk.shape == (2, 3) and blk.dtype == np.bool_
    for a, i in enumerate(rows):
        for b, j in enumerate(cols):
            assert blk[a, b] == pair(sim, i, j)


def test_pairwise_block_all_columns_default():
    lab = labels_from_rows([[1, 0], [0, 1], [1, 1]])
    sim = PairwiseSimilarity(lab)
    blk = sim.overlap([0, 1])
    assert blk.shape == (2, 3)
    assert np.array_equal(blk[:, 2], [1.0, 1.0])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pairwise_block_matches_float_product(data):
    # c up to 20 packs each item's labels into up to three bytes; at most
    # two labels per item, so that a shared label often sits in one byte alone
    c = data.draw(st.integers(1, 20), label="c")
    n = data.draw(st.integers(1, 30), label="n")
    lab = np.zeros((c, n), dtype=np.uint8)
    for i in range(n):
        lab[sorted(data.draw(st.sets(st.integers(0, c - 1), max_size=2))), i] = 1
    ids = st.lists(st.integers(0, n - 1), max_size=12)
    rows = data.draw(ids, label="rows")
    cols = data.draw(st.none() | ids, label="cols")
    blk = PairwiseSimilarity(lab).overlap(rows, cols)
    assert blk.dtype == np.bool_
    assert np.array_equal(blk, overlap_block(lab, rows, cols))


# --- dataset container ----------------------------------------------------

def test_dataset_validate_accepts_synth(tiny_ds):
    assert tiny_ds.n == 60 and tiny_ds.d_x == 8 and tiny_ds.d_y == 12 and tiny_ds.c == 3


def test_dataset_rejects_empty():
    with pytest.raises(ContractError, match="at least one instance"):
        MultiModalDataset("empty", np.zeros((0, 2)), np.zeros((0, 3)),
                          np.zeros((2, 0), dtype=np.uint8))


def test_dataset_rejects_misaligned_blocks():
    with pytest.raises(ContractError, match="misaligned"):
        MultiModalDataset("bad", np.zeros((3, 2)), np.zeros((4, 2)),
                          np.ones((2, 3), dtype=np.uint8))


def test_dataset_names_unlabeled_instance():
    lab = np.ones((2, 3), dtype=np.uint8)
    lab[:, 1] = 0
    with pytest.raises(ContractError, match="instance 1"):
        MultiModalDataset("bad", np.zeros((3, 2)), np.zeros((3, 2)), lab)


def test_dataset_rejects_non_finite_features():
    img = np.zeros((2, 2))
    img[1, 0] = np.inf
    with pytest.raises(ContractError, match="non-finite"):
        MultiModalDataset("bad", img, np.zeros((2, 2)), np.ones((1, 2), dtype=np.uint8))


def test_dataset_rejects_non_binary_labels():
    with pytest.raises(ContractError, match="0 or 1"):
        MultiModalDataset("bad", np.zeros((2, 2)), np.zeros((2, 2)),
                          np.full((1, 2), 3, dtype=np.uint8))


# --- synth ----------------------------------------------------------------

def test_synth_deterministic():
    a = synth(100, 16, 32, 4, noise=0.0, seed=7)
    b = synth(100, 16, 32, 4, noise=0.0, seed=7)
    assert np.array_equal(a.image_features, b.image_features)
    assert np.array_equal(a.text_features, b.text_features)
    assert np.array_equal(a.labels, b.labels)


def test_synth_noise_free_single_class_images_identical():
    ds = synth(120, 16, 32, 4, noise=0.0, seed=3)
    singles = np.flatnonzero(ds.labels.sum(axis=0) == 1)
    cls = ds.labels[:, singles].argmax(axis=0)
    for k in range(4):
        members = singles[cls == k]
        if members.size < 2:
            continue
        first = ds.image_features[members[0]]
        for m in members[1:]:
            assert np.array_equal(ds.image_features[m], first)


def test_synth_noise_free_within_class_similarity():
    ds = synth(60, 8, 8, 4, noise=0.0, seed=9)
    singles = np.flatnonzero(ds.labels.sum(axis=0) == 1)
    cls = ds.labels[:, singles].argmax(axis=0)
    for a in range(singles.size):
        for b in range(singles.size):
            if cls[a] == cls[b]:
                assert similarity(ds.labels, int(singles[a]), int(singles[b])) == 1


def test_synth_labels_cover_every_instance():
    ds = synth(50, 6, 9, 3, noise=0.5, seed=1)
    counts = ds.labels.sum(axis=0)
    assert counts.min() >= 1 and counts.max() <= 2


def test_synth_text_features_nonnegative():
    ds = synth(50, 6, 9, 3, noise=0.7, seed=2)
    assert ds.text_features.min() >= 0.0


@settings(max_examples=300, deadline=None)
@given(shape=st.integers(1, 40).flatmap(lambda c: st.tuples(st.integers(c, 400), st.just(c))),
       seed=st.integers(0, 2**128 - 1))
def test_label_draw_matches_the_per_item_choice_loop(shape, seed):
    n, c = shape
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(data._draw_labels(rng, n, c), synth_labels(ref_rng, n, c))
    # the same stream afterwards, so every later draw of synth is unchanged
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_synth_matches_the_per_item_choice_loop_at_50k(monkeypatch):
    # the retrieval50k bench shape: 50,000 items, 4 classes, noise 0.2
    fast = synth(50_000, 16, 32, 4, noise=0.2, seed=1)
    monkeypatch.setattr(data, "_draw_labels", synth_labels)
    slow = synth(50_000, 16, 32, 4, noise=0.2, seed=1)
    assert np.array_equal(fast.labels, slow.labels)
    assert np.array_equal(fast.image_features, slow.image_features)
    assert np.array_equal(fast.text_features, slow.text_features)


def test_synth_rejects_bad_sizes():
    with pytest.raises(ContractError, match="n >= c"):
        synth(2, 8, 8, 3)
    with pytest.raises(ContractError, match="d_x >= c"):
        synth(10, 2, 8, 3)
    with pytest.raises(ContractError, match="noise"):
        synth(10, 8, 8, 3, noise=-0.1)


# --- splits ----------------------------------------------------------------

def test_make_split_sizes_and_containment():
    split = make_split(10, 2, 5, seed=0)
    assert len(split.query_ids) == 2
    assert len(split.retrieval_ids) == 8
    assert len(split.train_ids) == 5
    assert np.isin(split.train_ids, split.retrieval_ids).all()
    assert split.n == 10


def test_make_split_deterministic():
    a = make_split(30, 5, 10, seed=4)
    b = make_split(30, 5, 10, seed=4)
    assert np.array_equal(a.query_ids, b.query_ids)
    assert np.array_equal(a.retrieval_ids, b.retrieval_ids)
    assert np.array_equal(a.train_ids, b.train_ids)


def test_make_split_full_train_equals_retrieval():
    split = make_split(12, 3, 9, seed=1)
    assert set(split.train_ids.tolist()) == set(split.retrieval_ids.tolist())


def test_make_split_rejects_bad_sizes():
    with pytest.raises(ContractError, match="n_query"):
        make_split(5, 5, 1)
    with pytest.raises(ContractError, match="n_train"):
        make_split(5, 2, 4)


def test_split_validate_rejects_overlap():
    with pytest.raises(ContractError, match="overlap"):
        SplitSpec(np.array([0, 1]), np.array([1, 2, 3]), np.array([2]), 4)


def test_split_validate_rejects_duplicates():
    with pytest.raises(ContractError, match="duplicates"):
        SplitSpec(np.array([0, 0]), np.array([1, 2]), np.array([1]), 3)


def test_split_validate_rejects_stray_train_ids():
    with pytest.raises(ContractError, match="out of range"):
        SplitSpec(np.array([0]), np.array([1, 2]), np.array([3]), 3)
    with pytest.raises(ContractError, match="subset"):
        SplitSpec(np.array([0]), np.array([1, 2]), np.array([0]), 3)


# --- dataset persistence ----------------------------------------------------

def test_dataset_round_trip(tmp_path, tiny_ds):
    manifest = save_dataset(tiny_ds, tmp_path)
    loaded = load_dataset(manifest)
    assert loaded.name == tiny_ds.name
    assert np.array_equal(loaded.image_features, tiny_ds.image_features)
    assert np.array_equal(loaded.text_features, tiny_ds.text_features)
    assert np.array_equal(loaded.labels, tiny_ds.labels)
    assert loaded.image_features.dtype == np.float32


def test_resaving_a_loaded_dataset_writes_the_same_bytes(tmp_path, tiny_ds):
    save_dataset(tiny_ds, tmp_path / "a")
    save_dataset(load_dataset(tmp_path / "a"), tmp_path / "b")
    for f in (tmp_path / "a").iterdir():
        assert (tmp_path / "b" / f.name).read_bytes() == f.read_bytes()


def test_loaded_dataset_holds_its_blob_bytes_and_no_more(tmp_path):
    # the retrieval50k shape: float64 copies of the features once left the
    # load holding 18.6 MiB, after a peak of 30.4 MiB
    rng = np.random.default_rng(3)
    n = 50_400
    labels = np.zeros((4, n), dtype=np.uint8)
    labels[rng.integers(0, 4, n), np.arange(n)] = 1
    save_dataset(MultiModalDataset("big", rng.standard_normal((n, 16)).astype(np.float32),
                                   rng.standard_normal((n, 32)).astype(np.float32), labels),
                 tmp_path)
    blob_bytes = n * (16 + 32) * 4 + 4 * n
    tracemalloc.start()
    try:
        ds = load_dataset(tmp_path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.n == n
    assert held <= blob_bytes + 2 ** 19, f"load_dataset holds {held / 2 ** 20:.2f} MiB"
    assert peak < 24 * 2 ** 20, f"load_dataset peaked at {peak / 2 ** 20:.1f} MiB"


def test_dataset_load_accepts_directory_path(tmp_path, tiny_ds):
    save_dataset(tiny_ds, tmp_path)
    loaded = load_dataset(tmp_path)
    assert loaded.n == tiny_ds.n


def test_save_overwrites_existing_directory(tmp_path, tiny_ds):
    save_dataset(tiny_ds, tmp_path)
    other = synth(20, 8, 12, 3, noise=0.2, seed=8)
    save_dataset(other, tmp_path)
    assert load_dataset(tmp_path).n == 20


def test_load_rejects_truncated_blob(tmp_path, tiny_ds):
    save_dataset(tiny_ds, tmp_path)
    blob = tmp_path / "image.f32"
    blob.write_bytes(blob.read_bytes()[:-4])
    with pytest.raises(LoadError, match="wrong size"):
        load_dataset(tmp_path)


def test_load_rejects_missing_blob(tmp_path, tiny_ds):
    save_dataset(tiny_ds, tmp_path)
    (tmp_path / "text.f32").unlink()
    with pytest.raises(LoadError, match="not found"):
        load_dataset(tmp_path)


def test_load_rejects_missing_manifest(tmp_path):
    with pytest.raises(LoadError, match="manifest not found"):
        load_dataset(tmp_path / "nope")


def test_load_rejects_manifest_with_unknown_key(tmp_path, tiny_ds):
    manifest = save_dataset(tiny_ds, tmp_path)
    text = manifest.read_text().replace('"name"', '"surprise": 1, "name"', 1)
    manifest.write_text(text)
    with pytest.raises(LoadError, match="unexpected"):
        load_dataset(tmp_path)


def test_load_rejects_manifest_with_missing_key(tmp_path, tiny_ds):
    import json
    manifest = save_dataset(tiny_ds, tmp_path)
    payload = json.loads(manifest.read_text())
    del payload["dtype"]
    manifest.write_text(json.dumps(payload))
    with pytest.raises(LoadError, match="missing"):
        load_dataset(tmp_path)


def test_load_rejects_bad_dtype_tag(tmp_path, tiny_ds):
    import json
    manifest = save_dataset(tiny_ds, tmp_path)
    payload = json.loads(manifest.read_text())
    payload["dtype"] = "f64le"
    manifest.write_text(json.dumps(payload))
    with pytest.raises(LoadError, match="dtype"):
        load_dataset(tmp_path)


# each case rewrites one field of tiny_ds's files (n=60, d_x=8, d_y=12, c=3)
DATASET_FIELD_ERRORS = {
    "manifest a list": (MANIFEST_NAME, lambda b: b"[]\n", "manifest must be a JSON object"),
    "column-major layout": (MANIFEST_NAME,
                            lambda b: b.replace(b'"row_major"', b'"column_major"'),
                            "unsupported layout 'column_major', expected 'row_major'"),
    "d_y = 0": (MANIFEST_NAME, lambda b: b.replace(b'"d_y": 12', b'"d_y": 0'),
                "manifest dims must be positive, got n=60 d_x=8 d_y=0 c=3"),
    "NaN text feature": ("text.f32",
                         lambda b: np.array(np.nan, dtype="<f4").tobytes() + b[4:],
                         "dataset blobs violate invariants: "
                         "text features contain non-finite entries"),
}


@pytest.mark.parametrize("case", DATASET_FIELD_ERRORS)
def test_load_names_a_corrupt_field(tmp_path, tiny_ds, case):
    save_dataset(tiny_ds, tmp_path)
    name, corrupt, message = DATASET_FIELD_ERRORS[case]
    payload = (tmp_path / name).read_bytes()
    bad = corrupt(payload)
    assert bad != payload
    (tmp_path / name).write_bytes(bad)
    with pytest.raises(LoadError) as exc:
        load_dataset(tmp_path)
    assert str(exc.value) == message


def test_load_rejects_non_binary_label_blob(tmp_path, tiny_ds):
    save_dataset(tiny_ds, tmp_path)
    blob = tmp_path / "labels.u8"
    payload = bytearray(blob.read_bytes())
    payload[0] = 7
    blob.write_bytes(bytes(payload))
    with pytest.raises(LoadError, match="0 or 1"):
        load_dataset(tmp_path)


# --- split persistence ------------------------------------------------------

def test_split_round_trip(tmp_path):
    split = make_split(40, 8, 20, seed=6)
    save_split(split, tmp_path)
    loaded = load_split(tmp_path, 40)
    assert np.array_equal(loaded.query_ids, split.query_ids)
    assert np.array_equal(loaded.retrieval_ids, split.retrieval_ids)
    assert np.array_equal(loaded.train_ids, split.train_ids)


def test_save_split_bytes_match_the_per_scalar_form(tmp_path):
    big = 2**62
    split = make_split(500, 100, 300, seed=4)
    split = SplitSpec(split.query_ids,
                      np.concatenate([split.retrieval_ids, [big - 1, big, big + 1, 2**63 - 1]]),
                      np.array([0, 2**63 - 1, big]), 2**63)
    save_split(split, tmp_path)
    for fname, ids in zip(SPLIT_FILES, (split.query_ids, split.retrieval_ids, split.train_ids)):
        assert (tmp_path / fname).read_bytes() == "".join(f"{int(i)}\n" for i in ids).encode()


_ID_LINE = st.text("0123456789", max_size=20) | st.sampled_from(["9" * 18, "1" * 19, " 7", "-1"])
_LINE_END = st.sampled_from(["\n", "\n", "\r\n", "\r", "\n\n", ""])


@given(st.lists(st.tuples(_ID_LINE, _LINE_END), max_size=8))
@example([])
@example([("9" * 18, "\n"), ("12", "")])
def test_plain_id_check_agrees_with_the_regex_oracle(lines):
    text = "".join(line + end for line, end in lines)
    assert data._plain_ids(text) == bool(PLAIN_IDS.fullmatch(text))


def test_split_load_rejects_missing_file(tmp_path):
    with pytest.raises(LoadError, match="not found"):
        load_split(tmp_path, 10)


def test_split_load_rejects_garbage_line(tmp_path):
    split = make_split(10, 2, 4, seed=0)
    save_split(split, tmp_path)
    (tmp_path / SPLIT_FILES[0]).write_text("1\nfoo\n")
    with pytest.raises(LoadError, match="decimal"):
        load_split(tmp_path, 10)


@pytest.mark.parametrize("line", ["9223372036854775808", "-9223372036854775809",
                                  "100000000000000000000"])
def test_split_load_rejects_ids_beyond_int64(tmp_path, line):
    split = make_split(10, 2, 4, seed=0)
    save_split(split, tmp_path)
    (tmp_path / SPLIT_FILES[0]).write_text(f"1\n{line}\n")
    with pytest.raises(LoadError, match=f"{SPLIT_FILES[0]}:2: .*64 bits"):
        load_split(tmp_path, 10)


def test_split_load_accepts_the_int64_extremes(tmp_path):
    (tmp_path / SPLIT_FILES[0]).write_text("9223372036854775807\n-9223372036854775808\n")
    ids = data._parse_ids(tmp_path / SPLIT_FILES[0])
    assert ids.dtype == np.int64 and ids.tolist() == [2**63 - 1, -(2**63)]


def test_split_load_rejects_empty_file(tmp_path):
    split = make_split(10, 2, 4, seed=0)
    save_split(split, tmp_path)
    (tmp_path / SPLIT_FILES[2]).write_text("\n")
    with pytest.raises(LoadError, match="empty"):
        load_split(tmp_path, 10)


def test_split_load_validates_against_dataset_size(tmp_path):
    split = make_split(40, 8, 20, seed=6)
    save_split(split, tmp_path)
    with pytest.raises(LoadError):
        load_split(tmp_path, 10)
