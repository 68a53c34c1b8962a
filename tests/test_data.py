"""Dataset container, similarity oracle, synth generator, and disk formats."""

import numpy as np
import pytest

from reference import pair, similarity
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
    blk = sim.block(rows, cols)
    assert blk.shape == (2, 3) and blk.dtype == np.float64
    for a, i in enumerate(rows):
        for b, j in enumerate(cols):
            assert blk[a, b] == pair(sim, i, j)


def test_pairwise_block_all_columns_default():
    lab = labels_from_rows([[1, 0], [0, 1], [1, 1]])
    sim = PairwiseSimilarity(lab)
    blk = sim.block([0, 1])
    assert blk.shape == (2, 3)
    assert np.array_equal(blk[:, 2], [1.0, 1.0])


def test_pairwise_rejects_out_of_range_ids():
    sim = PairwiseSimilarity(labels_from_rows([[1, 0], [0, 1]]))
    with pytest.raises(ContractError, match="out of range"):
        pair(sim, 2, 0)
    with pytest.raises(ContractError, match="out of range"):
        sim.block([0, 2])
    with pytest.raises(ContractError, match="out of range"):
        sim.block([0], [-1])


def test_pairwise_rejects_non_binary_labels():
    with pytest.raises(ContractError, match="0 or 1"):
        PairwiseSimilarity(np.array([[2, 0], [0, 1]]))


# --- dataset container ----------------------------------------------------

def test_dataset_validate_accepts_synth(tiny_ds):
    tiny_ds.validate()
    assert tiny_ds.n == 60 and tiny_ds.d_x == 8 and tiny_ds.d_y == 12 and tiny_ds.c == 3


def test_dataset_rejects_empty():
    ds = MultiModalDataset("empty", np.zeros((0, 2)), np.zeros((0, 3)),
                           np.zeros((2, 0), dtype=np.uint8))
    with pytest.raises(ContractError, match="at least one instance"):
        ds.validate()


def test_dataset_rejects_misaligned_blocks():
    ds = MultiModalDataset("bad", np.zeros((3, 2)), np.zeros((4, 2)),
                           np.ones((2, 3), dtype=np.uint8))
    with pytest.raises(ContractError, match="misaligned"):
        ds.validate()


def test_dataset_names_unlabeled_instance():
    lab = np.ones((2, 3), dtype=np.uint8)
    lab[:, 1] = 0
    ds = MultiModalDataset("bad", np.zeros((3, 2)), np.zeros((3, 2)), lab)
    with pytest.raises(ContractError, match="instance 1"):
        ds.validate()


def test_dataset_rejects_non_finite_features():
    img = np.zeros((2, 2))
    img[1, 0] = np.inf
    ds = MultiModalDataset("bad", img, np.zeros((2, 2)), np.ones((1, 2), dtype=np.uint8))
    with pytest.raises(ContractError, match="non-finite"):
        ds.validate()


def test_dataset_rejects_non_binary_labels():
    ds = MultiModalDataset("bad", np.zeros((2, 2)), np.zeros((2, 2)),
                           np.full((1, 2), 3, dtype=np.uint8))
    with pytest.raises(ContractError, match="0 or 1"):
        ds.validate()


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
    split.validate(10)


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
    split = SplitSpec(np.array([0, 1]), np.array([1, 2, 3]), np.array([2]))
    with pytest.raises(ContractError, match="overlap"):
        split.validate(4)


def test_split_validate_rejects_duplicates():
    split = SplitSpec(np.array([0, 0]), np.array([1, 2]), np.array([1]))
    with pytest.raises(ContractError, match="duplicates"):
        split.validate(3)


def test_split_validate_rejects_stray_train_ids():
    split = SplitSpec(np.array([0]), np.array([1, 2]), np.array([3]))
    with pytest.raises(ContractError, match="out of range"):
        split.validate(3)
    split = SplitSpec(np.array([0]), np.array([1, 2]), np.array([0]))
    with pytest.raises(ContractError, match="subset"):
        split.validate(3)


# --- dataset persistence ----------------------------------------------------

def test_dataset_round_trip(tmp_path, tiny_ds):
    manifest = save_dataset(tiny_ds, tmp_path)
    loaded = load_dataset(manifest)
    assert loaded.name == tiny_ds.name
    # blobs are float32 on disk, so compare at float32 resolution
    assert np.array_equal(loaded.image_features,
                          tiny_ds.image_features.astype("<f4").astype(np.float64))
    assert np.array_equal(loaded.text_features,
                          tiny_ds.text_features.astype("<f4").astype(np.float64))
    assert np.array_equal(loaded.labels, tiny_ds.labels)
    assert loaded.image_features.dtype == np.float64


def test_dataset_load_accepts_directory_path(tmp_path, tiny_ds):
    save_dataset(tiny_ds, tmp_path)
    loaded = load_dataset(tmp_path)
    assert loaded.n == tiny_ds.n


def test_save_rejects_empty_dataset(tmp_path):
    ds = MultiModalDataset("empty", np.zeros((0, 2)), np.zeros((0, 3)),
                           np.zeros((2, 0), dtype=np.uint8))
    with pytest.raises(ContractError):
        save_dataset(ds, tmp_path / "d")
    assert not (tmp_path / "d" / MANIFEST_NAME).exists()


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


def test_load_rejects_non_binary_label_blob(tmp_path, tiny_ds):
    save_dataset(tiny_ds, tmp_path)
    blob = tmp_path / "labels.u8"
    payload = bytearray(blob.read_bytes())
    payload[0] = 7
    blob.write_bytes(bytes(payload))
    with pytest.raises(LoadError, match="0/1"):
        load_dataset(tmp_path)


# --- split persistence ------------------------------------------------------

def test_split_round_trip(tmp_path):
    split = make_split(40, 8, 20, seed=6)
    save_split(split, tmp_path)
    loaded = load_split(tmp_path, 40)
    assert np.array_equal(loaded.query_ids, split.query_ids)
    assert np.array_equal(loaded.retrieval_ids, split.retrieval_ids)
    assert np.array_equal(loaded.train_ids, split.train_ids)


def test_split_load_rejects_missing_file(tmp_path):
    with pytest.raises(LoadError, match="not found"):
        load_split(tmp_path)


def test_split_load_rejects_garbage_line(tmp_path):
    split = make_split(10, 2, 4, seed=0)
    save_split(split, tmp_path)
    (tmp_path / SPLIT_FILES[0]).write_text("1\nfoo\n")
    with pytest.raises(LoadError, match="decimal"):
        load_split(tmp_path)


@pytest.mark.parametrize("line", ["9223372036854775808", "-9223372036854775809",
                                  "100000000000000000000"])
def test_split_load_rejects_ids_beyond_int64(tmp_path, line):
    split = make_split(10, 2, 4, seed=0)
    save_split(split, tmp_path)
    (tmp_path / SPLIT_FILES[0]).write_text(f"1\n{line}\n")
    with pytest.raises(LoadError, match=f"{SPLIT_FILES[0]}:2: .*64 bits"):
        load_split(tmp_path)


def test_split_load_accepts_the_int64_extremes(tmp_path):
    (tmp_path / SPLIT_FILES[0]).write_text("9223372036854775807\n-9223372036854775808\n")
    for name in SPLIT_FILES[1:]:
        (tmp_path / name).write_text("0\n")
    split = load_split(tmp_path)
    assert split.query_ids.tolist() == [2**63 - 1, -(2**63)]


def test_split_load_rejects_empty_file(tmp_path):
    split = make_split(10, 2, 4, seed=0)
    save_split(split, tmp_path)
    (tmp_path / SPLIT_FILES[2]).write_text("\n")
    with pytest.raises(LoadError, match="empty"):
        load_split(tmp_path)


def test_split_load_validates_against_dataset_size(tmp_path):
    split = make_split(40, 8, 20, seed=6)
    save_split(split, tmp_path)
    with pytest.raises(LoadError):
        load_split(tmp_path, 10)
