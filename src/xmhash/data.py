"""Datasets, label-overlap similarity, splits, and their on-disk formats.

A dataset couples three aligned blocks: image features (n x d_x), text
features (n x d_y), and a binary label matrix (c x n). Two instances are
similar when they share at least one label. The n x n similarity matrix is
never materialized; consumers go through PairwiseSimilarity, which serves
boolean row/column blocks computed on demand from packed label bytes.
Features are float32 in memory, as on disk, and cast exactly to float64 where used.

Disk layout of a dataset directory:
    manifest.json   fields exactly: name, n, d_x, d_y, c,
                    image_blob, text_blob, label_blob,
                    dtype "f32le", layout "row_major"
    <image_blob>    n*d_x little-endian float32, row major
    <text_blob>     n*d_y little-endian float32, row major
    <label_blob>    c*n bytes, one 0/1 byte per entry, row major

Split files (query.ids / retrieval.ids / train.ids) hold one decimal
instance index per line, LF-terminated.
"""

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, LoadError

MANIFEST_NAME = "manifest.json"
_MANIFEST_KEYS = (
    "name", "n", "d_x", "d_y", "c",
    "image_blob", "text_blob", "label_blob", "dtype", "layout",
)
SPLIT_FILES = ("query.ids", "retrieval.ids", "train.ids")
SIDES = ("image", "text")  # the modalities by side index


@dataclass(frozen=True)
class MultiModalDataset:
    """Aligned image features, text features, and binary labels; checked when built."""

    name: str
    image_features: np.ndarray  # (n, d_x) float32
    text_features: np.ndarray   # (n, d_y) float32
    labels: np.ndarray          # (c, n) uint8, entries 0/1

    @property
    def n(self) -> int:
        return self.image_features.shape[0]

    @property
    def d_x(self) -> int:
        return self.image_features.shape[1]

    @property
    def d_y(self) -> int:
        return self.text_features.shape[1]

    @property
    def c(self) -> int:
        return self.labels.shape[0]

    def __post_init__(self) -> None:
        if self.image_features.ndim != 2 or self.text_features.ndim != 2:
            raise ContractError("feature blocks must be 2-D")
        if self.labels.ndim != 2:
            raise ContractError("label block must be 2-D")
        n = self.image_features.shape[0]
        if n == 0:
            raise ContractError("dataset must contain at least one instance")
        if self.text_features.shape[0] != n or self.labels.shape[1] != n:
            raise ContractError(
                "misaligned blocks: "
                f"{n} image rows, {self.text_features.shape[0]} text rows, "
                f"{self.labels.shape[1]} label columns"
            )
        if not np.all(np.isfinite(self.image_features)):
            raise ContractError("image features contain non-finite entries")
        if not np.all(np.isfinite(self.text_features)):
            raise ContractError("text features contain non-finite entries")
        if not np.isin(self.labels, (0, 1)).all():
            raise ContractError("label entries must be 0 or 1")
        empty = np.flatnonzero(self.labels.sum(axis=0) == 0)
        if empty.size:
            raise ContractError(f"instance {int(empty[0])} has no labels")


def label_overlap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean (len_a, len_b) block: item i of a shares a label with item j
    of b. Both hold np.packbits of (c, items) labels along axis 0, so the
    test is a byte AND, ORed over the ceil(c / 8) byte rows."""
    hit = a[0][:, None] & b[0]
    for k in range(1, a.shape[0]):
        hit |= a[k][:, None] & b[k]
    return hit != 0


class PairwiseSimilarity:
    """On-demand similarity oracle over a dataset's (c, n) 0/1 labels, or
    columns of them, checked by the dataset; never builds the n x n matrix."""

    def __init__(self, labels: np.ndarray):
        self._packed = np.packbits(labels.astype(bool), axis=0)
        self.n = labels.shape[1]

    def overlap(self, rows: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
        """Similarity sub-matrix for in-range row/column instance ids, as
        bool of shape (len(rows), n_cols); cols=None means all instances."""
        lc = self._packed if cols is None else self._packed[:, cols]
        return label_overlap(self._packed[:, rows], lc)


@dataclass(frozen=True)
class SplitSpec:
    """Query / retrieval / train instance id lists for one experiment over
    a dataset of n items; checked when built."""

    query_ids: np.ndarray
    retrieval_ids: np.ndarray
    train_ids: np.ndarray
    n: int  # size of the dataset the ids index

    def __post_init__(self) -> None:
        for name, ids in (
            ("query", self.query_ids),
            ("retrieval", self.retrieval_ids),
            ("train", self.train_ids),
        ):
            ids = np.asarray(ids)
            if ids.ndim != 1 or ids.size == 0:
                raise ContractError(f"{name} ids must be a non-empty 1-D list")
            if ids.min() < 0 or ids.max() >= self.n:
                raise ContractError(
                    f"{name} ids out of range for dataset of size {self.n}"
                )
            ordered = np.sort(ids)
            if (ordered[1:] == ordered[:-1]).any():
                raise ContractError(f"{name} ids contain duplicates")
        if np.isin(self.query_ids, self.retrieval_ids).any():
            raise ContractError("query and retrieval ids overlap")
        if not np.isin(self.train_ids, self.retrieval_ids).all():
            raise ContractError("train ids must be a subset of retrieval ids")


def make_split(n: int, n_query: int, n_train: int, seed: int = 0) -> SplitSpec:
    """Random disjoint query set; train ids drawn from the retrieval set."""
    if not (0 < n_query < n):
        raise ContractError(f"n_query must be in (0, {n}), got {n_query}")
    if not (0 < n_train <= n - n_query):
        raise ContractError(
            f"n_train must be in (0, {n - n_query}], got {n_train}"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    query = np.sort(order[:n_query])
    retrieval = np.sort(order[n_query:])
    train = np.sort(rng.choice(retrieval, size=n_train, replace=False))
    return SplitSpec(query.astype(np.int64), retrieval.astype(np.int64), train.astype(np.int64), n)


def synth(
    n: int,
    d_x: int,
    d_y: int,
    c: int,
    noise: float = 0.1,
    seed: int = 0,
    name: str = "synth",
) -> MultiModalDataset:
    """Synthetic dataset with planted cross-modal structure.

    Each instance draws 1 or 2 of c classes. Image features are the mean of
    Gaussian class prototypes plus isotropic noise; text features are sums
    of per-class disjoint vocabulary blocks plus clipped noise, so both
    modalities carry the label signal and noise=0 makes single-class
    instances exact prototype copies. Both blocks are standardized per
    dimension and then damped to a fixed modest magnitude, which keeps
    summed-objective gradients in a range where plain SGD is stable.
    """
    if c < 1 or n < c:
        raise ContractError(f"need n >= c >= 1, got n={n} c={c}")
    if d_x < c or d_y < c:
        raise ContractError(f"need d_x >= c and d_y >= c, got d_x={d_x} d_y={d_y}")
    if noise < 0:
        raise ContractError(f"noise must be >= 0, got {noise}")
    rng = np.random.default_rng(seed)
    img_protos = rng.normal(0.0, 1.0, size=(c, d_x))
    txt_protos = np.zeros((c, d_y))
    block = d_y // c
    for k in range(c):
        txt_protos[k, k * block : (k + 1) * block] = 4.0

    labels = _draw_labels(rng, n, c)
    member = labels.T.astype(np.float64)  # (n, c)
    img = (member @ img_protos) / member.sum(axis=1, keepdims=True)
    img += noise * rng.standard_normal((n, d_x))
    txt = member @ txt_protos
    txt = np.maximum(txt + noise * rng.standard_normal((n, d_y)), 0.0)

    # damp both blocks to a modest per-dimension spread so summed-objective
    # gradients stay in a range where plain SGD is stable. Images take a
    # per-dim affine (the Gaussian prototypes absorb it); text is scaled by
    # positive per-dim factors only, so the counts stay nonnegative.
    scale = 0.3
    img = scale * _standardize(img)
    txt_std = txt.std(axis=0)
    txt = scale * (txt / np.where(txt_std > 0, txt_std, 1.0))
    return MultiModalDataset(name, img.astype(np.float32), txt.astype(np.float32), labels)


def _draw_labels(rng: np.random.Generator, n: int, c: int) -> np.ndarray:
    """(c, n) 0/1 labels, 1 or 2 of c classes per item, drawn in one
    integers() call in the order that one rng.choice(c, k, replace=False) per
    item draws them: Floyd's sampling draws below c, or below c-1 and below
    c, then choice's shuffle draw below 2, kept only for its place in the
    stream (a 0 in steps is no draw). An oracle test pins the labels and the
    stream after them to that per-item loop."""
    pair = rng.integers(1, min(2, c) + 1, size=n) == 2
    steps = np.where(pair[:, None], [c - 1, c, 2], [c, 0, 0])
    draws = np.zeros(steps.shape, dtype=np.int64)
    draws[steps > 0] = rng.integers(0, steps[steps > 0])
    # Floyd: the second class is the second draw, or c-1 if that repeats the first
    second = np.where(draws[:, 1] == draws[:, 0], c - 1, draws[:, 1])
    items = np.arange(n)
    labels = np.zeros((c, n), dtype=np.uint8)
    labels[draws[:, 0], items] = 1
    labels[second[pair], items[pair]] = 1
    return labels


def _standardize(feats: np.ndarray) -> np.ndarray:
    """Zero-mean unit-variance per dimension; constant dims map to zero."""
    centered = feats - feats.mean(axis=0)
    std = feats.std(axis=0)
    return centered / np.where(std > 0, std, 1.0)


def save_dataset(ds: MultiModalDataset, out_dir) -> Path:
    """Write blobs plus manifest; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    blobs = {
        "image_blob": ("image.f32", ds.image_features.astype("<f4").tobytes()),
        "text_blob": ("text.f32", ds.text_features.astype("<f4").tobytes()),
        "label_blob": ("labels.u8", ds.labels.astype(np.uint8).tobytes()),
    }
    manifest = {
        "name": ds.name,
        "n": ds.n,
        "d_x": ds.d_x,
        "d_y": ds.d_y,
        "c": ds.c,
        "image_blob": blobs["image_blob"][0],
        "text_blob": blobs["text_blob"][0],
        "label_blob": blobs["label_blob"][0],
        "dtype": "f32le",
        "layout": "row_major",
    }
    for fname, payload in blobs.values():
        (out / fname).write_bytes(payload)
    path = out / MANIFEST_NAME
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def load_dataset(manifest_path) -> MultiModalDataset:
    """Load a dataset directory; every format violation raises LoadError."""
    path = Path(manifest_path)
    if path.is_dir():
        path = path / MANIFEST_NAME
    if not path.is_file():
        raise LoadError(f"manifest not found: {path}")
    try:
        manifest = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise LoadError(f"manifest is not valid JSON: {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise LoadError("manifest must be a JSON object")
    missing = [k for k in _MANIFEST_KEYS if k not in manifest]
    extra = [k for k in manifest if k not in _MANIFEST_KEYS]
    if missing or extra:
        raise LoadError(f"manifest fields wrong: missing={missing} unexpected={extra}")
    if manifest["dtype"] != "f32le":
        raise LoadError(f"unsupported dtype {manifest['dtype']!r}, expected 'f32le'")
    if manifest["layout"] != "row_major":
        raise LoadError(f"unsupported layout {manifest['layout']!r}, expected 'row_major'")
    for k in ("n", "d_x", "d_y", "c"):
        if type(manifest[k]) is not int:  # not a float, a string or a bool
            raise LoadError(f"manifest dim {k} must be a JSON integer, "
                            f"got {manifest[k]!r}: {path}")
    n, d_x, d_y, c = (manifest[k] for k in ("n", "d_x", "d_y", "c"))
    if min(n, d_x, d_y, c) < 1:
        raise LoadError(f"manifest dims must be positive, got n={n} d_x={d_x} d_y={d_y} c={c}")

    def read_blob(key: str, dtype: str, rows: int, cols: int) -> np.ndarray:
        """The blob as a writable (rows, cols) copy, so that its bytes are
        freed: a freed multi-MB block raises glibc's mmap threshold, which
        keeps later temporaries on the heap instead of in fresh mappings."""
        blob_path = path.parent / str(manifest[key])
        if not blob_path.is_file():
            raise LoadError(f"{key} file not found: {blob_path}")
        payload = blob_path.read_bytes()
        nbytes = rows * cols * np.dtype(dtype).itemsize
        if len(payload) != nbytes:
            raise LoadError(
                f"{key} has wrong size: expected {nbytes} bytes, found {len(payload)}"
            )
        return np.frombuffer(payload, dtype=dtype).reshape(rows, cols).copy()

    img = read_blob("image_blob", "<f4", n, d_x)
    txt = read_blob("text_blob", "<f4", n, d_y)
    lab = read_blob("label_blob", "u1", c, n)
    try:
        return MultiModalDataset(str(manifest["name"]), img, txt, lab)
    except ContractError as exc:
        raise LoadError(f"dataset blobs violate invariants: {exc}") from exc


def save_split(split: SplitSpec, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for fname, ids in zip(SPLIT_FILES, (split.query_ids, split.retrieval_ids, split.train_ids)):
        (out / fname).write_text("".join(f"{i}\n" for i in ids.tolist()))


_INT64 = np.iinfo(np.int64)


def _plain_ids(text: str) -> bool:
    """Whether text is one unsigned decimal of 1-18 digits (so each fits an
    int64) per LF-terminated line, as save_split writes them. The lengths come
    from the LF positions: a regex over 49,000 lines holds ~6 MiB of state."""
    if not re.fullmatch(r"[0-9\n]*", text) or text[-1:] not in ("", "\n"):
        return False
    lf = np.flatnonzero(np.frombuffer(text.encode(), dtype=np.uint8) == ord("\n"))
    gaps = np.diff(lf, prepend=-1)  # each line's length plus its LF
    return bool(((gaps >= 2) & (gaps <= 19)).all())


def _parse_ids(f: Path) -> np.ndarray:
    """One split file's ids. A plain file parses in one pass in C; any
    other goes line by line through int(), skipping blank lines, so that
    a bad line can be named."""
    try:
        text = f.read_text()
    except UnicodeDecodeError as exc:
        raise LoadError(f"{f}: split file is not UTF-8 text: {exc}") from exc
    if _plain_ids(text):
        return np.fromstring(text, dtype=np.int64, sep="\n")
    ids = []
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            ids.append(int(line))
        except ValueError as exc:
            raise LoadError(f"{f}:{ln}: not a decimal index: {line!r}") from exc
        if not _INT64.min <= ids[-1] <= _INT64.max:
            raise LoadError(f"{f}:{ln}: index does not fit in 64 bits: {line!r}")
    return np.asarray(ids, dtype=np.int64)


def load_split(split_dir, n: int) -> SplitSpec:
    """Read the three id files, checked against a dataset of n items."""
    d = Path(split_dir)
    lists = []
    for fname in SPLIT_FILES:
        f = d / fname
        if not f.is_file():
            raise LoadError(f"split file not found: {f}")
        ids = _parse_ids(f)
        if not ids.size:
            raise LoadError(f"split file is empty: {f}")
        lists.append(ids)
    try:
        return SplitSpec(*lists, n)
    except ContractError as exc:
        raise LoadError(f"split inconsistent with dataset: {exc}") from exc
