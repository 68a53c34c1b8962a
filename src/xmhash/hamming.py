"""Binary codes, bit packing, Hamming ranking, and database encoding.

Codes live in two synchronized forms: an int8 sign matrix (r x n, entries
+/-1) and a packed uint64 matrix (n rows, ceil(r/64) words per instance,
little-endian within and across words). Bit=1 encodes sign=+1; bits past r
in the last word stay zero. sgn(0) maps to +1 everywhere.

The on-disk code file is a 12-byte header (u32 code length, u32 instance
count, u32 format version, little-endian) followed by the packed words,
column-major by instance (instance 0's words first).
"""

import struct
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, LoadError
from .fork import Forked
from .mlp import MlpEncoder, forward

CODE_FILE_VERSION = 1

# one ranking tile holds at most this many query x database entries (about
# 20 bytes each while eval scores it), so ranking memory stays flat however
# many queries there are; a whole database row is the smallest tile
TILE_ENTRIES = 2 ** 16

# a ranking of at least this many query x database entries is split between
# this process and a forked child (rank_tiles). On 2 vCPUs a fork from a
# 170 MB eval costs about 12 ms and serial ranking about 7.5 ns per entry,
# so the split pays once half a ranking outlasts the fork: 3.2 M entries
FORK_ENTRIES = 2 ** 22

# the packed format is little-endian; the uint8<->uint64 views below assume
# the host matches
assert sys.byteorder == "little"


def pack_signs(signs: np.ndarray) -> np.ndarray:
    """Pack an (r, n) +/-1 sign matrix into (n, ceil(r/64)) uint64 words."""
    signs = np.asarray(signs)
    if signs.ndim != 2:
        raise ContractError(f"sign matrix must be 2-D, got ndim={signs.ndim}")
    if not all_pm1(signs):
        raise ContractError("sign matrix entries must be +/-1")
    return _pack(signs)


def all_pm1(a: np.ndarray) -> bool:
    """np.isin(a, (-1, 1)).all() at a twentieth of the cost."""
    return bool((np.abs(a) == 1).all())


def _pack(signs: np.ndarray) -> np.ndarray:
    """pack_signs without the checks, for a 2-D matrix already known +/-1."""
    r, n = signs.shape
    words = (r + 63) // 64
    bits = (signs.T > 0).astype(np.uint8)
    pad = words * 64 - r
    if pad:
        bits = np.pad(bits, ((0, 0), (0, pad)))
    packed_bytes = np.packbits(bits, axis=1, bitorder="little")
    return np.ascontiguousarray(packed_bytes).view(np.uint64)


def unpack_codes(packed: np.ndarray, r: int) -> np.ndarray:
    """Inverse of pack_signs: (n, words) uint64 back to (r, n) int8 signs."""
    packed = np.ascontiguousarray(np.asarray(packed, dtype=np.uint64))
    if packed.ndim != 2:
        raise ContractError(f"packed matrix must be 2-D, got ndim={packed.ndim}")
    if packed.shape[1] != (r + 63) // 64:
        raise ContractError(
            f"packed width {packed.shape[1]} does not match r={r}"
        )
    bits = np.unpackbits(packed.view(np.uint8), axis=1, bitorder="little")[:, :r]
    return (bits.T.astype(np.int8) * 2 - 1)


@dataclass(frozen=True)
class CodeMatrix:
    """Sign and packed views of one code block, kept consistent."""

    signs: np.ndarray   # (r, n) int8 +/-1
    packed: np.ndarray  # (n, ceil(r/64)) uint64

    @property
    def r(self) -> int:
        return self.signs.shape[0]

    @property
    def n(self) -> int:
        return self.signs.shape[1]

    @classmethod
    def from_signs(cls, signs) -> "CodeMatrix":
        signs = np.asarray(signs, dtype=np.int8)
        return cls(signs, pack_signs(signs))

    @classmethod
    def from_real(cls, values: np.ndarray) -> "CodeMatrix":
        """Binarize real values; zero maps to +1."""
        values = np.asarray(values, dtype=np.float64)
        if not np.all(np.isfinite(values)):
            raise ContractError("cannot binarize non-finite values")
        if values.ndim != 2:
            raise ContractError(f"sign matrix must be 2-D, got ndim={values.ndim}")
        signs = np.where(values >= 0, np.int8(1), np.int8(-1))  # no int64 temporary
        return cls(signs, _pack(signs))

    def validate(self) -> None:
        if not all_pm1(self.signs):
            raise ContractError("sign matrix entries must be +/-1")
        if self.packed.shape != (self.n, (self.r + 63) // 64):
            raise ContractError("packed shape inconsistent with sign shape")
        if not np.array_equal(self.packed, _pack(self.signs)):
            raise ContractError("packed words out of sync with signs")


def distances_to_all(packed_db: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Hamming distances from packed queries to every database row.

    A 1-D query gives (n_db,) distances; a (B, words) query block gives
    (B, n_db). The dtype is the smallest unsigned integer that holds the
    widest distance the word count allows (uint8 up to three words), so a
    stable sort of a row runs as a radix sort.
    """
    packed_db = np.asarray(packed_db, dtype=np.uint64)
    query = np.asarray(query, dtype=np.uint64)
    block = query if query.ndim == 2 else query.reshape(1, -1)
    if packed_db.ndim != 2 or packed_db.shape[1] != block.shape[1]:
        raise ContractError(
            f"database words {packed_db.shape} do not match query words {block.shape[1]}"
        )
    dtype = np.min_scalar_type(64 * packed_db.shape[1])
    dists = np.bitwise_count(block[:, None, :] ^ packed_db[None, :, :]).sum(axis=2, dtype=dtype)
    return dists if query.ndim == 2 else dists[0]


def rank_tiles(fn, index: "RetrievalIndex", query_packed: np.ndarray) -> list:
    """Rank the whole database for each packed query, one tile at a time,
    and return [fn(rows, order, dists) for each tile] in query order.

    query_packed is (n_query, words). A tile holds at most TILE_ENTRIES
    query x database entries (one query at least): rows is the slice of
    query rows in it, order the (B, n_db) index positions of each query's
    ranking in (distance, id) order, dists the (B, n_db) distances in index
    order. The scan runs over the database in id order, so one stable sort
    by distance gives exactly that order. From FORK_ENTRIES entries and two
    tiles on, a forked child maps the last half of the tiles (rounded up)
    while this process maps the rest; its results come back pickled, and
    an exception it raises is raised here.
    """
    ids = index.ids
    by_id = None if np.all(ids[:-1] <= ids[1:]) else np.argsort(ids, kind="stable")
    packed = index.codes.packed if by_id is None else index.codes.packed[by_id]
    queries = np.asarray(query_packed, dtype=np.uint64)
    n_query, step = queries.shape[0], max(1, TILE_ENTRIES // index.codes.n)

    def part(start, stop):
        tiles = []
        for lo in range(start, stop, step):
            rows = slice(lo, min(lo + step, stop))
            dists = distances_to_all(packed, queries[rows])
            order = np.argsort(dists, axis=1, kind="stable")
            if by_id is not None:
                order = by_id[order]
                dists[:, by_id] = dists.copy()  # back to index positions
            tiles.append(fn(rows, order, dists))
        return tiles
    cut = -(-n_query // step) // 2 * step
    if n_query * index.codes.n < FORK_ENTRIES or cut == 0:
        return part(0, n_query)
    child = Forked("ranking queries", part, cut, n_query)
    try:
        head, tail = part(0, cut), child.result()
    finally:
        child.close()
    if isinstance(tail, BaseException):
        raise tail
    return head + tail


def check_k(k: int, n_db: int) -> None:
    if not (1 <= k <= n_db):
        raise ContractError(f"k must lie in [1, {n_db}], got {k}")


def retrieve(index: "RetrievalIndex", query_codes: "CodeMatrix", query_ids,
             k: int) -> list:
    """The k nearest database items of every query, as
    query_id,rank,db_id,distance lines in (distance, id) order, one
    newline-joined block per ranking tile, in query order."""
    check_k(k, index.codes.n)
    query_ids = np.asarray(query_ids)

    def lines(rows, order, dists):
        top = order[:, :k]
        hit_ids = index.ids[top].tolist()
        hit_dists = np.take_along_axis(dists, top, axis=1).tolist()
        return "\n".join(f"{qid},{rank},{i},{d}"
                         for qid, ids, ds in zip(query_ids[rows].tolist(), hit_ids, hit_dists)
                         for rank, (i, d) in enumerate(zip(ids, ds), start=1))
    return rank_tiles(lines, index, query_codes.packed)


@dataclass(frozen=True)
class RetrievalIndex:
    """Database codes plus the labels and dataset ids behind each column."""

    codes: CodeMatrix
    labels: np.ndarray  # (c, n_db) uint8
    ids: np.ndarray     # (n_db,) dataset instance ids

    def validate(self) -> None:
        self.codes.validate()
        if self.labels.shape[1] != self.codes.n or self.ids.shape != (self.codes.n,):
            raise ContractError("index labels/ids misaligned with codes")


def encode_with(enc: MlpEncoder, feats: np.ndarray, what: str = "features") -> CodeMatrix:
    """Forward features through an encoder and binarize the outputs."""
    feats = np.asarray(feats, dtype=np.float64)
    if feats.ndim != 2:
        raise ContractError(f"{what} must be 2-D (rows are instances)")
    if feats.shape[1] != enc.input_dim:
        raise ContractError(
            f"{what} have {feats.shape[1]} dims but the encoder expects {enc.input_dim}"
        )
    out, _ = forward(enc, feats)
    return CodeMatrix.from_real(out)


def encode_queries(model, ds, split) -> CodeMatrix:
    """Hash the query set with the query-side encoder of the model's task."""
    if model.task == "i2t":
        return encode_with(model.image_encoder, ds.image_features[split.query_ids],
                           "query image features")
    return encode_with(model.text_encoder, ds.text_features[split.query_ids],
                       "query text features")


def encode_database(model, ds, split, reencode_train: bool = False) -> RetrievalIndex:
    """Build the database index for the model's task.

    Retrieval items that were in the training set reuse their learned code
    columns (the codes the objective optimized); out-of-sample items are
    hashed with the database-side encoder (text for i2t, image for t2i).
    reencode_train=True hashes every item fresh instead. Each column is
    packed once: learned ones reuse the model's packed words.
    """
    if model.codes.n != len(split.train_ids):
        raise ContractError(f"model was trained on {model.codes.n} items but the "
                            f"split has {len(split.train_ids)} train items")
    db_ids = np.asarray(split.retrieval_ids, dtype=np.int64)
    if model.task == "i2t":
        enc, feats = model.text_encoder, ds.text_features
    else:
        enc, feats = model.image_encoder, ds.image_features
    signs = np.empty((model.r, db_ids.size), dtype=np.int8)
    packed = np.empty((db_ids.size, model.codes.packed.shape[1]), dtype=np.uint64)
    if reencode_train:
        fresh = np.arange(db_ids.size)
    else:
        train_ids = np.asarray(split.train_ids, dtype=np.int64)
        by_id = np.argsort(train_ids, kind="stable")
        slot = np.searchsorted(train_ids, db_ids, sorter=by_id).clip(max=by_id.size - 1)
        cols = by_id[slot]
        is_train = train_ids[cols] == db_ids
        fresh = np.flatnonzero(~is_train)
        signs[:, is_train] = model.codes.signs[:, cols[is_train]]
        packed[is_train] = model.codes.packed[cols[is_train]]
    if fresh.size:
        codes = encode_with(enc, feats[db_ids[fresh]], "database features")
        signs[:, fresh], packed[fresh] = codes.signs, codes.packed
    return RetrievalIndex(CodeMatrix(signs, packed), ds.labels[:, db_ids], db_ids)


def write_codes(cm: CodeMatrix, path) -> Path:
    """Write header (r, n, version) plus packed words, instance-major."""
    cm.validate()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = struct.pack("<III", cm.r, cm.n, CODE_FILE_VERSION)
    path.write_bytes(header + np.ascontiguousarray(cm.packed).tobytes())
    return path


def read_codes(path) -> CodeMatrix:
    path = Path(path)
    if not path.is_file():
        raise LoadError(f"code file not found: {path}")
    payload = path.read_bytes()
    if len(payload) < 12:
        raise LoadError(f"code file too short for its header: {path}")
    r, n, version = struct.unpack("<III", payload[:12])
    if version != CODE_FILE_VERSION:
        raise LoadError(f"unsupported code file version {version}")
    if r < 1 or n < 1:
        raise LoadError(f"code file header has bad dims r={r} n={n}")
    words = (r + 63) // 64
    expected = 12 + n * words * 8
    if len(payload) != expected:
        raise LoadError(
            f"code file has wrong size: expected {expected} bytes, found {len(payload)}"
        )
    packed = np.frombuffer(payload[12:], dtype="<u8").reshape(n, words).copy()
    tail_bits = r % 64
    if tail_bits and np.any(packed[:, -1] >> np.uint64(tail_bits)):
        raise LoadError("code file has nonzero padding bits past the code length")
    return CodeMatrix(unpack_codes(packed, r), packed)
