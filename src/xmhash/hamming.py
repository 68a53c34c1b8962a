"""Binary codes, bit packing, Hamming ranking, and database encoding.

A code block has one stored form: packed uint64 words (n rows, ceil(r/64)
words per instance, little-endian within and across words), from which the
(r, n) int8 sign matrix is unpacked on demand. Bit=1 encodes sign=+1; bits
past r in the last word stay zero. sgn(0) maps to +1 everywhere.

The on-disk code file is a 12-byte header (u32 code length, u32 instance
count, u32 format version, little-endian) followed by the packed words,
column-major by instance (instance 0's words first).

Items are encoded in row chunks (encode_chunks) whose widest activation
stays under 4 MB, so encoding memory is flat in the database size while
every float and code bit matches the one-block forward pass.
"""

import struct
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import SIDES
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

# items are encoded in chunks whose widest activation holds about this many
# float64 entries (2 MB), all but the last in whole 64-row blocks: a narrower
# tail, or a product under ~1e6 multiply-adds, may take another OpenBLAS
# kernel, whose floats differ from the one-block pass
ENCODE_ENTRIES = 2 ** 18

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
    return _pack(signs > 0)


def all_pm1(a: np.ndarray) -> bool:
    """np.isin(a, (-1, 1)).all() at a twentieth of the cost."""
    return bool((np.abs(a) == 1).all())


def _pack(bits: np.ndarray) -> np.ndarray:
    """(r, n) bools, True for +1, as (n, ceil(r/64)) zero-padded uint64 words."""
    packed_bytes = np.packbits(bits.T, axis=1, bitorder="little")
    pad = (bits.shape[0] + 63) // 64 * 8 - packed_bytes.shape[1]
    return np.ascontiguousarray(np.pad(packed_bytes, ((0, 0), (0, pad)))).view(np.uint64)


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
    """One code block as packed words, checked when built; signs are unpacked on demand."""

    packed: np.ndarray  # (n, ceil(r/64)) uint64
    r: int

    def __post_init__(self) -> None:
        if self.packed.ndim != 2 or self.packed.shape[1] != (self.r + 63) // 64:
            raise ContractError(f"packed shape {self.packed.shape} does not fit r={self.r}")
        if self.r % 64 and np.any(self.packed[:, -1] >> np.uint64(self.r % 64)):
            raise ContractError("nonzero padding bits past the code length")

    @property
    def n(self) -> int:
        return self.packed.shape[0]

    @property
    def signs(self) -> np.ndarray:
        """The (r, n) int8 +/-1 sign matrix."""
        return unpack_codes(self.packed, self.r)

    @classmethod
    def from_signs(cls, signs) -> "CodeMatrix":
        signs = np.asarray(signs, dtype=np.int8)
        return cls(pack_signs(signs), signs.shape[0])

    @classmethod
    def from_real(cls, values: np.ndarray) -> "CodeMatrix":
        """Binarize real values; zero maps to +1."""
        values = np.asarray(values, dtype=np.float64)
        if not np.all(np.isfinite(values)):
            raise ContractError("cannot binarize non-finite values")
        if values.ndim != 2:
            raise ContractError(f"sign matrix must be 2-D, got ndim={values.ndim}")
        return cls(_pack(values >= 0), values.shape[0])


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


def rank_tiles(fn, index: "RetrievalIndex", queries: CodeMatrix) -> list:
    """Rank the whole database for each query code, one tile at a time,
    and return [fn(rows, order, dists) for each tile] in query order.

    The queries must have the database's code length. A tile holds at most
    TILE_ENTRIES query x database entries (one query at least): rows is the
    slice of query rows in it, order the (B, n_db) index positions of each
    query's ranking in (distance, id) order, dists the (B, n_db) distances
    in index order. The scan runs over the database in id order, so one
    stable sort by distance gives exactly that order. From FORK_ENTRIES
    entries and two tiles on, a forked child maps the last half of the tiles
    (rounded up) while this process maps the rest; its results come back
    pickled, and an exception it raises is raised here.
    """
    if queries.r != index.codes.r:
        raise ContractError(
            f"query codes have r={queries.r} but database has r={index.codes.r}"
        )
    ids = index.ids
    by_id = None if np.all(ids[:-1] <= ids[1:]) else np.argsort(ids, kind="stable")
    packed = index.codes.packed if by_id is None else index.codes.packed[by_id]
    n_query, step = queries.n, max(1, TILE_ENTRIES // index.codes.n)

    def part(start, stop):
        tiles = []
        for lo in range(start, stop, step):
            rows = slice(lo, min(lo + step, stop))
            dists = distances_to_all(packed, queries.packed[rows])
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
        return part(0, cut) + child.result()
    finally:
        child.close()


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
    return rank_tiles(lines, index, query_codes)


@dataclass(frozen=True)
class RetrievalIndex:
    """Database codes plus the labels and dataset ids behind each column; checked when built."""

    codes: CodeMatrix
    labels: np.ndarray  # (c, n_db) uint8
    ids: np.ndarray     # (n_db,) dataset instance ids

    def __post_init__(self) -> None:
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


def encode_chunks(enc: MlpEncoder, n: int) -> list:
    """Row slices covering n items: max(1, n // C) chunks, C being
    ENCODE_ENTRIES // (widest layer) rounded down to a multiple of 64 (at least
    64), over which the whole 64-row blocks are spread evenly; the last adds the rest."""
    step = max(64, ENCODE_ENTRIES // max(layer.out_dim for layer in enc.layers) // 64 * 64)
    k = max(1, n // step)
    edges = [n // 64 * i // k * 64 for i in range(k)] + [n]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _encode_side(model, ds, side: int, ids, what: str) -> CodeMatrix:
    """Hash the given items with one side's encoder, chunk by chunk."""
    enc = (model.image_encoder, model.text_encoder)[side]
    feats = (ds.image_features, ds.text_features)[side]
    packed = np.empty((len(ids), (enc.output_dim + 63) // 64), dtype=np.uint64)
    for rows in encode_chunks(enc, len(ids)):
        packed[rows] = encode_with(enc, feats[ids[rows]], f"{what} {SIDES[side]} features").packed
    return CodeMatrix(packed, enc.output_dim)


def encode_queries(model, ds, split) -> CodeMatrix:
    """Hash the query set with the query-side encoder of the model's task."""
    return _encode_side(model, ds, model.hp.query_side, split.query_ids, "query")


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
        packed[is_train] = model.codes.packed[cols[is_train]]
    if fresh.size:
        packed[fresh] = _encode_side(model, ds, 1 - model.hp.query_side, db_ids[fresh],
                                     "database").packed
    return RetrievalIndex(CodeMatrix(packed, model.r), ds.labels[:, db_ids], db_ids)


def write_codes(cm: CodeMatrix, path) -> Path:
    """Write header (r, n, version) plus packed words, instance-major."""
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
    try:
        return CodeMatrix(np.frombuffer(payload[12:], dtype="<u8").reshape(n, words).copy(), r)
    except ContractError as exc:
        raise LoadError(f"code file has {exc}") from exc
