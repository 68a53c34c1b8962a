"""Alternating training of one retrieval direction.

Each outer epoch runs four blocks in a fixed order; both sweeps run one
code path, indexed by side (0 image, 1 text):
  1. mini-batch gradient sweep over the image encoder (side 0),
  2. mini-batch gradient sweep over the text encoder (side 1),
  3. exact discrete update of the shared codes (sign of a weighted
     combination of the two embedding blocks, which is the argmin of the
     quantization terms over +/-1 matrices),
  4. closed-form ridge update of the label projection (for the query-side
     modality of the task).

Variants:
  full  the method as described above.
  v1    symmetric label regression: the projection regresses the codes
        (not an embedding block) onto the labels, the code update gains a
        projection shift, and the encoder sweeps see no label term.
  v2    unsupervised ablation: label projection dropped entirely
        (label_weight forced to 0); the pairwise term keeps training.
  v3    relaxed codes: the code block stays real-valued during training
        (weighted average instead of sign) and is binarized once at the
        end.
"""

import struct
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .data import SIDES, MultiModalDataset, PairwiseSimilarity, SplitSpec
from .errors import ContractError, LoadError, NumericalError
from .hamming import CodeMatrix
from .linalg import spd_solve
from .mlp import ACTIVATIONS, Layer, MlpEncoder, backward, forward, glorot_mlp, sgd_step
from .objective import TASKS, HyperParams, ObjectiveState, feature_grad, objective_value

VARIANTS = ("full", "v1", "v2", "v3")

LR_MIN, LR_MAX = 1e-6, 1e-1

MODEL_MAGIC = b"TADC"
MODEL_VERSION = 1

# early_stop ends training after EARLY_STOP_PATIENCE epochs in a row that each
# move the objective by at most EARLY_STOP_TOL * max(1, |objective|)
EARLY_STOP_TOL = 1e-6
EARLY_STOP_PATIENCE = 10


class TrainLogRow(NamedTuple):
    epoch: int
    objective: float
    seconds: float


@dataclass(frozen=True)
class TrainConfig:
    bits: int = 16
    epochs: int = 500
    batch_size: int = 128
    lr_image: float = 1e-2
    lr_text: float = 1e-2
    variant: str = "full"
    seed: int = 0
    hidden_dim: int = 512
    early_stop: bool = False

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise ContractError(f"bits must be >= 1, got {self.bits}")
        if self.epochs < 1:
            raise ContractError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ContractError(f"batch_size must be >= 1, got {self.batch_size}")
        for name in ("lr_image", "lr_text"):
            lr = getattr(self, name)
            if not (LR_MIN <= lr <= LR_MAX):
                raise ContractError(
                    f"{name} must lie in [{LR_MIN:g}, {LR_MAX:g}], got {lr}"
                )
        if self.variant not in VARIANTS:
            raise ContractError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")
        if self.hidden_dim < 1:
            raise ContractError(f"hidden_dim must be >= 1, got {self.hidden_dim}")


@dataclass
class TaskModel:
    """Everything needed to hash queries and databases for one direction."""

    task: str
    variant: str
    image_encoder: MlpEncoder
    text_encoder: MlpEncoder
    proj: np.ndarray            # (r, c)
    codes: CodeMatrix           # columns follow split.train_ids order
    hp: HyperParams
    train_log: tuple            # TrainLogRow per completed epoch

    @property
    def r(self) -> int:
        return self.codes.r


def update_codes(img_feats: np.ndarray, txt_feats: np.ndarray, hp: HyperParams,
                 shift: np.ndarray | None = None) -> CodeMatrix:
    """Exact minimizer of the quantization terms over +/-1 code matrices.

    Entrywise sign of quant_image * F + quant_text * G (+ optional shift,
    used by the v1 variant's projection term); zero maps to +1, which is an
    argmin tie.
    """
    if hp.quant_image + hp.quant_text == 0.0:
        raise ContractError(
            "code update undefined when quant_image and quant_text are both zero"
        )
    if img_feats.shape != txt_feats.shape:
        raise ContractError(
            f"embedding blocks must share shape, got {img_feats.shape} vs {txt_feats.shape}"
        )
    m = hp.quant_image * img_feats + hp.quant_text * txt_feats
    if shift is not None:
        if shift.shape != m.shape:
            raise ContractError(f"shift shape {shift.shape} does not match {m.shape}")
        m = m + shift
    if not np.all(np.isfinite(m)):
        raise NumericalError("code update saw non-finite embeddings")
    return CodeMatrix.from_real(m)


def update_projection(feats: np.ndarray, labels: np.ndarray,
                      label_weight: float, balance_weight: float) -> np.ndarray:
    """Closed-form ridge solution of the label-regression block.

    Minimizes label_weight * ||feats - P @ labels||^2 +
    balance_weight * ||P||^2, i.e. P = feats @ labels.T @
    (labels @ labels.T + (balance_weight / label_weight) I)^{-1},
    computed via an SPD solve rather than an explicit inverse.
    """
    if label_weight <= 0:
        raise ContractError(f"label_weight must be > 0 for a projection update, got {label_weight}")
    labels = np.asarray(labels, dtype=np.float64)
    feats = np.asarray(feats, dtype=np.float64)
    if labels.ndim != 2 or feats.ndim != 2 or feats.shape[1] != labels.shape[1]:
        raise ContractError(
            f"feats {feats.shape} and labels {labels.shape} must align on instances"
        )
    c = labels.shape[0]
    gram = labels @ labels.T + (balance_weight / label_weight) * np.eye(c)
    return spd_solve(gram, labels @ feats.T).T


def _batches(rng: np.random.Generator, n: int, batch_size: int):
    """One epoch's batch index lists: a fresh permutation cut into
    ceil(n / batch_size) slices."""
    order = rng.permutation(n)
    return [order[s : s + batch_size] for s in range(0, n, batch_size)]


def _relaxed_codes(img_feats: np.ndarray, txt_feats: np.ndarray,
                  hp: HyperParams) -> np.ndarray:
    """The v3 code block: the quantization-weighted mean of F and G."""
    return ((hp.quant_image * img_feats + hp.quant_text * txt_feats)
            / (hp.quant_image + hp.quant_text))


# no numpy warnings: each block is checked finite where it is made, and named
@np.errstate(all="ignore")
def train_task(ds: MultiModalDataset, split: SplitSpec, cfg: TrainConfig,
               hp: HyperParams) -> TaskModel:
    """Learn one direction's encoders, codes, and projection.

    Deterministic for fixed (cfg, hp, dataset, split): all randomness flows
    from cfg.seed through fixed offsets (batch order, encoder inits, code
    init, projection init). Each argument was checked when built; here only
    that the split indexes a dataset of ds's size and that a quantization
    weight is positive, without which no code update is defined.
    """
    if split.n != ds.n:
        raise ContractError(f"split is for a dataset of {split.n} items, not {ds.n}")
    if hp.quant_image + hp.quant_text == 0:
        raise ContractError("training needs quant_image + quant_text > 0")

    train_ids = np.asarray(split.train_ids, dtype=np.int64)
    n = train_ids.size
    inputs = (ds.image_features[train_ids], ds.text_features[train_ids])
    lab = ds.labels[:, train_ids].astype(np.float64)
    sim = PairwiseSimilarity(ds.labels[:, train_ids])
    r = cfg.bits

    if cfg.variant == "v2":
        hp = replace(hp, label_weight=0.0)
    # v1 regresses codes, not embeddings, so its encoder sweeps are label-free
    hp_sweep = replace(hp, label_weight=0.0) if cfg.variant == "v1" else hp

    encs = [glorot_mlp((x.shape[1], cfg.hidden_dim, r), cfg.seed + 1 + side)
            for side, x in enumerate(inputs)]
    blocks = [forward(enc, x)[0] for enc, x in zip(encs, inputs)]

    uses_proj = hp.label_weight > 0
    code_rng = np.random.default_rng(cfg.seed + 3)
    if cfg.variant == "v3":
        codes = _relaxed_codes(*blocks, hp)
    else:
        codes = (code_rng.integers(0, 2, size=(r, n)) * 2 - 1).astype(np.float64)
    proj_rng = np.random.default_rng(cfg.seed + 4)
    proj = 0.01 * proj_rng.standard_normal((r, ds.c)) if uses_proj else np.zeros((r, ds.c))

    state = ObjectiveState(*blocks, codes, proj, lab)
    batch_rng = np.random.default_rng(cfg.seed)
    batch_size = min(cfg.batch_size, n)

    log: list[TrainLogRow] = []
    prev_obj = None
    stall = 0

    def guarded(step: str, epoch: int, fn, *args):
        try:
            return fn(*args)
        except NumericalError as exc:
            raise NumericalError(f"epoch {epoch}, {step}: {exc}") from exc

    def sweep(epoch, side):
        """One mini-batch pass over one side's encoder, then a full refresh
        of its embedding block (updated in place)."""
        step, x, feats = f"{SIDES[side]} sweep", inputs[side], state.feats[side]
        enc, lr = encs[side], (cfg.lr_image, cfg.lr_text)[side]
        for batch in _batches(batch_rng, n, batch_size):
            out, tape = guarded(step, epoch, forward, enc, x[batch])
            feats[:, batch] = out
            g = guarded(step, epoch, feature_grad, state, hp_sweep, sim, batch, side)
            grads = backward(enc, tape, g)
            enc = guarded(step, epoch, sgd_step, enc, grads, lr)
        feats[:] = guarded(step, epoch, forward, enc, x)[0]
        encs[side] = enc

    def label_target():
        # v1 regresses the codes; the others the query-side embedding block
        return state.codes if cfg.variant == "v1" else state.feats[hp.query_side]

    def objective(epoch):
        return guarded("objective", epoch, objective_value, state, hp, sim,
                       label_target())

    for epoch in range(1, cfg.epochs + 1):
        tic = time.perf_counter()

        for side in (0, 1):
            sweep(epoch, side)

        if cfg.variant == "v3":
            state.codes = _relaxed_codes(*state.feats, hp)
        else:
            shift = (hp.label_weight * (state.proj @ state.labels)
                     if cfg.variant == "v1" else None)
            state.codes = guarded(
                "code update", epoch, update_codes, *state.feats, hp, shift,
            ).signs.astype(np.float64)

        if uses_proj:
            state.proj = guarded(
                "projection update", epoch, update_projection,
                label_target(), lab, hp.label_weight, hp.balance_weight,
            )

        obj = objective(epoch)
        log.append(TrainLogRow(epoch, obj, time.perf_counter() - tic))

        if cfg.early_stop and prev_obj is not None:
            flat = abs(prev_obj - obj) <= EARLY_STOP_TOL * max(1.0, abs(prev_obj))
            stall = stall + 1 if flat else 0
            if stall >= EARLY_STOP_PATIENCE:
                break
        prev_obj = obj

    return TaskModel(
        task=hp.task,
        variant=cfg.variant,
        image_encoder=encs[0],
        text_encoder=encs[1],
        proj=state.proj,
        codes=CodeMatrix.from_real(state.codes),  # v3's real codes; +/-1 stay as they are
        hp=hp,
        train_log=tuple(log),
    )


# --- model persistence ----------------------------------------------------
#
# Binary layout (all little-endian), in this fixed order:
#   magic "TADC", u16 version, u8 task tag, u8 variant tag,
#   u32 r, u32 c, u32 n_train,
#   f64 x4: quant_image, quant_text, label_weight, balance_weight,
#   image encoder, text encoder:
#       u32 layer count, then per layer u32 out_dim, u32 in_dim,
#       u8 activation tag, f64 weights (row-major), f64 bias,
#   f64 projection (row-major r x c),
#   i8 code signs (row-major r x n_train),
#   u32 log row count, then per row u32 epoch, f64 objective.
# Wall-clock seconds are deliberately not persisted so that two identical
# runs write byte-identical files.

_TASK_TAGS = {t: i for i, t in enumerate(TASKS)}
_VARIANT_TAGS = {v: i for i, v in enumerate(VARIANTS)}
_ACT_TAGS = {a: i for i, a in enumerate(ACTIVATIONS)}


def _encoder_bytes(enc: MlpEncoder) -> bytes:
    out = [struct.pack("<I", len(enc.layers))]
    for layer in enc.layers:
        out.append(struct.pack("<IIB", layer.out_dim, layer.in_dim,
                               _ACT_TAGS[layer.activation]))
        out.append(np.ascontiguousarray(layer.weights, dtype="<f8").tobytes())
        out.append(np.ascontiguousarray(layer.bias, dtype="<f8").tobytes())
    return b"".join(out)


def save_model(model: TaskModel, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    r, c, n = model.r, model.proj.shape[1], model.codes.n
    parts = [
        MODEL_MAGIC,
        struct.pack("<HBB", MODEL_VERSION, _TASK_TAGS[model.task],
                    _VARIANT_TAGS[model.variant]),
        struct.pack("<III", r, c, n),
        struct.pack("<4d", model.hp.quant_image, model.hp.quant_text,
                    model.hp.label_weight, model.hp.balance_weight),
        _encoder_bytes(model.image_encoder),
        _encoder_bytes(model.text_encoder),
        np.ascontiguousarray(model.proj, dtype="<f8").tobytes(),
        np.ascontiguousarray(model.codes.signs, dtype=np.int8).tobytes(),
        struct.pack("<I", len(model.train_log)),
    ]
    for row in model.train_log:
        parts.append(struct.pack("<Id", row.epoch, row.objective))
    path.write_bytes(b"".join(parts))
    return path


class _Reader:
    def __init__(self, payload: bytes, path):
        self.buf = payload
        self.pos = 0
        self.path = path

    def take(self, nbytes: int) -> bytes:
        if self.pos + nbytes > len(self.buf):
            raise LoadError(f"model file truncated: {self.path}")
        out = self.buf[self.pos : self.pos + nbytes]
        self.pos += nbytes
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype, count: int, shape) -> np.ndarray:
        item = np.dtype(dtype).itemsize
        return np.frombuffer(self.take(count * item), dtype=dtype).reshape(shape).copy()


def _read_encoder(rd: _Reader) -> MlpEncoder:
    (n_layers,) = rd.unpack("<I")
    if not (1 <= n_layers <= 64):
        raise LoadError(f"model file has implausible layer count {n_layers}")
    layers = []
    for k in range(n_layers):
        out_dim, in_dim, act = rd.unpack("<IIB")
        if act >= len(ACTIVATIONS) or min(out_dim, in_dim) < 1:
            raise LoadError("model file has a malformed layer header")
        w = rd.array("<f8", out_dim * in_dim, (out_dim, in_dim))
        b = rd.array("<f8", out_dim, (out_dim,))
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise LoadError(f"model file encoder invalid: layer {k}: non-finite parameters")
        layers.append(Layer(w, b, ACTIVATIONS[act]))
    try:
        return MlpEncoder(tuple(layers))
    except ContractError as exc:
        raise LoadError(f"model file encoder invalid: {exc}") from exc


def load_model(path) -> TaskModel:
    path = Path(path)
    if not path.is_file():
        raise LoadError(f"model file not found: {path}")
    rd = _Reader(path.read_bytes(), path)
    if rd.take(4) != MODEL_MAGIC:
        raise LoadError(f"not a model file (bad magic): {path}")
    version, task_tag, variant_tag = rd.unpack("<HBB")
    if version != MODEL_VERSION:
        raise LoadError(f"unsupported model format version {version}")
    if task_tag >= len(TASKS) or variant_tag >= len(VARIANTS):
        raise LoadError("model file has unknown task or variant tag")
    r, c, n = rd.unpack("<III")
    if min(r, c, n) < 1:
        raise LoadError(f"model file has bad dims r={r} c={c} n={n}")
    hp_vals = rd.unpack("<4d")
    img_enc = _read_encoder(rd)
    txt_enc = _read_encoder(rd)
    proj = rd.array("<f8", r * c, (r, c))
    try:
        codes = CodeMatrix.from_signs(rd.array(np.int8, r * n, (r, n)))
    except ContractError as exc:
        raise LoadError("model file code block has entries other than +/-1") from exc
    (n_rows,) = rd.unpack("<I")
    log = []
    for _ in range(n_rows):
        epoch, obj = rd.unpack("<Id")
        log.append(TrainLogRow(epoch, obj, 0.0))
    if rd.pos != len(rd.buf):
        raise LoadError(f"model file has {len(rd.buf) - rd.pos} trailing bytes")
    if img_enc.output_dim != r or txt_enc.output_dim != r:
        raise LoadError("model file encoder output dims disagree with header")
    if not np.all(np.isfinite(proj)):
        raise LoadError("model file projection has non-finite entries")
    try:
        hp = HyperParams(*hp_vals, task=TASKS[task_tag])
    except ContractError as exc:
        raise LoadError(f"model file hyperparameters invalid: {exc}") from exc
    return TaskModel(
        task=hp.task,
        variant=VARIANTS[variant_tag],
        image_encoder=img_enc,
        text_encoder=txt_enc,
        proj=proj,
        codes=codes,
        hp=hp,
        train_log=tuple(log),
    )
