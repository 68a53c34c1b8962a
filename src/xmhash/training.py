"""Alternating training of one retrieval direction.

Each outer epoch runs four blocks in a fixed order:
  1. mini-batch gradient sweep over the image encoder,
  2. mini-batch gradient sweep over the text encoder,
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

from .data import MultiModalDataset, PairwiseSimilarity, SplitSpec
from .errors import ContractError, LoadError, NumericalError
from .hamming import CodeMatrix, all_pm1
from .linalg import spd_solve
from .mlp import ACTIVATIONS, Layer, MlpEncoder, backward, forward, glorot_mlp, sgd_step
from .objective import (
    HyperParams, ObjectiveState, TASKS, image_feature_grad, objective_value,
    text_feature_grad,
)

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


class SubstepRow(NamedTuple):
    """Objective right after each in-epoch block, for monotonicity checks."""

    epoch: int
    after_sweeps: float
    after_codes: float
    after_proj: float


@dataclass(frozen=True)
class TrainConfig:
    bits: int = 16
    epochs: int = 500
    batch_size: int = 128
    lr_image: float = 1e-2
    lr_text: float = 1e-2
    variant: str = "full"
    seed: int = 0
    full_batch: bool = False
    hidden_dim: int = 512
    early_stop: bool = False
    track_substeps: bool = False

    def validate(self) -> None:
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
    substeps: tuple = ()        # SubstepRow per epoch when tracked (not persisted)

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
    hp.validate()
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
    return CodeMatrix.from_signs(np.where(m >= 0, 1, -1).astype(np.int8))


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
    init, projection init).
    """
    cfg.validate()
    hp.validate()
    ds.validate()
    split.validate(ds.n)

    train_ids = np.asarray(split.train_ids, dtype=np.int64)
    n = train_ids.size
    x = ds.image_features[train_ids]
    y = ds.text_features[train_ids]
    lab = ds.labels[:, train_ids].astype(np.float64)
    sim = PairwiseSimilarity(ds.labels[:, train_ids])
    r = cfg.bits

    if cfg.variant == "v2":
        hp = replace(hp, label_weight=0.0)
    # v1 regresses codes, not embeddings, so its encoder sweeps are label-free
    hp_sweep = replace(hp, label_weight=0.0) if cfg.variant == "v1" else hp

    img_enc = glorot_mlp((ds.d_x, cfg.hidden_dim, r), cfg.seed + 1)
    txt_enc = glorot_mlp((ds.d_y, cfg.hidden_dim, r), cfg.seed + 2)
    feats_img, _ = forward(img_enc, x)
    feats_txt, _ = forward(txt_enc, y)

    uses_proj = hp.label_weight > 0
    code_rng = np.random.default_rng(cfg.seed + 3)
    if cfg.variant == "v3":
        if hp.quant_image + hp.quant_text <= 0:
            raise ContractError("v3 needs quant_image + quant_text > 0")
        codes = _relaxed_codes(feats_img, feats_txt, hp)
    else:
        codes = (code_rng.integers(0, 2, size=(r, n)) * 2 - 1).astype(np.float64)
    proj_rng = np.random.default_rng(cfg.seed + 4)
    proj = 0.01 * proj_rng.standard_normal((r, ds.c)) if uses_proj else np.zeros((r, ds.c))

    state = ObjectiveState(feats_img, feats_txt, codes, proj, lab)
    batch_rng = np.random.default_rng(cfg.seed)
    batch_size = n if cfg.full_batch else min(cfg.batch_size, n)

    log: list[TrainLogRow] = []
    substeps: list[SubstepRow] = []
    prev_obj = None
    stall = 0

    def guarded(step: str, epoch: int, fn, *args):
        try:
            return fn(*args)
        except NumericalError as exc:
            raise NumericalError(f"epoch {epoch}, {step}: {exc}") from exc

    def sweep(step, epoch, enc, inputs, feats, grad_fn, lr):
        """One mini-batch pass over one encoder, then a full refresh of its
        embedding block (updated in place)."""
        for batch in _batches(batch_rng, n, batch_size):
            out, tape = guarded(step, epoch, forward, enc, inputs[batch])
            feats[:, batch] = out
            g = guarded(step, epoch, grad_fn, state, hp_sweep, sim, batch)
            grads, _ = backward(enc, tape, g)
            enc = guarded(step, epoch, sgd_step, enc, grads, lr)
        out, _ = guarded(step, epoch, forward, enc, inputs)
        feats[:] = out
        return enc

    def label_target():
        # v1 regresses the codes; the others the query-side embedding block
        if cfg.variant == "v1":
            return state.codes
        return state.image_feats if hp.task == "i2t" else state.text_feats

    def objective(epoch):
        return guarded("objective", epoch, objective_value, state, hp, sim,
                       cfg.variant != "v3", label_target())

    for epoch in range(1, cfg.epochs + 1):
        tic = time.perf_counter()

        img_enc = sweep("image sweep", epoch, img_enc, x, state.image_feats,
                        image_feature_grad, cfg.lr_image)
        txt_enc = sweep("text sweep", epoch, txt_enc, y, state.text_feats,
                        text_feature_grad, cfg.lr_text)

        if cfg.track_substeps:
            after_sweeps = objective(epoch)

        if cfg.variant == "v3":
            state.codes = _relaxed_codes(state.image_feats, state.text_feats, hp)
        else:
            shift = (hp.label_weight * (state.proj @ state.labels)
                     if cfg.variant == "v1" else None)
            state.codes = guarded(
                "code update", epoch, update_codes,
                state.image_feats, state.text_feats, hp, shift,
            ).signs.astype(np.float64)

        if cfg.track_substeps:
            after_codes = objective(epoch)

        if uses_proj:
            state.proj = guarded(
                "projection update", epoch, update_projection,
                label_target(), lab, hp.label_weight, hp.balance_weight,
            )

        obj = objective(epoch)
        if cfg.track_substeps:
            substeps.append(SubstepRow(epoch, after_sweeps, after_codes, obj))
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
        image_encoder=img_enc,
        text_encoder=txt_enc,
        proj=state.proj,
        codes=CodeMatrix.from_real(state.codes),  # v3's real codes; +/-1 stay as they are
        hp=hp,
        train_log=tuple(log),
        substeps=tuple(substeps),
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
    for _ in range(n_layers):
        out_dim, in_dim, act = rd.unpack("<IIB")
        if act >= len(ACTIVATIONS) or min(out_dim, in_dim) < 1:
            raise LoadError("model file has a malformed layer header")
        w = rd.array("<f8", out_dim * in_dim, (out_dim, in_dim))
        b = rd.array("<f8", out_dim, (out_dim,))
        layers.append(Layer(w, b, ACTIVATIONS[act]))
    enc = MlpEncoder(tuple(layers))
    try:
        enc.validate()
    except (ContractError, NumericalError) as exc:
        raise LoadError(f"model file encoder invalid: {exc}") from exc
    return enc


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
    signs = rd.array(np.int8, r * n, (r, n))
    if not all_pm1(signs):
        raise LoadError("model file code block has entries other than +/-1")
    (n_rows,) = rd.unpack("<I")
    log = []
    for _ in range(n_rows):
        epoch, obj = rd.unpack("<Id")
        log.append(TrainLogRow(epoch, obj, 0.0))
    if rd.pos != len(rd.buf):
        raise LoadError(f"model file has {len(rd.buf) - rd.pos} trailing bytes")
    task = TASKS[task_tag]
    hp = HyperParams(*hp_vals, task=task)
    if img_enc.output_dim != r or txt_enc.output_dim != r:
        raise LoadError("model file encoder output dims disagree with header")
    try:
        if not np.all(np.isfinite(proj)):
            raise LoadError("model file projection has non-finite entries")
        hp.validate()
    except ContractError as exc:
        raise LoadError(f"model file hyperparameters invalid: {exc}") from exc
    return TaskModel(
        task=task,
        variant=VARIANTS[variant_tag],
        image_encoder=img_enc,
        text_encoder=txt_enc,
        proj=proj,
        codes=CodeMatrix.from_signs(signs),
        hp=hp,
        train_log=tuple(log),
    )
