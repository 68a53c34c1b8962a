"""Small feed-forward encoders with hand-rolled reverse-mode gradients.

Encoders map feature rows to code-space columns: forward() takes a
(batch, in_dim) slab and returns (out_dim, batch) outputs plus the tape
for the backward pass: the input of every layer, from which backward
rebuilds each relu mask. Parameters are treated as immutable; sgd_step
returns a fresh encoder.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericalError

ACTIVATIONS = ("identity", "relu")


@dataclass(frozen=True)
class Layer:
    weights: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray     # (out_dim,)
    activation: str

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class MlpEncoder:
    """Layers applied in order; shapes, activations and dimension chain checked when built."""

    layers: tuple

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim

    def __post_init__(self) -> None:
        if not self.layers:
            raise ContractError("encoder needs at least one layer")
        for k, layer in enumerate(self.layers):
            if layer.activation not in ACTIVATIONS:
                raise ContractError(
                    f"layer {k}: unknown activation {layer.activation!r}"
                )
            if layer.weights.ndim != 2 or layer.bias.shape != (layer.out_dim,):
                raise ContractError(f"layer {k}: malformed parameter shapes")
            if k and layer.in_dim != self.layers[k - 1].out_dim:
                raise ContractError(
                    f"layer {k} expects {layer.in_dim} inputs but layer {k - 1} "
                    f"emits {self.layers[k - 1].out_dim}"
                )
        if self.layers[-1].activation != "identity":
            raise ContractError("final layer must use the identity activation")


@dataclass(frozen=True)
class GradBuffer:
    weight_grads: tuple
    bias_grads: tuple


def forward(enc: MlpEncoder, batch: np.ndarray):
    """Run the encoder; returns ((out_dim, batch) outputs, layer inputs).

    enc is taken as valid: it was checked where it was built or stepped."""
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2:
        raise ContractError(f"batch must be 2-D (rows are instances), got ndim={x.ndim}")
    if x.shape[1] != enc.input_dim:
        raise ContractError(
            f"batch has {x.shape[1]} features but encoder expects {enc.input_dim}"
        )
    if not np.all(np.isfinite(x)):
        raise NumericalError("batch contains non-finite entries")
    a = x.T
    inputs = []
    for layer in enc.layers:
        inputs.append(a)
        a = layer.weights @ a
        a += layer.bias[:, None]
        if layer.activation == "relu":
            np.maximum(a, 0.0, out=a)
    if not np.all(np.isfinite(a)):
        raise NumericalError("encoder output contains non-finite entries")
    return a, tuple(inputs)


def backward(enc: MlpEncoder, tape: tuple, out_grad: np.ndarray) -> GradBuffer:
    """Reverse-mode pass: gradient of <out_grad, output> wrt parameters.

    out_grad has the output's shape (out_dim, batch). A relu layer's mask
    is its output > 0, read from the next layer's input on the tape; the
    final layer is identity, so a next layer always exists.
    """
    if len(tape) != len(enc.layers):
        raise ContractError("tape does not match encoder depth")
    delta = np.asarray(out_grad, dtype=np.float64)
    out_shape = (enc.output_dim, tape[-1].shape[1])
    if delta.shape != out_shape:
        raise ContractError(
            f"out_grad shape {delta.shape} does not match output shape {out_shape}"
        )
    w_grads = [None] * len(enc.layers)
    b_grads = [None] * len(enc.layers)
    for k in range(len(enc.layers) - 1, -1, -1):
        layer = enc.layers[k]
        if tape[k].shape[0] != layer.in_dim:
            raise ContractError(f"tape layer {k} input dim does not match encoder")
        if layer.activation == "relu":
            delta = delta * (tape[k + 1] > 0.0)
        w_grads[k] = delta @ tape[k].T
        b_grads[k] = delta.sum(axis=1)
        if k:
            delta = layer.weights.T @ delta
    return GradBuffer(tuple(w_grads), tuple(b_grads))


def sgd_step(enc: MlpEncoder, grads: GradBuffer, lr: float) -> MlpEncoder:
    """One gradient-descent step; lr=0 is an exact no-op."""
    if lr < 0:
        raise ContractError(f"learning rate must be >= 0, got {lr}")
    if len(grads.weight_grads) != len(enc.layers):
        raise ContractError("gradient buffer does not match encoder depth")
    if lr == 0:
        return enc
    new_layers = []
    for k, layer in enumerate(enc.layers):
        gw, gb = grads.weight_grads[k], grads.bias_grads[k]
        if gw.shape != layer.weights.shape or gb.shape != layer.bias.shape:
            raise ContractError(f"layer {k}: gradient shapes do not match parameters")
        w = layer.weights - lr * gw
        b = layer.bias - lr * gb
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise NumericalError(f"layer {k}: parameters became non-finite after step")
        new_layers.append(Layer(w, b, layer.activation))
    return MlpEncoder(tuple(new_layers))


def glorot_mlp(dims, seed: int) -> MlpEncoder:
    """Build an encoder with Glorot-uniform weights and zero biases.

    dims lists layer widths input-first, e.g. (d, 512, r). Hidden layers use
    relu; the final layer is identity.
    """
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ContractError(f"dims must list >= 2 positive widths, got {dims}")
    rng = np.random.default_rng(seed)
    layers = []
    for k in range(len(dims) - 1):
        fan_in, fan_out = dims[k], dims[k + 1]
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        act = "identity" if k == len(dims) - 2 else "relu"
        layers.append(Layer(w, np.zeros(fan_out), act))
    return MlpEncoder(tuple(layers))
