"""Encoder forward/backward/SGD tests with scalar and finite-difference oracles."""

import numpy as np
import pytest

from xmhash.errors import ContractError, NumericalError
from xmhash.mlp import (
    GradBuffer,
    Layer,
    MlpEncoder,
    backward,
    forward,
    glorot_mlp,
    sgd_step,
)


def forward_oracle(enc, batch):
    """Per-neuron scalar-loop forward pass."""
    batch = np.asarray(batch, dtype=float)
    out = np.zeros((enc.output_dim, batch.shape[0]))
    for b in range(batch.shape[0]):
        a = batch[b]
        for layer in enc.layers:
            z = np.zeros(layer.out_dim)
            for i in range(layer.out_dim):
                acc = layer.bias[i]
                for j in range(layer.in_dim):
                    acc += layer.weights[i, j] * a[j]
                z[i] = acc
            a = np.maximum(z, 0.0) if layer.activation == "relu" else z
        out[:, b] = a
    return out


def probe_loss(enc, batch, target):
    """Quadratic probe: half the squared distance between output and target."""
    out, _ = forward(enc, batch)
    return 0.5 * float(((out - target) ** 2).sum())


def fd_param_grads(enc, batch, target, h=1e-6):
    """Central finite differences of the probe loss over every parameter."""
    w_grads, b_grads = [], []
    for k, layer in enumerate(enc.layers):
        gw = np.zeros_like(layer.weights)
        for idx in np.ndindex(layer.weights.shape):
            for sign in (1.0, -1.0):
                w = layer.weights.copy()
                w[idx] += sign * h
                layers = list(enc.layers)
                layers[k] = Layer(w, layer.bias, layer.activation)
                gw[idx] += sign * probe_loss(MlpEncoder(tuple(layers)), batch, target)
        w_grads.append(gw / (2 * h))
        gb = np.zeros_like(layer.bias)
        for idx in np.ndindex(layer.bias.shape):
            for sign in (1.0, -1.0):
                b = layer.bias.copy()
                b[idx] += sign * h
                layers = list(enc.layers)
                layers[k] = Layer(layer.weights, b, layer.activation)
                gb[idx] += sign * probe_loss(MlpEncoder(tuple(layers)), batch, target)
        b_grads.append(gb / (2 * h))
    return w_grads, b_grads


def identity_layer_encoder(d):
    return MlpEncoder((Layer(np.eye(d), np.zeros(d), "identity"),))


# --- forward ----------------------------------------------------------------

def test_forward_identity_layer_passes_input_through():
    out, _ = forward(identity_layer_encoder(2), np.array([[1.0, 2.0]]))
    assert np.array_equal(out, [[1.0], [2.0]])


def test_forward_zero_weights_emit_bias():
    enc = MlpEncoder((Layer(np.zeros((2, 3)), np.array([0.5, -1.5]), "identity"),))
    out, _ = forward(enc, np.zeros((4, 3)))
    assert np.array_equal(out, np.tile([[0.5], [-1.5]], (1, 4)))


def test_forward_matches_scalar_oracle():
    enc = glorot_mlp((5, 4, 3), seed=0)
    rng = np.random.default_rng(1)
    batch = rng.standard_normal((6, 5))
    out, _ = forward(enc, batch)
    assert np.max(np.abs(out - forward_oracle(enc, batch))) < 1e-12


def test_forward_rejects_wrong_feature_count():
    with pytest.raises(ContractError, match="features"):
        forward(glorot_mlp((5, 3), seed=0), np.zeros((2, 4)))


def test_forward_rejects_non_finite_batch():
    with pytest.raises(NumericalError, match="non-finite"):
        forward(glorot_mlp((2, 2), seed=0), np.array([[np.nan, 0.0]]))


def test_forward_is_pure():
    enc = glorot_mlp((3, 2), seed=5)
    batch = np.ones((2, 3))
    before = enc.layers[0].weights.copy()
    forward(enc, batch)
    assert np.array_equal(enc.layers[0].weights, before)


# --- backward ---------------------------------------------------------------

def test_backward_linear_layer_hand_values():
    enc = identity_layer_encoder(2)
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    out, tape = forward(enc, x)
    g = np.array([[1.0, 0.0], [0.0, 2.0]])
    grads = backward(enc, tape, g)
    # d<g, Wx+b>/dW = g x^T with x as (in_dim, batch) columns
    assert np.array_equal(grads.weight_grads[0], g @ x)
    assert np.array_equal(grads.bias_grads[0], g.sum(axis=1))


def test_backward_zero_out_grad_gives_zero_grads():
    enc = glorot_mlp((4, 3, 2), seed=2)
    rng = np.random.default_rng(3)
    _, tape = forward(enc, rng.standard_normal((5, 4)))
    grads = backward(enc, tape, np.zeros((2, 5)))
    assert all(np.all(g == 0) for g in grads.weight_grads)
    assert all(np.all(g == 0) for g in grads.bias_grads)


def test_backward_matches_finite_differences():
    enc = glorot_mlp((4, 3, 2), seed=4)
    rng = np.random.default_rng(5)
    batch = rng.standard_normal((5, 4))
    target = rng.standard_normal((2, 5))
    out, tape = forward(enc, batch)
    grads = backward(enc, tape, out - target)
    fd_w, fd_b = fd_param_grads(enc, batch, target)
    for k in range(len(enc.layers)):
        scale = np.maximum(1.0, np.abs(fd_w[k]))
        assert np.max(np.abs(grads.weight_grads[k] - fd_w[k]) / scale) < 1e-5
        scale = np.maximum(1.0, np.abs(fd_b[k]))
        assert np.max(np.abs(grads.bias_grads[k] - fd_b[k]) / scale) < 1e-5


def test_backward_rejects_mismatched_out_grad():
    enc = glorot_mlp((3, 2), seed=6)
    _, tape = forward(enc, np.zeros((4, 3)))
    with pytest.raises(ContractError, match="out_grad"):
        backward(enc, tape, np.zeros((2, 3)))


def test_backward_never_mutates_encoder():
    enc = glorot_mlp((3, 3, 2), seed=7)
    before = [layer.weights.copy() for layer in enc.layers]
    _, tape = forward(enc, np.ones((2, 3)))
    backward(enc, tape, np.ones((2, 2)))
    for layer, w in zip(enc.layers, before):
        assert np.array_equal(layer.weights, w)


# --- sgd --------------------------------------------------------------------

def test_sgd_zero_lr_is_exact_noop():
    enc = glorot_mlp((3, 2), seed=8)
    grads = GradBuffer((np.ones((2, 3)),), (np.ones(2),))
    assert sgd_step(enc, grads, 0.0) is enc


def test_sgd_hand_step():
    enc = MlpEncoder((Layer(np.array([[1.0]]), np.zeros(1), "identity"),))
    grads = GradBuffer((np.array([[2.0]]),), (np.zeros(1),))
    stepped = sgd_step(enc, grads, 0.1)
    assert stepped.layers[0].weights[0, 0] == pytest.approx(0.8)


def test_sgd_rejects_negative_lr():
    enc = glorot_mlp((2, 2), seed=9)
    grads = GradBuffer((np.zeros((2, 2)),), (np.zeros(2),))
    with pytest.raises(ContractError, match=">= 0"):
        sgd_step(enc, grads, -0.1)


def test_sgd_monotone_on_quadratic_probe():
    enc = glorot_mlp((3, 4, 2), seed=10)
    rng = np.random.default_rng(11)
    batch = rng.standard_normal((6, 3))
    target = rng.standard_normal((2, 6))
    losses = [probe_loss(enc, batch, target)]
    for _ in range(100):
        out, tape = forward(enc, batch)
        grads = backward(enc, tape, out - target)
        enc = sgd_step(enc, grads, 1e-2)
        losses.append(probe_loss(enc, batch, target))
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0]


def test_sgd_rejects_non_finite_result():
    enc = MlpEncoder((Layer(np.array([[1.0]]), np.zeros(1), "identity"),))
    grads = GradBuffer((np.array([[np.inf]]),), (np.zeros(1),))
    with pytest.raises(NumericalError, match="non-finite"):
        sgd_step(enc, grads, 0.1)


# --- constructors and validation ---------------------------------------------

def test_default_text_encoder_shape():
    enc = glorot_mlp((32, 512, 16), 3)
    assert len(enc.layers) == 2
    assert enc.input_dim == 32 and enc.output_dim == 16


def test_default_encoders_deterministic():
    a = glorot_mlp((8, 16, 4), seed=1)
    b = glorot_mlp((8, 16, 4), seed=1)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)


def test_forward_zero_input_emits_final_bias():
    enc = glorot_mlp((6, 8, 3), seed=2)
    out, _ = forward(enc, np.zeros((5, 6)))
    assert np.all(out == 0.0)


def test_validate_rejects_unknown_activation():
    with pytest.raises(ContractError, match="activation"):
        MlpEncoder((Layer(np.eye(2), np.zeros(2), "tanh"),))


def test_validate_rejects_broken_dim_chain():
    with pytest.raises(ContractError, match="layer 1"):
        MlpEncoder((
            Layer(np.zeros((3, 2)), np.zeros(3), "relu"),
            Layer(np.zeros((2, 4)), np.zeros(2), "identity"),
        ))


def test_validate_rejects_non_identity_final_layer():
    with pytest.raises(ContractError, match="identity"):
        MlpEncoder((Layer(np.eye(2), np.zeros(2), "relu"),))


def test_encoder_rejects_no_layers_and_malformed_shapes():
    with pytest.raises(ContractError, match="at least one layer"):
        MlpEncoder(())
    with pytest.raises(ContractError, match="layer 0: malformed parameter shapes"):
        MlpEncoder((Layer(np.eye(2), np.zeros(3), "identity"),))


def test_glorot_rejects_bad_dims():
    with pytest.raises(ContractError, match="dims"):
        glorot_mlp((4,), seed=0)
    with pytest.raises(ContractError, match="dims"):
        glorot_mlp((4, 0, 2), seed=0)


# each case calls forward, backward or sgd_step on a 3 -> 4 -> 2 encoder,
# its tape for a 5-row batch and its gradients, with one part malformed
MLP_ERRORS = {
    "1-D batch": (lambda enc, tape, grads: forward(enc, np.ones(3)),
                  "batch must be 2-D (rows are instances), got ndim=1"),
    "tape one layer short": (lambda enc, tape, grads: backward(enc, tape[:1], np.ones((2, 5))),
                             "tape does not match encoder depth"),
    "tape input of another width": (
        lambda enc, tape, grads: backward(enc, (tape[0][:2], tape[1]), np.ones((2, 5))),
        "tape layer 0 input dim does not match encoder"),
    "gradients one layer short": (
        lambda enc, tape, grads: sgd_step(
            enc, GradBuffer(grads.weight_grads[:1], grads.bias_grads[:1]), 0.1),
        "gradient buffer does not match encoder depth"),
    "transposed weight gradient": (
        lambda enc, tape, grads: sgd_step(
            enc, GradBuffer((grads.weight_grads[0].T, grads.weight_grads[1]), grads.bias_grads),
            0.1),
        "layer 0: gradient shapes do not match parameters"),
}


@pytest.mark.parametrize("case", MLP_ERRORS)
def test_encoder_step_names_a_malformed_part(case):
    enc = glorot_mlp((3, 4, 2), seed=0)
    out, tape = forward(enc, np.ones((5, 3)))
    call, message = MLP_ERRORS[case]
    with pytest.raises(ContractError) as exc:
        call(enc, tape, backward(enc, tape, np.ones_like(out)))
    assert type(exc.value) is ContractError and str(exc.value) == message
