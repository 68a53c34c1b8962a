"""Discrete/ridge updates, the alternating trainer, variants, persistence."""

import itertools
import os
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import DESK_HP, child_env
from reference import train_both
from xmhash import training
from xmhash.data import load_dataset, make_split, save_dataset
from xmhash.errors import ContractError, LoadError, NumericalError
from xmhash.hamming import encode_database, encode_queries
from xmhash.mlp import forward
from xmhash.objective import HyperParams
from xmhash.training import (
    MODEL_MAGIC,
    TrainConfig,
    load_model,
    save_model,
    train_task,
    update_codes,
    update_projection,
)


def quant_cost(b, f, g, qi, qt):
    return qi * float(((b - f) ** 2).sum()) + qt * float(((b - g) ** 2).sum())


def best_codes_by_enumeration(f, g, qi, qt):
    """Try every +/-1 matrix; the search space is tiny by construction."""
    r, n = f.shape
    best, best_cost = None, np.inf
    for bits in itertools.product((-1.0, 1.0), repeat=r * n):
        b = np.array(bits).reshape(r, n)
        cost = quant_cost(b, f, g, qi, qt)
        if cost < best_cost:
            best, best_cost = b, cost
    return best, best_cost


def ridge_gd_oracle(feats, labels, mu, nu, tol=1e-12):
    """Plain gradient descent on the ridge objective, run to convergence."""
    r, c = feats.shape[0], labels.shape[0]
    p = np.zeros((r, c))
    lipschitz = 2.0 * mu * np.linalg.norm(labels @ labels.T, 2) + 2.0 * nu
    lr = 1.0 / lipschitz
    for _ in range(200_000):
        grad = -2.0 * mu * (feats - p @ labels) @ labels.T + 2.0 * nu * p
        if np.max(np.abs(grad)) < tol:
            break
        p -= lr * grad
    return p


def assert_models_equal(a, b):
    assert a.task == b.task and a.variant == b.variant
    for enc_a, enc_b in ((a.image_encoder, b.image_encoder),
                         (a.text_encoder, b.text_encoder)):
        assert len(enc_a.layers) == len(enc_b.layers)
        for la, lb in zip(enc_a.layers, enc_b.layers):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.bias, lb.bias)
            assert la.activation == lb.activation
    assert np.array_equal(a.proj, b.proj)
    assert np.array_equal(a.codes.signs, b.codes.signs)
    assert np.array_equal(a.codes.packed, b.codes.packed)


# --- discrete code update ------------------------------------------------------

def test_update_codes_hand_value():
    f = np.array([[0.3], [-0.2]])
    g = np.array([[-0.1], [0.5]])
    b = update_codes(f, g, HyperParams(1.0, 1.0, 0.0, 0.0))
    assert b.dtype == np.float64
    assert np.array_equal(b, [[1.0], [1.0]])


def test_update_codes_equal_blocks_reduce_to_sign():
    rng = np.random.default_rng(0)
    f = rng.standard_normal((3, 5))
    for qi, qt in ((1.0, 1.0), (0.2, 3.0), (5.0, 0.0)):
        b = update_codes(f, f, HyperParams(qi, qt, 0.0, 0.0))
        assert np.array_equal(b, np.where(f >= 0, 1, -1))


def test_update_codes_beats_exhaustive_enumeration():
    rng = np.random.default_rng(1)
    for trial in range(10):
        f = rng.standard_normal((2, 2))
        g = rng.standard_normal((2, 2))
        qi, qt = rng.uniform(0.05, 2.0, size=2)
        b = update_codes(f, g, HyperParams(qi, qt, 0.0, 0.0))
        cost = quant_cost(b, f, g, qi, qt)
        _, best_cost = best_codes_by_enumeration(f, g, qi, qt)
        assert cost <= best_cost + 1e-12


def test_update_codes_no_single_flip_improves():
    rng = np.random.default_rng(2)
    f = rng.standard_normal((4, 6))
    g = rng.standard_normal((4, 6))
    qi, qt = 0.7, 0.3
    b = update_codes(f, g, HyperParams(qi, qt, 0.0, 0.0))
    base = quant_cost(b, f, g, qi, qt)
    for idx in np.ndindex(b.shape):
        flipped = b.copy()
        flipped[idx] = -flipped[idx]
        assert quant_cost(flipped, f, g, qi, qt) >= base - 1e-12


def test_update_codes_scale_invariant():
    rng = np.random.default_rng(3)
    f = rng.standard_normal((3, 4))
    g = rng.standard_normal((3, 4))
    a = update_codes(f, g, HyperParams(0.4, 0.9, 0.0, 0.0))
    b = update_codes(f, g, HyperParams(0.4 * 7.5, 0.9 * 7.5, 0.0, 0.0))
    assert np.array_equal(a, b)


def test_update_codes_zero_maps_to_plus_one():
    b = update_codes(np.zeros((2, 2)), np.zeros((2, 2)), HyperParams(1.0, 1.0, 0.0, 0.0))
    assert np.all(b == 1)


def test_update_codes_rejects_zero_weights():
    with pytest.raises(ContractError, match="undefined"):
        update_codes(np.ones((2, 2)), np.ones((2, 2)), HyperParams(0.0, 0.0, 0.0, 0.0))


def test_update_codes_rejects_shape_mismatch():
    with pytest.raises(ContractError, match="share shape"):
        update_codes(np.ones((2, 2)), np.ones((2, 3)), HyperParams(1.0, 1.0, 0.0, 0.0))


# --- ridge projection update -----------------------------------------------------

def test_update_projection_hand_value():
    feats = np.array([[2.0, 4.0], [6.0, 8.0]])
    p = update_projection(feats, np.eye(2), label_weight=1.0, balance_weight=1.0)
    assert np.allclose(p, [[1.0, 2.0], [3.0, 4.0]], rtol=0, atol=1e-12)


def test_update_projection_zero_features_give_zero():
    p = update_projection(np.zeros((3, 5)), np.ones((2, 5)), 0.5, 0.1)
    assert np.allclose(p, 0.0, atol=1e-15)


def test_update_projection_first_order_optimality():
    rng = np.random.default_rng(4)
    feats = rng.standard_normal((3, 6))
    labels = rng.integers(0, 2, size=(2, 6)).astype(float)
    mu, nu = 0.7, 0.05
    p = update_projection(feats, labels, mu, nu)
    grad = -2.0 * mu * (feats - p @ labels) @ labels.T + 2.0 * nu * p
    assert np.linalg.norm(grad) < 1e-8


def test_update_projection_matches_gradient_descent_oracle():
    rng = np.random.default_rng(5)
    feats = rng.standard_normal((3, 6))
    labels = rng.integers(0, 2, size=(2, 6)).astype(float)
    mu, nu = 0.9, 0.2
    p = update_projection(feats, labels, mu, nu)
    oracle = ridge_gd_oracle(feats, labels, mu, nu)
    assert np.max(np.abs(p - oracle)) < 1e-6


def test_update_projection_rejects_zero_label_weight():
    with pytest.raises(ContractError, match="label_weight"):
        update_projection(np.ones((2, 3)), np.ones((1, 3)), 0.0, 0.1)


def test_update_projection_rejects_misaligned_instances():
    with pytest.raises(ContractError, match="align"):
        update_projection(np.ones((2, 3)), np.ones((1, 4)), 0.5, 0.1)


# --- trainer ----------------------------------------------------------------------

def test_train_single_epoch_structure(tiny_ds):
    split = make_split(tiny_ds.n, 10, 4, seed=1)
    cfg = TrainConfig(bits=4, epochs=1, batch_size=4, lr_image=1e-3, lr_text=1e-3,
                      seed=0, hidden_dim=8)
    model = train_task(tiny_ds, split, cfg, HyperParams(*DESK_HP, task="i2t"))
    assert len(model.train_log) == 1
    assert model.train_log[0].epoch == 1
    assert np.isin(model.codes.signs, (-1, 1)).all()
    assert model.codes.signs.shape == (4, 4)
    assert model.proj.shape == (4, tiny_ds.c)


def test_train_rejects_a_split_for_another_dataset_size(tiny_ds, desk_cfg):
    for n in (tiny_ds.n - 1, tiny_ds.n + 1):
        split = make_split(n, 10, 40, seed=2)
        with pytest.raises(ContractError, match=f"dataset of {n} items, not {tiny_ds.n}"):
            train_task(tiny_ds, split, desk_cfg, HyperParams(*DESK_HP, task="i2t"))


def test_train_objective_decreases(trained_i2t):
    log = trained_i2t.train_log
    assert log[-1].objective < log[0].objective


def test_train_deterministic(tiny_ds, tiny_split, desk_cfg, trained_i2t):
    again = train_task(tiny_ds, tiny_split, desk_cfg, HyperParams(*DESK_HP, task="i2t"))
    assert_models_equal(trained_i2t, again)
    assert [r.objective for r in again.train_log] == \
           [r.objective for r in trained_i2t.train_log]


def test_train_tasks_differ(trained_i2t, trained_t2i):
    assert trained_i2t.task == "i2t" and trained_t2i.task == "t2i"
    assert not np.array_equal(trained_i2t.proj, trained_t2i.proj)


def test_train_divergence_reports_epoch_and_step(tiny_ds, tiny_split):
    cfg = TrainConfig(bits=8, epochs=50, batch_size=40, lr_image=0.1, lr_text=0.1,
                      seed=0, hidden_dim=32)
    hp = HyperParams(0.1, 0.01, 1e-4, 0.1, task="i2t")
    with pytest.raises(NumericalError, match=r"epoch \d+, (image|text) sweep"):
        train_task(tiny_ds, tiny_split, cfg, hp)


def test_train_early_stop_cuts_epoch_budget(tiny_ds, tiny_split, monkeypatch):
    monkeypatch.setattr(training, "EARLY_STOP_TOL", 1.0)
    monkeypatch.setattr(training, "EARLY_STOP_PATIENCE", 2)
    cfg = TrainConfig(bits=8, epochs=40, batch_size=40, lr_image=1e-6, lr_text=1e-6,
                      seed=0, hidden_dim=16, early_stop=True)
    model = train_task(tiny_ds, tiny_split, cfg, HyperParams(*DESK_HP, task="i2t"))
    assert len(model.train_log) < 40


def test_train_both_returns_both_directions(tiny_ds, tiny_split, desk_cfg):
    models = train_both(tiny_ds, tiny_split, desk_cfg,
                        HyperParams(*DESK_HP, task="i2t"),
                        HyperParams(*DESK_HP, task="t2i"))
    assert set(models) == {"i2t", "t2i"}
    assert models["i2t"].task == "i2t" and models["t2i"].task == "t2i"


ORDER_PROGRAM = """
import sys
from conftest import DESK_HP
from xmhash import HyperParams, TrainConfig, make_split, save_model, synth, train_task
ds = synth(60, 8, 12, 3, noise=0.1, seed=5)
split = make_split(ds.n, 10, 40, seed=2)
cfg = TrainConfig(bits=8, epochs=6, batch_size=16, lr_image=1e-3, lr_text=1e-3,
                  seed=0, hidden_dim=32)
for task in sys.argv[2:]:
    save_model(train_task(ds, split, cfg, HyperParams(*DESK_HP, task=task)),
               f"{sys.argv[1]}/{task}.model")
"""


def test_directions_do_not_depend_on_order(tmp_path):
    # `train --task both` trains t2i in a forked child, so neither direction
    # may depend on state that the other leaves behind in the process (a
    # cached import, a global RNG); each order runs in a fresh interpreter
    tests_dir = str(Path(__file__).resolve().parent)
    env = child_env("1")
    env["PYTHONPATH"] = tests_dir + os.pathsep + env["PYTHONPATH"]
    orders = {"forward": ("i2t", "t2i"), "reverse": ("t2i", "i2t")}
    for name, order in orders.items():
        (tmp_path / name).mkdir()
        subprocess.run([sys.executable, "-c", ORDER_PROGRAM, str(tmp_path / name), *order],
                       env=env, check=True, capture_output=True)
    for task in ("i2t", "t2i"):
        assert ((tmp_path / "forward" / f"{task}.model").read_bytes()
                == (tmp_path / "reverse" / f"{task}.model").read_bytes()), task


def test_train_both_rejects_mismatched_tasks(tiny_ds, tiny_split, desk_cfg):
    with pytest.raises(ContractError, match="match their direction"):
        train_both(tiny_ds, tiny_split, desk_cfg,
                   HyperParams(*DESK_HP, task="t2i"),
                   HyperParams(*DESK_HP, task="t2i"))


def test_train_config_validation():
    with pytest.raises(ContractError, match="bits"):
        TrainConfig(bits=0)
    with pytest.raises(ContractError, match="epochs"):
        TrainConfig(epochs=0)
    with pytest.raises(ContractError, match="lr_image"):
        TrainConfig(lr_image=0.5)
    with pytest.raises(ContractError, match="variant"):
        TrainConfig(variant="v9")
    with pytest.raises(ContractError, match="seed"):
        TrainConfig(seed=-1)


# --- variants -----------------------------------------------------------------------

def test_v2_ignores_label_content(tiny_ds, tiny_split, desk_cfg):
    from xmhash.data import MultiModalDataset
    cfg = replace(desk_cfg, epochs=3, variant="v2")
    hp = HyperParams(0.1, 0.01, 0.05, 1e-3, task="i2t")
    base = train_task(tiny_ds, tiny_split, cfg, hp)
    permuted = MultiModalDataset(
        tiny_ds.name, tiny_ds.image_features, tiny_ds.text_features,
        tiny_ds.labels[::-1].copy(),
    )
    other = train_task(permuted, tiny_split, cfg, hp)
    assert_models_equal(base, other)


def test_v1_with_zero_label_weight_matches_full(tiny_ds, tiny_split, desk_cfg):
    hp = HyperParams(0.1, 0.01, 0.0, 1e-3, task="i2t")
    full = train_task(tiny_ds, tiny_split, replace(desk_cfg, epochs=3), hp)
    v1 = train_task(tiny_ds, tiny_split, replace(desk_cfg, epochs=3, variant="v1"), hp)
    assert np.array_equal(full.codes.signs, v1.codes.signs)
    for a, b in zip(full.image_encoder.layers, v1.image_encoder.layers):
        assert np.array_equal(a.weights, b.weights)


def test_v1_trains_with_code_regression(tiny_ds, tiny_split, desk_cfg):
    cfg = replace(desk_cfg, epochs=4, variant="v1")
    hp = HyperParams(0.1, 0.01, 0.05, 1e-3, task="i2t")
    model = train_task(tiny_ds, tiny_split, cfg, hp)
    assert model.variant == "v1"
    assert model.train_log[-1].objective < model.train_log[0].objective
    assert np.abs(model.proj).max() > 0


def test_v3_codes_are_binarized_once_at_the_end(tiny_ds, tiny_split, desk_cfg):
    cfg = replace(desk_cfg, epochs=3, variant="v3")
    hp = HyperParams(0.1, 0.1, 0.0, 1e-3, task="i2t")
    model = train_task(tiny_ds, tiny_split, cfg, hp)
    assert np.isin(model.codes.signs, (-1, 1)).all()
    # equal quantization weights make the relaxed code block the elementwise
    # mean of the final embedding blocks, so the stored signs must equal
    # sgn((F + G) / 2) of the final encoders over the train columns
    x = tiny_ds.image_features[tiny_split.train_ids]
    y = tiny_ds.text_features[tiny_split.train_ids]
    f, _ = forward(model.image_encoder, x)
    g, _ = forward(model.text_encoder, y)
    relaxed = (f + g) / 2.0
    assert np.array_equal(model.codes.signs, np.where(relaxed >= 0, 1, -1))


def test_v3_rejects_zero_quantization_weights(tiny_ds, tiny_split, desk_cfg):
    cfg = replace(desk_cfg, variant="v3")
    with pytest.raises(ContractError, match="quant"):
        train_task(tiny_ds, tiny_split, cfg, HyperParams(0.0, 0.0, 0.1, 0.1, task="i2t"))


@pytest.mark.parametrize("variant", training.VARIANTS)
def test_zero_quantization_weights_rejected_before_any_sweep(
        monkeypatch, tiny_ds, tiny_split, desk_cfg, variant):
    def no_sweep(*args):
        raise AssertionError("an encoder sweep ran")
    monkeypatch.setattr(training, "feature_grad", no_sweep)
    cfg = replace(desk_cfg, variant=variant)
    with pytest.raises(ContractError,
                       match=r"^training needs quant_image \+ quant_text > 0$"):
        train_task(tiny_ds, tiny_split, cfg, HyperParams(0.0, 0.0, 0.1, 0.1, task="i2t"))


# --- persistence ----------------------------------------------------------------------

def test_model_round_trip(tmp_path, trained_i2t):
    path = save_model(trained_i2t, tmp_path / "m.model")
    loaded = load_model(path)
    assert_models_equal(trained_i2t, loaded)
    assert loaded.hp == trained_i2t.hp
    assert [(r.epoch, r.objective) for r in loaded.train_log] == \
           [(r.epoch, r.objective) for r in trained_i2t.train_log]


def test_model_save_deterministic_bytes(tmp_path, trained_i2t):
    a = save_model(trained_i2t, tmp_path / "a.model").read_bytes()
    b = save_model(trained_i2t, tmp_path / "b.model").read_bytes()
    assert a == b


@pytest.mark.parametrize("task", ["i2t", "t2i"])
def test_float32_features_train_and_encode_as_their_float64_casts(
        tmp_path, tiny_ds, tiny_split, desk_cfg, task):
    # features stay float32 from the file to forward, whose float64 cast is exact
    save_dataset(tiny_ds, tmp_path / "ds")
    loaded = load_dataset(tmp_path / "ds")
    wide = replace(loaded, image_features=loaded.image_features.astype(np.float64),
                   text_features=loaded.text_features.astype(np.float64))
    hp = HyperParams(*DESK_HP, task=task)
    model, wide_model = (train_task(ds, tiny_split, desk_cfg, hp) for ds in (loaded, wide))
    assert (save_model(model, tmp_path / "a.model").read_bytes()
            == save_model(wide_model, tmp_path / "b.model").read_bytes())
    for reencode in (False, True):
        assert np.array_equal(
            encode_database(model, loaded, tiny_split, reencode).codes.packed,
            encode_database(model, wide, tiny_split, reencode).codes.packed)
    assert np.array_equal(encode_queries(model, loaded, tiny_split).packed,
                          encode_queries(model, wide, tiny_split).packed)


def test_model_load_rejects_truncation(tmp_path, trained_i2t):
    path = save_model(trained_i2t, tmp_path / "m.model")
    payload = path.read_bytes()
    for cut in (len(payload) // 3, len(payload) - 3):
        path.write_bytes(payload[:cut])
        with pytest.raises(LoadError, match="truncated"):
            load_model(path)


def test_model_load_rejects_bad_magic(tmp_path, trained_i2t):
    path = save_model(trained_i2t, tmp_path / "m.model")
    payload = path.read_bytes()
    path.write_bytes(b"XXXX" + payload[4:])
    with pytest.raises(LoadError, match="magic"):
        load_model(path)


def test_model_load_rejects_wrong_version(tmp_path, trained_i2t):
    path = save_model(trained_i2t, tmp_path / "m.model")
    payload = bytearray(path.read_bytes())
    assert payload[:4] == MODEL_MAGIC
    payload[4:6] = (99).to_bytes(2, "little")
    path.write_bytes(bytes(payload))
    with pytest.raises(LoadError, match="version 99"):
        load_model(path)


def test_model_load_rejects_trailing_bytes(tmp_path, trained_i2t):
    path = save_model(trained_i2t, tmp_path / "m.model")
    path.write_bytes(path.read_bytes() + b"\0\0")
    with pytest.raises(LoadError, match="trailing"):
        load_model(path)


def test_model_load_rejects_negative_weight(tmp_path, trained_i2t):
    path = save_model(trained_i2t, tmp_path / "m.model")
    payload = bytearray(path.read_bytes())
    payload[20:28] = np.array(-1.0, dtype="<f8").tobytes()  # quant_image, the first f64
    path.write_bytes(bytes(payload))
    with pytest.raises(LoadError, match="hyperparameters invalid"):
        load_model(path)


def test_model_load_rejects_non_finite_encoder_weight(tmp_path, trained_i2t):
    path = save_model(trained_i2t, tmp_path / "m.model")
    payload = bytearray(path.read_bytes())
    # header 52 bytes, layer count 4, first layer header 9: its first weight
    payload[65:73] = np.array(np.nan, dtype="<f8").tobytes()
    path.write_bytes(bytes(payload))
    with pytest.raises(LoadError, match="encoder invalid: layer 0: non-finite parameters"):
        load_model(path)


def test_model_load_rejects_missing_file(tmp_path):
    with pytest.raises(LoadError, match="not found"):
        load_model(tmp_path / "ghost.model")


def model_fields(model):
    """Offset and struct format of each model-file field the cases below
    write: a 52-byte header, then each encoder as a u32 layer count and
    per layer a 9-byte header, weights and bias, then projection and codes."""
    def encoder_bytes(layers):
        return sum(9 + 8 * (layer.out_dim * layer.in_dim + layer.out_dim) for layer in layers)
    img, txt = model.image_encoder.layers, model.text_encoder.layers
    proj = 52 + 4 + encoder_bytes(img) + 4 + encoder_bytes(txt)
    return {"task tag": (6, "<B"), "variant tag": (7, "<B"), "r": (8, "<I"), "c": (12, "<I"),
            "image layer count": (52, "<I"), "image layer 0 activation": (64, "<B"),
            "image last activation": (56 + encoder_bytes(img[:-1]) + 8, "<B"),
            "projection[0, 0]": (proj, "<d"), "code[0, 0]": (proj + 8 * model.proj.size, "<b")}


# each case writes its fields into the trained_i2t file (r=8, c=3, n=40)
MODEL_FIELD_ERRORS = {
    "no layers": ({"image layer count": 0}, "model file has implausible layer count 0"),
    "65 layers": ({"image layer count": 65}, "model file has implausible layer count 65"),
    "activation tag 2": ({"image layer 0 activation": 2},
                         "model file has a malformed layer header"),
    "relu output layer": ({"image last activation": 1}, "model file encoder invalid: "
                          "final layer must use the identity activation"),
    "task tag 2": ({"task tag": 2}, "model file has unknown task or variant tag"),
    "variant tag 4": ({"variant tag": 4}, "model file has unknown task or variant tag"),
    "r = 0": ({"r": 0}, "model file has bad dims r=0 c=3 n=40"),
    "code byte 0": ({"code[0, 0]": 0}, "model file code block has entries other than +/-1"),
    "code byte 2": ({"code[0, 0]": 2}, "model file code block has entries other than +/-1"),
    # int8 -128, whose absolute value wraps to -128
    "code byte 0x80": ({"code[0, 0]": -128},
                       "model file code block has entries other than +/-1"),
    # 4 * (8 * 11 + 40) == 8 * (8 * 3 + 40): every block keeps its size and the
    # code block reads the last 160 of the 320 sign bytes, so only r disagrees
    "r = 4 against 8-wide encoders": ({"r": 4, "c": 11},
                                      "model file encoder output dims disagree with header"),
    "NaN projection": ({"projection[0, 0]": np.nan},
                       "model file projection has non-finite entries"),
}


@pytest.mark.parametrize("case", MODEL_FIELD_ERRORS)
def test_model_load_names_a_corrupt_field(tmp_path, trained_i2t, case):
    path = save_model(trained_i2t, tmp_path / "m.model")
    payload = bytearray(path.read_bytes())
    fields = model_fields(trained_i2t)
    writes, message = MODEL_FIELD_ERRORS[case]
    for field, value in writes.items():
        offset, fmt = fields[field]
        struct.pack_into(fmt, payload, offset, value)
    path.write_bytes(bytes(payload))
    with pytest.raises(LoadError) as exc:
        load_model(path)
    assert str(exc.value) == message


# each case builds a config or runs a code update that cannot be done
TRAINING_ERRORS = {
    "batch size 0": (lambda: TrainConfig(batch_size=0), ContractError,
                     "batch_size must be >= 1, got 0"),
    "hidden width 0": (lambda: TrainConfig(hidden_dim=0), ContractError,
                       "hidden_dim must be >= 1, got 0"),
    "shift of another shape": (
        lambda: update_codes(np.ones((2, 2)), np.ones((2, 2)), HyperParams(1.0, 1.0, 0.0, 0.0),
                             np.ones((1, 2))),
        ContractError, "shift shape (1, 2) does not match (2, 2)"),
    "infinite embedding": (
        lambda: update_codes(np.array([[np.inf, 0.0]]), np.zeros((1, 2)),
                             HyperParams(1.0, 1.0, 0.0, 0.0)),
        NumericalError, "code update saw non-finite embeddings"),
}


@pytest.mark.parametrize("case", TRAINING_ERRORS)
def test_training_names_what_it_cannot_do(case):
    call, error, message = TRAINING_ERRORS[case]
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message
