"""Discrete/ridge updates, the alternating trainer, variants, persistence."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import DESK_HP, child_env
from reference import train_both
from xmhash import training
from xmhash.data import make_split, synth
from xmhash.errors import ContractError, LoadError, NumericalError
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
    cm = update_codes(f, g, HyperParams(1.0, 1.0, 0.0, 0.0))
    assert np.array_equal(cm.signs, [[1], [1]])


def test_update_codes_equal_blocks_reduce_to_sign():
    rng = np.random.default_rng(0)
    f = rng.standard_normal((3, 5))
    for qi, qt in ((1.0, 1.0), (0.2, 3.0), (5.0, 0.0)):
        cm = update_codes(f, f, HyperParams(qi, qt, 0.0, 0.0))
        assert np.array_equal(cm.signs, np.where(f >= 0, 1, -1))


def test_update_codes_beats_exhaustive_enumeration():
    rng = np.random.default_rng(1)
    for trial in range(10):
        f = rng.standard_normal((2, 2))
        g = rng.standard_normal((2, 2))
        qi, qt = rng.uniform(0.05, 2.0, size=2)
        cm = update_codes(f, g, HyperParams(qi, qt, 0.0, 0.0))
        cost = quant_cost(cm.signs.astype(float), f, g, qi, qt)
        _, best_cost = best_codes_by_enumeration(f, g, qi, qt)
        assert cost <= best_cost + 1e-12


def test_update_codes_no_single_flip_improves():
    rng = np.random.default_rng(2)
    f = rng.standard_normal((4, 6))
    g = rng.standard_normal((4, 6))
    qi, qt = 0.7, 0.3
    b = update_codes(f, g, HyperParams(qi, qt, 0.0, 0.0)).signs.astype(float)
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
    assert np.array_equal(a.signs, b.signs)


def test_update_codes_zero_maps_to_plus_one():
    cm = update_codes(np.zeros((2, 2)), np.zeros((2, 2)), HyperParams(1.0, 1.0, 0.0, 0.0))
    assert np.all(cm.signs == 1)


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
    cfg = TrainConfig(bits=4, epochs=1, lr_image=1e-3, lr_text=1e-3,
                      seed=0, full_batch=True, hidden_dim=8)
    model = train_task(tiny_ds, split, cfg, HyperParams(*DESK_HP, task="i2t"))
    assert len(model.train_log) == 1
    assert model.train_log[0].epoch == 1
    assert np.isin(model.codes.signs, (-1, 1)).all()
    assert model.codes.signs.shape == (4, 4)
    assert model.proj.shape == (4, tiny_ds.c)


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


def test_train_substeps_only_when_tracked(tiny_ds, tiny_split, desk_cfg, trained_i2t):
    assert trained_i2t.substeps == ()
    from dataclasses import replace
    cfg = replace(desk_cfg, epochs=2, track_substeps=True)
    model = train_task(tiny_ds, tiny_split, cfg, HyperParams(*DESK_HP, task="i2t"))
    assert len(model.substeps) == 2
    for s in model.substeps:
        assert s.after_codes <= s.after_sweeps + 1e-9
        assert s.after_proj <= s.after_codes + 1e-9


def test_train_divergence_reports_epoch_and_step(tiny_ds, tiny_split):
    cfg = TrainConfig(bits=8, epochs=50, lr_image=0.1, lr_text=0.1,
                      seed=0, full_batch=True, hidden_dim=32)
    hp = HyperParams(0.1, 0.01, 1e-4, 0.1, task="i2t")
    with pytest.raises(NumericalError, match=r"epoch \d+, (image|text) sweep"):
        train_task(tiny_ds, tiny_split, cfg, hp)


def test_train_early_stop_cuts_epoch_budget(tiny_ds, tiny_split, monkeypatch):
    monkeypatch.setattr(training, "EARLY_STOP_TOL", 1.0)
    monkeypatch.setattr(training, "EARLY_STOP_PATIENCE", 2)
    cfg = TrainConfig(bits=8, epochs=40, lr_image=1e-6, lr_text=1e-6,
                      seed=0, full_batch=True, hidden_dim=16, early_stop=True)
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
        TrainConfig(bits=0).validate()
    with pytest.raises(ContractError, match="epochs"):
        TrainConfig(epochs=0).validate()
    with pytest.raises(ContractError, match="lr_image"):
        TrainConfig(lr_image=0.5).validate()
    with pytest.raises(ContractError, match="variant"):
        TrainConfig(variant="v9").validate()
    with pytest.raises(ContractError, match="seed"):
        TrainConfig(seed=-1).validate()


# --- variants -----------------------------------------------------------------------

def test_v2_ignores_label_content(tiny_ds, tiny_split, desk_cfg):
    from dataclasses import replace
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
    from dataclasses import replace
    hp = HyperParams(0.1, 0.01, 0.0, 1e-3, task="i2t")
    full = train_task(tiny_ds, tiny_split, replace(desk_cfg, epochs=3), hp)
    v1 = train_task(tiny_ds, tiny_split, replace(desk_cfg, epochs=3, variant="v1"), hp)
    assert np.array_equal(full.codes.signs, v1.codes.signs)
    for a, b in zip(full.image_encoder.layers, v1.image_encoder.layers):
        assert np.array_equal(a.weights, b.weights)


def test_v1_trains_with_code_regression(tiny_ds, tiny_split, desk_cfg):
    from dataclasses import replace
    cfg = replace(desk_cfg, epochs=4, variant="v1")
    hp = HyperParams(0.1, 0.01, 0.05, 1e-3, task="i2t")
    model = train_task(tiny_ds, tiny_split, cfg, hp)
    assert model.variant == "v1"
    assert model.train_log[-1].objective < model.train_log[0].objective
    assert np.abs(model.proj).max() > 0


def test_v3_codes_are_binarized_once_at_the_end(tiny_ds, tiny_split, desk_cfg):
    from dataclasses import replace
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
    from dataclasses import replace
    cfg = replace(desk_cfg, variant="v3")
    with pytest.raises(ContractError, match="quant"):
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


def test_model_load_rejects_missing_file(tmp_path):
    with pytest.raises(LoadError, match="not found"):
        load_model(tmp_path / "ghost.model")
