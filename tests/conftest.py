"""Shared fixtures: one small dataset and one quickly trained model.

Both are session-scoped; every training-dependent test reuses them instead
of retraining. The training recipe (48 train items, damped features,
lr=1e-3 full batch) is the largest configuration where plain SGD on the
summed pairwise objective stays stable, so tests built on it are
deterministic and fast.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from xmhash import (
    HyperParams,
    TrainConfig,
    make_split,
    synth,
    train_task,
)
from xmhash.data import PairwiseSimilarity
from xmhash.objective import ObjectiveState

DESK_HP = (0.1, 0.01, 1e-4, 1e-3)


def child_env(openblas_threads: str) -> dict:
    """Environment for a child interpreter that imports this checkout's
    xmhash, with OPENBLAS_NUM_THREADS set."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "OPENBLAS_NUM_THREADS": openblas_threads,
            "PYTHONPATH": src + os.pathsep + path if path else src}


@pytest.fixture(scope="session")
def tiny_ds():
    return synth(60, 8, 12, 3, noise=0.1, seed=5)


@pytest.fixture(scope="session")
def tiny_split(tiny_ds):
    return make_split(tiny_ds.n, 10, 40, seed=2)


@pytest.fixture(scope="session")
def desk_cfg():
    return TrainConfig(
        bits=8,
        epochs=6,
        batch_size=16,
        lr_image=1e-3,
        lr_text=1e-3,
        seed=0,
        hidden_dim=32,
    )


@pytest.fixture(scope="session")
def trained_i2t(tiny_ds, tiny_split, desk_cfg):
    hp = HyperParams(*DESK_HP, task="i2t")
    return train_task(tiny_ds, tiny_split, desk_cfg, hp)


@pytest.fixture(scope="session")
def trained_t2i(tiny_ds, tiny_split, desk_cfg):
    hp = HyperParams(*DESK_HP, task="t2i")
    return train_task(tiny_ds, tiny_split, desk_cfg, hp)


def random_state(seed, r=3, n=5, c=2):
    """Random finite objective state plus its similarity oracle."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=(c, n)).astype(np.uint8)
    labels[rng.integers(0, c, size=n), np.arange(n)] = 1
    state = ObjectiveState(
        image_feats=rng.standard_normal((r, n)),
        text_feats=rng.standard_normal((r, n)),
        codes=(rng.integers(0, 2, size=(r, n)) * 2 - 1).astype(np.float64),
        proj=rng.standard_normal((r, c)),
        labels=labels.astype(np.float64),
    )
    return state, PairwiseSimilarity(labels)
