"""Dense kernel tests against loop-level reference implementations."""

import json
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from conftest import child_env
from xmhash.errors import ContractError, NumericalError
from xmhash.linalg import cholesky_lower, spd_solve


def test_spd_solve_identity_returns_rhs():
    rng = np.random.default_rng(4)
    b = rng.standard_normal((3, 2))
    assert np.allclose(spd_solve(np.eye(3), b), b, rtol=0, atol=1e-14)


def test_spd_solve_diagonal_hand_value():
    x = spd_solve([[2.0, 0.0], [0.0, 2.0]], [[2.0], [4.0]])
    assert np.allclose(x, [[1.0], [2.0]], rtol=0, atol=1e-14)


def test_spd_solve_residual_small():
    rng = np.random.default_rng(5)
    q = rng.standard_normal((5, 5))
    a = q.T @ q + np.eye(5)
    b = rng.standard_normal((5, 3))
    x = spd_solve(a, b)
    assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) < 1e-10


def test_spd_solve_recovers_known_solution():
    rng = np.random.default_rng(6)
    q = rng.standard_normal((6, 6))
    a = q.T @ q + np.eye(6)
    x_true = rng.standard_normal((6, 2))
    x = spd_solve(a, a @ x_true)
    assert np.linalg.norm(x - x_true) / np.linalg.norm(x_true) < 1e-8


def test_spd_solve_one_dimensional_rhs():
    x = spd_solve(np.eye(3) * 4.0, np.array([4.0, 8.0, 12.0]))
    assert x.shape == (3,)
    assert np.allclose(x, [1.0, 2.0, 3.0], rtol=0, atol=1e-14)


@pytest.mark.parametrize("c", range(1, 9))
def test_spd_solve_matches_scipy_solve(c):
    # well-conditioned systems whose solutions keep every entry away from
    # zero, so that each entry can be held to a relative tolerance
    rng = np.random.default_rng(c)
    for _ in range(20):
        q = rng.standard_normal((c, c))
        a = q.T @ q / c + np.eye(c)
        for shape in ((c, 1), (c, 16), (c,)):
            x_true = rng.choice((-1.0, 1.0), shape) * rng.uniform(0.5, 2.0, shape)
            b = a @ x_true
            want = scipy.linalg.solve(a, b, assume_a="pos")
            np.testing.assert_allclose(spd_solve(a, b), want, rtol=1e-12)


def test_spd_solve_shape_mismatch_rejected():
    with pytest.raises(ContractError, match="mismatch"):
        spd_solve(np.eye(3), np.zeros((2, 1)))


def test_cholesky_factor_reconstructs_input():
    rng = np.random.default_rng(7)
    q = rng.standard_normal((4, 4))
    a = q @ q.T + 4.0 * np.eye(4)
    low = cholesky_lower(a)
    assert np.allclose(np.triu(low, 1), 0.0)
    assert np.allclose(low @ low.T, a, rtol=0, atol=1e-10)


def test_cholesky_reports_failing_pivot_index():
    # leading 1x1 block is fine; positive definiteness fails at pivot 1
    with pytest.raises(NumericalError, match="pivot 1"):
        cholesky_lower(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_cholesky_rejects_non_square():
    with pytest.raises(ContractError, match="square"):
        cholesky_lower(np.zeros((2, 3)))


# each OpenBLAS numpy and scipy wheels link: (extension module, get_num_threads entry)
PROBE = """
import ctypes, json
import numpy.linalg._umath_linalg, scipy.linalg._fblas
import xmhash
threads = {}
for module, getter in ((numpy.linalg._umath_linalg, "scipy_openblas_get_num_threads64_"),
                       (scipy.linalg._fblas, "scipy_openblas_get_num_threads")):
    get = getattr(ctypes.CDLL(module.__file__), getter, None)
    if get is not None:
        threads[module.__name__] = get()
print(json.dumps(threads))
"""


def test_importing_xmhash_leaves_openblas_on_one_thread():
    out = subprocess.run([sys.executable, "-c", PROBE], env=child_env("2"), check=True,
                         capture_output=True, text=True).stdout
    threads = json.loads(out)
    if not threads:
        pytest.skip("neither numpy nor scipy links an OpenBLAS here")
    assert threads == dict.fromkeys(threads, 1)


# a short training run after importing xmhash; no scipy module may be loaded
# by it, so no scipy BLAS call is left whose result could depend on threads
TRAIN_PROBE = """
import sys
from xmhash import HyperParams, TrainConfig, make_split, synth, train_task
ds = synth(40, 6, 8, 3, noise=0.1, seed=1)
cfg = TrainConfig(bits=8, epochs=2, batch_size=16, lr_image=1e-3, lr_text=1e-3,
                  seed=0, hidden_dim=16)
train_task(ds, make_split(ds.n, 8, 30, seed=1), cfg, HyperParams(0.1, 0.01, 1e-4, 1e-3))
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_training_loads_no_scipy():
    out = subprocess.run([sys.executable, "-c", TRAIN_PROBE], env=child_env("2"), check=True,
                         capture_output=True, text=True).stdout
    assert out.strip().splitlines()[-1] == "[]"
