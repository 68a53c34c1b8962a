"""Objective assembly and analytic gradients against definitional oracles."""

import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.special import expit

from conftest import random_state
from reference import pair
from xmhash.data import PairwiseSimilarity
from xmhash.errors import ContractError
from xmhash.objective import (
    _CHUNK,
    _pairwise_grad,
    HyperParams,
    ObjectiveState,
    check_state,
    image_feature_grad,
    objective_value,
    pairwise_nll,
    softplus,
    text_feature_grad,
)

LOG2 = math.log(2.0)


def nll_oracle(f, g, sim):
    """Definitional double loop over all instance pairs."""
    n = f.shape[1]
    total = 0.0
    for i in range(n):
        for j in range(n):
            phi = 0.5 * float(f[:, i] @ g[:, j])
            total += math.log1p(math.exp(-abs(phi))) + max(phi, 0.0)
            total -= pair(sim, i, j) * phi
    return total


def objective_oracle(state, hp, sim, label_side=None):
    """Term-by-term re-assembly of the objective from its definition.

    label_side is the block the label term regresses onto the labels: the
    query-side embedding block by default, the codes for the v1 variant.
    """
    f, g, b, p, lab = (state.image_feats, state.text_feats, state.codes,
                       state.proj, state.labels)
    if label_side is None:
        label_side = f if hp.task == "i2t" else g
    total = nll_oracle(f, g, sim)
    total += hp.quant_image * float(((b - f) ** 2).sum())
    total += hp.quant_text * float(((b - g) ** 2).sum())
    total += hp.label_weight * float(((label_side - p @ lab) ** 2).sum())
    total += hp.balance_weight * (
        float((f.sum(axis=1) ** 2).sum())
        + float((g.sum(axis=1) ** 2).sum())
        + float((p ** 2).sum())
    )
    return total


def fd_feature_grad(state, hp, sim, batch, which, h=1e-6):
    """Central finite differences of the objective over feature columns."""
    arr = state.image_feats if which == "image" else state.text_feats
    grad = np.zeros((arr.shape[0], len(batch)))
    for col, j in enumerate(batch):
        for i in range(arr.shape[0]):
            keep = arr[i, j]
            arr[i, j] = keep + h
            hi = objective_value(state, hp, sim, binary_codes=False)
            arr[i, j] = keep - h
            lo = objective_value(state, hp, sim, binary_codes=False)
            arr[i, j] = keep
            grad[i, col] = (hi - lo) / (2 * h)
    return grad


def all_ones_sim(n):
    return PairwiseSimilarity(np.ones((1, n), dtype=np.uint8))


def all_zeros_sim(n):
    """No shared labels anywhere: each instance gets a private class."""
    return PairwiseSimilarity(np.eye(n, dtype=np.uint8))


# --- softplus ----------------------------------------------------------------

def test_softplus_at_zero():
    assert softplus(0.0) == pytest.approx(LOG2, abs=1e-15)


def test_softplus_large_positive_is_identity():
    assert softplus(1000.0) == pytest.approx(1000.0, abs=1e-12)


def test_softplus_large_negative_underflows_quietly():
    with np.errstate(all="raise"):
        v = softplus(-1000.0)
    assert 0.0 <= v < 1e-300


# --- pairwise likelihood -------------------------------------------------------

def test_nll_zero_embeddings_give_n_squared_log2():
    n = 4
    f = np.zeros((3, n))
    assert pairwise_nll(f, f, all_ones_sim(n)) == pytest.approx(n * n * LOG2, rel=1e-14)


def test_nll_single_similar_pair_at_zero_score():
    f = np.zeros((2, 1))
    assert pairwise_nll(f, f, all_ones_sim(1)) == pytest.approx(LOG2, rel=1e-14)


def test_nll_matches_double_loop_oracle():
    rng = np.random.default_rng(0)
    f = rng.standard_normal((2, 3))
    g = rng.standard_normal((2, 3))
    lab = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
    sim = PairwiseSimilarity(lab)
    assert pairwise_nll(f, g, sim) == pytest.approx(nll_oracle(f, g, sim), abs=1e-12)


def test_nll_rejects_shape_mismatch():
    with pytest.raises(ContractError, match="share shape"):
        pairwise_nll(np.zeros((2, 3)), np.zeros((2, 4)), all_ones_sim(3))


def test_nll_rejects_wrong_oracle_size():
    with pytest.raises(ContractError, match="oracle"):
        pairwise_nll(np.zeros((2, 3)), np.zeros((2, 3)), all_ones_sim(4))


def test_nll_monotone_in_embedding_norm_when_all_similar():
    # 1-d family: scale one column of F == G while every pair is similar and
    # all inner products are nonnegative; every pair score can only grow, so
    # the negative log likelihood must fall
    rng = np.random.default_rng(1)
    base = np.abs(rng.standard_normal((3, 4)))
    sim = all_ones_sim(4)
    vals = []
    for t in (0.5, 1.0, 2.0, 4.0):
        fam = base.copy()
        fam[:, 1] *= t
        vals.append(pairwise_nll(fam, fam, sim))
    assert all(b < a for a, b in zip(vals, vals[1:]))


# --- objective assembly ---------------------------------------------------------

def test_objective_closed_form_quantization_only():
    r, n = 3, 2
    state = ObjectiveState(
        image_feats=np.zeros((r, n)),
        text_feats=np.zeros((r, n)),
        codes=np.ones((r, n)),
        proj=np.zeros((r, 1)),
        labels=np.ones((1, n)),
    )
    hp = HyperParams(1.0, 1.0, 0.0, 0.0, task="i2t")
    expected = 4.0 * LOG2 + 2.0 * (2.0 * r)
    assert objective_value(state, hp, all_ones_sim(n)) == pytest.approx(expected, rel=1e-14)


def test_objective_all_zero_weights_equals_nll():
    state, sim = random_state(2)
    hp = HyperParams(0.0, 0.0, 0.0, 0.0, task="t2i")
    assert objective_value(state, hp, sim) == pytest.approx(
        pairwise_nll(state.image_feats, state.text_feats, sim), rel=1e-14
    )


@pytest.mark.parametrize("task", ["i2t", "t2i"])
def test_objective_matches_term_oracle(task):
    state, sim = random_state(3, r=3, n=6, c=3)
    hp = HyperParams(0.7, 0.2, 0.05, 0.3, task=task)
    assert objective_value(state, hp, sim) == pytest.approx(
        objective_oracle(state, hp, sim), abs=1e-10
    )


@pytest.mark.parametrize("task", ["i2t", "t2i"])
def test_objective_code_label_target_matches_v1_oracle(task):
    state, sim = random_state(12, r=3, n=6, c=3)
    hp = HyperParams(0.7, 0.2, 0.05, 0.3, task=task)
    got = objective_value(state, hp, sim, label_target=state.codes)
    assert got == pytest.approx(objective_oracle(state, hp, sim, state.codes), abs=1e-10)
    # the codes target is a different term than the default embedding target
    assert got != pytest.approx(objective_value(state, hp, sim), abs=1e-6)


def test_objective_swapping_blocks_and_weights_is_symmetric():
    # with label and balance terms off, the objective treats (image, quant_image)
    # and (text, quant_text) symmetrically because label overlap is symmetric
    state, sim = random_state(4)
    hp = HyperParams(0.6, 0.1, 0.0, 0.0, task="i2t")
    swapped = ObjectiveState(
        image_feats=state.text_feats.copy(),
        text_feats=state.image_feats.copy(),
        codes=state.codes.copy(),
        proj=state.proj.copy(),
        labels=state.labels.copy(),
    )
    hp_swapped = HyperParams(0.1, 0.6, 0.0, 0.0, task="i2t")
    assert objective_value(state, hp, sim) == pytest.approx(
        objective_value(swapped, hp_swapped, sim), rel=1e-12
    )


def test_objective_finite_for_extreme_inputs():
    state, sim = random_state(5)
    state.image_feats *= 500.0
    state.text_feats *= 500.0
    hp = HyperParams(0.1, 0.1, 0.1, 0.1, task="i2t")
    assert np.isfinite(objective_value(state, hp, sim))


# --- gradients -------------------------------------------------------------------

def test_image_grad_hand_value_quantization_pull():
    # one instance, zero embeddings, code +1: only the quantization term acts,
    # giving 2 * 0.5 * (0 - 1) = -1
    state = ObjectiveState(
        image_feats=np.zeros((1, 1)),
        text_feats=np.zeros((1, 1)),
        codes=np.ones((1, 1)),
        proj=np.zeros((1, 1)),
        labels=np.ones((1, 1)),
    )
    hp = HyperParams(0.5, 0.0, 0.0, 0.0, task="i2t")
    grad = image_feature_grad(state, hp, all_ones_sim(1), np.array([0]))
    assert np.array_equal(grad, [[-1.0]])


def test_text_grad_hand_value_quantization_pull():
    state = ObjectiveState(
        image_feats=np.zeros((1, 1)),
        text_feats=np.zeros((1, 1)),
        codes=np.ones((1, 1)),
        proj=np.zeros((1, 1)),
        labels=np.ones((1, 1)),
    )
    hp = HyperParams(0.0, 0.5, 0.0, 0.0, task="t2i")
    grad = text_feature_grad(state, hp, all_ones_sim(1), np.array([0]))
    assert np.array_equal(grad, [[-1.0]])


def test_image_grad_zero_when_nothing_pulls():
    n = 3
    state = ObjectiveState(
        image_feats=np.zeros((2, n)),
        text_feats=np.zeros((2, n)),
        codes=np.zeros((2, n)),
        proj=np.zeros((2, n)),
        labels=np.eye(n),
    )
    hp = HyperParams(0.0, 0.0, 0.0, 0.0, task="i2t")
    grad = image_feature_grad(state, hp, all_zeros_sim(n), np.arange(n))
    assert np.all(grad == 0.0)


def test_text_grad_zero_for_similar_pairs_with_zero_images():
    n = 3
    rng = np.random.default_rng(6)
    state = ObjectiveState(
        image_feats=np.zeros((2, n)),
        text_feats=rng.standard_normal((2, n)),
        codes=np.ones((2, n)),
        proj=np.zeros((2, 1)),
        labels=np.ones((1, n)),
    )
    hp = HyperParams(0.0, 0.0, 0.0, 0.0, task="i2t")
    grad = text_feature_grad(state, hp, all_ones_sim(n), np.arange(n))
    assert np.all(grad == 0.0)


@pytest.mark.parametrize("task", ["i2t", "t2i"])
def test_feature_grads_match_finite_differences(task):
    state, sim = random_state(7, r=3, n=5, c=2)
    hp = HyperParams(0.3, 0.15, 0.08, 0.2, task=task)
    batch = np.array([0, 2, 4])
    for which, grad_fn in (("image", image_feature_grad), ("text", text_feature_grad)):
        analytic = grad_fn(state, hp, sim, batch)
        numeric = fd_feature_grad(state, hp, sim, batch, which)
        scale = np.maximum(1.0, np.abs(numeric))
        assert np.max(np.abs(analytic - numeric) / scale) < 1e-5


def test_text_grad_is_image_grad_on_the_swapped_state():
    # label overlap is symmetric, so the text-block gradient of a state is
    # the image-block gradient of the state with the blocks, their
    # quantization weights and the direction all swapped
    state, sim = random_state(13, r=3, n=6, c=3)
    swapped = ObjectiveState(
        image_feats=state.text_feats.copy(),
        text_feats=state.image_feats.copy(),
        codes=state.codes.copy(),
        proj=state.proj.copy(),
        labels=state.labels.copy(),
    )
    batch = np.array([1, 3, 4])
    for qi, qt, lw, bw in itertools.product((0.0, 0.1), repeat=4):
        image = image_feature_grad(state, HyperParams(qi, qt, lw, bw, task="i2t"), sim, batch)
        text = text_feature_grad(swapped, HyperParams(qt, qi, lw, bw, task="t2i"), sim, batch)
        np.testing.assert_allclose(text, image, rtol=1e-12, atol=0)


def pairwise_grad_oracle(own, other, sim, batch):
    """The likelihood gradient through scipy's expit, chunked as the kernel is."""
    out = np.zeros((own.shape[0], batch.size))
    for j0 in range(0, own.shape[1], _CHUNK):
        cols = np.arange(j0, min(j0 + _CHUNK, own.shape[1]))
        phi = 0.5 * own[:, batch].T @ other[:, cols]
        out += 0.5 * other[:, cols] @ (expit(phi) - sim.block(batch, cols)).T
    return out


def random_blocks(seed, r, n, c, scale):
    rng = np.random.default_rng(seed)
    own = scale * rng.standard_normal((r, n))
    other = scale * rng.standard_normal((r, n))
    sim = PairwiseSimilarity((rng.random((c, n)) < 0.4).astype(np.uint8))
    return own, other, sim, rng.choice(n, 37, replace=False)


@pytest.mark.parametrize("seed", range(5))
def test_pairwise_grad_matches_expit_oracle(seed):
    # n spans three column chunks, the last one partial
    own, other, sim, batch = random_blocks(seed, 4, 2 * _CHUNK + 76, 3, 2.0)
    np.testing.assert_allclose(_pairwise_grad(own, other, sim, batch),
                               pairwise_grad_oracle(own, other, sim, batch), rtol=1e-14)


def test_pairwise_grad_saturated_scores_stay_finite_and_quiet():
    # scores near +-1e3: exp(-phi) overflows to inf where phi is very negative
    own, other, sim, batch = random_blocks(3, 2, 300, 3, 25.0)
    phi = 0.5 * own[:, batch].T @ other
    assert np.abs(phi).max() > 1e3 and phi.min() < -800
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grad = _pairwise_grad(own, other, sim, batch)
    assert np.all(np.isfinite(grad))
    np.testing.assert_allclose(grad, pairwise_grad_oracle(own, other, sim, batch), rtol=1e-14)


def test_label_term_applies_only_to_query_side():
    state, sim = random_state(8)
    batch = np.arange(state.image_feats.shape[1])
    with_label = HyperParams(0.1, 0.1, 0.5, 0.0, task="t2i")
    without = HyperParams(0.1, 0.1, 0.0, 0.0, task="t2i")
    # t2i: the image block has no label term, so its gradient ignores label_weight
    assert np.array_equal(
        image_feature_grad(state, with_label, sim, batch),
        image_feature_grad(state, without, sim, batch),
    )
    # ... while the text block does not
    assert not np.array_equal(
        text_feature_grad(state, with_label, sim, batch),
        text_feature_grad(state, without, sim, batch),
    )


def test_grad_batch_validation():
    state, sim = random_state(9)
    hp = HyperParams(0.1, 0.1, 0.1, 0.1, task="i2t")
    with pytest.raises(ContractError, match="empty"):
        image_feature_grad(state, hp, sim, np.array([], dtype=int))
    with pytest.raises(ContractError, match="out of range"):
        text_feature_grad(state, hp, sim, np.array([99]))


# --- validation --------------------------------------------------------------------

def test_hyperparams_reject_negative_weight():
    with pytest.raises(ContractError, match="quant_text"):
        HyperParams(0.1, -0.1, 0.0, 0.0).validate()


def test_hyperparams_reject_unknown_task():
    with pytest.raises(ContractError, match="task"):
        HyperParams(0.1, 0.1, 0.1, 0.1, task="sideways").validate()


def test_check_state_rejects_non_binary_codes():
    state, _ = random_state(10)
    state.codes[0, 0] = 0.5
    with pytest.raises(ContractError, match=r"\+/-1"):
        check_state(state, binary_codes=True)
    check_state(state, binary_codes=False)


def test_check_state_rejects_misaligned_projection():
    state, _ = random_state(11, c=2)
    state.proj = np.zeros((state.proj.shape[0], 5))
    with pytest.raises(ContractError, match="misaligned"):
        check_state(state)
