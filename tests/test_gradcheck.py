"""The finite-difference suite itself: it must pass on correct gradients and
catch planted wrong ones."""

import pytest

from xmhash import gradcheck
from xmhash.errors import ContractError
from xmhash.gradcheck import DEFAULT_TOL, run_suite
from xmhash.objective import feature_grad


def test_suite_passes_on_the_real_gradients():
    report = run_suite(trials=8, seed=0)
    assert report.all_passed
    assert report.worst.max_err < DEFAULT_TOL


def test_suite_runs_four_checks_per_trial():
    report = run_suite(trials=5, seed=1)
    assert len(report.results) == 20
    names = [r.name for r in report.results]
    assert sum("image-grad" in n for n in names) == 5
    assert sum("text-grad" in n for n in names) == 5
    assert sum("encoder-chain image" in n for n in names) == 5
    assert sum("encoder-chain text" in n for n in names) == 5


def test_suite_covers_both_directions_and_weight_corners():
    report = run_suite(trials=16, seed=2)
    tags = {r.name.split("task=")[1] for r in report.results}
    tasks = {t.split(" ")[0] for t in tags}
    assert tasks == {"i2t", "t2i"}
    corners = {t.split("weights=")[1].split(" trial")[0] for t in tags}
    assert len(corners) == 16


def test_suite_report_lines_are_deterministic():
    a = list(run_suite(trials=4, seed=3).lines())
    b = list(run_suite(trials=4, seed=3).lines())
    assert a == b
    assert a[-1].startswith("PASS: 16 checks")
    assert all(line.startswith("ok  ") for line in a[:-1])


def test_suite_catches_a_planted_sign_error(monkeypatch):
    def wrong_image_grad(state, hp, sim, batch, side):
        grad = feature_grad(state, hp, sim, batch, side)
        return -grad if side == 0 else grad

    monkeypatch.setattr(gradcheck, "feature_grad", wrong_image_grad)
    report = run_suite(trials=4, seed=0)
    assert not report.all_passed
    failing = [r for r in report.results if not r.passed]
    assert failing
    assert all("image" in r.name for r in failing)
    lines = list(report.lines())
    assert any(line.startswith("FAIL image-grad") or "FAIL image-grad" in line
               for line in lines)
    assert lines[-1].startswith("FAIL:")


def test_suite_catches_a_planted_text_scale_error(monkeypatch):
    def wrong_text_grad(state, hp, sim, batch, side):
        grad = feature_grad(state, hp, sim, batch, side)
        return 1.5 * grad if side == 1 else grad

    monkeypatch.setattr(gradcheck, "feature_grad", wrong_text_grad)
    report = run_suite(trials=4, seed=0)
    assert not report.all_passed
    assert all("text" in r.name for r in report.results if not r.passed)


def test_suite_tol_is_respected():
    # with an absurdly tight tolerance even correct gradients fail
    report = run_suite(trials=2, seed=4, tol=1e-16)
    assert not report.all_passed
    assert report.tol == 1e-16


def test_suite_rejects_zero_trials():
    with pytest.raises(ContractError, match="trials"):
        run_suite(trials=0)
