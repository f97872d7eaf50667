"""The one deviation-gain kernel: its layouts and errors, and that every
truthfulness verifier decides through it."""

import importlib
import pkgutil

import numpy as np
import pytest

import elicit
from elicit import (
    LinearFamily,
    ScoreTable,
    SquaredNorm,
    TypeSpace,
    check_local_truthful,
    check_proper,
    check_subgradient_selection,
    check_truthful,
    make_direct_score,
    make_scoring_rule,
    rochet_payments,
    simplex_grid,
)
from elicit.core import deviation_gains


@pytest.mark.parametrize("seed", range(5))
def test_gains_in_either_layout(seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(6, 6))
    values[rng.random(values.shape) < 0.2] = -np.inf
    truth = rng.permutation(6)
    values[truth, np.arange(6)] = rng.normal(size=6)  # finite own scores
    gains = deviation_gains(values, truth, axis=0)
    want = values - values[truth, np.arange(6)][None, :]
    assert gains.tobytes() == want.tobytes()
    assert deviation_gains(values.T, truth, axis=1).tobytes() == want.T.tobytes()


def test_a_non_finite_own_score_is_rejected_first():
    values = np.array([[-np.inf, 1e308], [1e308, 0.0]])  # also an overflowing gain
    for v, axis in ((values, 0), (values.T, 1)):
        with pytest.raises(ValueError, match="^truthful reports must score finite values$"):
            deviation_gains(v, [0, 1], axis)


def test_an_overflowing_gain_names_the_first_agent_and_its_report():
    values = np.full((3, 3), -1e308)  # reports down the rows, agents across
    values[0, 2] = 1e308  # agent 2 gains inf by report 0
    values[2, 1] = 1e308  # agent 1 gains inf by report 2
    message = "agent 1 gains inf by report 2: deviation gains must be finite or -inf"
    for v, axis in ((values, 0), (values.T, 1)):
        with pytest.raises(ValueError) as err:
            deviation_gains(v, [0, 1, 2], axis)
        assert str(err.value) == message


def test_a_nan_gain_is_named_and_minus_inf_is_legal():
    values = np.array([[0.0, -np.inf], [np.nan, 0.0]])
    with pytest.raises(ValueError, match="^agent 0 gains nan by report 1"):
        deviation_gains(values, [0, 1], axis=0)
    values[1, 0] = -np.inf
    assert (deviation_gains(values, [0, 1], axis=0) == [[0.0, -np.inf], [-np.inf, 0.0]]).all()


def test_every_truthfulness_verifier_calls_the_kernel_once(monkeypatch):
    original = deviation_gains
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    names = ["elicit"] + [f"elicit.{m.name}" for m in pkgutil.iter_modules(elicit.__path__)]
    sites = []
    for name in names:
        module = importlib.import_module(name)
        if getattr(module, "deviation_gains", None) is original:
            monkeypatch.setattr(module, "deviation_gains", counting)
            sites.append(name)
    # check_truthful, check_subgradient_selection and the post-check of
    # rochet_payments reach it through core's one deviation-gains pass
    assert {"elicit.core", "elicit.scoring", "elicit.monotone"} <= set(sites)

    ts = TypeSpace([[0.0], [1.0], [2.0]])
    fam = LinearFamily([[0.0], [1.0], [2.0]])
    good = make_direct_score(SquaredNorm(), ts)
    bad = ScoreTable([0, 1, 2], [[2.0], [1.0], [0.0]], [0.0, 0.0, 0.0])
    table = make_scoring_rule(SquaredNorm(), simplex_grid(3, 4))
    for call in [
        lambda: check_truthful(good, ts),
        lambda: check_truthful(bad, ts),
        lambda: check_subgradient_selection(SquaredNorm(), LinearFamily(2.0 * ts.points), ts),
        lambda: check_subgradient_selection(SquaredNorm(), fam, ts),
        lambda: check_proper(table),
        lambda: check_proper(table, table.reports[::2], strict=True),
        lambda: check_local_truthful(good, ts, [0, 1, 2], radius=1.5),
        lambda: check_local_truthful(bad, ts, [2, 1, 0], radius=1.5),
        lambda: rochet_payments(ts, fam),
        lambda: rochet_payments(ts, fam, t0=2),
    ]:
        calls.clear()
        call()
        assert len(calls) == 1
