"""Property-based tests for the analytical models."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.analysis.fixed_point import gamma_from_tau, solve_fixed_point
from repro.analysis.markov import StationChain
from repro.analysis.recursive import (
    RecursiveModel,
    jump_pmf,
    stage_quantities,
)
from repro.core.config import CsmaConfig

small_schedules = st.integers(1, 3).flatmap(
    lambda m: st.tuples(
        st.tuples(*[st.integers(1, 32)] * m),
        st.tuples(*[st.integers(0, 7)] * m),
    )
)


@given(
    w=st.integers(1, 128),
    d=st.integers(0, 31),
    p=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=200)
def test_stage_quantities_bounds(w, d, p):
    q = stage_quantities(w, d, p)
    assert 0.0 <= q.attempt_probability <= 1.0 + 1e-12
    assert q.expected_events >= 1.0 - 1e-9
    # A stage visit can never outlast the drawn BC plus the attempt.
    assert q.expected_events <= (w - 1) + 1 + 1e-9


@given(w=st.integers(1, 64), d=st.integers(0, 15))
def test_stage_quantities_monotone_in_busy_probability(w, d):
    probs = [0.0, 0.25, 0.5, 0.75, 1.0]
    attempts = [stage_quantities(w, d, p).attempt_probability for p in probs]
    assert all(a >= b - 1e-12 for a, b in zip(attempts, attempts[1:]))


@given(schedule=small_schedules, gamma=st.floats(0.0, 0.99))
@settings(max_examples=60, deadline=None)
def test_markov_and_recursive_agree_everywhere(schedule, gamma):
    cw, dc = schedule
    config = CsmaConfig(cw=cw, dc=dc)
    chain_tau = StationChain(config).tau(gamma)
    recursive_tau = RecursiveModel(config).tau(gamma)
    assert abs(chain_tau - recursive_tau) < 1e-8
    assert 0.0 < chain_tau <= 1.0


@given(schedule=small_schedules, n=st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_fixed_point_is_consistent(schedule, n):
    cw, dc = schedule
    model = RecursiveModel(CsmaConfig(cw=cw, dc=dc))
    tau = solve_fixed_point(model.tau, n)
    assert 0.0 < tau <= 1.0
    # The fixed point satisfies its own equation.
    gamma = gamma_from_tau(min(tau, 1.0), n)
    assert abs(tau - model.tau(gamma)) < 1e-6


@given(tau=st.floats(0.0, 1.0), n=st.integers(1, 50))
def test_gamma_bounds(tau, n):
    gamma = gamma_from_tau(tau, n)
    assert 0.0 <= gamma <= 1.0


#: Busy probabilities at the edges of jump_pmf's domain.  At
#: nextafter(1, 0) the raw scipy.special ufunc exceeds 1 for d ∈ {1, 3};
#: only the [0, 1] clip of scipy.stats matches it.
EDGE_PROBABILITIES = [1e-12, 1e-6, 0.25, 0.5, 0.9, np.nextafter(1.0, 0.0), 1.0]


def _reference_jump_pmf(w, d, p):
    """The deferral-jump pmf as scipy.stats computes it."""
    q = np.zeros(w)
    jv = np.arange(d + 1, w)
    if jv.size:
        q[jv] = stats.nbinom.pmf(jv - 1 - d, d + 1, p)
    return q


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("p", EDGE_PROBABILITIES)
def test_jump_pmf_matches_scipy_stats_bit_for_bit(p):
    # jump_pmf(w, d, p) is elementwise in the event index, so the rows
    # at w = 1024 cover every smaller window at the same (d, p).
    for d in range(1024):
        _assert_same_bits(jump_pmf(1024, d, p), _reference_jump_pmf(1024, d, p))


@given(
    w=st.integers(1, 1024),
    d=st.integers(0, 1023),
    p=st.one_of(
        st.sampled_from(EDGE_PROBABILITIES), st.floats(1e-12, 1.0)
    ),
)
@settings(max_examples=300, deadline=None)
def test_jump_pmf_matches_scipy_stats_on_any_window(w, d, p):
    _assert_same_bits(jump_pmf(w, d, p), _reference_jump_pmf(w, d, p))


def test_jump_pmf_is_clipped_to_one():
    p = np.nextafter(1.0, 0.0)
    for d in (1, 3):
        assert jump_pmf(d + 2, d, p)[d + 1] == 1.0


def test_jump_pmf_falls_back_to_scipy_stats(monkeypatch):
    """Without the private ufunc, the helper pays for scipy.stats and
    returns the same bits."""
    points = [
        (w, d, p)
        for p in EDGE_PROBABILITIES
        for w, d in ((1, 0), (2, 0), (16, 3), (1024, 1), (1024, 1022))
    ]
    want = [_reference_jump_pmf(*point) for point in points]
    calls = []
    nbinom = stats.nbinom

    class Spy:
        def pmf(self, *args):
            calls.append(args)
            return nbinom.pmf(*args)

    monkeypatch.setitem(sys.modules, "scipy.special._ufuncs", None)
    monkeypatch.setattr(stats, "nbinom", Spy())
    for point, reference in zip(points, want):
        _assert_same_bits(jump_pmf(*point), reference)
    assert len(calls) == sum(w > d + 1 for w, d, _ in points)
