"""Tests for the fixed-point machinery."""

import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.bianchi import Bianchi80211Model
from repro.analysis.fixed_point import (
    _EPS,
    ConvergenceError,
    _residual,
    brentq,
    damped_iteration,
    find_all_fixed_points,
    gamma_from_tau,
    solve_fixed_point,
)
from repro.analysis.recursive import RecursiveModel
from repro.core.config import CsmaConfig

#: The schedules of test_1901_decoupling_fixed_point_is_unique.
SCHEDULES = [
    CsmaConfig.default_1901(),
    CsmaConfig(cw=(8, 16, 32, 64), dc=(15, 15, 15, 15)),
    CsmaConfig(cw=(2, 1024), dc=(0, 1023)),
    CsmaConfig(cw=(64,) * 4, dc=(0, 1, 3, 15)),
]


class TestGammaFromTau:
    def test_single_station_no_coupling(self):
        assert gamma_from_tau(0.5, 1) == 0.0

    def test_two_stations(self):
        assert gamma_from_tau(0.3, 2) == pytest.approx(0.3)

    def test_many_stations(self):
        assert gamma_from_tau(0.1, 11) == pytest.approx(1 - 0.9**10)

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            gamma_from_tau(1.5, 2)
        with pytest.raises(ValueError):
            gamma_from_tau(0.5, 0)

    def test_monotone_in_tau(self):
        values = [gamma_from_tau(t, 5) for t in (0.1, 0.2, 0.4)]
        assert values[0] < values[1] < values[2]


class TestSolveFixedPoint:
    def test_constant_map(self):
        # f(γ) = 0.2 regardless: τ* = 0.2.
        tau = solve_fixed_point(lambda g: 0.2, 5)
        assert tau == pytest.approx(0.2)

    def test_n_equals_one_shortcut(self):
        assert solve_fixed_point(lambda g: 0.7, 1) == 0.7

    def test_decreasing_map_unique_root(self):
        # f(γ) = 0.5·(1−γ): strictly decreasing, unique fixed point.
        tau = solve_fixed_point(lambda g: 0.5 * (1 - g), 2)
        # τ = 0.5(1−τ) → τ = 1/3.
        assert tau == pytest.approx(1 / 3, abs=1e-9)

    def test_agrees_with_damped_iteration(self):
        f = lambda g: 0.3 * (1 - g) ** 2
        brent = solve_fixed_point(f, 4)
        damped = damped_iteration(f, 4)
        assert brent == pytest.approx(damped, abs=1e-6)


class TestFindAllFixedPoints:
    def test_single_root_found(self):
        roots = find_all_fixed_points(lambda g: 0.5 * (1 - g), 2)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(1 / 3, abs=1e-6)

    def test_multiple_roots_synthetic(self):
        # Craft a non-monotone map with three crossings for N=2
        # (γ == τ there): f(γ) = γ + 0.1·sin(3π·γ) has roots where
        # sin(3πγ) = 0, i.e. γ ∈ {1/3, 2/3} plus endpoints excluded.
        import math

        f = lambda g: min(max(g + 0.1 * math.sin(3 * math.pi * g), 0.0), 1.0)
        roots = find_all_fixed_points(f, 2)
        assert len(roots) >= 2

    def test_roots_are_fixed_points(self):
        f = lambda g: 0.4 * (1 - g) ** 3
        for root in find_all_fixed_points(f, 3):
            assert root == pytest.approx(
                f(gamma_from_tau(root, 3)), abs=1e-6
            )

    def test_1901_decoupling_fixed_point_is_unique(self):
        """τ(γ) is strictly decreasing for every (cw, dc) schedule, so
        the scalar decoupling fixed point is always unique — the
        multiple-equilibria phenomenon [5] discusses lives in the
        coupled dynamics (short-term capture), not in this map."""
        for config in SCHEDULES:
            model = RecursiveModel(config)
            for n in (2, 10, 50):
                roots = find_all_fixed_points(
                    model.tau, n, grid_points=300
                )
                assert len(roots) == 1, (config, n, roots)


class TestConvergenceError:
    """Non-convergence is a structured error, not a silent bad value."""

    # f(γ) = 1 − γ with damping 1 oscillates 0.1 ↔ 0.9 forever (N=2,
    # where γ == τ).
    @staticmethod
    def _flip(gamma):
        return 1.0 - gamma

    def test_damped_iteration_raises_with_evidence(self):
        with pytest.raises(ConvergenceError) as err:
            damped_iteration(self._flip, 2, damping=1.0, max_iter=50)
        exc = err.value
        assert exc.iterations == 50
        assert 0.0 <= exc.last_iterate <= 1.0
        assert exc.residual == pytest.approx(0.8)
        assert "50 iteration" in str(exc)
        assert "residual" in str(exc)
        assert isinstance(exc, RuntimeError)

    def test_damped_iteration_strict_false_returns_last_iterate(self):
        tau = damped_iteration(
            self._flip, 2, damping=1.0, max_iter=50, strict=False
        )
        assert tau in (pytest.approx(0.1), pytest.approx(0.9))

    def test_solve_fixed_point_threads_strict_to_fallback(self):
        # f ≡ 0 has the same residual sign at both bracket ends, so
        # solve_fixed_point falls back to damped iteration; τ halves
        # each step and cannot reach tol=1e-12 in 3 steps.
        with pytest.raises(ConvergenceError):
            solve_fixed_point(lambda g: 0.0, 2, max_iter=3)
        tau = solve_fixed_point(lambda g: 0.0, 2, max_iter=3, strict=False)
        assert tau == pytest.approx(0.1 * 0.5**3)
        # With the default budget the same fallback converges fine.
        assert solve_fixed_point(lambda g: 0.0, 2) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_find_all_fixed_points_raises_when_scan_finds_nothing(self):
        # f ≡ 1 only touches τ = 1 exactly, outside the open grid: the
        # residual τ − 1 never changes sign, so the scan comes up dry.
        with pytest.raises(ConvergenceError) as err:
            find_all_fixed_points(lambda g: 1.0, 3, grid_points=100)
        exc = err.value
        assert exc.iterations == 100
        # The best grid point hugs τ = 1 where |residual| is smallest.
        assert exc.last_iterate > 0.9
        assert exc.residual < 0.05

    def test_find_all_fixed_points_strict_false_returns_empty(self):
        roots = find_all_fixed_points(
            lambda g: 1.0, 3, grid_points=100, strict=False
        )
        assert roots == []

    def test_model_call_sites_annotate_the_error(self, monkeypatch):
        from repro.analysis import bianchi, delay, model
        from repro.analysis.bianchi import Bianchi80211Model
        from repro.analysis.delay import DelayModel
        from repro.analysis.model import Model1901

        def explode(*args, **kwargs):
            raise ConvergenceError(
                "damped Picard iteration did not converge",
                last_iterate=0.3,
                residual=0.01,
                iterations=10000,
            )

        for module, make in (
            (model, lambda: Model1901()),
            (bianchi, lambda: Bianchi80211Model()),
            (delay, lambda: DelayModel()),
        ):
            monkeypatch.setattr(module, "solve_fixed_point", explode)
            with pytest.raises(ConvergenceError, match="N=5") as err:
                make().solve(5)
            assert err.value.last_iterate == 0.3
            assert err.value.iterations == 10000
            assert isinstance(err.value.__cause__, ConvergenceError)


def _bits(x):
    return np.float64(x).view(np.uint64)


#: Residual families with roots of every flatness, from linear to a
#: cubic whose slope vanishes at the root.
_FAMILIES = [
    lambda x, c, k: k * (x - c),
    lambda x, c, k: k * (x - c) ** 3 + 1e-3 * (x - c),
    lambda x, c, k: math.tanh(k * (x - c)),
    lambda x, c, k: math.expm1(min(k * (x - c), 700.0)),
    lambda x, c, k: math.sin(k * (x - c)) + 0.1 * (x - c),
    lambda x, c, k: 1e-300 * k * (x - c),
]


class TestBrentPort:
    """:func:`brentq` returns scipy's float bit for bit."""

    @given(
        family=st.sampled_from(_FAMILIES),
        root=st.floats(-10.0, 10.0),
        log_k=st.floats(-5.0, 5.0),
        log_left=st.floats(-8.0, 2.0),
        log_right=st.floats(-8.0, 2.0),
        flip=st.booleans(),
        xtol=st.sampled_from([1e-12, 2e-12, 1e-6]),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_scipy_on_sign_changing_brackets(
        self, family, root, log_k, log_left, log_right, flip, xtol
    ):
        args = (root, 10.0**log_k)
        a, b = root - 10.0**log_left, root + 10.0**log_right
        if flip:
            a, b = b, a
        assume(family(a, *args) * family(b, *args) < 0)
        want = scipy.optimize.brentq(family, a, b, args=args, xtol=xtol)
        got = brentq(family, a, b, args=args, xtol=xtol)
        assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("xtol", [1e-12, 2e-12])
    @pytest.mark.parametrize(
        "tau_of_gamma",
        [RecursiveModel(config).tau for config in SCHEDULES]
        + [Bianchi80211Model().tau_of_gamma],
        ids=["1901-default", "dc15", "cw2-1024", "cw64", "bianchi"],
    )
    def test_matches_scipy_on_model_residuals(self, tau_of_gamma, xtol):
        for n in [*range(2, 31), 50, 100, 200]:
            args = (tau_of_gamma, n)
            want = scipy.optimize.brentq(
                _residual, _EPS, 1.0 - _EPS, args=args, xtol=xtol
            )
            got = brentq(_residual, _EPS, 1.0 - _EPS, args=args, xtol=xtol)
            assert _bits(got) == _bits(want), n

    @pytest.mark.parametrize("scale", [1e-300, 1e-250, 1e-200, 1e-160])
    def test_underflowing_extrapolation_matches_scipy(self, scale):
        # The extrapolation denominator dblk·dpre·(fblk − fpre) underflows
        # to 0; C steps by ±inf or NaN there, which fails the step test.
        f = lambda x: scale * ((x - 0.3) ** 3 + 0.01 * (x - 0.3))
        want = scipy.optimize.brentq(f, -3.0, 5.0)
        assert _bits(brentq(f, -3.0, 5.0)) == _bits(want)

    @pytest.mark.parametrize(
        "f, a, b, kwargs",
        [
            (lambda x: x * x + 1.0, -1.0, 1.0, {}),  # same-sign bracket
            (lambda x: math.nan, -1.0, 1.0, {}),  # NaN residual
            (lambda x: x if x < 0 else math.nan, -1.0, 1.0, {}),
            (lambda x: x, -1.0, 2.0, {"xtol": 0.0}),
            (lambda x: x, -1.0, 2.0, {"xtol": -1e-12}),
            (lambda x: x, -1.0, 2.0, {"rtol": 1e-16}),
            (lambda x: x, -1.0, 2.0, {"maxiter": -1}),
        ],
        ids=[
            "same-sign",
            "nan",
            "nan-at-b",
            "xtol-zero",
            "xtol-negative",
            "rtol-small",
            "maxiter-negative",
        ],
    )
    def test_bad_input_raises_what_scipy_raises(self, f, a, b, kwargs):
        with pytest.raises(Exception) as want:
            scipy.optimize.brentq(f, a, b, **kwargs)
        with pytest.raises(want.type):
            brentq(f, a, b, **kwargs)
        assert want.type is ValueError

    def test_non_convergence_raises_with_evidence(self):
        # x³ is flat at its root, so three steps from a wide bracket
        # leave Brent far from it; scipy fails the same way.
        f = lambda x: x**3
        with pytest.raises(RuntimeError):
            scipy.optimize.brentq(f, -1.0, 4.0, maxiter=3)
        last, info = scipy.optimize.brentq(
            f, -1.0, 4.0, maxiter=3, full_output=True, disp=False
        )
        assert not info.converged
        with pytest.raises(ConvergenceError) as err:
            brentq(f, -1.0, 4.0, maxiter=3)
        exc = err.value
        assert isinstance(exc, RuntimeError)
        assert exc.iterations == 3
        assert _bits(exc.last_iterate) == _bits(last)
        assert exc.residual == abs(f(last)) > 0.0
        assert "3 iteration" in str(exc)

    def test_solvers_raise_convergence_error_not_bare_runtime_error(
        self, monkeypatch
    ):
        from repro.analysis import fixed_point

        def starved(*args, **kwargs):
            return brentq(*args, **{**kwargs, "maxiter": 1})

        monkeypatch.setattr(fixed_point, "brentq", starved)
        f = lambda g: 0.4 * (1 - g) ** 3
        with pytest.raises(ConvergenceError) as err:
            solve_fixed_point(f, 3)
        assert err.value.iterations == 1
        with pytest.raises(ConvergenceError):
            find_all_fixed_points(f, 3, grid_points=50)
