"""Fixed-point machinery for decoupling-approximation models.

Both the 1901 model ([5], ICNP 2014) and the Bianchi 802.11 model
reduce to a scalar fixed point: the per-slot-event transmission
probability τ of a station must be consistent with the medium-busy /
collision probability γ = 1 − (1 − τ)^(N−1) that the station's backoff
process experiences.

[5] shows that for 1901 the fixed point need not be unique (the
deferral counter couples stations more strongly than plain BEB), so in
addition to :func:`solve_fixed_point` we provide
:func:`find_all_fixed_points`, which scans for every sign change of the
residual.

Both bracket solvers run :func:`brentq`, an in-tree port of scipy's C
``brentq`` that returns the same float bit for bit, so the model path
never pays for importing ``scipy.optimize``.
"""

from __future__ import annotations

import math
from typing import Callable, List

import numpy as np

__all__ = [
    "ConvergenceError",
    "brentq",
    "gamma_from_tau",
    "solve_fixed_point",
    "find_all_fixed_points",
    "damped_iteration",
]

_EPS = 1e-12


class ConvergenceError(RuntimeError):
    """A fixed-point computation failed to converge.

    Carries the numerical evidence so callers (and failure telemetry)
    can report *where* the solver stalled instead of silently using a
    garbage operating point:

    - ``last_iterate`` — the best/last τ the solver held;
    - ``residual`` — |τ − f(γ(τ))| at that iterate;
    - ``iterations`` — how many iterations (or grid points) were spent.

    All solvers raise this by default; pass ``strict=False`` to get the
    old silent behaviour (return the last iterate / an empty root list).
    :func:`brentq` raises it whatever ``strict`` says, where scipy's
    ``brentq`` raised a bare ``RuntimeError``.
    """

    def __init__(
        self,
        message: str,
        last_iterate: float,
        residual: float,
        iterations: int,
    ) -> None:
        super().__init__(
            f"{message} after {iterations} iteration(s): "
            f"last iterate tau={last_iterate:.12g}, "
            f"residual={residual:.3g}"
        )
        self.last_iterate = float(last_iterate)
        self.residual = float(residual)
        self.iterations = int(iterations)


#: scipy.optimize.brentq's defaults.
_BRENT_XTOL = 2e-12
_BRENT_RTOL = 4 * float(np.finfo(float).eps)
_BRENT_MAXITER = 100


def brentq(
    f: Callable[..., float],
    a: float,
    b: float,
    args: tuple = (),
    xtol: float = _BRENT_XTOL,
    rtol: float = _BRENT_RTOL,
    maxiter: int = _BRENT_MAXITER,
) -> float:
    """A root of ``f`` in the sign-changing bracket [a, b], by Brent's method.

    A line-for-line port of scipy's C ``brentq``: the same iterates,
    float operations, defaults and ``ValueError``s (same-sign bracket,
    NaN value of ``f``, ``xtol <= 0``, ``rtol < 4·eps``, ``maxiter <
    0``), so it returns ``scipy.optimize.brentq``'s float bit for bit.
    Running out of ``maxiter`` iterations raises
    :class:`ConvergenceError` (a ``RuntimeError``, as scipy raises)
    carrying the last iterate and its \\|f\\|.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _BRENT_RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_BRENT_RTOL:g})")
    if maxiter < 0:
        raise ValueError("maxiter should be > 0")

    def call(x: float) -> float:
        fx = float(f(x, *args))
        if math.isnan(fx):
            raise ValueError(
                f"The function value at x={x} is NaN; solver cannot continue."
            )
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    # Both are non-zero and not NaN, so ``x < 0`` is C's signbit(x).
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                try:
                    stry = (
                        -fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre))
                    )
                except ZeroDivisionError:
                    # C divides an underflowed denominator into ±inf or
                    # NaN, and either one fails the step test: bisect.
                    stry = math.inf
            # C's MIN(u, v): unlike min(), it yields v when u is NaN.
            u, v = abs(spre), 3 * abs(sbis) - delta
            if 2 * abs(stry) < (u if u < v else v):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise ConvergenceError(
        "Brent's method did not converge",
        last_iterate=xcur,
        residual=abs(fcur),
        iterations=maxiter,
    )


def gamma_from_tau(tau: float, num_stations: int) -> float:
    """Busy/collision probability seen by one station: 1 − (1 − τ)^(N−1)."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    if num_stations < 1:
        raise ValueError("num_stations must be >= 1")
    return 1.0 - (1.0 - tau) ** (num_stations - 1)


def _residual(
    tau: float, tau_of_gamma: Callable[[float], float], num_stations: int
) -> float:
    """τ − f(γ(τ)); zero at a consistent operating point."""
    return tau - tau_of_gamma(gamma_from_tau(tau, num_stations))


def solve_fixed_point(
    tau_of_gamma: Callable[[float], float],
    num_stations: int,
    bracket: tuple = (_EPS, 1.0 - _EPS),
    xtol: float = 1e-12,
    strict: bool = True,
    max_iter: int = 10000,
) -> float:
    """Solve τ = f(1 − (1 − τ)^(N−1)) for τ via Brent's method.

    Parameters
    ----------
    tau_of_gamma:
        The model: attempt probability of one station given the
        busy probability γ it experiences.
    num_stations:
        Number of contending stations ``N``.
    strict:
        If the bracket has no sign change the solver falls back to
        :func:`damped_iteration`; when that fails to converge within
        ``max_iter`` steps, ``strict=True`` raises
        :class:`ConvergenceError` (carrying the last iterate and its
        residual) and ``strict=False`` returns the last iterate.

    For ``N == 1`` there is no coupling: returns ``f(0)`` directly.
    """
    if num_stations == 1:
        return tau_of_gamma(0.0)
    lo, hi = bracket
    f_lo = _residual(lo, tau_of_gamma, num_stations)
    f_hi = _residual(hi, tau_of_gamma, num_stations)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0:
        # No sign change over the bracket; fall back to iteration.
        return damped_iteration(
            tau_of_gamma, num_stations, max_iter=max_iter, strict=strict
        )
    return brentq(
        _residual, lo, hi, args=(tau_of_gamma, num_stations), xtol=xtol
    )


def find_all_fixed_points(
    tau_of_gamma: Callable[[float], float],
    num_stations: int,
    grid_points: int = 2000,
    strict: bool = True,
) -> List[float]:
    """Locate every fixed point by scanning for residual sign changes.

    Useful to reproduce the multiple-fixed-point phenomenon [5]
    discusses for some 1901 configurations.

    A continuous ``tau_of_gamma`` mapping into [0, 1] always has a
    fixed point (Brouwer), so finding none means the scan failed —
    typically a discontinuous or out-of-range model, or a root hugging
    the bracket boundary below grid resolution.  ``strict=True``
    (default) raises :class:`ConvergenceError` in that case, carrying
    the grid point of smallest \\|residual\\|; ``strict=False`` returns
    the empty list.
    """
    taus = np.linspace(_EPS, 1.0 - _EPS, grid_points)
    residuals = np.array(
        [_residual(t, tau_of_gamma, num_stations) for t in taus]
    )
    roots: List[float] = []
    for i in range(len(taus) - 1):
        r0, r1 = residuals[i], residuals[i + 1]
        if r0 == 0.0:
            roots.append(float(taus[i]))
        elif r0 * r1 < 0:
            roots.append(
                brentq(
                    _residual,
                    taus[i],
                    taus[i + 1],
                    args=(tau_of_gamma, num_stations),
                )
            )
    # Deduplicate near-identical roots.
    unique: List[float] = []
    for root in roots:
        if not unique or abs(root - unique[-1]) > 1e-9:
            unique.append(root)
    if not unique and strict:
        best = int(np.argmin(np.abs(residuals)))
        raise ConvergenceError(
            "no fixed point found on the tau grid",
            last_iterate=float(taus[best]),
            residual=abs(float(residuals[best])),
            iterations=grid_points,
        )
    return unique


def damped_iteration(
    tau_of_gamma: Callable[[float], float],
    num_stations: int,
    damping: float = 0.5,
    tol: float = 1e-12,
    max_iter: int = 10000,
    strict: bool = True,
) -> float:
    """Damped Picard iteration τ ← (1−α)τ + α·f(γ(τ)).

    Robust fallback when the residual does not change sign on the
    bracket boundary (e.g. degenerate single-slot windows).

    When the iteration has not contracted below ``tol`` after
    ``max_iter`` steps, ``strict=True`` (default) raises
    :class:`ConvergenceError` — returning a non-converged τ silently
    poisons every downstream renewal formula — and ``strict=False``
    restores the old behaviour of returning the last iterate.
    """
    tau = 0.1
    for _ in range(max_iter):
        nxt = tau_of_gamma(gamma_from_tau(tau, num_stations))
        new = (1.0 - damping) * tau + damping * nxt
        if abs(new - tau) < tol:
            return new
        tau = new
    if strict:
        raise ConvergenceError(
            "damped Picard iteration did not converge",
            last_iterate=tau,
            residual=abs(_residual(tau, tau_of_gamma, num_stations)),
            iterations=max_iter,
        )
    return tau
