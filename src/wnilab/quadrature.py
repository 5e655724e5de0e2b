"""Oscillation-aware adaptive integration on (0, inf) and weighted Lp norms.

The panel rule is the 15-point Kronrod extension of 7-point Gauss, applied
in vectorized batches: every refinement round evaluates all dirty panels in
a single call of the integrand on a flat numpy array.  Integrands therefore
must accept numpy arrays.

Endpoint singularities at zero are handled by panels geometrically graded
toward the origin (ratio 1/2, floor 1e-15) plus a geometric-series
extrapolation of the remaining sliver, which is exact for power-type
integrands.  Infinite upper limits are handled either by an analytic
power-law tail cutoff or by decade-by-decade extension with a growth-based
divergence verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

# 15-point Kronrod nodes on [-1, 1] and the embedded 7-point Gauss weights.
_GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_GK_WEIGHTS_K = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_GK_WEIGHTS_G = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0, 0.381830050505119,
    0.0, 0.279705391489277, 0.0, 0.129484966168870, 0.0,
])

_GRADING_FLOOR = 1e-15
_EPS = float(np.finfo(float).eps)


class NonConvergence(Exception):
    """Panel budget exhausted; carries the best estimate and its error bound."""

    def __init__(self, value: float, error: float, message: str = ""):
        self.value = value
        self.error = error
        super().__init__(message or f"quadrature did not converge (value={value!r}, err={error!r})")


class DivergentIntegral(Exception):
    """Partial integrals grow without bound under domain extension."""

    def __init__(self, direction: str, partial: float = math.inf):
        self.direction = direction
        self.partial = partial
        super().__init__(f"integral diverges ({direction})")


class NoDecay(ValueError):
    """Tail bound exponent is >= -1, so no truncation point exists."""


@dataclass
class QuadratureConfig:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-14
    max_panels: int = 4096
    # Consecutive factor-1.5 growths of the partial integral (one per decade
    # extension) before declaring divergence.  Norm integrals whose mass
    # sits far from the first decade need a longer horizon.
    growth_streak_limit: int = 3

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_panels < 1:
            raise ValueError("max_panels must be >= 1")
        if self.growth_streak_limit < 1:
            raise ValueError("growth_streak_limit must be >= 1")


@dataclass
class NormSpec:
    """Weighted Lp norm specification: (integral of weight*|f|^p)^(1/p)."""

    p: float
    weight: Callable[[np.ndarray], np.ndarray]
    domain: Tuple[float, float] = (0.0, math.inf)

    def __post_init__(self):
        if not (self.p > 1.0):
            raise ValueError("norm exponent must satisfy p > 1 (or p = inf)")


def _eval_panels(f, lo: np.ndarray, hi: np.ndarray):
    """Apply the Kronrod rule to a batch of panels.

    Returns (values, errors, resabs) where resabs integrates |f| and feeds
    the roundoff floor of the convergence test.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    x = c[:, None] + h[:, None] * _GK_NODES[None, :]
    fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    if not np.all(np.isfinite(fx)):
        bad = x.ravel()[~np.isfinite(fx.ravel())][:3]
        raise ValueError(f"integrand not finite at {bad}")
    k15 = h * (fx @ _GK_WEIGHTS_K)
    g7 = h * (fx @ _GK_WEIGHTS_G)
    resabs = h * (np.abs(fx) @ _GK_WEIGHTS_K)
    diff = np.abs(k15 - g7)
    scaled = (200.0 * diff) ** 1.5
    err = np.where(scaled < diff, scaled, diff) + 50.0 * np.finfo(float).eps * resabs
    return k15, err, resabs


def _initial_panels(lo: float, hi: float, wavelength: Optional[float],
                    breakpoints: Sequence[float]) -> np.ndarray:
    """Panel edges for [lo, hi]: octave-graded toward 0, split at
    breakpoints, capped at half a wavelength for oscillatory integrands."""
    pts = {lo, hi}
    for b in breakpoints:
        if lo < b < hi:
            pts.add(float(b))
    edges = sorted(pts)

    coarse = []
    for left, right in zip(edges[:-1], edges[1:]):
        # Octave ladder toward an endpoint at (or very near) zero.  The
        # sliver (0, floor] is dropped here; the geometric extrapolation in
        # the adaptive loop accounts for it.
        if left <= _GRADING_FLOOR and right > 4.0 * _GRADING_FLOOR:
            depth = max(1, int(math.ceil(math.log2(right / _GRADING_FLOOR))))
            coarse.extend(right * 0.5 ** k for k in range(depth, 0, -1))
        else:
            if not coarse or coarse[-1] < left:
                coarse.append(left)
            if left > 0 and right / left > 4.0:
                n = int(math.ceil(math.log2(right / left)))
                coarse.extend(float(s) for s in np.geomspace(left, right, n + 1)[1:-1])
        coarse.append(right)
    coarse = sorted(set(coarse))

    if wavelength is None or wavelength <= 0:
        return np.asarray(coarse)
    refined = [coarse[0]]
    half = 0.5 * wavelength
    for left, right in zip(coarse[:-1], coarse[1:]):
        span = right - left
        n = max(1, int(math.ceil(span / half)))
        if n == 1:
            refined.append(right)
        else:
            refined.extend(float(s) for s in np.linspace(left, right, n + 1)[1:])
    return np.asarray(refined)


def _graded_tail_correction(lows: np.ndarray, his: np.ndarray, vals: np.ndarray):
    """Geometric extrapolation of the missing sliver (0, floor].

    Octave sums of a power x^e form a geometric sequence toward the origin;
    the ratio of the deepest two octaves gives the un-computed remainder.
    Octave sums are invariant under adaptive splitting of their panels.
    Raises DivergentIntegral when the sequence grows toward the origin.
    """
    top = float(np.min(lows[lows > 0])) * 8.0
    sums = []
    hi_edge = top
    for _ in range(3):
        lo_edge = 0.5 * hi_edge
        inside = (lows >= 0.5 * lo_edge) & (his <= hi_edge * 1.0000001) & (lows >= lo_edge * 0.9999999)
        sums.append(float(np.sum(vals[inside])))
        hi_edge = lo_edge
    p0, p1, p2 = sums  # p2 is the deepest octave
    if abs(p1) < 1e-300 or abs(p0) < 1e-300:
        return 0.0, 0.0
    rho1 = p1 / p0
    rho2 = p2 / p1
    if not (math.isfinite(rho1) and math.isfinite(rho2)):
        return 0.0, 0.0
    if abs(rho2) >= 1.08 and abs(rho1) >= 1.08:
        raise DivergentIntegral("x -> 0", partial=float(np.sum(vals)))
    if abs(rho2) >= 0.97:
        # Exponent indistinguishable from -1 at the floor; the sliver cannot
        # be summed reliably.  Treated as an unresolvable remainder.
        return 0.0, abs(p2) * 8.0
    tail = p2 * rho2 / (1.0 - rho2)
    err = abs(tail) * (abs(rho2 - rho1) / max(1e-30, abs(1.0 - abs(rho2)))) + 1e-12 * abs(tail)
    return float(tail), float(err)


def _refine(f, edges: np.ndarray, config: QuadratureConfig, graded: bool):
    """Error-driven refinement of the panels between ``edges``.  Returns the
    accepted panels (lo, hi, vals, errs) sorted by position, their total,
    the sliver (0, edges[0]] when ``graded`` (else 0) and the error of both."""
    if len(edges) - 1 > config.max_panels:
        raise NonConvergence(math.nan, math.inf,
                             f"initial panelization needs {len(edges)-1} panels > budget {config.max_panels}")
    plo = edges[:-1].copy()
    phi = edges[1:].copy()
    vals, errs, resabs = _eval_panels(f, plo, phi)

    while True:
        # Pairwise sum in panel order, independent of refinement history.
        order = np.argsort(plo, kind="stable")
        total = float(np.sum(vals[order]))
        tail_val = tail_err = 0.0
        if graded:
            tail_val, tail_err = _graded_tail_correction(plo, phi, vals)
        # The floor below which cancellation makes further refinement moot.
        floor = 100.0 * np.finfo(float).eps * float(np.sum(resabs))
        tol = max(config.abs_tol, config.rel_tol * abs(total + tail_val), floor)
        toterr = float(np.sum(errs)) + tail_err
        if toterr <= tol:
            return plo[order], phi[order], vals[order], errs[order], total, tail_val, toterr
        if len(plo) >= config.max_panels:
            raise NonConvergence(total + tail_val, toterr)
        # Split every panel holding more than its fair share of the excess.
        share = tol / (2.0 * len(plo))
        split = errs > max(share, 0.25 * float(np.max(errs)))
        if not np.any(split):
            split = errs == np.max(errs)
        keep = ~split
        mid = 0.5 * (plo[split] + phi[split])
        new_lo = np.concatenate([plo[keep], plo[split], mid])
        new_hi = np.concatenate([phi[keep], mid, phi[split]])
        new_vals, new_errs, new_resabs = _eval_panels(
            f, np.concatenate([plo[split], mid]), np.concatenate([mid, phi[split]]))
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])
        resabs = np.concatenate([resabs[keep], new_resabs])
        plo, phi = new_lo, new_hi


def _adaptive(f, lo: float, hi: float, config: QuadratureConfig,
              wavelength: Optional[float], breakpoints: Sequence[float]):
    edges = _initial_panels(lo, hi, wavelength, breakpoints)
    graded = lo <= _GRADING_FLOOR and hi > 4.0 * _GRADING_FLOOR
    *_, total, tail_val, err = _refine(f, edges, config, graded)
    return total + tail_val, err


class CumulativeIntegral:
    """integral_0^r f (``lower``) and integral_r^inf f (``upper``) for many r:
    prefix and suffix sums over the panels of one refinement pass, plus one
    Kronrod panel for the partial piece of r's panel.  Raises NonConvergence
    when the table cannot meet its tolerance.

    With ``exponents=(e0, einf)`` the edges are the initial panels as given,
    and f continues as the power x^e0 below edges[0] and x^einf above
    edges[-1]: closed-form slivers complete the reads (inf at a
    non-integrable end), and reads beyond the edges integrate the power up
    to r.  Without exponents the table covers [edges[0], edges[-1]]
    panelized as ``integrate`` does it (inner edges as breakpoints,
    half-``wavelength`` cap, graded sliver from 0), and reads outside the
    edges are clipped to them.
    """

    def __init__(self, f, edges: Sequence[float], config: Optional[QuadratureConfig] = None, *,
                 exponents: Optional[Tuple[float, float]] = None,
                 wavelength: Optional[float] = None):
        edges = np.asarray(edges, dtype=float)
        lo, hi = float(edges[0]), float(edges[-1])
        graded = exponents is None and lo <= _GRADING_FLOOR and hi > 4.0 * _GRADING_FLOOR
        if exponents is None:
            edges = _initial_panels(lo, hi, wavelength, edges[1:-1])
        plo, phi, vals, errs, _, self.below, self.error = _refine(
            f, edges, config or QuadratureConfig(), graded)
        self.f = f
        self.edges = np.append(plo, phi[-1])
        self.prefix = np.concatenate([[0.0], np.cumsum(vals)])
        # Suffixes are summed from the top, so a table whose mass sits near
        # its lower end keeps the digits of its small upper reads.
        self.suffix = np.append(np.cumsum(vals[::-1])[::-1], 0.0)
        # Error of each prefix: its panels' Kronrod errors, the graded
        # sliver's share of the table error, and the rounding of the running
        # sum (at most eps times the sum of the partial sums' magnitudes).
        self.prefix_error = (np.concatenate([[0.0], np.cumsum(errs)])
                             + max(self.error - float(np.sum(errs)), 0.0)
                             + _EPS * np.cumsum(np.abs(self.prefix)))
        self.e0, self.einf = exponents or (None, None)
        self.diverges_at_zero = exponents is not None and self.e0 <= -1.0 + 1e-12
        self.diverges_at_infinity = exponents is not None and self.einf >= -1.0 - 1e-12
        self.above = 0.0
        if exponents is not None and not self.diverges_at_zero:
            self.below = -self._power_sliver(0, 0.0)
        if exponents is not None and not self.diverges_at_infinity:
            self.above = self._power_sliver(-1, math.inf)

    def _partials(self, a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """integral_a^b f and its Kronrod error where b > a (else 0), all
        panels in one batch."""
        part = np.zeros_like(b)
        part_err = np.zeros_like(b)
        open_ = b > a
        if np.any(open_):
            part[open_], part_err[open_], _ = _eval_panels(self.f, a[open_], b[open_])
        return part, part_err

    def _power_sliver(self, end: int, r):
        """integral from edges[end] (0 or -1) to r of f continued beyond that
        edge as its end power; r may be 0 or inf where that converges."""
        x, e = float(self.edges[end]), self.einf if end else self.e0
        fx = float(self.f(np.array([x]))[0]) * x
        if abs(e + 1.0) <= 1e-12:
            return fx * np.log(r / x)
        return fx * ((r / x) ** (e + 1.0) - 1.0) / (e + 1.0)

    def lower(self, r):
        """integral_0^r f: a float for a float r, an array for an array."""
        val = self.lower_with_error(r)[0]
        return float(val[0]) if np.ndim(r) == 0 else val

    def lower_with_error(self, r) -> Tuple[np.ndarray, np.ndarray]:
        """``lower`` at every r of an array, and an error bound for each
        read: the prefix's error, the partial panel's Kronrod error and the
        rounding of the final sum.  All partial panels are one Kronrod batch.
        Beyond the edges the power continuation is exact and a read carries
        the error of the edge read.  A float r reads as an array of one."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if self.diverges_at_zero:
            return np.full(r.shape, math.inf), np.full(r.shape, math.inf)
        lo, hi = self.edges[0], self.edges[-1]
        x = np.clip(r, lo, hi)
        i = np.maximum(np.searchsorted(self.edges, x) - 1, 0)
        part, part_err = self._partials(self.edges[i], x)
        val = self.below + self.prefix[i] + part
        if self.e0 is not None:
            below, above = r <= lo, r > hi
            val[below] = self.below * (r[below] / lo) ** (self.e0 + 1.0)
            val[above] += self._power_sliver(-1, r[above])
        return val, self.prefix_error[i] + part_err + 2.0 * _EPS * np.abs(val)

    def upper(self, r):
        """integral_r^inf f: a float for a float r, an array for an array."""
        scalar = np.ndim(r) == 0
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if self.diverges_at_infinity:
            return math.inf if scalar else np.full(r.shape, math.inf)
        lo, hi = self.edges[0], self.edges[-1]
        x = np.clip(r, lo, hi)
        i = np.minimum(np.maximum(np.searchsorted(self.edges, x, side="right") - 1, 0),
                       len(self.edges) - 2)
        val = self.above + self.suffix[i + 1] + self._partials(x, self.edges[i + 1])[0]
        if self.einf is not None:
            above, below = r >= hi, r < lo
            val[above] = self.above * (r[above] / hi) ** (self.einf + 1.0)
            val[below] -= self._power_sliver(0, r[below])
        return float(val[0]) if scalar else val


def integrate(f, interval: Tuple[float, float], config: Optional[QuadratureConfig] = None, *,
              wavelength: Optional[float] = None,
              breakpoints: Sequence[float] = (),
              tail_bound: Optional[Tuple[float, float]] = None) -> Tuple[float, float]:
    """Integrate f over (lo, hi), hi possibly infinite.

    wavelength       -- oscillation period of the integrand; panels never
                        exceed half of it.
    breakpoints      -- interior points with kinks or jumps.
    tail_bound       -- (C, e) with |f(x)| <= C*x^e beyond the panelized
                        region; places the cutoff for an infinite limit.

    Returns (value, error_estimate).  Raises NonConvergence when the panel
    budget is exhausted and DivergentIntegral when partial integrals grow
    without bound under domain extension.
    """
    config = config or QuadratureConfig()
    lo, hi = float(interval[0]), float(interval[1])
    if lo < 0:
        raise ValueError("domain must lie in [0, inf)")
    if not math.isinf(hi):
        if hi <= lo:
            return 0.0, 0.0
        return _adaptive(f, lo, hi, config, wavelength, breakpoints)

    if tail_bound is not None:
        coef, expo = tail_bound
        if expo < -1.0 and coef >= 0.0:
            start = max(lo * 2.0, 1.0)
            val, err = _adaptive(f, lo, start, config, wavelength, breakpoints)
            target = max(config.abs_tol, 0.1 * config.rel_tol * max(abs(val), config.abs_tol))
            cut = tail_truncation_point(coef, expo, target)
            cut = min(max(cut, start), 1e300)
            feasible = (wavelength is None or
                        (cut - start) / (0.5 * wavelength) <= 0.5 * config.max_panels)
            if feasible:
                if cut > start:
                    v2, e2 = _adaptive(f, start, cut, config, wavelength, breakpoints)
                    val, err = val + v2, err + e2
                return val, err + coef * cut ** (expo + 1.0) / (-expo - 1.0)
            raise NonConvergence(val, math.inf, "oscillatory tail exceeds panel budget")
        # fall through when the bound does not decay

    return _integrate_decades(f, lo, config, wavelength, breakpoints)


def _integrate_decades(f, lo: float, config: QuadratureConfig,
                       wavelength: Optional[float], breakpoints: Sequence[float]):
    """Extend the domain a decade at a time until the increments are
    negligible; declare divergence on sustained factor-1.5 growth.

    Before fully integrating a decade, its contribution is bounded with a
    coarse sample; negligible decades are skipped so oscillation-capped
    panel counts stay affordable on far-out tails.
    """
    left = lo
    right = max(10.0 * max(lo, 1e-2), 1.0)
    acc, err = _adaptive(f, left, right, config, wavelength, breakpoints)
    partials = [abs(acc)]
    growth_streak = 0
    quiet = 0
    for _ in range(40):
        nxt = right * 10.0
        tol = max(config.abs_tol, config.rel_tol * abs(acc))
        probe = float(np.max(np.abs(f(np.geomspace(right, nxt, 64))))) * (nxt - right)
        if probe <= 0.25 * tol:
            quiet += 1
            err += probe
            right = nxt
            if quiet >= 2:
                return acc, err
            continue
        if wavelength is not None and (nxt - right) / (0.5 * wavelength) > config.max_panels:
            raise NonConvergence(acc, err + probe,
                                 "oscillatory decade exceeds panel budget")
        inc, ie = _adaptive(f, right, nxt, config, wavelength,
                            [b for b in breakpoints if right < b < nxt])
        acc += inc
        err += ie
        right = nxt
        partials.append(abs(acc))
        if partials[-2] > 0 and partials[-1] / partials[-2] > 1.5:
            growth_streak += 1
            if growth_streak >= config.growth_streak_limit:
                raise DivergentIntegral("x -> inf", partial=acc)
        else:
            growth_streak = 0
        if abs(inc) <= 0.5 * tol:
            quiet += 1
            if quiet >= 2:
                return acc, err + 2.0 * abs(inc)
        else:
            quiet = 0
    raise NonConvergence(acc, err, "decade extension did not settle")


def weighted_lp_norm(f, spec: NormSpec, config: Optional[QuadratureConfig] = None, *,
                     wavelength: Optional[float] = None,
                     breakpoints: Sequence[float] = (),
                     tail_bound: Optional[Tuple[float, float]] = None) -> float:
    """(integral over the domain of weight * |f|^p)^(1/p); p = inf gives a
    grid-refined essential supremum.

    Raises DivergentIntegral when the defining integral diverges under
    domain extension.
    """
    config = config or QuadratureConfig()
    lo, hi = spec.domain
    if math.isinf(spec.p):
        return _ess_sup(f, lo, hi if not math.isinf(hi) else 1e6)

    def integrand(x):
        return np.asarray(spec.weight(x)) * np.abs(f(x)) ** spec.p

    tb = None
    if tail_bound is not None:
        c, e = tail_bound
        tb = (c, e * spec.p)  # weight contribution must be folded in by the caller
    val, _ = integrate(integrand, (lo, hi), config, wavelength=wavelength,
                       breakpoints=breakpoints, tail_bound=tb)
    return max(val, 0.0) ** (1.0 / spec.p)


def _ess_sup(f, lo: float, hi: float) -> float:
    lo = max(lo, 1e-12)
    grid = np.geomspace(lo, hi, 512)
    vals = np.abs(f(grid))
    for _ in range(3):
        i = int(np.argmax(vals))
        a = grid[max(0, i - 1)]
        b = grid[min(len(grid) - 1, i + 1)]
        grid = np.geomspace(a, b, 512)
        vals = np.abs(f(grid))
    return float(np.max(vals))


def tail_truncation_point(coefficient: float, exponent: float, target: float) -> float:
    """Smallest X with integral_X^inf coefficient*x^exponent dx <= target.

    Requires exponent < -1; raises NoDecay otherwise.
    """
    if exponent >= -1.0:
        raise NoDecay(f"tail exponent {exponent} >= -1 admits no truncation point")
    if target <= 0:
        raise ValueError("target must be positive")
    if coefficient <= 0:
        return 1.0
    a = -exponent - 1.0
    return (coefficient / (a * target)) ** (1.0 / a)
