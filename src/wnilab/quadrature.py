"""Adaptive integration on (0, inf), and the cumulative integral table
behind the [1, R] part of the transforms' dilation tables, whose panels
never exceed half the integrand's oscillation period.

The panel rule is the 15-point Kronrod extension of 7-point Gauss, applied
in vectorized batches: every refinement round evaluates all dirty panels in
a single call of the integrand on a flat numpy array.  Integrands therefore
must accept numpy arrays.

Endpoint singularities at zero are handled by panels geometrically graded
toward the origin (ratio 1/2, floor 1e-15) plus a geometric-series
extrapolation of the remaining sliver, which is exact for power-type
integrands.  Infinite upper limits are handled by decade-by-decade
extension with a growth-based divergence verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

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
# Consecutive factor-1.5 growths of the partial integral (one per decade
# extension) before declaring divergence.  Integrals whose mass sits far
# from the first decade, such as the outer norms of the command line, need
# this long a horizon.
_GROWTH_STREAK_LIMIT = 10


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


@dataclass
class QuadratureConfig:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-14
    max_panels: int = 4096

    def __post_init__(self):
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be finite and positive")
        if self.max_panels < 1:
            raise ValueError("max_panels must be >= 1")


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


def _adaptive(f, lo: float, hi: float, config: QuadratureConfig):
    edges = _initial_panels(lo, hi, None, ())
    graded = lo <= _GRADING_FLOOR and hi > 4.0 * _GRADING_FLOOR
    *_, total, tail_val, err = _refine(f, edges, config, graded)
    return total + tail_val, err


class CumulativeIntegral:
    """integral_(edges[0])^r f for many r: prefix sums over the panels of one
    refinement pass on [edges[0], edges[-1]], edges[0] above 1e-15,
    panelized as ``integrate`` does it plus the inner edges as breakpoints
    and a half-``wavelength`` cap, plus one Kronrod panel for the partial piece
    of r's panel; r outside the edges is clipped to them.  Raises
    NonConvergence when the table cannot meet its tolerance."""

    def __init__(self, f, edges: Sequence[float], config: Optional[QuadratureConfig] = None, *,
                 wavelength: Optional[float] = None):
        edges = np.asarray(edges, dtype=float)
        if edges[0] <= _GRADING_FLOOR:
            raise ValueError("a cumulative table must start above 1e-15")
        edges = _initial_panels(float(edges[0]), float(edges[-1]), wavelength, edges[1:-1])
        plo, phi, vals, errs, *_ = _refine(f, edges, config or QuadratureConfig(), graded=False)
        self.f = f
        self.edges = np.append(plo, phi[-1])
        self.prefix = np.concatenate([[0.0], np.cumsum(vals)])
        # Error of each prefix: its panels' Kronrod errors plus the rounding of
        # the running sum (at most eps times the partial sums' magnitudes).
        self.prefix_error = (np.concatenate([[0.0], np.cumsum(errs)])
                             + _EPS * np.cumsum(np.abs(self.prefix)))

    def lower_with_error(self, r) -> Tuple[np.ndarray, np.ndarray]:
        """integral_(edges[0])^r f at every r of an array, and an error bound
        for each read: the prefix's error, the partial panel's Kronrod error
        and the rounding of the final sum.  All partial panels are one
        Kronrod batch; a read on an edge takes none."""
        x = np.clip(np.atleast_1d(np.asarray(r, dtype=float)), self.edges[0], self.edges[-1])
        i = np.searchsorted(self.edges, x, side="right") - 1
        part, part_err = np.zeros_like(x), np.zeros_like(x)
        open_ = x > self.edges[i]
        if np.any(open_):
            part[open_], part_err[open_], _ = _eval_panels(self.f, self.edges[i][open_], x[open_])
        val = self.prefix[i] + part
        return val, self.prefix_error[i] + part_err + 2.0 * _EPS * np.abs(val)


def integrate(f, interval: Tuple[float, float],
              config: Optional[QuadratureConfig] = None) -> Tuple[float, float]:
    """Integrate f over (lo, hi), hi possibly infinite.

    Returns (value, error_estimate).  Raises NonConvergence when the panel
    budget is exhausted and DivergentIntegral when partial integrals grow
    without bound under domain extension.
    """
    config = config or QuadratureConfig()
    lo, hi = float(interval[0]), float(interval[1])
    if lo < 0:
        raise ValueError("domain must lie in [0, inf)")
    if math.isinf(hi):
        return _integrate_decades(f, lo, config)
    if hi <= lo:
        return 0.0, 0.0
    return _adaptive(f, lo, hi, config)


def _integrate_decades(f, lo: float, config: QuadratureConfig):
    """Extend the domain a decade at a time until the increments are
    negligible; declare divergence on sustained factor-1.5 growth.

    Before fully integrating a decade, its contribution is bounded with a
    coarse sample; negligible decades are skipped.
    """
    left = lo
    right = max(10.0 * max(lo, 1e-2), 1.0)
    acc, err = _adaptive(f, left, right, config)
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
        inc, ie = _adaptive(f, right, nxt, config)
        acc += inc
        err += ie
        right = nxt
        partials.append(abs(acc))
        if partials[-2] > 0 and partials[-1] / partials[-2] > 1.5:
            growth_streak += 1
            if growth_streak >= _GROWTH_STREAK_LIMIT:
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
