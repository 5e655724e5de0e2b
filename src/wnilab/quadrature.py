"""Adaptive integration on finite windows (lo, hi) with lo > 0, and the
cumulative integral table behind the [1, R] part of the transforms'
dilation tables, whose panels never exceed half the integrand's
oscillation period.

The panel rule is the 15-point Kronrod extension of 7-point Gauss, applied
in vectorized batches: every refinement round evaluates all dirty panels in
a single call of the integrand on a flat numpy array.  Integrands therefore
must accept numpy arrays.  Windows spanning more than a factor of 4 start
from geometric panels.  Nothing here reaches 0 or infinity: the callers
take their ends in closed form.
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

_EPS = float(np.finfo(float).eps)


class NonConvergence(Exception):
    """Panel budget exhausted; carries the best estimate and its error bound."""

    def __init__(self, value: float, error: float, message: str = ""):
        self.value = value
        self.error = error
        super().__init__(message or f"quadrature did not converge (value={value!r}, err={error!r})")


class DivergentIntegral(Exception):
    """An integral over (0, inf) whose integrand is not integrable at the
    end named by ``direction``."""

    def __init__(self, direction: str):
        self.direction = direction
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
    """Panel edges for [lo, hi], 0 < lo: geometric where an interval spans
    more than a factor of 4, split at breakpoints, capped at half a
    wavelength for oscillatory integrands."""
    edges = sorted({lo, hi} | {float(b) for b in breakpoints if lo < b < hi})
    coarse = [edges[0]]
    for left, right in zip(edges[:-1], edges[1:]):
        if right / left > 4.0:
            coarse.extend(np.geomspace(left, right, math.ceil(math.log2(right / left)) + 1)[1:-1])
        coarse.append(right)
    if not wavelength:
        return np.asarray(coarse)
    refined = [coarse[0]]
    for left, right in zip(coarse[:-1], coarse[1:]):
        n = max(1, math.ceil(2.0 * (right - left) / wavelength))
        refined.extend(np.linspace(left, right, n + 1)[1:])
    return np.asarray(refined)


def _refine(f, edges: np.ndarray, config: QuadratureConfig):
    """Error-driven refinement of the panels between ``edges``.  Returns the
    accepted panels (lo, hi, vals, errs) sorted by position, their total
    and its error."""
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
        # The floor below which cancellation makes further refinement moot.
        floor = 100.0 * np.finfo(float).eps * float(np.sum(resabs))
        tol = max(config.abs_tol, config.rel_tol * abs(total), floor)
        toterr = float(np.sum(errs))
        if toterr <= tol:
            return plo[order], phi[order], vals[order], errs[order], total, toterr
        if len(plo) >= config.max_panels:
            raise NonConvergence(total, toterr)
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


class CumulativeIntegral:
    """integral_(edges[0])^r f for many r: prefix sums over the panels of one
    refinement pass on [edges[0], edges[-1]], edges[0] above 1e-15,
    panelized as ``integrate`` does it, plus the inner edges as breakpoints
    and a half-``wavelength`` cap, plus one Kronrod panel for the partial piece
    of r's panel; r outside the edges is clipped to them.  Raises
    NonConvergence when the table cannot meet its tolerance."""

    def __init__(self, f, edges: Sequence[float], config: Optional[QuadratureConfig] = None, *,
                 wavelength: Optional[float] = None):
        edges = np.asarray(edges, dtype=float)
        if edges[0] <= 1e-15:
            raise ValueError("a cumulative table must start above 1e-15")
        edges = _initial_panels(float(edges[0]), float(edges[-1]), wavelength, edges[1:-1])
        plo, phi, vals, errs, *_ = _refine(f, edges, config or QuadratureConfig())
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
    """Integrate f over a finite window (lo, hi) with lo > 0 (0 where hi <=
    lo).  Returns (value, error_estimate).  Raises NonConvergence when the
    panel budget is exhausted."""
    lo, hi = float(interval[0]), float(interval[1])
    if not (0.0 < lo and hi < math.inf):
        raise ValueError("integrate takes a finite window (lo, hi) with lo > 0")
    if hi <= lo:
        return 0.0, 0.0
    *_, total, err = _refine(f, _initial_panels(lo, hi, None, ()), config or QuadratureConfig())
    return total, err
