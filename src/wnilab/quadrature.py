"""Adaptive integration on finite windows (lo, hi) with lo > 0, for the
window of the command line's outer weighted norm.

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
from typing import Optional, Tuple

import numpy as np

# 15-point Kronrod nodes on [-1, 1] and the embedded 7-point Gauss weights,
# rounded to double from 40 digits (tests/test_quadrature.py derives them).
_GK_NODES = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993945, -0.5860872354676911, -0.4058451513773972,
    -0.20778495500789848, 0.0, 0.20778495500789848, 0.4058451513773972,
    0.5860872354676911, 0.7415311855993945, 0.8648644233597691,
    0.9491079123427585, 0.9914553711208126,
])
_GK_WEIGHTS_K = np.array([
    0.022935322010529224, 0.06309209262997856, 0.10479001032225019,
    0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
    0.20443294007529889, 0.20948214108472782, 0.20443294007529889,
    0.19035057806478542, 0.1690047266392679, 0.14065325971552592,
    0.10479001032225019, 0.06309209262997856, 0.022935322010529224,
])
_GK_WEIGHTS_G = np.array([
    0.0, 0.1294849661688697, 0.0, 0.27970539148927664, 0.0,
    0.3818300505051189, 0.0, 0.4179591836734694, 0.0, 0.3818300505051189,
    0.0, 0.27970539148927664, 0.0, 0.1294849661688697, 0.0,
])

class NonConvergence(Exception):
    """Panel budget exhausted; carries the best estimate and its error bound."""

    def __init__(self, value: float, error: float, message: str = ""):
        self.value = value
        self.error = error
        super().__init__(message or f"quadrature did not converge (value={value!r}, err={error!r})")


class DivergentIntegral(Exception):
    """A divergent integral: its integrand is not integrable at the end
    named by ``direction`` ("y -> 0", "y -> inf"), or it is an outer norm
    whose inner integral is infinite ("inner integral")."""

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


def integrate(f, interval: Tuple[float, float],
              config: Optional[QuadratureConfig] = None) -> Tuple[float, float]:
    """Integrate f over a finite window (lo, hi) with lo > 0 (0 where hi <=
    lo) by error-driven refinement of its panels.  Returns (value,
    error_estimate).  Raises NonConvergence when the panel budget is
    exhausted."""
    lo, hi = float(interval[0]), float(interval[1])
    if not (0.0 < lo and hi < math.inf):
        raise ValueError("integrate takes a finite window (lo, hi) with lo > 0")
    if hi <= lo:
        return 0.0, 0.0
    config = config or QuadratureConfig()
    # Geometric panels where the window spans more than a factor of 4.
    edges = np.array([lo, hi]) if hi / lo <= 4.0 else np.geomspace(
        lo, hi, math.ceil(math.log2(hi / lo)) + 1)
    if len(edges) - 1 > config.max_panels:
        raise NonConvergence(math.nan, math.inf,
                             f"initial panelization needs {len(edges)-1} panels > budget {config.max_panels}")
    plo = edges[:-1].copy()
    phi = edges[1:].copy()
    vals, errs, resabs = _eval_panels(f, plo, phi)

    while True:
        # Pairwise sum in panel order, independent of refinement history.
        total = float(np.sum(vals[np.argsort(plo, kind="stable")]))
        # The floor below which cancellation makes further refinement moot.
        floor = 100.0 * np.finfo(float).eps * float(np.sum(resabs))
        tol = max(config.abs_tol, config.rel_tol * abs(total), floor)
        toterr = float(np.sum(errs))
        if toterr <= tol:
            return total, toterr
        if len(plo) >= config.max_panels:
            raise NonConvergence(total, toterr)
        # Split every panel holding more than its fair share of the excess.
        share = tol / (2.0 * len(plo))
        # The largest error exceeds toterr / n > 2 share, so it is split.
        split = errs > max(share, 0.25 * float(np.max(errs)))
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
