"""Adaptive integration on finite windows (lo, hi) with lo > 0, for the
windows of the command line's outer weighted norms, one per family member.

The panel rule is the 15-point Kronrod extension of 7-point Gauss, applied
in vectorized batches: every refinement round evaluates the dirty panels of
all windows in one batch, calling each window's integrand once on a flat
numpy array of its points.  Integrands therefore must accept numpy arrays.
Windows spanning more than a factor of 4 start from geometric panels.
Nothing here reaches 0 or infinity: the callers take their ends in closed
form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

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
    the roundoff floor of the convergence test.  Each panel's sums run
    along its own row, so a panel's results do not depend on the batch it
    shares (a matrix-vector product's last bit does).
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    x = c[:, None] + h[:, None] * _GK_NODES[None, :]
    fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    k15 = h * np.sum(fx * _GK_WEIGHTS_K, axis=1)
    g7 = h * np.sum(fx * _GK_WEIGHTS_G, axis=1)
    resabs = h * np.sum(np.abs(fx) * _GK_WEIGHTS_K, axis=1)
    diff = np.abs(k15 - g7)
    with np.errstate(over="ignore"):  # inf past diff ~ 1.6e203, where diff is the error
        scaled = (200.0 * diff) ** 1.5
    err = np.where(scaled < diff, scaled, diff) + 50.0 * np.finfo(float).eps * resabs
    return k15, err, resabs


# One window's outcome: (value, error_estimate), or the exception that ended it.
Outcome = Union[Tuple[float, float], Exception]


def _geometric_edges(lo: float, hi: float, n: int) -> np.ndarray:
    """np.geomspace(lo, hi, n) for 0 < lo < hi and n >= 2, bit for bit, by
    numpy's own steps without its checks and casts: n equally spaced
    log10 values, the last one log10(hi), as powers of 10, both ends
    restored."""
    a, b = np.log10(lo), np.log10(hi)
    t = np.arange(n) * ((b - a) / (n - 1)) + a
    t[-1] = b
    edges = np.power(10.0, t)
    edges[0], edges[-1] = lo, hi
    return edges


def integrate(integrands: Sequence[Callable[[np.ndarray], np.ndarray]],
              windows: Sequence[Tuple[float, float]],
              config: Optional[QuadratureConfig] = None) -> List[Outcome]:
    """Integrate each integrand over its finite window (lo, hi) with lo > 0
    (0 where hi <= lo) by error-driven refinement of the window's panels.

    The windows are refined together: every round evaluates the dirty panels
    of every window in one ``_eval_panels`` batch.  Each window keeps its own
    panels, tolerance test and panel budget, so its outcome is the one it
    gets alone.  Returns one outcome per window: (value, error_estimate), or
    the failure that took the window out of later rounds: NonConvergence
    when its panel budget is exhausted, DivergentIntegral or NonConvergence
    raised by its integrand, ValueError where its integrand is not finite.
    """
    config = config or QuadratureConfig()
    outcomes: List[Optional[Outcome]] = [None] * len(integrands)
    # Per live window: its panels' ends and the values of the first
    # len(vals) of them; the others are the dirty panels of the next round.
    live = {}
    for i, (lo, hi) in enumerate(windows):
        lo, hi = float(lo), float(hi)
        if not (0.0 < lo and hi < math.inf):
            raise ValueError("integrate takes finite windows (lo, hi) with lo > 0")
        if hi <= lo:
            outcomes[i] = (0.0, 0.0)
            continue
        # Geometric panels where the window spans more than a factor of 4.
        edges = np.array([lo, hi]) if hi / lo <= 4.0 else _geometric_edges(
            lo, hi, math.ceil(math.log2(hi / lo)) + 1)
        if len(edges) - 1 > config.max_panels:
            outcomes[i] = NonConvergence(
                math.nan, math.inf,
                f"initial panelization needs {len(edges)-1} panels > budget {config.max_panels}")
            continue
        live[i] = (edges[:-1].copy(), edges[1:].copy(), *(np.empty(0),) * 3)

    while live:
        # One batch of every live window's dirty panels: window i's are the
        # batch's rows rows[i].
        rows, lo, hi, end = {}, [], [], 0
        for i, (plo, phi, vals, _, _) in live.items():
            rows[i] = slice(end, end + len(plo) - len(vals))
            end = rows[i].stop
            lo.append(plo[len(vals):])
            hi.append(phi[len(vals):])

        def batch(x):
            # Each window's integrand on its own points; a failure is its own.
            fx = np.zeros_like(x)
            for i, r in rows.items():
                pts = slice(_GK_NODES.size * r.start, _GK_NODES.size * r.stop)
                try:
                    fi = np.asarray(integrands[i](x[pts]), dtype=float)
                except (DivergentIntegral, NonConvergence) as exc:
                    outcomes[i] = exc
                    continue
                if not np.all(np.isfinite(fi)):
                    outcomes[i] = ValueError(f"integrand not finite at {x[pts][~np.isfinite(fi)][:3]}")
                    continue
                fx[pts] = fi
            return fx

        new = _eval_panels(batch, np.concatenate(lo), np.concatenate(hi))
        for i, r in rows.items():
            plo, phi, *sums = live.pop(i)
            if outcomes[i] is not None:
                continue
            vals, errs, resabs = (np.concatenate([old, part[r]]) for old, part in zip(sums, new))
            # Pairwise sum in panel order, independent of refinement history.
            total = float(np.sum(vals[np.argsort(plo, kind="stable")]))
            # The floor below which cancellation makes further refinement moot.
            floor = 100.0 * np.finfo(float).eps * float(np.sum(resabs))
            tol = max(config.abs_tol, config.rel_tol * abs(total), floor)
            toterr = float(np.sum(errs))
            if toterr <= tol:
                outcomes[i] = (total, toterr)
                continue
            if len(plo) >= config.max_panels:
                outcomes[i] = NonConvergence(total, toterr)
                continue
            # Split every panel holding more than its fair share of the excess.
            share = tol / (2.0 * len(plo))
            # The largest error exceeds toterr / n > 2 share, so it is split.
            split = errs > max(share, 0.25 * float(np.max(errs)))
            keep = ~split
            mid = 0.5 * (plo[split] + phi[split])
            live[i] = (np.concatenate([plo[keep], plo[split], mid]),
                       np.concatenate([phi[keep], mid, phi[split]]),
                       vals[keep], errs[keep], resabs[keep])
    return outcomes
