"""Special-function kernels: normalized Bessel, Struve, sine/cosine and
model min-kernels, together with their two-sided power envelopes and
primitive-function bounds.

Evaluation strategy: a power series in extended precision below a
crossover argument, and the classical large-argument expansions above it.
The crossover sits at 12 for the Bessel family (cancellation in the
alternating series costs roughly x/ln 10 digits, so 12 keeps
extended-precision headroom), and at 20 for Struve orders whose secondary
asymptotic series does not terminate, since that series converges more
slowly than the oscillatory one.  Both branches are cross-checked against
each other in an overlap window by the test suite.

Every series is summed by Horner's rule over a coefficient table built on
the first use of an order and cached per order.  The number of terms is
fixed once per batch, so no per-term reduction runs over the batch:

* the power series (DLMF 10.8.1, 11.2.1) keeps terms up to the first k with
  |c_k| max(x)^(2k) <= 1e-18; every smaller argument needs no more;
* the asymptotic series P, Q (DLMF 10.17.3) and the Struve secondary
  series (DLMF 11.6.1) are cut by the smallest-term rule at min(x); the
  k-th term at x is the one at min(x) times (min(x)/x)^k, so the
  truncation error at larger arguments is smaller still.  P and Q also
  take half their first neglected term, whose sign and size bound the
  remainder.  The secondary series terminates exactly for
  half-odd-integer orders.

All evaluators are pure, accept numpy arrays, and are safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .gammafn import gamma, rgamma
from .quadrature import CumulativeIntegral, QuadratureConfig

_BESSEL_CROSSOVER = 12.0
_STRUVE_CROSSOVER = 20.0
_SERIES_STOP = 1e-18
_SERIES_MAX_TERMS = 400
_ASYMPTOTIC_MAX_TERMS = 40
_TWO_OVER_PI = 2.0 / math.pi


def _horner(coefs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_k coefs[k] z^k, in the dtype of z; 0 for no coefficients."""
    total = np.zeros_like(z)
    for c in coefs[::-1]:
        total *= z
        total += c
    return total


# ---------------------------------------------------------------------------
# series branch (extended precision)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _series_coefficients(s: float, alpha: float) -> Tuple[np.ndarray, np.ndarray]:
    """c_k = (-1/4)^k / ((s)_k (alpha + s)_k) for k <= _SERIES_MAX_TERMS, in
    extended precision.  s = 1 gives the normalized Bessel series (DLMF
    10.8.1), s = 3/2 the Struve series (DLMF 11.2.1).

    Also returns, for the term-count rule, the running maximum over k >= 1
    of (log _SERIES_STOP - log|c_k|) / (2k): term k is at most _SERIES_STOP
    exactly when log x is at most that bound."""
    k = np.arange(_SERIES_MAX_TERMS, dtype=np.longdouble)
    ratios = -0.25 / ((k + s) * (k + alpha + s))
    c = np.concatenate(([np.longdouble(1.0)], np.cumprod(ratios)))
    log_c = np.log(np.abs(c[1:])).astype(float)
    log_x_bounds = np.maximum.accumulate(
        (math.log(_SERIES_STOP) - log_c) / (2.0 * np.arange(1, _SERIES_MAX_TERMS + 1)))
    c.flags.writeable = False
    log_x_bounds.flags.writeable = False
    return c, log_x_bounds


def _series_terms(log_x_bounds: np.ndarray, x_max: float) -> int:
    """Index of the last series term kept for a batch: the first k >= 1 with
    |c_k| x_max^(2k) <= _SERIES_STOP.  Terms grow while above 1 = c_0, so
    that term lies past the peak, and every later term and every smaller x
    contributes less."""
    log_x = math.log(x_max) if x_max > 0.0 else -math.inf
    return min(1 + int(np.searchsorted(log_x_bounds, log_x)), _SERIES_MAX_TERMS)


def _series_sum(s: float, alpha: float, x: np.ndarray) -> np.ndarray:
    """sum_k c_k x^(2k) by Horner's rule in x^2, in extended precision."""
    c, log_x_bounds = _series_coefficients(s, alpha)
    n = _series_terms(log_x_bounds, float(np.max(x, initial=0.0)))
    xl = x.astype(np.longdouble)
    return _horner(c[:n + 1], xl * xl)


def _bessel_j_series(alpha: float, x: np.ndarray) -> np.ndarray:
    return _series_sum(1.0, alpha, x).astype(float)


def _struve_h_series(alpha: float, x: np.ndarray) -> np.ndarray:
    t0 = np.longdouble(1.0 / (gamma(1.5) * gamma(alpha + 1.5)))
    total = t0 * _series_sum(1.5, alpha, x)
    prefactor = np.zeros_like(x)
    pos = x > 0
    prefactor[pos] = (0.5 * x[pos]) ** (alpha + 1.0)
    return prefactor * total.astype(float)


# ---------------------------------------------------------------------------
# asymptotic branch
# ---------------------------------------------------------------------------

def _smallest_term_index(tau: np.ndarray, scale) -> int:
    """Index of the last term of an asymptotic series kept by the smallest-
    term rule, given the term magnitudes tau: stop at the (first) smallest
    term, or after the first term at most _SERIES_STOP * scale.

    Applied at the batch's smallest argument.  Each term there is an upper
    bound for the same term at larger arguments, so the truncation error of
    the batch is at most the error at that argument.  For large orders the
    terms first rise and then fall; the smallest term lies past that rise."""
    last = int(np.argmin(tau))
    small = np.flatnonzero(tau[1:] <= _SERIES_STOP * scale)
    if small.size:
        last = min(last, int(small[0]) + 1)
    return last


@lru_cache(maxsize=64)
def _pq_coefficients(alpha: float) -> np.ndarray:
    """Signed a_k(alpha) of DLMF 10.17.3 for k <= _ASYMPTOTIC_MAX_TERMS:
    P = sum_k b_2k x^-2k and Q = sum_k b_(2k+1) x^-(2k+1)."""
    mu = 4.0 * alpha * alpha
    b = np.empty(_ASYMPTOTIC_MAX_TERMS + 1)
    b[0] = 1.0
    for k in range(_ASYMPTOTIC_MAX_TERMS):
        b[k + 1] = b[k] * (mu - (2 * k + 1) ** 2) / (8.0 * (k + 1))
    k = np.arange(_ASYMPTOTIC_MAX_TERMS + 1)
    b[(k // 2) % 2 == 1] *= -1.0
    b.flags.writeable = False
    return b


def _pq_expansion(alpha: float, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Slowly varying amplitude series P, Q of the large-argument expansion,
    truncated at the smallest term at min(x) and summed by Horner's rule in
    1/x^2."""
    b = _pq_coefficients(alpha)
    x_min = float(np.min(x))
    tau = np.abs(b) * x_min ** -np.arange(len(b), dtype=float)
    n = _smallest_term_index(tau, 1.0)
    # For real order and argument, once enough terms are kept, the remainder
    # of each of P and Q has the sign of its first neglected term and does
    # not exceed it (DLMF 10.17(iii)); adding half that term halves the
    # error bound.
    coefs = b[:n + 3].copy()
    coefs[n + 1:] *= 0.5
    inv_x = 1.0 / x
    w = inv_x * inv_x
    return _horner(coefs[0::2], w), inv_x * _horner(coefs[1::2], w)


def _bessel_j_asymptotic(alpha: float, x: np.ndarray) -> np.ndarray:
    p, q = _pq_expansion(alpha, x)
    omega = x - (0.5 * alpha + 0.25) * math.pi
    amp = np.sqrt(_TWO_OVER_PI / x)
    j_big = amp * (np.cos(omega) * p - np.sin(omega) * q)
    return gamma(alpha + 1.0) * (0.5 * x) ** (-alpha) * j_big


def _bessel_y(alpha: float, x: np.ndarray) -> np.ndarray:
    p, q = _pq_expansion(alpha, x)
    omega = x - (0.5 * alpha + 0.25) * math.pi
    amp = np.sqrt(_TWO_OVER_PI / x)
    return amp * (np.sin(omega) * p + np.cos(omega) * q)


@lru_cache(maxsize=64)
def _struve_secondary_coefficients(alpha: float) -> np.ndarray:
    """d_m of the non-oscillatory part of the large-argument Struve
    expansion (DLMF 11.6.1), sum_m d_m (x/2)^-2m.  The list ends at the
    first zero factor, where the series terminates exactly (half-odd-integer
    orders)."""
    d = [1.0]
    for m in range(_ASYMPTOTIC_MAX_TERMS):
        factor = (m + 0.5) * (alpha - 0.5 - m)
        if factor == 0.0:
            break
        d.append(d[-1] * factor)
    out = np.array(d)
    out.flags.writeable = False
    return out


def _struve_secondary_series(alpha: float, x: np.ndarray) -> np.ndarray:
    """The non-oscillatory part of the large-argument Struve expansion.

    Terminates exactly for half-odd-integer orders; otherwise truncated at
    the smallest term at min(x).
    """
    d = _struve_secondary_coefficients(alpha)
    u_max = (0.5 * float(np.min(x))) ** -2.0
    terms = d * u_max ** np.arange(len(d), dtype=float)
    n = _smallest_term_index(np.abs(terms), np.abs(np.cumsum(terms))[1:])
    lead = (gamma(0.5) * rgamma(alpha + 0.5) / math.pi) * (0.5 * x) ** (alpha - 1.0)
    return lead * _horner(d[:n + 1], (0.5 * x) ** -2.0)


def _struve_h_asymptotic(alpha: float, x: np.ndarray) -> np.ndarray:
    return _bessel_y(alpha, x) + _struve_secondary_series(alpha, x)


def _struve_crossover(alpha: float) -> float:
    m = alpha - 0.5
    if m >= 0 and abs(m - round(m)) < 1e-12:
        return _BESSEL_CROSSOVER  # secondary series terminates exactly
    return _STRUVE_CROSSOVER


# ---------------------------------------------------------------------------
# public evaluators
# ---------------------------------------------------------------------------

def _dispatch(x, crossover, small_fn, large_fn):
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all((arr >= 0.0) & (arr < math.inf)):
        raise ValueError("argument must be finite and nonnegative")
    out = np.empty_like(arr)
    small = arr <= crossover
    if np.any(small):
        out[small] = small_fn(arr[small])
    if np.any(~small):
        out[~small] = large_fn(arr[~small])
    return out[0] if np.isscalar(x) or np.ndim(x) == 0 else out


def bessel_j(alpha: float, x):
    """Normalized Bessel function of order alpha (> -1), equal to 1 at 0."""
    if alpha <= -1.0:
        raise ValueError(f"bessel_j requires order > -1, got {alpha}")
    return _dispatch(x, _BESSEL_CROSSOVER,
                     lambda a: _bessel_j_series(alpha, a),
                     lambda a: _bessel_j_asymptotic(alpha, a))


def struve_h(alpha: float, x):
    """Struve function of order alpha (> -1/2)."""
    if alpha <= -0.5:
        raise ValueError(f"struve_h requires order > -1/2, got {alpha}")
    return _dispatch(x, _struve_crossover(alpha),
                     lambda a: _struve_h_series(alpha, a),
                     lambda a: _struve_h_asymptotic(alpha, a))


def struve_derivative_check(alpha: float, x: float, h: float) -> float:
    """Centered-difference residual of d/dx (x^a Struve_a(x)) = x^a Struve_{a-1}(x).

    Requires alpha > 1/2 so both orders stay in range.  The residual decays
    like h^2.
    """
    if alpha <= 0.5:
        raise ValueError("derivative identity check needs order > 1/2")
    if x <= h:
        raise ValueError("step must be smaller than the evaluation point")
    up = (x + h) ** alpha * struve_h(alpha, x + h)
    dn = (x - h) ** alpha * struve_h(alpha, x - h)
    diff = (up - dn) / (2.0 * h)
    return abs(diff - x ** alpha * struve_h(alpha - 1.0, x))


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerEnvelope:
    """Two-regime power bound min{x^b1 y^c1, x^b2 y^c2} for a kernel.

    ``exact`` records that the bound is two-sided away from kernel zeros.
    ``strict`` is derived: the regimes genuinely cross (b1 - b2 > 0), which
    the power-range machinery requires.
    """

    b1: float
    c1: float
    b2: float
    c2: float
    exact: bool = False
    env_constant: float = 1.0

    def __post_init__(self):
        if self.env_constant <= 0:
            raise ValueError("env_constant must be positive")
        if abs((self.b1 - self.b2) - (self.c1 - self.c2)) > 1e-12:
            raise ValueError("envelope regimes must satisfy b1 - b2 = c1 - c2")

    @property
    def strict(self) -> bool:
        return self.b1 - self.b2 > 0

    def bound(self, x, y):
        """min of the two regime bounds, without the fitted constant."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.minimum(x ** self.b1 * y ** self.c1, x ** self.b2 * y ** self.c2)


@dataclass(frozen=True)
class PrimitiveBound:
    """|G(x,y)| <= C x^b y^c for xy >= 1, where G is the zero-constant
    primitive of x^nu times the kernel factor."""

    b: float
    c: float
    nu: float


@dataclass(frozen=True)
class SeriesKernel:
    """Power-series form K(x,y) = x^b1 y^c1 * sum a_m (xy)^(k m)."""

    b1: float
    c1: float
    step: int
    a0: float
    ratio: Callable[[int], float]  # a_{m+1} / a_m

    def coefficients(self, n: int) -> np.ndarray:
        out = np.empty(n)
        a = self.a0
        for m in range(n):
            out[m] = a
            a *= self.ratio(m)
        return out


@dataclass(frozen=True)
class KernelSpec:
    """K(x, y) = phi(x*y) with its two-regime power envelope."""

    kind: str
    envelope: PowerEnvelope
    phi: Callable[[np.ndarray], np.ndarray]
    oscillatory: bool = True
    # Large arguments are purely oscillatory (no secondary non-oscillating
    # term): half-period segment acceleration of long spans is then valid.
    osc_drift_free: bool = False
    series: Optional[SeriesKernel] = None

    def __call__(self, x, y):
        return self.phi(np.asarray(x, dtype=float) * np.asarray(y, dtype=float))

    def wavelength_x(self, y: float) -> Optional[float]:
        """Oscillation period in x at fixed y (asymptotic phase x*y)."""
        return 2.0 * math.pi / y if self.oscillatory else None


def bessel_j_kernel(alpha: float) -> KernelSpec:
    if alpha <= -1.0:
        raise ValueError("order must exceed -1")
    env = PowerEnvelope(0.0, 0.0, -alpha - 0.5, -alpha - 0.5)
    series = SeriesKernel(0.0, 0.0, 2, 1.0,
                          lambda m: -1.0 / (4.0 * (m + 1.0) * (alpha + m + 1.0)))
    return KernelSpec("bessel_j", env, lambda t: bessel_j(alpha, t),
                      osc_drift_free=True, series=series)


def struve_h_kernel(alpha: float) -> KernelSpec:
    if alpha <= -0.5:
        raise ValueError("order must exceed -1/2")
    if alpha >= 0.5:
        env = PowerEnvelope(alpha + 1.0, alpha + 1.0, alpha - 1.0, alpha - 1.0,
                            exact=(alpha > 0.5))
    else:
        env = PowerEnvelope(alpha + 1.0, alpha + 1.0, -0.5, -0.5)
    a0 = 2.0 ** -(alpha + 1.0) / (gamma(1.5) * gamma(alpha + 1.5))
    series = SeriesKernel(alpha + 1.0, alpha + 1.0, 2, a0,
                          lambda m: -1.0 / (4.0 * (m + 1.5) * (m + alpha + 1.5)))
    # Large arguments carry a non-oscillatory secondary term: osc_drift_free
    # stays False.
    return KernelSpec("struve_h", env, lambda t: struve_h(alpha, t), series=series)


def sine_kernel() -> KernelSpec:
    env = PowerEnvelope(1.0, 1.0, 0.0, 0.0)
    series = SeriesKernel(1.0, 1.0, 2, 1.0,
                          lambda m: -1.0 / ((2.0 * m + 2.0) * (2.0 * m + 3.0)))
    return KernelSpec("sine", env, np.sin, osc_drift_free=True, series=series)


def cosine_kernel() -> KernelSpec:
    env = PowerEnvelope(0.0, 0.0, 0.0, 0.0)
    series = SeriesKernel(0.0, 0.0, 2, 1.0,
                          lambda m: -1.0 / ((2.0 * m + 1.0) * (2.0 * m + 2.0)))
    return KernelSpec("cosine", env, np.cos, osc_drift_free=True, series=series)


def model_min_kernel(delta: float) -> KernelSpec:
    """K = 1 for xy <= 1 and (xy)^(-delta/2) beyond: the exactly two-sided
    model kernel."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    env = PowerEnvelope(0.0, 0.0, -0.5 * delta, -0.5 * delta, exact=True)

    def phi(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(t <= 1.0, 1.0, t ** (-0.5 * delta))
    return KernelSpec("model_min", env, phi, oscillatory=False)


# The kernel factories by kind; each factory's parameters are the kernel's.
KERNELS: Dict[str, Callable[..., KernelSpec]] = {
    "bessel_j": bessel_j_kernel,
    "struve_h": struve_h_kernel,
    "sine": sine_kernel,
    "cosine": cosine_kernel,
    "model_min": model_min_kernel,
}


# ---------------------------------------------------------------------------
# envelope verification
# ---------------------------------------------------------------------------

@dataclass
class EnvelopeReport:
    max_ratio: float
    min_ratio: Optional[float]  # only for exact (two-sided) envelopes
    argmax: Tuple[float, float]
    masked_fraction: float
    grid_shape: Tuple[int, int]

    @property
    def constant(self) -> float:
        return self.max_ratio


_ZERO_MASK_LEVEL = 1e-3


def check_envelope(kernel: KernelSpec,
                   x_grid: Optional[np.ndarray] = None,
                   y_grid: Optional[np.ndarray] = None) -> EnvelopeReport:
    """Max (and, for two-sided envelopes, min) of |K| over its power bound
    on a grid covering both regimes.  Points where the kernel sits below
    1e-3 of the envelope are masked from the min: oscillation zeros do not
    refute a two-sided estimate."""
    if x_grid is None:
        x_grid = np.geomspace(1e-3, 1e3, 200)
    if y_grid is None:
        y_grid = np.geomspace(1e-3, 1e3, 200)
    xm, ym = np.meshgrid(x_grid, y_grid, indexing="ij")
    kv = np.abs(kernel.phi(xm * ym))
    env = kernel.envelope.bound(xm, ym)
    ratio = kv / env
    imax = np.unravel_index(int(np.argmax(ratio)), ratio.shape)
    masked = ratio < _ZERO_MASK_LEVEL
    min_ratio = None
    if kernel.envelope.exact:
        live = ~masked
        min_ratio = float(np.min(ratio[live])) if np.any(live) else math.nan
    return EnvelopeReport(
        max_ratio=float(ratio[imax]),
        min_ratio=min_ratio,
        argmax=(float(xm[imax]), float(ym[imax])),
        masked_fraction=float(np.mean(masked)),
        grid_shape=ratio.shape,
    )


def fit_env_constant(kernel: KernelSpec) -> float:
    """Fitted envelope constant: the max kernel/envelope ratio over the
    standard 200x200 log grid on (1e-3, 1e3)^2."""
    return check_envelope(kernel).max_ratio


# ---------------------------------------------------------------------------
# primitive-function machinery
# ---------------------------------------------------------------------------

def _primitive_table(kernel, alpha: float, nu: float, y: float, xs: np.ndarray,
                     config: Optional[QuadratureConfig]) -> CumulativeIntegral:
    """One table of integral_0^x t^nu kernel(alpha, t y) dt, with the sorted
    grid xs among its edges."""
    if y <= 0 or np.any(xs <= 0):
        raise ValueError("x and y must be positive")

    def f(t):
        return t ** nu * kernel(alpha, t * y)

    return CumulativeIntegral(f, np.concatenate([[0.0], xs]), config,
                              wavelength=2.0 * math.pi / y)


def struve_primitive(alpha: float, nu: float, y: float, x: float,
                     config: Optional[QuadratureConfig] = None) -> Tuple[float, float]:
    """integral_0^x t^nu Struve_alpha(t y) dt and its error estimate."""
    if nu < 0.5:
        raise ValueError("nu must be >= 1/2")
    table = _primitive_table(struve_h, alpha, nu, y, np.array([float(x)]), config)
    return table.lower(x), table.error


def struve_primitive_bound(alpha: float, nu: float, x_grid: Sequence[float],
                           y_grid: Sequence[float],
                           config: Optional[QuadratureConfig] = None) -> float:
    """Fitted constant C in |h(x; y)| <= C y^-1 x^nu min{(xy)^(a+2), (xy)^a}."""
    if nu < 0.5:
        raise ValueError("nu must be >= 1/2")
    xs = np.sort(np.asarray(x_grid, dtype=float))
    best = 0.0
    for y in y_grid:
        table = _primitive_table(struve_h, alpha, nu, float(y), xs, config)
        for x in xs:
            t = x * y
            bound = x ** nu / y * min(t ** (alpha + 2.0), t ** alpha)
            best = max(best, abs(table.lower(x)) / bound)
    return best


class EstimateViolation(Exception):
    """A fitted bound constant exceeded its cap."""


def bessel_primitive_bound(alpha: float, nu: float, y: float,
                           x_grid: Sequence[float],
                           config: Optional[QuadratureConfig] = None,
                           cap: float = 1e4) -> float:
    """Fitted C in |g(x; y)| <= C x^(nu - a - 1/2) y^(-a - 3/2) over grid
    points with x*y >= 1, where g is the zero-constant primitive of
    t^nu * bessel_j(alpha, t y)."""
    if alpha < -0.5:
        raise ValueError("order must be >= -1/2")
    if nu <= -1.0:
        raise ValueError("nu must exceed -1 for an integrable origin")
    xs = np.sort(np.asarray(x_grid, dtype=float))
    table = _primitive_table(bessel_j, alpha, nu, y, xs, config)
    best = 0.0
    for x in xs[xs * y >= 1.0]:
        bound = x ** (nu - alpha - 0.5) * y ** (-alpha - 1.5)
        best = max(best, abs(table.lower(x)) / bound)
    if best > cap:
        raise EstimateViolation(
            f"primitive estimate violated: fitted constant {best:.3g} exceeds cap {cap:.3g}")
    return best
