"""Special-function kernels: normalized Bessel, Struve, sine/cosine and
model min-kernels, their two-regime power envelopes and their registry.

Evaluation strategy: a power series in extended precision up to the
crossover argument max(12, 2 alpha), and the kernel's large-argument form
(``FarField``, DLMF 10.17.3) above it.  Below 12 extended precision absorbs
the series' cancellation (about x/ln 10 digits); below 2 alpha, around x ~
alpha, the large-argument terms rise far above the value.  Struve adds to
Y_alpha the Laplace integral of H_alpha - Y_alpha, summed by a
Gauss-Laguerre rule.  Both branches are cross-checked against each other in
an overlap window by the test suite.

Each expansion is stated once.  The power series' coefficients are built on
the first use of an order and cached per order; a kernel's ``SeriesKernel``
carries them rounded to double.  Its ``FarField`` is the one statement of
the large-argument form: the evaluators sum it (``_far_sum``) and the
dilation tables of ``transforms`` integrate it.  The number of terms is
fixed once per batch, so no per-term reduction runs over the batch:

* the power series (DLMF 10.8.1, 11.2.1) keeps terms up to the first k with
  |c_k| max(x)^(2k) <= 1e-18; every smaller argument needs no more;
* the large-argument series is cut by the smallest-term rule at min(x); the
  k-th term at x is the one at min(x) times (min(x)/x)^k, so the truncation
  error at larger arguments is smaller still.  P and Q also take half their
  first neglected term, whose sign and size bound the remainder.

Orders whose constants leave double precision (from about 149.3) are
refused with ValueError.  All evaluators are pure, accept numpy arrays, and
are safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Dict, Optional, Tuple

import numpy as np


_CROSSOVER = 12.0
_SERIES_STOP = 1e-18
_SERIES_MAX_TERMS = 400
_ASYMPTOTIC_MAX_TERMS = 40
_TWO_OVER_PI = 2.0 / math.pi
_EPS = float(np.finfo(float).eps)
_LD_EPS = float(np.finfo(np.longdouble).eps)


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


def _series_sum(s: float, alpha: float, x: np.ndarray, absolute: bool = False) -> np.ndarray:
    """sum_k c_k x^(2k) (sum_k |c_k| x^(2k) if absolute) by Horner's rule in
    x^2, in extended precision."""
    c, log_x_bounds = _series_coefficients(s, alpha)
    n = _series_terms(log_x_bounds, float(np.max(x, initial=0.0)))
    xl = x.astype(np.longdouble)
    return _horner(np.abs(c[:n + 1]) if absolute else c[:n + 1], xl * xl)


def _series_rounding(s: float, alpha: float, x: np.ndarray) -> np.ndarray:
    """Rounding bound of ``_series_sum``: 2 extended-precision eps times the
    sum of the terms' magnitudes."""
    return 2.0 * _LD_EPS * _series_sum(s, alpha, x, absolute=True).astype(float)


def _bessel_j_series(alpha: float, x: np.ndarray) -> np.ndarray:
    return _series_sum(1.0, alpha, x).astype(float)


def _struve_h_series(alpha: float, x: np.ndarray) -> np.ndarray:
    t0 = np.longdouble(1.0 / (math.gamma(1.5) * math.gamma(alpha + 1.5)))
    total = t0 * _series_sum(1.5, alpha, x)
    return (0.5 * x) ** (alpha + 1.0) * total.astype(float)


# ---------------------------------------------------------------------------
# large-argument branch
# ---------------------------------------------------------------------------

def _smallest_term_index(tau: np.ndarray, scale):
    """Index of the last term of an asymptotic series kept by the smallest-
    term rule, given the term magnitudes tau: stop at the (first) smallest
    term, or after the first term at most _SERIES_STOP * scale.  Read along
    the last axis of tau, one index per row against its own scale (an int
    for a single series).

    Applied at the batch's smallest argument.  Each term there is an upper
    bound for the same term at larger arguments, so the truncation error of
    the batch is at most the error at that argument.  For large orders the
    terms first rise and then fall; the smallest term lies past that rise.
    A term that is 0 while a later one is not (0 by cancellation) is passed
    over: only zeros that end the series stop it."""
    later = np.maximum.accumulate(tau[..., ::-1], axis=-1)[..., ::-1]
    tau = np.where((tau == 0.0) & (later > 0.0), np.inf, tau)
    last = np.argmin(tau, axis=-1)
    small = tau[..., 1:] <= _SERIES_STOP * np.expand_dims(scale, -1)
    last = np.where(np.any(small, axis=-1), np.minimum(last, np.argmax(small, axis=-1) + 1), last)
    return int(last) if last.ndim == 0 else last


@dataclass(frozen=True, eq=False)  # hashed by identity: KernelSpec is a cache key
class FarField:
    """The large-argument form of a kernel, as data: phi(t) ~
    Re[scale e^(it) sum_k osc_k t^(osc_power - k)] + sum_m drift_m
    t^(drift_power - 2m), two asymptotic series (finite where they end; the
    model kernel's single drift term is exact beyond t = 1).  The evaluators
    sum the oscillatory part (``_far_sum``), the dilation tables integrate
    both."""

    scale: complex
    osc_power: float
    osc: np.ndarray
    drift_power: float = 0.0
    drift: Tuple[float, ...] = ()


def _far_sum(far: FarField, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The oscillatory part of a far field at an array x > 0, |scale|
    x^osc_power Re[(scale / |scale|) e^(ix) sum_k osc_k x^-k], and its error
    bound.  The series is cut at its smallest term at min(x) (at larger x
    each term is smaller still) and takes half of each of the next two
    terms: for the Bessel series P + iQ (DLMF 10.17(iii)) the remainder of
    each of P and Q has the sign of its first omitted term and does not
    exceed it, so the truncation error is at most those half terms.  The
    bound adds 4 eps times the terms' magnitudes, the rounding of the sum and
    of the product with the unit phase and e^(ix); e^(ix) is computed from x
    itself, so no rounded phase x - const enters."""
    w = 1.0 / x
    osc = np.pad(far.osc, (0, 2))
    tau = np.abs(osc[:-2]) * float(np.max(w)) ** np.arange(len(osc) - 2)
    n = _smallest_term_index(tau, tau[0])
    coefs = osc[:n + 3].copy()
    coefs[n + 1:] *= 0.5
    # The power in two halves, each multiplied in: for high orders the scale
    # is huge and x^osc_power alone underflows (j_40 at x = 1e8).
    half_power = x ** (0.5 * far.osc_power)
    amp = abs(far.scale) * half_power * half_power
    val = amp * np.real(far.scale / abs(far.scale) * np.exp(1j * x) * np.polyval(coefs[::-1], w))
    half = np.abs(coefs[n + 1:])
    trunc = w ** (n + 1.0) * (half[0] + half[1] * w)
    return val, amp * (trunc + 4.0 * _EPS * np.polyval(np.abs(coefs[::-1]), w))


# Orders from about 149.3 on are refused: there Gamma(alpha + 3/2)
# 2^(alpha + 1) leaves the normal doubles, so the Struve series' leading
# coefficient underflows, and Bessel's far-field scale Gamma(alpha + 1)
# 2^alpha overflows a little later.
_LOG_ORDER_CAP = -math.log(float(np.finfo(float).tiny))


def _check_order(alpha: float) -> None:
    if math.lgamma(alpha + 1.5) + (alpha + 1.0) * math.log(2.0) >= _LOG_ORDER_CAP:
        raise ValueError(f"order {alpha:g} is too large: its constants overflow")


def _pq_far_field(alpha: float, factor: complex, power: float, *drift) -> FarField:
    """factor (2/(pi t))^(1/2) e^(i omega) (P + iQ), omega = t - (alpha/2 +
    1/4) pi, whose real part is J_alpha and imaginary part Y_alpha (DLMF
    10.17.3): P + iQ = sum_k osc_k t^-k, osc_k = i^k a_k(alpha)."""
    mu = 4.0 * alpha * alpha
    b = np.empty(_ASYMPTOTIC_MAX_TERMS + 1)
    b[0] = 1.0
    for k in range(_ASYMPTOTIC_MAX_TERMS):
        b[k + 1] = b[k] * (mu - (2 * k + 1) ** 2) / (8.0 * (k + 1))
    k = np.arange(_ASYMPTOTIC_MAX_TERMS + 1)
    b[(k // 2) % 2 == 1] *= -1.0
    phase = complex(np.exp(-1j * (0.5 * alpha + 0.25) * math.pi))
    return FarField(factor * phase * math.sqrt(_TWO_OVER_PI), power,
                     b * np.where(k % 2, 1j, 1.0), *drift)


@lru_cache(maxsize=64)
def _bessel_far_field(alpha: float) -> FarField:
    """j_alpha(t) ~ Gamma(alpha + 1) 2^alpha t^-alpha Re[(2/(pi t))^(1/2)
    e^(i omega) (P + iQ)]."""
    _check_order(alpha)
    return _pq_far_field(alpha, math.gamma(alpha + 1.0) * 2.0 ** alpha, -alpha - 0.5)


@lru_cache(maxsize=64)
def _struve_far_field(alpha: float) -> FarField:
    """Struve_alpha = Y_alpha + (H_alpha - Y_alpha), the latter's asymptotic
    series G(1/2) / (pi G(a + 1/2)) (t/2)^(a-1) sum_m d_m (t/2)^-2m, d_m =
    prod_(k<m) (k + 1/2)(a - 1/2 - k) (DLMF 11.6.1), as the drift in powers
    of t; zero from the first zero factor on (half-odd-integer orders)."""
    _check_order(alpha)
    k = np.arange(_ASYMPTOTIC_MAX_TERMS)
    d = np.cumprod(np.concatenate([[1.0], (k + 0.5) * (alpha - 0.5 - k)]))
    lead = math.gamma(0.5) / math.gamma(alpha + 0.5) / math.pi * 2.0 ** (1.0 - alpha)
    return _pq_far_field(alpha, -1j, -0.5, alpha - 1.0, tuple(lead * 4.0 ** np.arange(len(d)) * d))


# 12-node Gauss-Laguerre rule, exact for polynomials of degree 23: the
# roots x_i of L_12 and w_i = x_i / (13 L_13(x_i))^2, at 50 digits (mpmath).
_LAGUERRE_NODES = (
    0.11572211735802068, 0.6117574845151307, 1.5126102697764188,
    2.8337513377435073, 4.5992276394183484, 6.844525453115177,
    9.621316842456867, 13.006054993306348, 17.116855187462257,
    22.151090379397004, 28.487967250984, 37.09912104446692)
_LAGUERRE_WEIGHTS = (
    0.2647313710554432, 0.37775927587313796, 0.24408201131987756,
    0.09044922221168093, 0.020102381154634096, 0.0026639735418653157,
    0.00020323159266299939, 8.365055856819799e-06, 1.6684938765409103e-07,
    1.342391030515004e-09, 3.0616016350350207e-12, 8.148077467426241e-16)


# The 24-node rule, derived alike (exact for degree 47): the 12-node rule's
# own error on the Laplace term is read as its difference from this one.
_LAGUERRE_24 = ((
    0.05901985218150798, 0.31123914619848375, 0.7660969055459367, 1.4255975908036131,
    2.2925620586321904, 3.3707742642089977, 4.665083703467171, 6.1815351187367655,
    7.927539247172152, 9.912098015077706, 12.146102711729766, 14.642732289596674,
    17.417992646508978, 20.491460082616424, 23.887329848169735, 27.635937174332717,
    31.776041352374722, 36.35840580165162, 41.45172048487077, 47.153106445156325,
    53.60857454469507, 61.05853144721876, 69.96224003510503, 81.49827923394889), (
    0.14281197333478185, 0.2587741075174239, 0.2588067072728698, 0.18332268897777804,
    0.0981662726299189, 0.040732478151408645, 0.013226019405120156, 0.0033693490584783036,
    0.0006721625640935479, 0.00010446121465927518, 1.2544721977993332e-05,
    1.15131581273728e-06, 7.96081295913363e-08, 4.0728589875499996e-09, 1.507008226292585e-10,
    3.917736515058451e-12, 6.894181052958085e-14, 7.819800382459448e-16,
    5.3501888130100375e-18, 2.0105174645555034e-20, 3.6057658645529593e-23,
    2.4518188458784027e-26, 4.088301593680658e-30, 5.575345788328357e-35))


def _struve_h_laplace(alpha: float, x: np.ndarray,
                      rule=(_LAGUERRE_NODES, _LAGUERRE_WEIGHTS)) -> np.ndarray:
    """H_alpha - Y_alpha = 2 (x/2)^alpha / (sqrt(pi) G(alpha + 1/2))
    integral_0^inf e^(-x t) (1 + t^2)^(alpha - 1/2) dt (DLMF 11.5.2).  In
    s = x t the integrand is e^(-s) times a function whose nearest
    singularity lies at distance x >= 12 from the real axis, which the
    Gauss-Laguerre ``rule`` (nodes, weights) sums (the secondary series DLMF
    11.6.1 that this integral expands into is 7e-11 off at x = 20); the
    12-node rule's own error grows with the order, to 1.7e-14 relative at
    alpha = 20 just above its crossover (``struve_h_error`` counts it).
    Where (x/2)^alpha overflows (x = 1e4 from alpha = 84 on), the small
    ``lead`` multiplies its square root before the second factor; where that
    overflows too, so does the value at every order ``_check_order``
    admits."""
    laplace = np.zeros_like(x)
    for s, w in zip(*rule):
        laplace += w * (1.0 + (s / x) ** 2) ** (alpha - 0.5)
    lead = 2.0 / math.gamma(alpha + 0.5) / (math.gamma(0.5) * x)
    with np.errstate(over="ignore"):
        power = (0.5 * x) ** alpha
        out = lead * power * laplace
        big = np.isinf(power)
        if np.any(big):
            half = (0.5 * x[big]) ** (0.5 * alpha)
            out[big] = lead[big] * half * half * laplace[big]
    return out


# ---------------------------------------------------------------------------
# public evaluators
# ---------------------------------------------------------------------------

def _crossover(alpha: float) -> float:
    """The argument above which the evaluators take the asymptotic branch."""
    return max(_CROSSOVER, 2.0 * alpha)


def _dispatch(x, alpha, small_fn, large_fn):
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all((arr >= 0.0) & (arr < math.inf)):
        raise ValueError("argument must be finite and nonnegative")
    out = np.empty_like(arr)
    small = arr <= _crossover(alpha)
    if np.any(small):
        out[small] = small_fn(arr[small])
    if np.any(~small):
        out[~small] = large_fn(arr[~small])
    return out[0] if np.isscalar(x) or np.ndim(x) == 0 else out


def bessel_j(alpha: float, x):
    """Normalized Bessel function of order alpha (> -1), equal to 1 at 0."""
    if alpha <= -1.0:
        raise ValueError(f"bessel_j requires order > -1, got {alpha}")
    return _dispatch(x, alpha, lambda a: _bessel_j_series(alpha, a),
                     lambda a: _far_sum(_bessel_far_field(alpha), a)[0])


def bessel_j_error(alpha: float, x):
    """Absolute error bound of ``bessel_j(alpha, x)`` for the same batch x:
    on the series branch ``_series_rounding`` plus eps for the cast to
    double; on the asymptotic branch ``_far_sum``'s bound plus 4 eps for the
    scale and the power of x."""
    def large(a):
        val, err = _far_sum(_bessel_far_field(alpha), a)
        return err + 4.0 * _EPS * np.abs(val)
    return _dispatch(x, alpha, lambda a: (_series_rounding(1.0, alpha, a)
                                          + _EPS * np.abs(_bessel_j_series(alpha, a))), large)


def struve_h(alpha: float, x):
    """Struve function of order alpha (> -1/2)."""
    if alpha <= -0.5:
        raise ValueError(f"struve_h requires order > -1/2, got {alpha}")
    return _dispatch(x, alpha, lambda a: _struve_h_series(alpha, a),
                     lambda a: _far_sum(_struve_far_field(alpha), a)[0]
                     + _struve_h_laplace(alpha, a))


def struve_h_error(alpha: float, x):
    """Absolute error bound of ``struve_h(alpha, x)`` for the same batch x,
    per branch as for ``bessel_j_error``, with 8 eps for the series' power,
    gamma values and cast, and for the Laplace term's rounding: max(8,
    |alpha - 1/2|) eps there, since each of its terms raises the rounded
    1 + (s/x)^2 to the power alpha - 1/2.  The Laplace term's 12-node rule
    adds its own error, its difference from the 24-node rule, where that
    exceeds the rounding (below it the two rules differ by rounding)."""
    def small(a):
        t0 = 1.0 / (math.gamma(1.5) * math.gamma(alpha + 1.5))
        return (t0 * (0.5 * a) ** (alpha + 1.0) * _series_rounding(1.5, alpha, a)
                + 8.0 * _EPS * np.abs(_struve_h_series(alpha, a)))

    def large(a):
        val, err = _far_sum(_struve_far_field(alpha), a)
        laplace = _struve_h_laplace(alpha, a)
        rounding = max(8.0, abs(alpha - 0.5)) * _EPS * np.abs(laplace)
        rule = np.abs(_struve_h_laplace(alpha, a, _LAGUERRE_24) - laplace)
        return (err + _EPS * np.abs(val + laplace) + rounding
                + np.where(rule > rounding, rule, 0.0))
    return _dispatch(x, alpha, small, large)


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerEnvelope:
    """Two-regime power bound min{(xy)^b1, (xy)^b2} for a kernel phi(xy);
    a preset kernel reads it from its expansions (``_envelope``).

    ``exact`` records that the bound is two-sided: phi has no zeros.
    ``strict`` is derived: the regimes genuinely cross (b1 - b2 > 0), which
    the power-range machinery requires.
    """

    b1: float
    b2: float
    exact: bool = False

    @property
    def strict(self) -> bool:
        return self.b1 - self.b2 > 0

    def bound(self, t):
        """min{t^b1, t^b2} at t = xy, without the constant."""
        return np.minimum(np.power(t, self.b1), np.power(t, self.b2))


@dataclass(frozen=True, eq=False)  # hashed by identity, as FarField
class SeriesKernel:
    """Power-series form phi(t) = t^b1 sum_m coefs[m] t^(step m), so K(x, y)
    = (xy)^b1 sum_m coefs[m] (xy)^(step m)."""

    b1: float
    step: int
    coefs: np.ndarray


def _series_kernel(b1: float, s: float, alpha: float, lead: float = 1.0) -> SeriesKernel:
    """t^b1 lead sum_k c_k t^2k with the evaluators' coefficients c_k of
    (s, alpha) (``_series_coefficients``), rounded to double."""
    coefs = (lead * _series_coefficients(s, alpha)[0]).astype(float)
    coefs.flags.writeable = False
    return SeriesKernel(b1, 2, coefs)


def _envelope(near: SeriesKernel, far: FarField, exact: bool = False) -> PowerEnvelope:
    """The envelope the expansions state: (xy)^b1 from the series' leading
    power, and (xy)^b2 from the slower-decaying of the far field's
    oscillatory and drift powers, each where that part is present."""
    parts = ((far.osc_power, np.any(far.osc)), (far.drift_power, far.drift))
    return PowerEnvelope(near.b1, max(power for power, present in parts if present), exact)


@dataclass(frozen=True)
class KernelSpec:
    """K(x, y) = phi(x*y) with its two-regime power envelope.

    ``series`` is phi's power series on all t; ``near`` is a series of phi on
    t <= 1 only, for a kernel without the former.  A kernel with a
    ``far_field`` has one of the two, and the dilation tables of
    ``transforms`` read Phi_nu from them; for an oscillatory one they also
    read ``phi_error``, a bound on the absolute error of phi on a batch of
    arguments.  phi is smooth on each side of ``crossover``, where an
    evaluator switches branches.

    The kernel factories are cached: equal parameters return the same
    instance, so caches keyed on a kernel (the dilation tables) persist
    across config parses."""

    kind: str
    envelope: PowerEnvelope
    phi: Callable[[np.ndarray], np.ndarray]
    series: Optional[SeriesKernel] = None
    far_field: Optional[FarField] = None
    near: Optional[SeriesKernel] = None
    phi_error: Optional[Callable[[np.ndarray], np.ndarray]] = None
    crossover: float = _CROSSOVER

    @cached_property
    def oscillatory(self) -> bool:
        """phi oscillates with period 2 pi in t: its far field has an
        oscillatory part.  Read once per kernel."""
        return self.far_field is not None and bool(np.any(self.far_field.osc))


@lru_cache(maxsize=64)
def bessel_j_kernel(alpha: float) -> KernelSpec:
    if alpha <= -1.0:
        raise ValueError("order must exceed -1")
    series, far = _series_kernel(0.0, 1.0, alpha), _bessel_far_field(alpha)
    return KernelSpec("bessel_j", _envelope(series, far), lambda t: bessel_j(alpha, t),
                      series=series, far_field=far, phi_error=lambda t: bessel_j_error(alpha, t),
                      crossover=_crossover(alpha))


@lru_cache(maxsize=64)
def struve_h_kernel(alpha: float) -> KernelSpec:
    if alpha <= -0.5:
        raise ValueError("order must exceed -1/2")
    far = _struve_far_field(alpha)  # first: it refuses the orders whose gamma values overflow
    a0 = 2.0 ** -(alpha + 1.0) / (math.gamma(1.5) * math.gamma(alpha + 1.5))
    series = _series_kernel(alpha + 1.0, 1.5, alpha, a0)
    return KernelSpec("struve_h", _envelope(series, far, exact=alpha > 0.5),
                      lambda t: struve_h(alpha, t), series=series, far_field=far,
                      phi_error=lambda t: struve_h_error(alpha, t), crossover=_crossover(alpha))


def _trig_error(t: np.ndarray) -> np.ndarray:
    """numpy's sine and cosine are within 4 ulp of |value| <= 1."""
    return np.full(np.shape(t), 4.0 * _EPS)


@lru_cache(maxsize=64)
def sine_kernel() -> KernelSpec:
    series = _series_kernel(1.0, 1.0, 0.5)  # sin t = t j_(1/2)(t)
    far = FarField(-1j, 0.0, np.ones(1))
    return KernelSpec("sine", _envelope(series, far), np.sin, series=series, far_field=far,
                      phi_error=_trig_error)


@lru_cache(maxsize=64)
def cosine_kernel() -> KernelSpec:
    series = _series_kernel(0.0, 1.0, -0.5)  # cos t = j_(-1/2)(t)
    far = FarField(1.0, 0.0, np.ones(1))
    return KernelSpec("cosine", _envelope(series, far), np.cos, series=series, far_field=far,
                      phi_error=_trig_error)


@lru_cache(maxsize=64)
def model_min_kernel(delta: float) -> KernelSpec:
    """K = 1 for xy <= 1 and (xy)^(-delta/2) beyond: the exactly two-sided
    model kernel.  Both parts are exact: a one-term series on t <= 1 and a
    far field of one drift term (no oscillatory part) beyond 1."""
    if delta <= 0:
        raise ValueError("delta must be positive")

    def phi(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(t <= 1.0, 1.0, t ** (-0.5 * delta))
    near = SeriesKernel(0.0, 1, np.ones(1))
    far = FarField(1.0, 0.0, np.zeros(1), -0.5 * delta, (1.0,))
    return KernelSpec("model_min", _envelope(near, far, exact=True), phi, far_field=far, near=near)


# The kernel factories by kind; each factory's parameters are the kernel's.
KERNELS: Dict[str, Callable[..., KernelSpec]] = {
    "bessel_j": bessel_j_kernel,
    "struve_h": struve_h_kernel,
    "sine": sine_kernel,
    "cosine": cosine_kernel,
    "model_min": model_min_kernel,
}
