"""Integral transforms with power-type kernels: evaluation of
F f(y) = y^c0 * integral x^b0 f(x) K(x,y) dx for the named transforms
(Hankel, Struve, sine, cosine, model min-kernel), the regime table of
admissibility and the pointwise bounds, the kernel primitives and F f's
closed forms toward y = 0 and y = inf.  Every kernel is phi(xy), so every
value is a read of a cached Phi_nu table (``DilationTable``): a power piece
c x^e on (lo, hi) gives y^(c0 - nu - 1) c [Phi_nu(hi y) - Phi_nu(lo y)],
nu = b0 + e.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .kernels import (_ASYMPTOTIC_MAX_TERMS, KernelSpec, _smallest_term_index, bessel_j_kernel,
                      cosine_kernel, model_min_kernel, sine_kernel, struve_h_kernel)
from .quadrature import NonConvergence, QuadratureConfig
from .weights import (DIVERGENCE_MARGIN, EXPONENT_TOLERANCE, FunctionFamily, TestFunction,
                      power_moment)


class AdmissibilityError(Exception):
    """The test function fails the integrability precondition."""


class NoSeriesKernel(Exception):
    """The kernel has no power-series representation."""


class MissingPrimitiveBound(Exception):
    """No primitive-function bound is available for this transform."""


@dataclass(frozen=True)
class PrimitiveBound:
    """|G(x,y)| <= C x^b y^c for xy >= 1, where G is the zero-constant
    primitive of x^b0 times the kernel factor."""

    b: float
    c: float


def primitive_exponents(kernel: KernelSpec, nu: float) -> Tuple[float, float]:
    """(k_near, k_far): Phi_nu(t), the integral from 0 of t^nu phi(t), is
    of order t^k_near toward 0, the series' leading power integrated, and
    less its Mellin constant of order t^k_far toward inf, the larger of the
    far field's parts integrated: the oscillatory one keeps its power, the
    drift gains one."""
    far = kernel.far_field
    parts = [far.osc_power] * kernel.oscillatory + [far.drift_power + 1.0] * bool(far.drift)
    return nu + (kernel.series or kernel.near).b1 + 1.0, nu + max(parts)


def integrable_exponents(kernel: KernelSpec, nu: float) -> Tuple[float, float]:
    """``primitive_exponents``; raises ValueError where t^nu phi(t) is not
    integrable at 0 (k_near <= 0), where no primitive from 0 exists."""
    k_near, k_far = primitive_exponents(kernel, nu)
    if not k_near > 0.0:
        raise ValueError(f"t^nu phi(t) ~ t^{k_near - 1.0:g} is not integrable at 0 (nu = {nu:g})")
    return k_near, k_far


@dataclass(frozen=True)
class TransformSpec:
    """F f(y) = y^c0 integral x^b0 f(x) phi(xy) dx: the outer power factors
    (b0, c0) plus an evaluatable kernel.  The kernel hypotheses are read
    from the kernel's expansions; ``alpha`` only names a preset's order."""

    name: str
    b0: float
    c0: float
    kernel: KernelSpec
    alpha: Optional[float] = None

    @property
    def kernel_est_holds(self) -> bool:
        """The two-factor estimate |t^c0 phi(t)| <= C min{1, t^(-b0/2)},
        which the standard pointwise bound requires: the envelope of
        t^c0 phi, min{t^(c0 + b1), t^(c0 + b2)}, lies below it."""
        env = self.kernel.envelope
        return (self.c0 + env.b1 >= -EXPONENT_TOLERANCE
                and self.c0 + env.b2 <= -0.5 * self.b0 + EXPONENT_TOLERANCE)

    @property
    def primitive_bound(self) -> Optional[PrimitiveBound]:
        """(b, c) for an oscillating kernel, None for any other: G(x, y) =
        y^(-b0-1) Phi_b0(xy) is of order x^b y^c for xy >= 1 with b the
        far exponent k_far of Phi_b0 (``primitive_exponents``) and c = b -
        b0 - 1."""
        if not self.kernel.oscillatory:
            return None
        b = primitive_exponents(self.kernel, self.b0)[1]
        return PrimitiveBound(b, b - self.b0 - 1.0)


def hankel(alpha: float) -> TransformSpec:
    """F f(y) = integral x^(2a+1) f(x) j_a(xy) dx with the normalized Bessel kernel."""
    return TransformSpec("hankel", 2.0 * alpha + 1.0, 0.0, bessel_j_kernel(alpha), alpha)


def scripth(alpha: float) -> TransformSpec:
    """F f(y) = integral (xy)^(1/2) f(x) Struve_a(xy) dx."""
    return TransformSpec("scripth", 0.5, 0.5, struve_h_kernel(alpha), alpha)


def sine() -> TransformSpec:
    return TransformSpec("sine", 0.0, 0.0, sine_kernel())


def cosine() -> TransformSpec:
    return TransformSpec("cosine", 0.0, 0.0, cosine_kernel())


def model_min(delta: float) -> TransformSpec:
    """The exactly two-sided model: K = 1 for xy <= 1, (xy)^(-delta/2) beyond."""
    return TransformSpec("model_min", delta, 0.0, model_min_kernel(delta))


_PRESETS = {
    "hankel": hankel,
    "scripth": scripth,
    "sine": sine,
    "cosine": cosine,
    "model_min": model_min,
}
# Each factory's parameter names, read once.
_PARAMETERS = {name: tuple(inspect.signature(factory).parameters)
               for name, factory in _PRESETS.items()}


def preset(name: str, **params) -> TransformSpec:
    """The named transform; params must be exactly its factory's parameters."""
    if name not in _PRESETS:
        raise ValueError(f"unknown transform preset {name!r}")
    factory, expected = _PRESETS[name], _PARAMETERS[name]
    for key in params:
        if key not in expected:
            raise ValueError(f"transform {name!r} has no parameter {key!r}")
    for key in expected:
        if key not in params:
            raise ValueError(f"transform {name!r} needs parameter {key!r}")
    return factory(**params)


@dataclass
class TransformResult:
    y_grid: np.ndarray
    values: np.ndarray
    errors: np.ndarray
    notes: List[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# dilation tables
# ---------------------------------------------------------------------------

# Series terms below this fraction of the leading coefficient are dropped;
# on t <= 1 each term is at most its coefficient over its power.
_SERIES_CUT = 1e-18
_EPS = float(np.finfo(float).eps)


def _power_terms(coefs: np.ndarray, exps: np.ndarray, de: np.ndarray, a: np.ndarray,
                 b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Terms c integral_a^b x^e dx (columns of c, of monotone e and of de
    against rows of a, b) and each row's error bound: 4 eps sum |term|, plus
    up to de (|log E| + min(1/|m|, log(b/a))) |term| from each exponent
    rounded by de, m = e + 1 and E the end where x^m is larger, each factor
    at its maximum over the row's own ends, so a row's bound does not depend
    on the rows read with it."""
    terms = coefs * power_moment(exps, a[:, None], b[:, None])
    m_lo, m_hi = sorted((exps[0] + 1.0, exps[-1] + 1.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        # Finite from a = 0 are only terms with m > 0 (E = b), toward inf
        # m < 0 (E = a); |log E| is inf at E = 0 or inf.
        ends = (b,) if m_lo > 0 else (a,) if m_hi < 0 else (a, b)
        log_end = np.max([np.abs(np.log(t)) for t in ends], axis=0)
        steep = 1.0 / min(abs(m_lo), abs(m_hi)) if m_lo * m_hi > 0 else np.log(b / a)
    factor = 4.0 * _EPS + de * np.reshape(log_end + steep, (-1, 1))
    return terms, np.sum(factor * np.abs(terms), axis=1)


# A power x^-1 integrated: no closed-form power end.
LOG_TERM = "logarithmic term (a power x^-1 integrated)"


def _continued_powers(coefs, s: np.ndarray, t, ds: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Terms coefs t^s / s, powers x^(s - 1) integrated to t and continued
    analytically to the far end, each term's error bound, 4 eps of it plus
    (|log t| + 1/|s|) ds of it for an s rounded by up to ds (the relative
    change of t^s / s with s), and the terms that are logarithms: a live
    term with |s| below DIVERGENCE_MARGIN, whose value is not read.  coefs
    and t may hold a row per member (a column each), broadcast against s."""
    live = coefs != 0.0
    logs = live & (np.abs(s) < DIVERGENCE_MARGIN)
    s = np.where(live & ~logs, s, 1.0)
    terms = coefs * t ** s / s
    # |log t| by the scalar log of each t, as the records were written; from
    # t = 0 a term is 0 or inf
    log_t = np.reshape([abs(math.log(x)) if x > 0.0 else 0.0 for x in np.ravel(t)], np.shape(t))
    return terms, (4.0 * _EPS + ds * (log_t + 1.0 / np.abs(s))) * np.abs(terms), logs


# Far-field series length: that of the kernels' asymptotic coefficients.
_FAR_TERMS = _ASYMPTOTIC_MAX_TERMS + 1
# The reach is where the far field's truncation bounds meet _REACH_EPS of
# their leading terms, at most _REACH_CAP past the kernel's crossover.
_REACH_EPS = 4.0 * _EPS
_REACH_CAP = 4096
# Chebyshev sample counts tried on a piece, each one batch of kernel points.
_CHEB_POINTS = (17, 33, 65, 129)


def _cut(tau: np.ndarray) -> Tuple[int, float]:
    """(n, b) for a far-field series of term magnitudes tau at its smallest
    argument: n indexes the last term kept, the smallest (``_smallest_term_index``),
    and b bounds the rest relative to the first term: twice the first omitted.
    Read along the last axis of tau, one (n, b) per row."""
    n = _smallest_term_index(tau[..., :-1], tau[..., 0])
    return n, 2.0 * np.take_along_axis(tau, np.expand_dims(n + 1, -1), -1)[..., 0] / tau[..., 0]


def by_parts(g: Sequence[complex], m: float, w: float = 1.0,
             n: Optional[int] = None) -> List[complex]:
    """e_k, k < n (default len(g)), with integral_T^inf sum_k g_k t^(m - k)
    e^(i w t) dt = (i / w) e^(i w T) sum_k e_k T^(m - k) by parts (the Abel
    value where the envelope grows): e_k = g_k + (i / w) (m - k + 1) e_(k-1),
    g_k = 0 past g, in Python complex scalars (numpy's are slow at this)."""
    n = len(g) if n is None else n
    e, step = list(g[:n]) + [0j] * (n - len(g)), 1j / w
    for k in range(1, len(e)):
        e[k] += step * (m - k + 1.0) * e[k - 1]
    return e


def _chop(c: np.ndarray, tol: float = _EPS) -> int:
    """How many leading coefficients of a Chebyshev series to keep at
    relative precision tol, or len(c) where the series has not yet reached
    the plateau its rounding leaves (Aurentz & Trefethen's standardChop, ACM
    TOMS 43, 2017; indices 1-based as there)."""
    n = len(c)
    env = np.maximum.accumulate(np.abs(c)[::-1])[::-1]
    env = env / max(env[0], 1e-300)
    for j in range(2, n + 1):
        j2 = round(1.25 * j + 5)
        if j2 > n:
            return n
        if env[j - 1] == 0.0 or env[j2 - 1] / env[j - 1] > 3.0 * (1.0 - math.log(env[j - 1])
                                                                  / math.log(tol)):
            break
    if env[j - 2] == 0.0:
        return j - 1
    j2 = min(j2, int(np.sum(env >= tol ** (7.0 / 6.0))) + 1)
    env[j2 - 1] = min(env[j2 - 1], tol ** (7.0 / 6.0))
    cc = np.log10(env[:j2]) + np.linspace(0.0, -math.log10(tol) / 3.0, j2)
    return max(int(np.argmin(cc)), 1)


class DilationTable:
    """Phi(T) = integral t^nu phi(t) dt of a kernel with a far field, read as
    Phi(b) - Phi(a) for 0 <= a <= b <= inf.

    On t <= 1 the kernel's series (or its near series) is integrated term by
    term in closed form.  For an oscillatory kernel, t^nu phi(t) on [1, R]
    is held as piecewise Chebyshev interpolants, read as their antiderivatives
    plus prefix sums.  The pieces are graded, of width min(t, 4 pi) from
    their left end t and split at the kernel's crossover, so negative nu
    still converges; each piece's degree is set by the chopping rule
    (``_chop``) at double precision, or at the kernel's own error where
    that leaves no plateau at 129 samples (high Bessel orders near their
    crossover).  The reach R is the first integer from the crossover on at
    which the far field's truncation bounds fall to _REACH_EPS of their
    leading terms (``_reach``).  A kernel that does not oscillate has reach 1
    and no pieces.  Beyond the reach, ``_far_field`` integrates the
    kernel's large-argument form.  Raises NonConvergence where no reach
    lies within _REACH_CAP of the crossover or a piece does not chop.

    The far field's constants, which depend only on (kernel, nu), are
    computed here once: the coefficients e_n of the oscillatory tail's
    series (``_osc_tail``), the |osc_k|, the padded drift and Phi(1) - Phi(0)
    (``near_unit``).  The Mellin read is kept once made.
    """

    def __init__(self, kernel: KernelSpec, nu: float):
        series = kernel.series or kernel.near
        coefs = series.coefs
        n = 1 + int(np.flatnonzero(np.abs(coefs) > _SERIES_CUT * abs(coefs[0]))[-1])
        self.coefs = coefs[:n]
        # t^nu phi(t) = sum_k a_k t^exponents_k, each rounded by <= exponent_error_k.
        steps = series.step * np.arange(n)
        self.exponents = nu + series.b1 + steps
        self.exponent_error = 2.0 * _EPS * (abs(nu) + abs(series.b1) + steps + 1.0)
        # Phi(1) - Phi(0) and its error bound, the near part of every read
        # from a = 0 to b >= 1 (nan or inf where the series is not
        # integrable at 0).
        with np.errstate(invalid="ignore"):
            terms, err = _power_terms(self.coefs, self.exponents, self.exponent_error,
                                      np.zeros(1), np.ones(1))
        self.near_unit = float(np.sum(terms, axis=1)[0]), float(err[0])
        far = self.far_field = kernel.far_field
        self.nu = nu
        self.osc_power = float(nu + far.osc_power)
        osc = np.pad(far.osc.astype(complex), (0, _FAR_TERMS - len(far.osc)))
        self.osc_e, self.osc_abs = np.array(by_parts(osc.tolist(), self.osc_power)), np.abs(osc)
        self.osc_e_abs = np.abs(self.osc_e)
        self.drift = np.pad(far.drift, (0, _FAR_TERMS - len(far.drift))) if far.drift else None
        self._mellin: Optional[Tuple[float, float]] = None
        self.crossover = kernel.crossover
        self.reach, self.edges = 1.0, np.ones(1)
        if kernel.oscillatory:
            self.reach = self._reach()
            self._build_pieces(kernel)

    def _osc_cut(self, w_max) -> Tuple[int, float]:
        """``_cut`` of the oscillatory tail's series at arguments from 1 / w_max
        on, one cut per w_max of an array."""
        return _cut(self.osc_e_abs * np.expand_dims(w_max, -1) ** np.arange(_FAR_TERMS))

    def _drift_cut(self, w_max) -> Tuple[int, float]:
        """``_cut`` of the drift at arguments from 1 / w_max on, one cut per
        w_max of an array."""
        return _cut(np.abs(self.drift) * np.expand_dims(w_max, -1) ** (2.0 * np.arange(_FAR_TERMS)))

    def _reach(self) -> float:
        """The first of ceil(crossover), ceil(crossover) + 1, ... at which
        the truncation bounds of the oscillatory tail and of the drift are
        at most _REACH_EPS of their leading terms."""
        start = math.ceil(self.crossover)
        for t in range(start, start + _REACH_CAP):
            if (self._osc_cut(1.0 / t)[1] <= _REACH_EPS
                    and (self.drift is None or self._drift_cut(1.0 / t)[1] <= _REACH_EPS)):
                return float(t)
        raise NonConvergence(math.nan, math.inf,
                             f"no far-field reach within {_REACH_CAP} of the crossover")

    def _build_pieces(self, kernel: KernelSpec) -> None:
        """Chebyshev pieces of g(t) = t^nu phi(t) on [1, reach]: for each,
        the coefficients of its antiderivative from its left end, the largest
        |g| at its samples and its error bound.  That bound adds (i) the
        chopped tail, 6 h sum |c_k| over the coefficients dropped (twice as
        much again for the unseen ones aliased into them), h the half width;
        (ii) integral t^nu phi_error + 2 eps |g| over the piece (trapezoids
        on the samples, the end values held to the ends), the kernel's error
        and that of the product; (iii) eps b TV(g), b the right end,
        for sample points rounded by up to eps t; (iv) the rounding of the
        coefficients and of their sum, 4 eps h (n max|g| + sum |B_k|)."""
        from numpy.polynomial import chebyshev  # off the import path

        edges = [1.0]
        while edges[-1] < self.reach:
            t = edges[-1]
            edges.append(min(t + min(t, 4.0 * math.pi), self.reach,
                             kernel.crossover if t < kernel.crossover else math.inf))
        rows, amps, errs = [], [], []
        for a, b in zip(edges[:-1], edges[1:]):
            h = 0.5 * (b - a)
            for size in _CHEB_POINTS:
                # g at chebinterpolate's own sample points, the first-kind ones.
                t = a + h * (1.0 + chebyshev.chebpts1(size))
                g = t ** self.nu * kernel.phi(t)
                c = chebyshev.chebinterpolate(lambda _: g, size - 1)
                keep = _chop(c)
                if keep < size:
                    break
            amps.append(float(np.max(np.abs(g))))
            local = t ** self.nu * kernel.phi_error(t) + 2.0 * _EPS * np.abs(g)
            if keep == size:  # no plateau at double precision: chop at the kernel's error
                keep = _chop(c, float(np.max(local)) / amps[-1])
                if keep == size:
                    raise NonConvergence(math.nan, math.inf,
                                         f"Phi_nu piece [{a:g}, {b:g}] does not chop")
            rows.append(chebyshev.chebint(c[:keep], lbnd=-1.0, scl=h))
            ts, local = np.concatenate([[a], t, [b]]), local[np.r_[0, :size, size - 1]]
            errs.append(6.0 * h * float(np.sum(np.abs(c[keep:])))
                        + float(np.sum(0.5 * (local[1:] + local[:-1]) * np.diff(ts)))
                        + 2.0 * _EPS * b * float(np.sum(np.abs(np.diff(g))))
                        + 4.0 * _EPS * h * (size * amps[-1] + float(np.sum(np.abs(rows[-1])))))
        width = max(len(r) for r in rows)
        self.pieces = np.array([np.pad(r, (0, width - len(r))) for r in rows])
        self.edges, self.piece_amp = np.array(edges), np.array(amps)
        self.piece_error = np.array(errs)
        # A piece's antiderivative at its right end is the sum of its
        # coefficients.  Each prefix's error: its pieces' errors plus the
        # rounding of the running sum (at most eps times the partial sums).
        self.prefix = np.concatenate([[0.0], np.cumsum(np.sum(self.pieces, axis=1))])
        self.prefix_error = (np.concatenate([[0.0], np.cumsum(errs)])
                             + _EPS * np.cumsum(np.abs(self.prefix)))

    def _mid(self, t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """integral_1^t t^nu phi(t) dt and its error bound at an array t > 1,
        clipped to the reach: the prefix sum of t's piece plus its
        antiderivative at t; the bound adds to the prefix's and the piece's
        errors the rounding of the sum and eps t max|g|, for an end t rounded
        by up to eps t."""
        from numpy.polynomial import chebyshev

        t = np.minimum(t, self.reach)
        i = np.clip(np.searchsorted(self.edges, t, side="right") - 1, 0, len(self.edges) - 2)
        a, b = self.edges[i], self.edges[i + 1]
        val = self.prefix[i] + chebyshev.chebval((2.0 * t - a - b) / (b - a), self.pieces[i].T,
                                                 tensor=False)
        return val, (self.prefix_error[i] + self.piece_error[i]
                     + _EPS * (2.0 * np.abs(val) + t * self.piece_amp[i]))

    def _osc_tail(self, t: np.ndarray, w_max: float) -> Tuple[np.ndarray, np.ndarray]:
        """(V, E) at arrays t >= 1 / w_max: V = integral_t^inf of the
        oscillatory part of t^nu phi(t) (0 at t = inf), E its error bound.
        Integration by parts, integral_T^inf t^m e^(it) dt = i e^(iT) T^m
        sum_j m (m-1) ... (m-j+1) (i/T)^j (the Abel value where the envelope
        grows), gives one series i e^(iT) T^m0 sum_n e_n T^-n, m0 = nu +
        osc_power, e_n = osc_n + i (m0 - n + 1) e_(n-1) (``by_parts``).  It is
        cut at its smallest term at w_max, which bounds it at every larger
        argument.  E is twice the first omitted term, eps times the summed
        terms' magnitudes and eps t |t^nu phi(t)| for an end t rounded by up
        to eps t."""
        far, m0, e, e_abs = self.far_field, self.osc_power, self.osc_e, self.osc_e_abs
        n = self._osc_cut(w_max)[0]
        w = 1.0 / t
        amp = np.where(w > 0, abs(far.scale) * t ** m0, 0.0)
        val = amp * np.real(far.scale / abs(far.scale) * 1j * np.exp(1j * t)
                            * np.polyval(e[n::-1], w))
        trunc = 2.0 * e_abs[n + 1] * w ** (n + 1)
        size = np.polyval(e_abs[n::-1], w)
        moved = _EPS * np.where(w > 0, t, 0.0) * np.polyval(self.osc_abs[n::-1], w)
        return np.where(w > 0, val, 0.0), amp * (trunc + 4.0 * _EPS * size + moved)

    def _drift_terms(self, w_max: float) -> Tuple[np.ndarray, np.ndarray]:
        """(d_j, 2j) of the drift sum_j d_j t^(nu + drift_power - 2j) of t^nu
        phi(t), to the first term omitted at its smallest term at w_max."""
        j = self._drift_cut(w_max)[0] + 2
        return self.drift[:j], 2.0 * np.arange(j)

    def _far_field(self, a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """integral_a^b t^nu phi(t) dt and its error bound from the kernel's
        large-argument form, for arrays a <= b <= inf, a in the asymptotic range:
        the oscillatory part from ``_osc_tail``, the drift (``_drift_terms``)
        as exact powers (inf where one does not decay toward b = inf), both
        series cut at min(a)."""
        if not np.any(b > a):
            return np.zeros(a.shape), np.zeros(a.shape)
        nu, drift_power = self.nu, self.far_field.drift_power
        w_max = 1.0 / float(np.min(a))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            (val, err), (vb, eb) = (self._osc_tail(t, w_max) for t in (a, b))
            val, err = val - vb, err + eb
            if self.drift is not None:
                d, k = self._drift_terms(w_max)
                # Exponents are rounded by at most 2 eps times their summands' size.
                terms, terms_err = _power_terms(d, nu + drift_power - k, 2.0 * _EPS
                                                * (abs(nu) + abs(drift_power) + k + 1.0), a, b)
                val = val + np.sum(terms[:, :-1], axis=1)
                err = err + terms_err + 2.0 * np.abs(terms[:, -1])
                for t in (a, b):
                    fin = t < math.inf
                    s = np.where(fin, t, 1.0)[:, None]
                    moved = np.sum(np.abs(d) * s ** (nu + drift_power + 1.0 - k), axis=1)
                    err = err + np.where(fin, _EPS * moved, 0.0)
        return val, np.where(b > a, err, 0.0)

    def _drift_end(self, t: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """For each t of an array, the drift integrated to t, d_j t^s_j / s_j
        with s_j = nu + drift_power + 1 - 2j, cut at t (``_drift_terms``):
        a row of terms per t, their error bounds, each row's count n of terms
        up to the first omitted, and the rows where one of those is a
        logarithm (s_j = 0)."""
        n = self._drift_cut(1.0 / t)[0] + 2
        drift_power, k = self.far_field.drift_power, 2.0 * np.arange(_FAR_TERMS)
        s = self.nu + drift_power + 1.0 - k
        with np.errstate(over="ignore"):  # terms past a row's cut are not read
            terms, terms_err, logs = _continued_powers(
                self.drift, s, t[:, None], 2.0 * _EPS * (abs(self.nu) + abs(drift_power) + k + 1.0))
        return terms, terms_err, n, np.any(logs & (np.arange(_FAR_TERMS) < n[:, None]), axis=1)

    def _far_end(self, t: float) -> Tuple[float, float]:
        """A(t) and its error bound at t >= crossover, A the far-field
        antiderivative of t^nu phi(t) (Phi(b) - Phi(a) = A(b) - A(a)): minus
        ``_osc_tail``, plus ``_drift_end``, both series cut at t.  Raises
        NonConvergence where a drift term is a logarithm."""
        val, err = 0.0, 0.0
        if np.any(self.far_field.osc):
            v, e = self._osc_tail(np.full(1, t), 1.0 / t)
            val, err = -float(v[0]), float(e[0])
        if self.drift is not None:
            terms, terms_err, (n,), (log,) = self._drift_end(np.full(1, t))
            if log:
                raise NonConvergence(math.nan, math.inf, LOG_TERM)
            val += float(np.sum(terms[0, :n - 1]))
            err += 2.0 * abs(terms[0, n - 1]) + float(np.sum(terms_err[0, :n]))
        return val, err

    def integral(self, a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Phi(b) - Phi(a) and its error bound, for arrays 0 <= a <= b <= inf
        (inf where a drift term does not decay toward b = inf).  The near
        part, the series on (min(a, 1), min(b, 1)), is ``near_unit`` where
        that is (0, 1) and 0 where it is empty; only the other rows sum the
        series."""
        n = len(b)
        near, near_err = np.zeros(n), np.zeros(n)
        unit = (a == 0.0) & (b >= 1.0)
        near[unit], near_err[unit] = self.near_unit
        rows = np.flatnonzero(~(unit | (a >= np.minimum(b, 1.0))))
        if rows.size:
            terms, near_err[rows] = _power_terms(self.coefs, self.exponents, self.exponent_error,
                                                 a[rows], np.minimum(b[rows], 1.0))
            near[rows] = np.sum(terms, axis=1)
        mid, mid_err = np.zeros(2 * n), np.zeros(2 * n)
        if self.reach > 1.0:
            # Only ends t > 1 of reads from a < reach take from the pieces;
            # every other end reads 0, error 0.
            ends = np.concatenate([b, a])
            rows = np.flatnonzero((ends > 1.0) & np.tile(a < self.reach, 2))
            if rows.size:
                mid[rows], mid_err[rows] = self._mid(ends[rows])
        far, far_err = self._far_field(np.maximum(a, self.reach), np.maximum(b, self.reach))
        val = near + (mid[:n] - mid[n:]) + far
        rounding = 2.0 * _EPS * (np.abs(near) + np.abs(mid[:n]) + np.abs(mid[n:]) + np.abs(far))
        return val, near_err + mid_err[:n] + mid_err[n:] + far_err + rounding

    def primitive(self, lo: np.ndarray, hi: np.ndarray,
                  y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """integral_lo^hi t^nu phi(t y) dt = y^(-nu-1) (Phi(hi y) - Phi(lo y))
        and its error bound, for arrays 0 <= lo <= hi and y > 0."""
        v, e = self.integral(lo * y, hi * y)
        scale = y ** (-self.nu - 1.0)
        # The exponent -nu - 1 is rounded, which moves the scale by up to
        # eps |nu + 1| |log y| relative.
        rel = _EPS * (4.0 + abs(self.nu + 1.0) * np.abs(np.log(y)))
        return scale * v, np.abs(scale) * (e + rel * np.abs(v))

    def mellin(self) -> Tuple[float, float]:
        """integral_0^inf t^nu phi(t) dt continued analytically (the Mellin
        transform at nu + 1) and its error bound: the series' sum a_k / (e_k
        + 1) for t <= 1, Phi(T) - Phi(1), T = max(reach, crossover), minus
        A(T).  A read within its error of 0 is 0, error 0: such a constant
        vanishes (integral_0^inf t J_0 and cos do), and its read is only
        rounding.  Computed on the first read and kept; a NonConvergence is
        raised again on every read."""
        if self._mellin is None:
            self._mellin = self._mellin_read()
        return self._mellin

    def _mellin_read(self) -> Tuple[float, float]:
        near, near_err, logs = _continued_powers(self.coefs, self.exponents + 1.0, 1.0,
                                                 self.exponent_error)
        if np.any(logs):
            raise NonConvergence(math.nan, math.inf, LOG_TERM)
        t = max(self.reach, self.crossover)
        mid, mid_err = self.integral(np.ones(1), np.full(1, t))
        a, a_err = self._far_end(t)
        rounding = 4.0 * _EPS * (np.sum(np.abs(near)) + abs(mid[0]) + abs(a)) + np.sum(near_err)
        c, err = float(np.sum(near) + mid[0] - a), float(mid_err[0] + a_err + rounding)
        return (c, err) if abs(c) > err else (0.0, 0.0)


@lru_cache(maxsize=32)
def _dilation_table(kernel: KernelSpec, nu: float) -> Optional[DilationTable]:
    """The table of (kernel, nu), built on first use; None when it cannot be
    built."""
    try:
        return DilationTable(kernel, nu)
    except NonConvergence:
        return None


def _table(kernel: KernelSpec, nu: float) -> DilationTable:
    """The cached table of (kernel, nu).  Raises NonConvergence when it
    cannot be built."""
    table = _dilation_table(kernel, nu)
    if table is None:
        raise NonConvergence(math.nan, math.inf, f"no Phi_nu table for nu = {nu:g}")
    return table


def struve_primitive(alpha: float, nu: float, y: float, x: float) -> Tuple[float, float]:
    """integral_0^x t^nu Struve_alpha(t y) dt and its error bound, a read of
    the dilation table of (Struve_alpha, nu).  Raises ValueError where
    t^nu Struve_alpha(t) is not integrable at 0 (``integrable_exponents``)."""
    if not (x > 0.0 and y > 0.0):
        raise ValueError("x and y must be positive")
    kernel = struve_h_kernel(alpha)
    integrable_exponents(kernel, nu)
    val, err = _table(kernel, nu).primitive(*np.array([[0.0], [x], [y]], float))
    return float(val[0]), float(err[0])


def _table_values(spec: TransformSpec, f: TestFunction,
                  ys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """F f and its error bound at every y > 0 of an array: a power piece
    c x^e on (lo, hi) contributes c integral_lo^hi t^nu phi(t y) dt,
    nu = b0 + e (``DilationTable.primitive``).  A read is not finite where
    the integral diverges (a piece from 0 with t^nu phi(t) not integrable
    there, or a drift that does not decay toward infinity)."""
    tables = [_table(spec.kernel, spec.b0 + p.exponent) for p in f.pieces]
    val = np.zeros_like(ys)
    err = np.zeros_like(ys)
    with np.errstate(over="ignore", invalid="ignore"):
        for p, t in zip(f.pieces, tables):
            v, e = t.primitive(max(p.lo, 0.0), p.hi, ys)
            val += p.coef * v
            err += abs(p.coef) * e
        scale = ys ** spec.c0
        return scale * val, scale * err


def padded_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b for 1-D arrays of any lengths, the shorter one padded with 0."""
    a, b = (a, b) if len(a) >= len(b) else (b, a)
    return np.concatenate([a[:len(b)] + b, a[len(b):]])


class FarExpansion(NamedTuple):
    """One member's F f toward an end, in v >= 1: v = y / y1 beyond y1
    (``far_expansion``) or v = y0 / y below y0 (``near_expansion``).  The
    sum of its ``series`` (xi, P, tau), each sum_n Re[tau_n e^(i xi v)]
    v^(P - n) with xi = X y1 (0 for powers), within the sum of E v^Q over
    its ``bars``."""

    series: Tuple[Tuple[float, float, np.ndarray], ...]
    bars: Tuple[Tuple[float, float], ...]


def near_expansion(spec: TransformSpec, fam: FunctionFamily, y_cap: float
                   ) -> Tuple[np.ndarray, List[FarExpansion], np.ndarray]:
    """(y0, expansions, log): per member its y0 = min(y_cap, 1/X), X its
    largest jump point, and F f(y0 / v) in v >= 1 as a ``FarExpansion`` of
    frequency 0; the members whose continuation meets a logarithm
    (``_continued_powers``; rows not read).  Below 1/X, F f is the moment
    series y^c0 sum_m a_m y^(b1 + k m) M_(b0 + b1 + k m)(f) (the tables' a_m;
    exact moments, 0 where declared vanished, a piece reaching inf continued
    as -c lo^s / s, s = mu + e + 1), one series of step k with zeros between
    its terms, plus for that piece its Mellin term c C y^(c0 - nu - 1), a
    series of its own where C is not 0 (``DilationTable.mellin``).  Each
    coefficient's error is a bar at its power."""
    series = spec.kernel.series or spec.kernel.near
    a = _table(spec.kernel, spec.b0 + float(fam.exponents[0])).coefs
    orders = spec.b0 + series.b1 + series.step * np.arange(len(a))
    with np.errstate(divide="ignore"):  # no jump point: 1/X = inf
        y0 = np.minimum(y_cap, 1.0 / np.max(fam.jump_x, axis=1, initial=0.0))
    rows, row_errs, mellin = [], [], []
    log = np.zeros(len(fam.members), dtype=bool)
    for e, lo, hi, coef in zip(fam.exponents.tolist(), fam.lo.T, fam.hi.T, fam.coef.T):
        lo, hi, coef = lo[:, None], hi[:, None], coef[:, None]
        if hi[0, 0] < math.inf:  # a piece's open ends are the family's
            rows.append(coef * power_moment(orders + e, lo, hi))
            row_errs.append(4.0 * _EPS * np.abs(rows[-1]))
            continue
        nu = spec.b0 + e
        table = _table(spec.kernel, nu)
        c, c_err = table.mellin()  # raises where an s below is 0
        if c != 0.0:
            p = spec.c0 - nu - 1.0
            mellin.append((-p, (coef[:, 0] * c * y0 ** p).tolist(),
                           (np.abs(coef[:, 0]) * c_err * y0 ** p).tolist()))
        row, row_err, logs = _continued_powers(-coef, table.exponents + 1.0, lo,
                                               table.exponent_error)
        rows.append(row)
        row_errs.append(row_err)
        log |= np.any(logs, axis=1)
    vanished = np.array([any(abs(mu - v) <= 1e-12 for v in fam.vanished_moments) for mu in orders])
    powers = spec.c0 + orders - spec.b0  # of y; those of v are their negatives
    scale = y0[:, None] ** powers
    tau = np.zeros((len(y0), series.step * (len(a) - 1) + 1))
    tau[:, ::series.step] = np.where(vanished, 0.0, a * np.sum(rows, axis=0)) * scale
    errs = np.where(vanished, 0.0, np.abs(a) * np.sum(row_errs, axis=0)) * scale
    v_powers = (-powers).tolist()
    expansions = []
    for i, (t, err) in enumerate(zip(tau, errs.tolist())):
        terms = [(0.0, p, np.array([c[i]])) for p, c, _ in mellin]
        bars = (*zip(err, v_powers), *((e[i], p) for p, _, e in mellin))
        expansions.append(FarExpansion(((0.0, v_powers[0], t), *terms), bars))
    return y0, expansions, log


def far_expansion(spec: TransformSpec, fam: FunctionFamily, y_min
                  ) -> Tuple[np.ndarray, List[FarExpansion], np.ndarray]:
    """(y1, expansions, log): per member its y1 = max(y_min, crossover / X),
    X its smallest jump point, and its ``FarExpansion``; the members whose
    drift meets a logarithm (rows not read).  A piece c x^e, nu = b0 + e, is
    c y^(c0 - nu - 1) [Phi_nu(hi y) - Phi_nu(lo y)], Phi_nu = M + A past the
    crossover (``_far_end``): a piece from 0 adds c M y^(c0 - nu - 1), its
    bar |c| times M's error, and a jump J at x
    (summed per nu) adds J y^(c0 - nu - 1) A(x y), the oscillatory series at
    frequency x (``_osc_tail``) and the drift's powers (``_drift_end``), each
    cut at the member's own x y1 with twice its first omitted term as its
    bar.  Series of one frequency and lead power are summed: where f is
    continuous the jumps' leads cancel."""
    y1 = np.maximum(y_min, spec.kernel.crossover / np.min(fam.jump_x, axis=1, initial=math.inf))
    series, bars, members = [{} for _ in fam.members], [[] for _ in fam.members], np.arange(len(y1))
    log, zero = np.zeros(len(y1), dtype=bool), np.zeros(len(y1))

    def add(p, xi, tau, bar, q):  # per member a frequency, a row of tau and a bar E v^q
        for row, terms, x, t, e, qq in zip(series, bars, xi.tolist(), tau, bar.tolist(), q.tolist()):
            if (x, p) in row:  # a sum within its rounding of 0 is 0
                size, t = padded_sum(np.abs(row[x, p]), np.abs(t)), padded_sum(row[x, p], t)
                t[np.abs(t) <= 4.0 * _EPS * size] = 0.0
            row[x, p] = t
            terms.append((e, qq))

    for nu, lo, coef in zip((spec.b0 + fam.exponents).tolist(), fam.lo.T, fam.coef.T):
        c, c_err = _table(spec.kernel, nu).mellin() if lo[0] == 0.0 else (0.0, 0.0)
        if c != 0.0:
            p = spec.c0 - nu - 1.0
            add(p, zero, (coef * c * y1 ** p)[:, None] + 0j, np.abs(coef) * c_err * y1 ** p, zero + p)
    live = fam.jump_live
    for nu, x, jump in zip((spec.b0 + fam.jump_exponents[live]).tolist(), fam.jump_x[:, live].T,
                           fam.jump[:, live].T):
        table = _table(spec.kernel, nu)
        far, t, lead = table.far_field, x * y1, jump * y1 ** (spec.c0 - nu - 1.0)
        if np.any(far.osc):
            p, n = spec.c0 - 1.0 + far.osc_power, table._osc_cut(1.0 / t)[0]
            tau = ((-1j * far.scale) * lead * t ** table.osc_power)[:, None] * table.osc_e \
                * (1.0 / t)[:, None] ** np.arange(_FAR_TERMS)
            add(p, t, [row[:j + 1] for row, j in zip(tau, n.tolist())],
                2.0 * np.abs(tau[members, n + 1]), p - n - 1.0)
        if table.drift is not None:  # powers 2 apart, as a series of step 1
            p, (terms, _, n, logs) = spec.c0 + far.drift_power, table._drift_end(t)
            log |= logs
            tau = np.zeros((len(t), 2 * _FAR_TERMS - 1), complex)
            tau[:, ::2] = lead[:, None] * terms
            add(p, zero, [row[:2 * j - 3] for row, j in zip(tau, n.tolist())],
                2.0 * np.abs(tau[members, 2 * n - 2]), p - 2.0 * n + 2.0)
    return y1, [FarExpansion(tuple((x, p, tau) for (x, p), tau in row.items()), tuple(terms))
                for row, terms in zip(series, bars)], log


def apply(spec: TransformSpec, f: TestFunction, y_grid: Sequence[float],
          config: Optional[QuadratureConfig] = None, *,
          check: bool = True) -> TransformResult:
    """Evaluate F f on a grid of y > 0, for a piecewise-power f and a kernel
    with a far field (every preset), in one vectorized pass over the
    dilation tables (``_table_values``).

    A value whose error misses max(abs_tol, rel_tol |value|) gets a note:
    ``divergent`` (value and error inf) where the read is not finite,
    ``nonconvergent`` otherwise, keeping the read and its error.  Raises
    NonConvergence when a table cannot be built (``DilationTable``).

    check=True enforces the integrability precondition
    (``check_admissible``) in the regime the transform carries: standard
    where its kernel has the two-factor estimate, gm otherwise.
    """
    if spec.kernel.far_field is None:
        raise ValueError(f"{spec.name}: transforms need a kernel with a far field")
    config = config or QuadratureConfig()
    if check:
        report = check_admissible(f, spec, "standard" if spec.kernel_est_holds else "gm")
        if not report:
            raise AdmissibilityError(
                f"{f.family} is not admissible for {spec.name}: "
                f"near-origin integral {report.near_origin}, tail {report.tail}")
    ys = np.asarray(y_grid, dtype=float)
    if not np.all((ys > 0.0) & (ys < math.inf)):
        raise ValueError("transform values are defined for 0 < y < inf")
    vals, errs = _table_values(spec, f, ys)
    with np.errstate(invalid="ignore"):
        ok = np.isfinite(errs) & (errs <= np.maximum(config.abs_tol, config.rel_tol * np.abs(vals)))
    notes: List[str] = []
    for i in np.flatnonzero(~ok):
        if np.isfinite(vals[i]):
            notes.append(f"y={ys[i]:g}: nonconvergent ({errs[i]:.2g})")
        else:
            vals[i] = errs[i] = math.inf
            notes.append(f"y={ys[i]:g}: divergent")
    return TransformResult(ys, vals, errs, notes)


def _regimes(spec: TransformSpec, mode: str) -> Tuple[Tuple[float, float], Tuple[float, float]]:
    """((mu, k) near, (mu, k) far): the regime estimates of |F f(y)| are y^k
    integral x^mu |f| over x below 1/y and beyond it.

    standard: (b0, 0) and (b0/2, -b0/2), from |K| <= C min{1, (x^b0
    y^b0)^(-1/2)}.  gm: (b0 + b1, c0 + b1) and (b - 1, c0 + c), from the
    envelope's b1 and the primitive bound (b, c); the far integral starts at
    1/(lam y), lam the general-monotonicity dilation constant."""
    if mode == "standard":
        return (spec.b0, 0.0), (0.5 * spec.b0, -0.5 * spec.b0)
    if mode == "gm":
        pb = spec.primitive_bound
        if pb is None:
            raise MissingPrimitiveBound(spec.name)
        b1 = spec.kernel.envelope.b1
        return (spec.b0 + b1, spec.c0 + b1), (pb.b - 1.0, spec.c0 + pb.c)
    raise ValueError("mode must be 'standard' or 'gm'")


@dataclass
class AdmissibilityReport:
    admissible: bool
    near_origin: float
    tail: float

    def __bool__(self) -> bool:
        return self.admissible


def check_admissible(f: TestFunction, spec: TransformSpec,
                     mode: str = "standard") -> AdmissibilityReport:
    """Are the two regime integrals of |f| (``_regimes``) finite on (0, 1)
    and (1, inf), so the transform of f is pointwise defined?"""
    (mu0, _), (mu1, _) = _regimes(spec, mode)
    near = f.abs_weighted_integral(mu0, 0.0, 1.0)
    tail = f.abs_weighted_integral(mu1, 1.0, math.inf)
    return AdmissibilityReport(math.isfinite(near) and math.isfinite(tail), near, tail)


def pointwise_bound(spec: TransformSpec, f: TestFunction, y: float,
                    mode: str = "standard") -> float:
    """Upper bound for |F f(y)|: the sum of the two regime estimates
    (``_regimes``), the analytic right-hand side without its implicit
    constant, so domination holds up to a fitted constant.  The standard
    mode needs the two-factor kernel estimate, the gm mode a primitive
    exponent b >= 0 and f's general-monotonicity witness."""
    if mode == "standard" and not spec.kernel_est_holds:
        raise ValueError(f"{spec.name} does not satisfy the two-factor kernel estimate")
    (mu0, k0), (mu1, k1) = _regimes(spec, mode)
    lam = 1.0
    if mode == "gm":
        if spec.primitive_bound.b < 0:
            raise ValueError("general-monotone bound requires primitive exponent b >= 0")
        if f.gm_witness is None:
            raise ValueError("gm mode needs f's general-monotonicity witness")
        lam = f.gm_witness.lam
    near = f.abs_weighted_integral(mu0, 0.0, 1.0 / y)
    far = f.abs_weighted_integral(mu1, 1.0 / (lam * y), math.inf)
    return y ** k0 * near + y ** k1 * far

