"""Integral transforms with power-type kernels: evaluation of
F f(y) = y^c0 * integral x^b0 f(x) K(x,y) dx for the named transforms
(Hankel, Struve, sine, cosine, model min-kernel), plus the two pointwise
upper bounds and the moment-reduced transform for series kernels.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .kernels import (_ASYMPTOTIC_MAX_TERMS, FarField, KernelSpec, PowerEnvelope,
                      PrimitiveBound, SeriesKernel, _smallest_term_index, bessel_j_kernel,
                      cosine_kernel, model_min_kernel, sine_kernel, struve_h_kernel)
from .quadrature import (CumulativeIntegral, DivergentIntegral, NonConvergence,
                         QuadratureConfig, integrate)
from .weights import TestFunction, check_admissible


class AdmissibilityError(Exception):
    """The test function fails the integrability precondition."""


class MomentsNotVanished(Exception):
    """A moment required by the reduced-kernel route is nonzero."""


class NoSeriesKernel(Exception):
    """The kernel has no power-series representation."""


class MissingPrimitiveBound(Exception):
    """No primitive-function bound is available for this transform."""


@dataclass(frozen=True)
class TransformSpec:
    """Outer power factors (b0, c0) plus an evaluatable kernel.

    kernel_est_holds records whether |K| <= C min{1, (x^b0 y^b0)^(-1/2)}
    is valid, which the standard pointwise bound requires.
    """

    name: str
    b0: float
    c0: float
    kernel: KernelSpec
    kernel_est_holds: bool = False
    primitive_bound: Optional[PrimitiveBound] = None
    alpha: Optional[float] = None

    @property
    def series(self) -> Optional[SeriesKernel]:
        return self.kernel.series


def hankel(alpha: float) -> TransformSpec:
    """F f(y) = integral x^(2a+1) f(x) j_a(xy) dx with the normalized Bessel kernel."""
    return TransformSpec(
        name="hankel", b0=2.0 * alpha + 1.0, c0=0.0,
        kernel=bessel_j_kernel(alpha), kernel_est_holds=True,
        primitive_bound=PrimitiveBound(b=alpha + 0.5, c=-alpha - 1.5, nu=2.0 * alpha + 1.0),
        alpha=alpha)


def scripth(alpha: float) -> TransformSpec:
    """F f(y) = integral (xy)^(1/2) f(x) Struve_a(xy) dx."""
    return TransformSpec(
        name="scripth", b0=0.5, c0=0.5,
        kernel=struve_h_kernel(alpha), kernel_est_holds=False,
        primitive_bound=PrimitiveBound(b=alpha + 0.5, c=alpha - 1.0, nu=0.5),
        alpha=alpha)


def sine() -> TransformSpec:
    return TransformSpec(
        name="sine", b0=0.0, c0=0.0, kernel=sine_kernel(), kernel_est_holds=True,
        primitive_bound=PrimitiveBound(b=0.0, c=-1.0, nu=0.0))


def cosine() -> TransformSpec:
    return TransformSpec(
        name="cosine", b0=0.0, c0=0.0, kernel=cosine_kernel(), kernel_est_holds=True,
        primitive_bound=PrimitiveBound(b=0.0, c=-1.0, nu=0.0))


def model_min(delta: float) -> TransformSpec:
    """The exactly two-sided model: K = 1 for xy <= 1, (xy)^(-delta/2) beyond."""
    return TransformSpec(
        name="model_min", b0=delta, c0=0.0, kernel=model_min_kernel(delta),
        kernel_est_holds=True)


_PRESETS = {
    "hankel": hankel,
    "scripth": scripth,
    "sine": sine,
    "cosine": cosine,
    "model_min": model_min,
    "modelmin": model_min,
}


def preset(name: str, **params) -> TransformSpec:
    """The named transform; params must be exactly its factory's parameters."""
    name = name.lower()
    if name not in _PRESETS:
        raise ValueError(f"unknown transform preset {name!r}")
    factory = _PRESETS[name]
    expected = inspect.signature(factory).parameters
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


def _point(spec: TransformSpec, f: TestFunction, y: float,
           config: QuadratureConfig):
    """One transform value.

    The integral splits at x = 1/y.  The head (xy <= 1) is smooth and
    integrated directly.  The oscillatory region uses half-wavelength
    panels.  When its span would exceed the panel budget, power pieces on
    kernels with a far field take panels for the first
    _DIRECT_HALF_PERIODS half-periods and ``_far_field`` beyond; other f
    report zero with the kernel-envelope mass as the error bound (such
    regions arise only where the transform has already decayed to numerical
    irrelevance).  A tail that does not decay is NonConvergence.  The error
    adds eps times the magnitudes of the parts summed.
    """
    kfn = spec.kernel.phi
    env = spec.kernel.envelope
    b_out, c_out = spec.b0, spec.c0
    lo, hi = f.support
    lo = max(lo, 0.0)

    def integrand(x):
        return x ** b_out * f(x) * kfn(x * y)

    wavelength = spec.kernel.wavelength_x(y)
    half = 0.5 * wavelength if wavelength else None
    split = 1.0 / y
    parts = []

    head_hi = min(hi, split)
    if head_hi > lo:
        parts.append(integrate(integrand, (lo, head_hi), config,
                               breakpoints=[b for b in f.breakpoints if lo < b < head_hi]))

    lo2 = max(lo, split)
    if hi > lo2:
        bps = sorted(b for b in f.breakpoints if lo2 < b < hi)
        te = f.tail_exponent()  # None for bounded supports
        if half is None:
            tb = None if te is None else (f.tail_coefficient() * env.env_constant * y ** env.c2,
                                          b_out + te + env.b2)
            parts.append(integrate(integrand, (lo2, hi), config, breakpoints=bps,
                                   tail_bound=tb))
        elif hi - lo2 <= 0.45 * config.max_panels * half:
            parts.append(integrate(integrand, (lo2, hi), config,
                                   wavelength=wavelength, breakpoints=bps))
        elif f.pieces is not None and spec.kernel.far_field is not None:
            xstar = lo2 + _DIRECT_HALF_PERIODS * half
            parts.append(integrate(integrand, (lo2, xstar), config, wavelength=wavelength,
                                   breakpoints=[b for b in bps if b < xstar]))
            for p in f.pieces:
                a, b = max(p.lo, xstar), p.hi
                if b > a:
                    nu = b_out + p.exponent
                    v, e = _far_field(spec.kernel.far_field, nu, np.array([a * y]),
                                      np.array([b * y]))
                    scale = p.coef * y ** (-nu - 1.0)
                    parts.append((scale * float(v[0]), abs(scale) * float(e[0])))
        else:
            # Oscillation count outruns the budget: the value is below the
            # envelope mass, which goes into the error bound.
            decays = not math.isinf(hi) or (te is not None and b_out + te + env.b2 < -1.0)
            mass = f.abs_weighted_integral(b_out + env.b2, lo2, hi) if decays else math.inf
            parts.append((0.0, env.env_constant * y ** env.c2 * mass))
    scale = y ** c_out
    val = sum(v for v, _ in parts)
    err = sum(e for _, e in parts) + _EPS * sum(abs(v) for v, _ in parts)
    if not math.isfinite(val + err):
        # An envelope or a far-field drift term that does not decay.
        raise NonConvergence(sum(v for v, _ in parts if math.isfinite(v)) * scale, math.inf,
                             "oscillatory tail exceeds panel budget")
    return scale * val, scale * err


_DIRECT_HALF_PERIODS = 96


# ---------------------------------------------------------------------------
# dilation tables
# ---------------------------------------------------------------------------

# Series terms below this fraction of the leading coefficient are dropped;
# on t <= 1 each term is at most its coefficient over its power.
_SERIES_CUT = 1e-18
_SERIES_MAX_TERMS = 60
_EPS = float(np.finfo(float).eps)


def _power_segment(m: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """integral_a^b t^(m-1) dt for 0 <= a <= b, by columns of m against
    rows of (a, b): E^m (1 - (a/b)^|m|) / |m| with E the end where t^m is
    larger, and log(b/a) for m = 0, so neither ends' powers nor a power m
    near 0 cancel."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_ratio = np.log(b / a)[:, None]
        end = np.where(m > 0, b[:, None], a[:, None])
        mag = np.abs(m)
        seg = end ** m * -np.expm1(-mag * log_ratio) / np.where(mag > 0, mag, 1.0)
        seg = np.where(m == 0, log_ratio, seg)
    return np.where((b > a)[:, None], seg, 0.0)


# Far-field series length: that of the kernels' asymptotic coefficients.
_FAR_TERMS = _ASYMPTOTIC_MAX_TERMS + 1


def _far_field(far: FarField, nu: float, a: np.ndarray,
               b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """integral_a^b t^nu phi(t) dt and its error bound from the kernel's
    large-argument form, for arrays a <= b <= inf, a in the asymptotic range.

    Oscillatory terms integrate by parts: integral_T^inf t^m e^(it) dt =
    i e^(iT) T^m sum_j m (m-1) ... (m-j+1) (i/T)^j, the Abel value where the
    envelope grows.  The whole expansion gives one series i e^(iT) T^m0
    sum_n e_n T^-n, m0 = nu + osc_power, e_n = osc_n + i (m0 - n + 1) e_(n-1).
    Drift terms integrate as exact powers (inf where one does not decay
    toward b = inf).  Each series is cut at its smallest term at min(a),
    which bounds it at every larger argument; twice the first omitted term
    bounds the truncation, eps times the summed terms' magnitudes the
    rounding.
    """
    if not np.any(b > a):
        return np.zeros(a.shape), np.zeros(a.shape)
    m0 = nu + far.osc_power
    e = np.pad(far.osc.astype(complex), (0, _FAR_TERMS - len(far.osc)))
    for n in range(1, _FAR_TERMS):
        e[n] += 1j * (m0 - n + 1.0) * e[n - 1]
    w_max = 1.0 / float(np.min(a))
    tau = np.abs(e) * w_max ** np.arange(_FAR_TERMS)
    n = _smallest_term_index(tau[:-1], tau[0])

    def tail(t):  # integral_t^inf of the oscillatory part, 0 at t = inf
        w = 1.0 / t
        amp = np.where(w > 0, abs(far.scale) * t ** m0, 0.0)
        osc = amp * np.real(far.scale / abs(far.scale) * 1j * np.exp(1j * t)
                            * np.polyval(e[n::-1], w))
        trunc = 2.0 * abs(e[n + 1]) * w ** (n + 1)
        rounding = 4.0 * _EPS * np.polyval(np.abs(e[n::-1]), w)
        return np.where(w > 0, osc, 0.0), amp * (trunc + rounding)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        (val, err), (vb, eb) = tail(a), tail(b)
        val, err = val - vb, err + eb
        if far.drift:
            d = np.pad(far.drift, (0, _FAR_TERMS - len(far.drift)))
            tau = np.abs(d) * w_max ** (2.0 * np.arange(_FAR_TERMS))
            j = _smallest_term_index(tau[:-1], tau[0])
            terms = d[:j + 2] * _power_segment(nu + far.drift_power + 1.0
                                               - 2.0 * np.arange(j + 2), a, b)
            val = val + np.sum(terms[:, :-1], axis=1)
            err = (err + 4.0 * _EPS * np.sum(np.abs(terms[:, :-1]), axis=1)
                   + 2.0 * np.abs(terms[:, -1]))
    return val, np.where(b > a, err, 0.0)


class DilationTable:
    """Phi(T) = integral t^nu phi(t) dt of a series kernel phi, read as
    Phi(b) - Phi(a) for 0 <= a <= b <= inf.

    On t <= 1 the kernel's series is integrated term by term in closed form.
    On [1, reach] one cumulative table with half-period panels holds the
    integral from 1; reach = 1 + 0.45 max_panels pi is the span of the
    direct-panel route of ``_point``, so the table costs no more panels than
    one such value.  Beyond the reach, ``_far_field`` integrates the
    kernel's large-argument form.  Raises NonConvergence when the table
    cannot meet the config's tolerance.
    """

    def __init__(self, kernel: KernelSpec, nu: float, config: QuadratureConfig):
        series = kernel.series
        coefs = series.coefficients(_SERIES_MAX_TERMS)
        n = 1 + int(np.flatnonzero(np.abs(coefs) > _SERIES_CUT * abs(coefs[0]))[-1])
        self.coefs = coefs[:n]
        # t^nu phi(t) = sum_k a_k t^(powers_k - 1).
        self.powers = nu + series.b1 + series.step * np.arange(n) + 1.0
        self.nu, self.far_field = nu, kernel.far_field
        half = 0.5 * kernel.wavelength_x(1.0)
        self.reach = 1.0 + 0.45 * config.max_panels * half
        self.mid = CumulativeIntegral(lambda t: t ** nu * kernel.phi(t), [1.0, self.reach],
                                      config, wavelength=2.0 * half)

    def integral(self, a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Phi(b) - Phi(a) and its error bound, for arrays 0 <= a <= b <= inf
        (inf where a drift term does not decay toward b = inf)."""
        terms = self.coefs * _power_segment(self.powers, np.minimum(a, 1.0), np.minimum(b, 1.0))
        near = np.sum(terms, axis=1)
        near_err = 4.0 * _EPS * np.sum(np.abs(terms), axis=1)
        n = len(b)
        # Reads from a >= reach take nothing from the table, nor its error.
        inside = np.tile(a < self.reach, 2)
        mid, mid_err = (np.where(inside, m, 0.0) for m in
                        self.mid.lower_with_error(np.maximum(np.concatenate([b, a]), 1.0)))
        far, far_err = _far_field(self.far_field, self.nu, np.maximum(a, self.reach),
                                  np.maximum(b, self.reach))
        val = near + (mid[:n] - mid[n:]) + far
        rounding = 2.0 * _EPS * (np.abs(near) + np.abs(mid[:n]) + np.abs(mid[n:]) + np.abs(far))
        return val, near_err + mid_err[:n] + mid_err[n:] + far_err + rounding


@lru_cache(maxsize=32)
def _dilation_table(kernel: KernelSpec, nu: float, rel_tol: float, abs_tol: float,
                    max_panels: int) -> Optional[DilationTable]:
    """The table of (kernel, nu) at these tolerances, built on first use;
    None when it cannot be built within them."""
    try:
        return DilationTable(kernel, nu, QuadratureConfig(rel_tol=rel_tol, abs_tol=abs_tol,
                                                          max_panels=max_panels))
    except NonConvergence:
        return None


def _table_values(spec: TransformSpec, f: TestFunction, ys: np.ndarray,
                  config: QuadratureConfig):
    """F f at the ys the dilation tables serve: (mask of those ys, values,
    errors).

    A power piece c x^e on (lo, hi) contributes c y^(-nu-1) (Phi_nu(hi y) -
    Phi_nu(lo y)), nu = b0 + e.  Served are piecewise-power f, series
    kernels, and y > 0 whose finite error meets ``_point``'s own test,
    max(abs_tol, rel_tol |value|).
    """
    served = np.zeros(ys.shape, dtype=bool)
    none = served, np.empty(0), np.empty(0)
    if f.pieces is None or spec.series is None:
        return none
    tables = [_dilation_table(spec.kernel, spec.b0 + p.exponent, config.rel_tol,
                              config.abs_tol, config.max_panels) for p in f.pieces]
    # A piece from 0 with a non-integrable origin diverges: _point says so.
    if any(t is None or (p.lo <= 0.0 and t.powers[0] <= 0.0)
           for p, t in zip(f.pieces, tables)):
        return none
    pos = ys > 0.0
    y = ys[pos]
    val = np.zeros_like(y)
    err = np.zeros_like(y)
    with np.errstate(over="ignore", invalid="ignore"):
        for p, t in zip(f.pieces, tables):
            v, e = t.integral(max(p.lo, 0.0) * y, p.hi * y)
            scale = p.coef * y ** (-(spec.b0 + p.exponent) - 1.0)
            val += scale * v
            err += np.abs(scale) * (e + 4.0 * _EPS * np.abs(v))
        ok = np.isfinite(err) & (err <= np.maximum(config.abs_tol, config.rel_tol * np.abs(val)))
        served[pos] = ok
        scale = y[ok] ** spec.c0
    return served, scale * val[ok], scale * err[ok]


def apply(spec: TransformSpec, f: TestFunction, y_grid: Sequence[float],
          config: Optional[QuadratureConfig] = None, *,
          check: bool = True, admissibility_mode: str = "pointwise") -> TransformResult:
    """Evaluate F f on a grid of y values.

    Values the dilation tables serve (``_table_values``) are read from them
    in one vectorized pass; every other y takes ``_point``.

    check=True enforces the integrability precondition (pointwise mode by
    default; pass admissibility_mode='gm' for transforms consumed under the
    general-monotone estimates).
    """
    config = config or QuadratureConfig()
    if check:
        report = check_admissible(f, spec, admissibility_mode)
        if not report:
            raise AdmissibilityError(
                f"{f.family} is not admissible for {spec.name}: "
                f"near-origin integral {report.near_origin}, tail {report.tail}")
    ys = np.asarray(list(y_grid), dtype=float)
    vals = np.empty_like(ys)
    errs = np.empty_like(ys)
    notes: List[str] = []
    served, table_vals, table_errs = _table_values(spec, f, ys, config)
    vals[served] = table_vals
    errs[served] = table_errs
    for i in np.flatnonzero(~served):
        y = ys[i]
        try:
            vals[i], errs[i] = _point(spec, f, float(y), config)
        except NonConvergence as exc:
            vals[i], errs[i] = exc.value, exc.error
            notes.append(f"y={y:g}: nonconvergent ({exc.error:.2g})")
        except DivergentIntegral:
            vals[i], errs[i] = math.inf, math.inf
            notes.append(f"y={y:g}: divergent")
    return TransformResult(ys, vals, errs, notes)


def pointwise_bound(spec: TransformSpec, f: TestFunction, y: float,
                    mode: str = "standard", lam: Optional[float] = None) -> float:
    """Upper bound for |F f(y)| from the kernel's regime estimates.

    standard: integral_0^(1/y) x^b0 |f| + y^(-b0/2) integral_(1/y)^inf
    x^(b0/2) |f|  (requires the min{1, (s w)^(-1/2)} kernel estimate).

    gm: y^(c0+c1) integral_0^(1/y) x^(b0+b1) |f| + y^(c0+c) *
    integral_(1/(lam y))^inf x^(b-1) |f|, with (b, c) the primitive bound
    and lam the general-monotonicity dilation constant.

    Both are the analytic right-hand sides without their implicit
    constants; domination holds up to a fitted constant.
    """
    split = 1.0 / y
    if mode == "standard":
        if not spec.kernel_est_holds:
            raise ValueError(f"{spec.name} does not satisfy the two-factor kernel estimate")
        near = f.abs_weighted_integral(spec.b0, 0.0, split)
        far = f.abs_weighted_integral(0.5 * spec.b0, split, math.inf)
        return near + y ** (-0.5 * spec.b0) * far
    if mode == "gm":
        pb = spec.primitive_bound
        if pb is None:
            raise MissingPrimitiveBound(spec.name)
        if pb.b < 0:
            raise ValueError("general-monotone bound requires primitive exponent b >= 0")
        if lam is None:
            if f.gm_witness is None:
                raise ValueError("gm mode needs a witness lambda (or explicit lam)")
            lam = f.gm_witness.lam
        env = spec.kernel.envelope
        near = f.abs_weighted_integral(spec.b0 + env.b1, 0.0, split)
        far = f.abs_weighted_integral(pb.b - 1.0, 1.0 / (lam * y), math.inf)
        return y ** (spec.c0 + env.c1) * near + y ** (spec.c0 + pb.c) * far
    raise ValueError("mode must be 'standard' or 'gm'")


# ---------------------------------------------------------------------------
# moment-reduced transform for series kernels
# ---------------------------------------------------------------------------

_SERIES_TAIL_TERMS = 80


def reduced_kernel_eval(series: SeriesKernel, ell: int, phi) -> Callable:
    """The kernel with its first ell series terms removed, as a function of
    t = xy: direct tail summation for t <= 1, exact kernel minus partial
    sum beyond (safe for small ell; the partial sum is comparable to the
    remainder there)."""
    coefs = series.coefficients(ell + _SERIES_TAIL_TERMS)
    k = series.step

    def g(t):
        t = np.asarray(t, dtype=float)
        out = np.empty_like(t)
        small = t <= 1.0
        if np.any(small):
            ts = t[small]
            acc = np.zeros_like(ts)
            tk = ts ** (k * ell)
            step = ts ** k
            for m in range(ell, ell + _SERIES_TAIL_TERMS):
                acc = acc + coefs[m] * tk
                tk = tk * step
                if np.all(np.abs(coefs[m] * tk) <= 1e-18 * (np.abs(acc) + 1e-300)):
                    break
            out[small] = acc
        big = ~small
        if np.any(big):
            tb = t[big]
            partial = np.zeros_like(tb)
            for m in range(ell):
                partial = partial + coefs[m] * tb ** (k * m)
            out[big] = phi(tb) * tb ** (-series.b1) - partial
        return out

    return g


def moment_reduced_kernel(spec: TransformSpec, ell: int) -> KernelSpec:
    """KernelSpec for the moment-reduced kernel, with its two-regime
    envelope min{t^(k*ell), t^(k*(ell-1))}."""
    series = spec.series
    if series is None:
        raise NoSeriesKernel(spec.name)
    if ell < 1:
        raise ValueError("ell must be >= 1")
    k = series.step
    env = PowerEnvelope(k * ell, k * ell, k * (ell - 1), k * (ell - 1))
    # The partial sum subtracted beyond t = 1 is a polynomial drift, so the
    # reduced kernel is never drift-free.
    return KernelSpec(f"{spec.kernel.kind}_reduced_{ell}", env,
                      reduced_kernel_eval(series, ell, spec.kernel.phi),
                      oscillatory=spec.kernel.oscillatory)


def moment_reduced_apply(spec: TransformSpec, f: TestFunction, ell: int,
                         y_grid: Sequence[float],
                         config: Optional[QuadratureConfig] = None,
                         moment_tol: float = 1e-10) -> TransformResult:
    """Evaluate F f through the reduced kernel, valid when the moments of
    orders b0 + b1 + j*k (j < ell) vanish.  Agrees with apply() within the
    combined quadrature error when the precondition holds."""
    kernel = moment_reduced_kernel(spec, ell)
    series = spec.series
    for j in range(ell):
        mu = spec.b0 + series.b1 + j * series.step
        moment = (f.moment(mu) if f.pieces is not None
                  else f.moment_by_quadrature(mu))
        if abs(moment) > moment_tol:
            raise MomentsNotVanished(
                f"moment of order {mu:g} is {moment:.3e} (tolerance {moment_tol:g})")
    reduced = TransformSpec(f"{spec.name}_reduced_{ell}", spec.b0 + series.b1,
                            spec.c0 + series.c1, kernel)
    return apply(reduced, f, y_grid, config, check=False)
