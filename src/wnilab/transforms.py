"""Integral transforms with power-type kernels: evaluation of
F f(y) = y^c0 * integral x^b0 f(x) K(x,y) dx for the named transforms
(Hankel, Struve, sine, cosine, model min-kernel), plus the two pointwise
upper bounds and the moment-reduced transform for series kernels.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .kernels import (KernelSpec, PowerEnvelope, PrimitiveBound, SeriesKernel,
                      bessel_j_kernel, cosine_kernel, model_min_kernel,
                      sine_kernel, struve_h_kernel)
from .quadrature import (DivergentIntegral, NonConvergence, QuadratureConfig,
                         _alternating_head, _alternating_tail, integrate)
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
    panels; when its span would exceed the panel budget, unbounded
    supports fall back to alternating-segment summation, and bounded
    supports report zero with the kernel-envelope mass as the error bound
    (such regions arise only where the transform has already decayed to
    numerical irrelevance).
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
    val = err = 0.0

    head_hi = min(hi, split)
    if head_hi > lo:
        v, e = integrate(integrand, (lo, head_hi), config,
                         breakpoints=[b for b in f.breakpoints if lo < b < head_hi])
        val += v
        err += e

    lo2 = max(lo, split)
    if hi > lo2:
        bps = sorted(b for b in f.breakpoints if lo2 < b < hi)
        if half is None:
            tb = None
            if math.isinf(hi):
                te = f.tail_exponent()
                if te is not None:
                    tb = (f.tail_coefficient() * env.env_constant * y ** env.c2,
                          b_out + te + env.b2)
            v, e = integrate(integrand, (lo2, hi), config, breakpoints=bps,
                             tail_bound=tb)
        else:
            budget_span = 0.45 * config.max_panels * half
            if hi - lo2 <= budget_span:
                v, e = integrate(integrand, (lo2, hi), config,
                                 wavelength=wavelength, breakpoints=bps)
            elif f.pieces is not None and spec.kernel.osc_drift_free:
                v, e = _long_oscillatory_span(f, kfn, b_out, env.b2, y, lo2, hi,
                                              wavelength, config)
            elif math.isinf(hi):
                # Cannot resolve honestly: bound the remainder by the
                # kernel-envelope mass (finite only for decaying tails).
                e_exp = None
                te = f.tail_exponent()
                if te is not None:
                    e_exp = b_out + te + env.b2
                if e_exp is None or e_exp >= -1.0:
                    raise NonConvergence(val * y ** c_out, math.inf,
                                         "oscillatory tail exceeds panel budget")
                v, e = 0.0, env.env_constant * y ** env.c2 * \
                    f.abs_weighted_integral(b_out + env.b2, lo2, hi)
            else:
                # Oscillation count outruns the budget: the value is below
                # the envelope mass, which goes into the error bound.
                v, e = 0.0, env.env_constant * y ** env.c2 * \
                    f.abs_weighted_integral(b_out + env.b2, lo2, hi)
        val += v
        err += e
    scale = y ** c_out
    return scale * val, scale * err


_DIRECT_HALF_PERIODS = 96


def _long_oscillatory_span(f: TestFunction, kfn, b_out: float, b2_env: float,
                           y: float, lo2: float, hi: float, wavelength: float,
                           config: QuadratureConfig):
    """Oscillatory region too long for half-period panels: resolve the
    first stretch directly, then sum each power piece by accelerated
    half-period segments anchored at its ends.

    Pieces with a decaying combined envelope use ascending tails at both
    ends (difference of two convergent oscillatory tails); growing
    envelopes use descending regularized heads, whose difference between
    two anchors in the oscillatory zone is the exact integral.  Valid for
    drift-free kernels only.
    """
    half = 0.5 * wavelength
    xstar = lo2 + _DIRECT_HALF_PERIODS * half
    bps = sorted(b for b in f.breakpoints if lo2 < b < xstar)

    def masked(x):
        return x ** b_out * f(x) * kfn(x * y)

    val, err = integrate(masked, (lo2, xstar), config,
                         wavelength=wavelength, breakpoints=bps)
    for piece in f.pieces:
        a = max(piece.lo, xstar)
        b = min(piece.hi, hi)
        if b <= a:
            continue

        def pure(x, c=piece.coef, ex=piece.exponent):
            return c * x ** (ex + b_out) * kfn(x * y)

        if not math.isinf(b) and (b - a) <= 64.0 * half:
            v, e = integrate(pure, (a, b), config, wavelength=wavelength)
        else:
            # Envelope exponent of the oscillatory integrand on this piece.
            ee = piece.exponent + b_out + b2_env
            if math.isinf(b):
                v, e = _alternating_tail(pure, a, wavelength, config)
            elif ee < -0.05:
                va, ea = _alternating_tail(pure, a, wavelength, config)
                vb, eb = _alternating_tail(pure, b, wavelength, config)
                v, e = va - vb, ea + eb
            else:
                vb, eb = _alternating_head(pure, b, wavelength, config)
                va, ea = _alternating_head(pure, a, wavelength, config)
                v, e = vb - va, ea + eb
        val += v
        err += e
    return val, err


def apply(spec: TransformSpec, f: TestFunction, y_grid: Sequence[float],
          config: Optional[QuadratureConfig] = None, *,
          check: bool = True, admissibility_mode: str = "pointwise") -> TransformResult:
    """Evaluate F f on a grid of y values.

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
    for i, y in enumerate(ys):
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
