"""Weight-condition evaluators: Hardy-type supremum pairs, the glued
single-condition form, the Lorentz-space necessity condition, closed-form
power ranges per transform, and the kernel additivity (Oinarov) diagnostic.

Supremum scans run on a log r-grid with golden-section refinement around
the best point.  Bracket integrals are read from one
``quadrature.CumulativeIntegral`` table per weight expression: octave
panels on [2^-50, 2^51], refined wherever their Kronrod error estimate
misses the tolerance (kinks of tabulated weights off the octave grid),
plus closed-form power slivers beyond both ends.
Endpoint divergence of inner integrals is decided from the weights'
analytic endpoint exponents; unbounded growth of the supremum itself is
detected by decade extension of the scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .kernels import KernelSpec
from .quadrature import CumulativeIntegral
from .weights import ExponentSet, Weight, WeightExpr
from .transforms import TransformSpec, MissingPrimitiveBound, NoSeriesKernel

ENDPOINT_TOLERANCE = 0.05  # verdicts this close to an analytic endpoint are not asserted


class InverseRelationViolated(Exception):
    """s(x) * w(1/x) is not comparable to 1, so gluing does not apply."""


class EnvelopeNotStrict(Exception):
    """The kernel envelope has b1 - b2 <= 0; the power range is empty."""


# ---------------------------------------------------------------------------
# bracket integrals of weight expressions
# ---------------------------------------------------------------------------

# Octave edges 2^-50 (~8.9e-16) ... 2^51 (~2.3e15).
_OCTAVE_EDGES = 2.0 ** np.arange(-50, 52, dtype=float)


def _bracket(factors: Sequence[Tuple[Weight, float]]) -> CumulativeIntegral:
    """Bracket integrals of a product of weight powers; the weights are
    power-like beyond the octave edges by construction."""
    expr = WeightExpr(factors)
    return CumulativeIntegral(expr, _OCTAVE_EDGES,
                              exponents=(expr.exponent_at_zero, expr.exponent_at_infinity))


# ---------------------------------------------------------------------------
# supremum scans
# ---------------------------------------------------------------------------

@dataclass
class ConditionReport:
    sup_value: float
    argmax_r: float
    verdict: str  # "finite" | "divergent" | "indeterminate"
    divergence_site: Optional[str] = None
    scan_trace: List[Tuple[float, float]] = field(default_factory=list)
    label: str = ""

    @property
    def finite(self) -> bool:
        return self.verdict == "finite"

    def to_dict(self) -> dict:
        d = asdict(self)
        d["scan_trace"] = [[float(r), float(v)] for r, v in self.scan_trace]
        return d


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _sup_scan(product: Callable[[float], float], label: str = "",
              r_lo: float = 1e-6, r_hi: float = 1e6, n: int = 60,
              refine_steps: int = 20) -> ConditionReport:
    rs = np.geomspace(r_lo, r_hi, n)
    vals = np.array([product(float(r)) for r in rs])
    trace = list(zip(rs.tolist(), vals.tolist()))

    # Unbounded growth toward either end of the r-line: factor-1.5 growth
    # across three successive decade extensions.
    for site, seq in (("r->inf", [r_hi * 10.0 ** k for k in range(1, 4)]),
                      ("r->0", [r_lo / 10.0 ** k for k in range(1, 4)])):
        prev = vals[-1] if site == "r->inf" else vals[0]
        growths = 0
        for r in seq:
            cur = product(float(r))
            if prev > 0 and cur > 1.5 * prev:
                growths += 1
            prev = cur
        if growths == 3:
            return ConditionReport(math.inf, math.inf if site == "r->inf" else 0.0,
                                   "divergent", site, trace, label)

    i = int(np.argmax(vals))
    a = math.log(rs[max(0, i - 1)])
    b = math.log(rs[min(len(rs) - 1, i + 1)])
    # Golden-section refinement of the (locally unimodal) product on log r.
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = product(math.exp(x1))
    f2 = product(math.exp(x2))
    for _ in range(refine_steps):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = product(math.exp(x2))
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = product(math.exp(x1))
    best_r = math.exp((a + b) / 2.0)
    best_v = max(float(np.max(vals)), product(best_r))
    return ConditionReport(best_v, best_r, "finite", None, trace, label)


def _scan(product: Callable[[float], float], label: str, endpoint_divergent: bool,
          **kwargs) -> ConditionReport:
    """Supremum scan of a bracket product, or the divergent report when one
    of its bracket integrals diverges at the end it integrates from."""
    if endpoint_divergent:
        return ConditionReport(math.inf, math.nan, "divergent",
                               "inner-integral endpoint", [], label)
    return _sup_scan(product, label, **kwargs)


def _root(x: float, power: float) -> float:
    if x == 0.0:
        return 0.0
    if math.isinf(x):
        return math.inf
    return x ** (1.0 / power)


def hardy_pair_condition(u: Weight, v: Weight, s: Weight, w: Weight,
                         exps: ExponentSet,
                         scan_points: int = 60) -> Tuple[ConditionReport, ConditionReport]:
    """The two Hardy-type supremum conditions.

    First:  sup_r (int_0^(1/r) u w^(q/a'))^(1/q) (int_0^r v^(1-p') s^(p'/a'))^(1/p')
    Second: sup_r (int_(1/r)^inf u w^(q(1/a'-1/2)))^(1/q)
                  (int_r^inf v^(1-p') s^(p'(1/a'-1/2)))^(1/p')

    Inner-integral endpoint divergence is decided from the weight
    exponents; divergence of the supremum itself from scan growth.
    """
    q, p_prime, a_prime = exps.q, exps.p_prime, exps.a_prime
    inv_a = 0.0 if math.isinf(a_prime) else 1.0 / a_prime

    c_a1 = _bracket([(u, 1.0), (w, q * inv_a)])
    c_b1 = _bracket([(v, 1.0 - p_prime), (s, p_prime * inv_a)])
    rep1 = _scan(lambda r: _root(c_a1.lower(1.0 / r), q) * _root(c_b1.lower(r), p_prime),
                 "hardy_condition_1", c_a1.diverges_at_zero or c_b1.diverges_at_zero,
                 n=scan_points)

    c_a2 = _bracket([(u, 1.0), (w, q * (inv_a - 0.5))])
    c_b2 = _bracket([(v, 1.0 - p_prime), (s, p_prime * (inv_a - 0.5))])
    rep2 = _scan(lambda r: _root(c_a2.upper(1.0 / r), q) * _root(c_b2.upper(r), p_prime),
                 "hardy_condition_2", c_a2.diverges_at_infinity or c_b2.diverges_at_infinity,
                 n=scan_points)
    return rep1, rep2


def glued_condition(u: Weight, v: Weight, s: Weight, w: Weight,
                    exps: ExponentSet) -> ConditionReport:
    """The single four-term supremum equivalent (under the s-w duality
    s(x) w(1/x) comparable to 1, a = 1) to the simultaneous Hardy pair."""
    if not math.isinf(exps.a_prime):
        raise ValueError("the glued condition applies to a = 1")
    grid = np.geomspace(1e-3, 1e3, 40)
    ratio = np.asarray(s(grid), dtype=float) * np.asarray(w(1.0 / grid), dtype=float)
    if np.any(ratio < 1.0 / 3.0) or np.any(ratio > 3.0):
        raise InverseRelationViolated(
            f"s(x) w(1/x) ranges over [{ratio.min():.3g}, {ratio.max():.3g}]")

    q, p_prime = exps.q, exps.p_prime
    cum_v = _bracket([(v, 1.0 - p_prime)])
    tail_vs = _bracket([(v, 1.0 - p_prime), (s, -0.5 * p_prime)])
    cum_u = _bracket([(u, 1.0)])
    tail_uw = _bracket([(u, 1.0), (w, -0.5 * q)])

    def prod(t: float) -> float:
        s_t = float(np.asarray(s(np.array([t])))[0])
        w_inv = float(np.asarray(w(np.array([1.0 / t])))[0])
        b1 = cum_v.lower(t) + s_t ** (0.5 * p_prime) * tail_vs.upper(t)
        b2 = w_inv ** (0.5 * q) * tail_uw.upper(1.0 / t) + cum_u.lower(1.0 / t)
        return _root(b1, p_prime) * _root(b2, q)

    return _scan(prod, "glued", cum_v.diverges_at_zero or cum_u.diverges_at_zero
                 or tail_vs.diverges_at_infinity or tail_uw.diverges_at_infinity)


def special_case_222(u: Weight, v: Weight, s: Weight, w: Weight) -> ConditionReport:
    """Single-condition variant for (p, q, a) = (2, 2, 2): the bracket
    integrals enter with full (not rooted) powers.  Experimental: stated in
    the rearranged setting, exposed here for plain weights as a diagnostic.
    """
    c_a = _bracket([(u, 1.0), (w, 1.0)])
    c_b = _bracket([(v, -1.0), (s, 1.0)])
    return _scan(lambda r: c_a.lower(1.0 / r) * c_b.lower(r), "special_222 (experimental)",
                 c_a.diverges_at_zero or c_b.diverges_at_zero)


def lorentz_necessity_condition(u: Weight, v: Weight, s: Weight,
                                exps: ExponentSet) -> ConditionReport:
    """sup_r (int_0^(1/r) u)^(1/q) (int_0^r v)^(-1/p) (int_0^r s)."""
    q, p = exps.q, exps.p
    cu = _bracket([(u, 1.0)])
    cv = _bracket([(v, 1.0)])
    cs = _bracket([(s, 1.0)])

    def prod(r: float) -> float:
        den = cv.lower(r)
        if den == 0.0:
            return math.inf
        return _root(cu.lower(1.0 / r), q) * den ** (-1.0 / p) * cs.lower(r)

    return _scan(prod, "lorentz_necessity",
                 cu.diverges_at_zero or cv.diverges_at_zero or cs.diverges_at_zero)


# ---------------------------------------------------------------------------
# closed-form power ranges
# ---------------------------------------------------------------------------

@dataclass
class RangeVerdict:
    """An admissible interval for the weight exponent, with the forced
    exponent relation offset: the inequality needs beta = gamma + offset
    and beta inside (lo, hi) respecting the closure flags."""

    label: str
    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool
    relation_offset: float
    excluded: Tuple[float, ...] = ()
    sharp: bool = False
    beta: Optional[float] = None
    gamma: Optional[float] = None
    satisfied: Optional[bool] = None
    indeterminate: Optional[bool] = None

    @property
    def beta_required(self) -> Optional[float]:
        if self.gamma is None:
            return None
        return self.gamma + self.relation_offset

    def query(self, beta: float, gamma: Optional[float] = None) -> "RangeVerdict":
        inside = (beta > self.lo or (self.lo_closed and beta == self.lo)) and \
                 (beta < self.hi or (self.hi_closed and beta == self.hi))
        inside = inside and all(abs(beta - e) > 1e-12 for e in self.excluded)
        relation_ok = True
        if gamma is not None:
            relation_ok = abs(beta - gamma - self.relation_offset) <= 1e-9
        dist = min([abs(beta - self.lo), abs(beta - self.hi)] +
                   [abs(beta - e) for e in self.excluded] or [math.inf])
        return RangeVerdict(self.label, self.lo, self.hi, self.lo_closed,
                            self.hi_closed, self.relation_offset, self.excluded,
                            self.sharp, beta, gamma, bool(inside and relation_ok),
                            bool(dist < ENDPOINT_TOLERANCE))

    def to_dict(self) -> dict:
        return asdict(self)


def _require_strict(spec: TransformSpec) -> None:
    if not spec.kernel.envelope.strict:
        raise EnvelopeNotStrict(
            f"{spec.name}: envelope exponents satisfy b1 - b2 = "
            f"{spec.kernel.envelope.b1 - spec.kernel.envelope.b2:g} <= 0")


def _relation_offset(spec: TransformSpec, exps: ExponentSet) -> float:
    env = spec.kernel.envelope
    return (spec.c0 - spec.b0 + env.c1 - env.b1) + 1.0 / exps.q - 1.0 / exps.p_prime


def power_pitt_range(spec: TransformSpec, exps: ExponentSet,
                     beta: Optional[float] = None, gamma: Optional[float] = None
                     ) -> Tuple[RangeVerdict, Optional[RangeVerdict]]:
    """Sufficient exponent range from the two-regime power envelope, and
    the known sharp (iff) range where one exists for the named transform.
    """
    _require_strict(spec)
    env = spec.kernel.envelope
    q, pp = exps.q, exps.p_prime
    offset = _relation_offset(spec, exps)
    suff = RangeVerdict("power_sufficient",
                        1.0 / q + spec.c0 + env.c2, 1.0 / q + spec.c0 + env.c1,
                        False, False, offset)

    sharp: Optional[RangeVerdict] = None
    if spec.name == "hankel":
        lo = max(1.0 / q - 1.0 / pp, 0.0) - spec.alpha - 0.5
        sharp = RangeVerdict("power_sharp", lo, 1.0 / q, True, False, offset, sharp=True)
    elif spec.name == "sine":
        lo = max(1.0 / q - 1.0 / pp, 0.0)
        sharp = RangeVerdict("power_sharp", lo, 1.0 + 1.0 / q, True, False, offset, sharp=True)
    elif spec.name == "scripth" and spec.alpha is not None and spec.alpha > 0.5:
        sharp = RangeVerdict("power_sharp", suff.lo, suff.hi, False, False,
                             offset, sharp=True)

    if beta is not None:
        suff = suff.query(beta, gamma)
        if sharp is not None:
            sharp = sharp.query(beta, gamma)
    return suff, sharp


def gm_power_range(spec: TransformSpec, exps: ExponentSet,
                   beta: Optional[float] = None, gamma: Optional[float] = None
                   ) -> RangeVerdict:
    """Exponent range valid for admissible general-monotone functions,
    driven by the primitive bound (b >= 0, c < c1) instead of the kernel's
    large-argument envelope."""
    pb = spec.primitive_bound
    if pb is None:
        raise MissingPrimitiveBound(spec.name)
    env = spec.kernel.envelope
    if pb.b < 0 or pb.c >= env.c1:
        raise ValueError("gm range needs primitive bound with b >= 0 and c < c1")
    offset = _relation_offset(spec, exps)
    sharp = spec.name in ("hankel", "sine", "cosine", "scripth")
    verdict = RangeVerdict("gm_range", 1.0 / exps.q + spec.c0 + pb.c,
                           1.0 / exps.q + spec.c0 + env.c1, False, False,
                           offset, sharp=sharp)
    if beta is not None:
        verdict = verdict.query(beta, gamma)
    return verdict


def vanishing_moment_range(spec: TransformSpec, n: int, exps: ExponentSet,
                           beta: Optional[float] = None,
                           gamma: Optional[float] = None) -> RangeVerdict:
    """Extended range when the first n kernel-series moments of f vanish,
    with the excluded interior lattice points."""
    series = spec.series
    if series is None:
        raise NoSeriesKernel(spec.name)
    if n < 1:
        raise ValueError("n must be >= 1")
    base = 1.0 / exps.q + spec.c0 + series.c1
    k = float(series.step)
    excluded = tuple(base + j * k for j in range(1, n))
    verdict = RangeVerdict("vanishing_moment_range", base, base + n * k,
                           False, False, _relation_offset(spec, exps), excluded)
    if beta is not None:
        verdict = verdict.query(beta, gamma)
    return verdict


# ---------------------------------------------------------------------------
# scan route for pure power weights, and the analytic cross-check
# ---------------------------------------------------------------------------

def power_hardy_verdict(spec: TransformSpec, exps: ExponentSet,
                        beta: float, gamma: float) -> Tuple[ConditionReport, ConditionReport]:
    """Scan verdict for pure power weights u = y^(-beta q), v = x^(gamma p)
    through the reduction to the model setting s = w = x^(2d), a = 1, with
    d the envelope exponent drop."""
    _require_strict(spec)
    env = spec.kernel.envelope
    d = env.c1 - env.c2
    beta_red = beta - spec.c0 - env.c1
    gamma_red = gamma - spec.b0 - env.b1
    exps_a1 = ExponentSet(p=exps.p, q=exps.q, a=1.0)
    u = Weight.power(-beta_red * exps.q)
    v = Weight.power(gamma_red * exps.p)
    sw = Weight.power(2.0 * d)
    return hardy_pair_condition(u, v, sw, sw, exps_a1)


def power_pair_verdict_analytic(u_exp: float, v_exp: float, s_exp: float,
                                w_exp: float, exps: ExponentSet
                                ) -> Tuple[Optional[bool], Optional[bool]]:
    """Closed-form finiteness of the two Hardy conditions for exact power
    weights.  Returns None for a condition whose determining exponent sits
    within the endpoint tolerance (numerically unresolvable open/closed)."""
    q, pp, ap = exps.q, exps.p_prime, exps.a_prime
    inv_a = 0.0 if math.isinf(ap) else 1.0 / ap

    def verdict(ea: float, eb: float, at_zero: bool) -> Optional[bool]:
        conv_a = ea > -1.0 if at_zero else ea < -1.0
        conv_b = eb > -1.0 if at_zero else eb < -1.0
        balance = -(ea + 1.0) / q + (eb + 1.0) / pp if not at_zero else \
            (ea + 1.0) / q * -1.0 + (eb + 1.0) / pp
        # For powers: first bracket ~ r^(-(ea+1)/q) (zero case uses 1/r),
        # second ~ r^((eb+1)/p'); the sup is finite iff exponents cancel.
        margin = min(abs(ea + 1.0), abs(eb + 1.0))
        if margin < ENDPOINT_TOLERANCE:
            return None
        if not (conv_a and conv_b):
            return False
        return abs(balance) <= 1e-9

    ea1 = u_exp + w_exp * q * inv_a
    eb1 = v_exp * (1.0 - pp) + s_exp * pp * inv_a
    ea2 = u_exp + w_exp * q * (inv_a - 0.5)
    eb2 = v_exp * (1.0 - pp) + s_exp * pp * (inv_a - 0.5)
    return verdict(ea1, eb1, True), verdict(ea2, eb2, False)


# ---------------------------------------------------------------------------
# kernel additivity diagnostic
# ---------------------------------------------------------------------------

@dataclass
class OinarovReport:
    n_values: List[float]
    d_required: List[float]
    verdict: str  # "bounded" | "unbounded"
    feasible_d: Optional[float] = None

    def to_dict(self) -> dict:
        return asdict(self)


def oinarov_check(kernel: KernelSpec,
                  n_grid: Sequence[float] = (10.0, 100.0, 1000.0),
                  ab_pairs: Sequence[Tuple[float, float]] = ((2.0, 1.0), (3.0, 1.0))
                  ) -> OinarovReport:
    """Smallest d with d^-1 (K(t,u) + K(u,v)) <= K(t,v) <= d (K(t,u) + K(u,v))
    on the triple family t = N^a, u = N^b, v = N^(-(a+b)/2), a > b > 0.
    Reports unbounded growth of the required d with N."""
    for a, b in ab_pairs:
        if not (a > b > 0):
            raise ValueError("pairs must satisfy a > b > 0")
    d_req: List[float] = []
    for n in n_grid:
        worst = 1.0
        for a, b in ab_pairs:
            t, u, v = n ** a, n ** b, n ** (-(a + b) / 2.0)
            k_tu = float(np.asarray(kernel(t, u)))
            k_uv = float(np.asarray(kernel(u, v)))
            k_tv = float(np.asarray(kernel(t, v)))
            total = k_tu + k_uv
            if k_tv <= 0.0 or total <= 0.0:
                worst = math.inf
                break
            worst = max(worst, total / k_tv, k_tv / total)
        d_req.append(worst)
    growing = all(d_req[i + 1] >= 1.2 * d_req[i] for i in range(len(d_req) - 1))
    if growing and d_req[-1] >= 3.0 * d_req[0]:
        return OinarovReport(list(n_grid), d_req, "unbounded")
    return OinarovReport(list(n_grid), d_req, "bounded", feasible_d=max(d_req))
