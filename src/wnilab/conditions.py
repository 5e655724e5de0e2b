"""Weight-condition evaluators: Hardy-type supremum pairs, the glued
single-condition form, the Lorentz-space necessity condition, closed-form
power ranges per transform, and the kernel additivity (Oinarov) diagnostic.

Bracket integrals are read from one ``quadrature.CumulativeIntegral``
table per weight expression: octave panels on [2^-50, 2^51], refined
wherever their Kronrod error estimate misses the tolerance (kinks of
tabulated weights off the octave grid), plus closed-form power slivers
beyond both ends.

Each condition states its bracket product once, as a list of factors
(sums of weight-power x bracket-read terms, raised to a power).  The
verdict comes from the table's end exponents: a read that integrates from
a non-integrable end is infinite, and otherwise every read tends to 0, a
constant, log x or x^(e+1), so the product behaves like C r^kappa
(log r)^m at both ends and is unbounded iff kappa > 0, or kappa = 0 and
m > 0.  A bounded product's supremum is scanned on a 60-point log r-grid,
then zoomed in five rounds of 17 points, each spanning one spacing of the
round before on either side of the best point so far; every round reads
all its points in one array call, one Kronrod batch per bracket read.
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
# Exponent sums this close to 0 count as 0: the balance of a bracket product
# (its power of r), and an integrand exponent + 1 (a log bracket).
EXPONENT_TOLERANCE = 1e-9


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
        return {"sup_value": self.sup_value, "argmax_r": self.argmax_r,
                "verdict": self.verdict, "divergence_site": self.divergence_site,
                "scan_trace": [[float(r), float(v)] for r, v in self.scan_trace],
                "label": self.label}


# Zoom rounds of the scan: each reads _ZOOM_POINTS points spanning one
# spacing of the previous round on either side of the best point so far, so
# the spacing shrinks 8x per round.  From the 60-point grid's spacing
# ln(1e12)/59 five rounds reach 1.4e-5 in log r.
_ZOOM_ROUNDS = 5
_ZOOM_POINTS = 17


def _sup_scan(product: Callable[[np.ndarray], np.ndarray], label: str = "",
              n: int = 60) -> ConditionReport:
    rs = np.geomspace(1e-6, 1e6, n)
    vals = product(rs)
    trace = list(zip(rs.tolist(), vals.tolist()))
    ends = math.log(rs[0]), math.log(rs[-1])
    i = int(np.argmax(vals))
    best_t, best_v = math.log(rs[i]), float(vals[i])
    half = (ends[1] - ends[0]) / (n - 1)
    for _ in range(_ZOOM_ROUNDS):
        ts = np.linspace(max(best_t - half, ends[0]), min(best_t + half, ends[1]), _ZOOM_POINTS)
        vals = product(np.exp(ts))
        j = int(np.argmax(vals))
        if vals[j] > best_v:
            best_t, best_v = float(ts[j]), float(vals[j])
        half *= 2.0 / (_ZOOM_POINTS - 1)
    return ConditionReport(best_v, math.exp(best_t), "finite", None, trace, label)


@dataclass(frozen=True)
class _Term:
    """One bracket read: ``table.lower`` (or ``upper``) at r, or at 1/r when
    ``inverted``, times ``weight ** weight_power`` at the same argument."""

    table: CumulativeIntegral
    upper: bool = False
    inverted: bool = False
    weight: Optional[Weight] = None
    weight_power: float = 0.0

    def value(self, r: np.ndarray) -> np.ndarray:
        x = 1.0 / r if self.inverted else r
        read = self.table.upper(x) if self.upper else self.table.lower(x)
        if self.weight is None:
            return read
        return np.asarray(self.weight(x), dtype=float) ** self.weight_power * read

    def growth(self, r_to_inf: bool) -> Tuple[float, float]:
        """(g, m) with the term ~ T^g (log T)^m as T -> inf, where r = T
        (``r_to_inf``) or r = 1/T."""
        x_to_inf = r_to_inf != self.inverted
        # The integrand integrated from 1 toward the end x tends to grows like T^e.
        e = self.table.einf + 1.0 if x_to_inf else -(self.table.e0 + 1.0)
        if self.upper == x_to_inf:  # x tends to the end the read integrates from
            g, m = e, 0.0
        else:
            g, m = (0.0, 1.0) if abs(e) <= EXPONENT_TOLERANCE else (max(e, 0.0), 0.0)
        if self.weight is not None:
            g += self.weight_power * (self.weight.exponent_at_infinity if x_to_inf
                                      else -self.weight.exponent_at_zero)
        return g, m


# A bracket product: the product over its factors (terms, power) of
# (sum of the terms) ** power.
_Factors = Sequence[Tuple[Sequence[_Term], float]]


def _product(factors: _Factors, r: np.ndarray) -> np.ndarray:
    """The product at every r of an array; inf where a base is 0 under a
    negative power."""
    val = np.ones_like(r)
    pole = np.zeros(r.shape, dtype=bool)
    for terms, power in factors:
        base = sum(term.value(r) for term in terms)
        pole |= (base == 0.0) & (power < 0.0)
        with np.errstate(divide="ignore"):
            val = val * base ** power
    return np.where(pole, math.inf, val)


def _diverges_toward(factors: _Factors, r_to_inf: bool) -> bool:
    """Whether the product ~ C T^kappa (log T)^m, with r = T or 1/T, is
    unbounded as T -> inf: kappa > 0, or kappa = 0 and m > 0."""
    kappa = logs = 0.0
    for terms, power in factors:
        growths = [term.growth(r_to_inf) for term in terms]
        g = max(gj for gj, _ in growths)
        kappa += power * g
        logs += power * max(m for gj, m in growths if gj >= g - EXPONENT_TOLERANCE)
    return kappa > EXPONENT_TOLERANCE or (kappa >= -EXPONENT_TOLERANCE
                                          and logs > EXPONENT_TOLERANCE)


def _scan(factors: _Factors, label: str, n: int = 60) -> ConditionReport:
    """The divergent report when a bracket integral diverges at the end it
    integrates from or the product is unbounded toward r -> inf or r -> 0,
    else the supremum scan of the product."""
    if any(t.table.diverges_at_infinity if t.upper else t.table.diverges_at_zero
           for terms, _ in factors for t in terms):
        return ConditionReport(math.inf, math.nan, "divergent",
                               "inner-integral endpoint", [], label)
    for site, r_to_inf, argmax in (("r->inf", True, math.inf), ("r->0", False, 0.0)):
        if _diverges_toward(factors, r_to_inf):
            return ConditionReport(math.inf, argmax, "divergent", site, [], label)
    return _sup_scan(lambda r: _product(factors, r), label, n=n)


def hardy_pair_condition(u: Weight, v: Weight, s: Weight, w: Weight,
                         exps: ExponentSet,
                         scan_points: int = 60) -> Tuple[ConditionReport, ConditionReport]:
    """The two Hardy-type supremum conditions.

    First:  sup_r (int_0^(1/r) u w^(q/a'))^(1/q) (int_0^r v^(1-p') s^(p'/a'))^(1/p')
    Second: sup_r (int_(1/r)^inf u w^(q(1/a'-1/2)))^(1/q)
                  (int_r^inf v^(1-p') s^(p'(1/a'-1/2)))^(1/p')
    """
    q, p_prime, a_prime = exps.q, exps.p_prime, exps.a_prime
    inv_a = 0.0 if math.isinf(a_prime) else 1.0 / a_prime

    c_a1 = _bracket([(u, 1.0), (w, q * inv_a)])
    c_b1 = _bracket([(v, 1.0 - p_prime), (s, p_prime * inv_a)])
    rep1 = _scan([([_Term(c_a1, inverted=True)], 1.0 / q), ([_Term(c_b1)], 1.0 / p_prime)],
                 "hardy_condition_1", n=scan_points)

    c_a2 = _bracket([(u, 1.0), (w, q * (inv_a - 0.5))])
    c_b2 = _bracket([(v, 1.0 - p_prime), (s, p_prime * (inv_a - 0.5))])
    rep2 = _scan([([_Term(c_a2, upper=True, inverted=True)], 1.0 / q),
                  ([_Term(c_b2, upper=True)], 1.0 / p_prime)],
                 "hardy_condition_2", n=scan_points)
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
    # (int_0^t v^(1-p') + s(t)^(p'/2) int_t^inf v^(1-p') s^(-p'/2))^(1/p')
    b1 = [_Term(_bracket([(v, 1.0 - p_prime)])),
          _Term(_bracket([(v, 1.0 - p_prime), (s, -0.5 * p_prime)]), upper=True,
                weight=s, weight_power=0.5 * p_prime)]
    # (w(1/t)^(q/2) int_(1/t)^inf u w^(-q/2) + int_0^(1/t) u)^(1/q)
    b2 = [_Term(_bracket([(u, 1.0), (w, -0.5 * q)]), upper=True, inverted=True,
                weight=w, weight_power=0.5 * q),
          _Term(_bracket([(u, 1.0)]), inverted=True)]
    return _scan([(b1, 1.0 / p_prime), (b2, 1.0 / q)], "glued")


def special_case_222(u: Weight, v: Weight, s: Weight, w: Weight) -> ConditionReport:
    """Single-condition variant for (p, q, a) = (2, 2, 2): the bracket
    integrals enter with full (not rooted) powers.  Experimental: stated in
    the rearranged setting, exposed here for plain weights as a diagnostic.
    """
    return _scan([([_Term(_bracket([(u, 1.0), (w, 1.0)]), inverted=True)], 1.0),
                  ([_Term(_bracket([(v, -1.0), (s, 1.0)]))], 1.0)], "special_222 (experimental)")


def lorentz_necessity_condition(u: Weight, v: Weight, s: Weight,
                                exps: ExponentSet) -> ConditionReport:
    """sup_r (int_0^(1/r) u)^(1/q) (int_0^r v)^(-1/p) (int_0^r s)."""
    return _scan([([_Term(_bracket([(u, 1.0)]), inverted=True)], 1.0 / exps.q),
                  ([_Term(_bracket([(v, 1.0)]))], -1.0 / exps.p),
                  ([_Term(_bracket([(s, 1.0)]))], 1.0)], "lorentz_necessity")


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

    def query(self, beta: float, gamma: Optional[float] = None) -> "RangeVerdict":
        inside = (beta > self.lo or (self.lo_closed and beta == self.lo)) and \
                 (beta < self.hi or (self.hi_closed and beta == self.hi))
        inside = inside and all(abs(beta - e) > 1e-12 for e in self.excluded)
        relation_ok = True
        if gamma is not None:
            relation_ok = abs(beta - gamma - self.relation_offset) <= EXPONENT_TOLERANCE
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
        # For powers: first bracket ~ r^(-(ea+1)/q) (zero case uses 1/r),
        # second ~ r^((eb+1)/p'); the sup is finite iff exponents cancel.
        balance = -(ea + 1.0) / q + (eb + 1.0) / pp
        margin = min(abs(ea + 1.0), abs(eb + 1.0))
        if margin < ENDPOINT_TOLERANCE:
            return None
        if not (conv_a and conv_b):
            return False
        return abs(balance) <= EXPONENT_TOLERANCE

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
