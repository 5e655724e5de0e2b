"""Weight-condition evaluators: Hardy-type supremum pairs, the glued
single-condition form, the Lorentz-space necessity condition, closed-form
power ranges read from the kernel's expansions, the kernel diagnostics in
t = xy: envelope and primitive constants as suprema in t, and the Oinarov
additivity verdict, and a test function's general-monotonicity witness as a
supremum in x.

Every weight is a piecewise power, and so is a product of weight powers
(``Weight.product``): every bracket is the exact ``Weight.integral`` of
one.  One ``BracketTable`` per config builds each distinct bracket
integrand once for every condition of the config.

Each condition states its bracket product once, as a list of factors
(sums of weight-power x bracket-read terms, raised to a power).  By the
brackets' end exponents a read that integrates from a non-integrable end
is infinite, and otherwise the product behaves like C r^kappa (log r)^m at
both ends: unbounded iff kappa > 0, or kappa = 0 and m > 0.  A bounded
product is smooth between its breakpoints, the images r = node or 1/node
of its weights' kinks, and beyond the outermost it is C r^kappa (log r)^m
to rounding from a reach its parts give.  The scan reads the breakpoints,
the reaches and points inside each segment between them, refines about
the best read, and takes a limit C (kappa = m = 0) above every read as
the supremum, at r = 0 or inf.  A product with neither (every power-weight
product) is the constant C: no read and no argmax.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .kernels import KernelSpec
from .quadrature import NonConvergence
from .weights import EXPONENT_TOLERANCE, ExponentSet, GMWitness, TestFunction, Weight, _power
from .transforms import (_REACH_CAP, MissingPrimitiveBound, NoSeriesKernel, TransformSpec, _cut,
                         _table, integrable_exponents)

ENDPOINT_TOLERANCE = 0.05  # verdicts this close to an analytic endpoint are not asserted


class InverseRelationViolated(Exception):
    """s(x) * w(1/x) is not comparable to 1, so gluing does not apply."""


class EnvelopeNotStrict(Exception):
    """The kernel envelope has b1 - b2 <= 0; the power range is empty."""


# ---------------------------------------------------------------------------
# supremum scans
# ---------------------------------------------------------------------------

@dataclass
class ConditionReport:
    sup_value: float
    argmax_r: Optional[float]  # None for a constant product
    verdict: str  # "finite" | "divergent" | "indeterminate"
    divergence_site: Optional[str] = None
    label: str = ""

    @property
    def finite(self) -> bool:
        return self.verdict == "finite"

    def to_dict(self) -> dict:
        return dict(vars(self))


# Reads inside each segment besides one per unit of log r over the
# product's rate; each refinement round reads 17 points across twice a
# half-width that shrinks 8x per round, down to _REFINED in log r.
_INNER, _REFINED = 8, 1e-6
_ROUNDING = np.finfo(float).eps  # a part this small next to its factor's lead


def _sup_scan(product: Callable[[np.ndarray], np.ndarray], label: str, t: np.ndarray,
              limits: Sequence[Tuple[float, float]]) -> ConditionReport:
    """The supremum of ``product`` (called with r arrays) and of its end
    ``limits`` (r, C): reads at the sorted log r ``t``, refined about the
    best.  Without reads the product is the constant C: no argmax."""
    if len(t) == 0:
        return ConditionReport(max(c for _, c in limits), None, "finite", None, label)
    vals = product(np.exp(t))
    i = int(np.argmax(vals))
    best_t, best_v = float(t[i]), float(vals[i])
    half = float(np.max(np.abs(t[max(i - 1, 0):i + 2] - best_t)))
    while half > _REFINED and best_v < math.inf:
        ts = np.linspace(best_t - half, best_t + half, 17)
        vals = product(np.exp(ts))
        j = int(np.argmax(vals))
        if vals[j] > best_v:
            best_t, best_v = float(ts[j]), float(vals[j])
        half /= 8.0
    # A limit above every read is the supremum.
    return max([ConditionReport(best_v, math.exp(best_t), "finite", None, label)] +
               [ConditionReport(c, r, "finite", None, label) for r, c in limits],
               key=lambda rep: rep.sup_value)


class BracketTable:
    """The bracket integrands of one config: each product of weight powers
    built once (``product``, keyed by its factors: weights by identity,
    powers other than 0).  The table holds its weights, so their identities
    stay distinct while it lives; make one per config."""

    def __init__(self):
        self._products = {}

    def product(self, factors: Sequence[Tuple[Weight, float]]) -> Weight:
        key = tuple((w, float(p)) for w, p in factors if p != 0.0)
        if key not in self._products:
            self._products[key] = Weight.product(key)
        return self._products[key]


@dataclass(frozen=True)
class _Term:
    """One bracket read at x = r, or x = 1/r when ``inverted``: the integral
    of ``integrand`` from 0 to x, or from x to inf when ``upper``, times
    ``weight ** weight_power`` at x (1 by default)."""

    integrand: Weight
    upper: bool = False
    inverted: bool = False
    weight: Weight = Weight.power(0.0)
    weight_power: float = 0.0

    def value(self, r: np.ndarray) -> np.ndarray:
        x = 1.0 / r if self.inverted else r
        return np.asarray(self.weight(x), dtype=float) ** self.weight_power * \
            self.integrand.integral(x, self.upper)

    def kinks(self) -> Tuple[float, ...]:
        return self.integrand.kinks + self.weight.kinks

    def breaks(self) -> np.ndarray:
        """log r at the images of the integrand's and the weight's kinks."""
        kinks = np.array(self.kinks(), dtype=float)
        return -np.log(kinks) if self.inverted else np.log(kinks)

    def rate(self) -> float:
        """The largest |d log / d log r| of the read plus the weight power's."""
        f, w = self.integrand, self.weight
        return (max(abs(f.exponents[0] + 1.0), abs(f.exponents[-1] + 1.0)) + abs(
            self.weight_power) * max(abs(w.exponents[0]), abs(w.exponents[-1])))

    def growth(self, r_to_inf: bool) -> List[Tuple[float, float, float, float]]:
        """Parts (g, m, c, L): beyond its outermost kink the term is exactly
        the sum of c e^L T^g (log T)^m over them as T -> inf, where r = T
        (``r_to_inf``) or r = 1/T: the integrand's (``Weight.integral_growth``)
        times the weight power's."""
        x_to_inf = r_to_inf != self.inverted
        parts = self.integrand.integral_growth(self.upper, x_to_inf)
        w, wp = self.weight, self.weight_power
        if not wp:
            return parts
        i = -1 if x_to_inf else 0
        a, k, eps = w.anchors[i], w.at_anchors[i], w.exponents[i]
        shift, kp, scale = wp * (eps if x_to_inf else -eps), _power(k, wp), wp * eps * math.log(a)
        return [(g + shift, m, c * kp, s - scale) for g, m, c, s in parts]


# A bracket product: the product over its factors (terms, power) of
# (sum of the terms) ** power.
_Factors = Sequence[Tuple[Sequence[_Term], float]]


def _product(factors: _Factors, r: np.ndarray) -> np.ndarray:
    """The product at every r of an array; inf where a base is 0 under a
    negative power (0 ** -p and 0 * inf are left to the caller's errstate)."""
    val = np.ones_like(r)
    pole = np.zeros(r.shape, dtype=bool)
    for terms, power in factors:
        base = sum(term.value(r) for term in terms)
        pole |= (base == 0.0) & (power < 0.0)
        val = val * base ** power
    return np.where(pole, math.inf, val)


def _toward(factors: _Factors, r_to_inf: bool) -> Tuple[float, float, float, float]:
    """(kappa, m, C, reach) with the product ~ C T^kappa (log T)^m as T -> inf,
    r = T or 1/T, and equal to it to rounding where log T >= reach.  Each
    factor's base is led by its parts of largest g, then m; another part
    c e^L T^g' (log T)^m' is rounding once |c| e^L T^(g' - g) is _ROUNDING
    times the lead (at half the rate with a log; never if c or the lead
    overflows).  The leads' scales e^L stay in logs until C is formed.  A
    limit that over- or underflows is left to the caller's errstate."""
    kappa, logs, limit, scale, reach = 0.0, 0.0, np.float64(1.0), 0.0, -math.inf
    for terms, power in factors:
        parts = [part for term in terms for part in term.growth(r_to_inf)]
        g = max(part[0] for part in parts)
        m = max(mj for gj, mj, _, _ in parts if gj >= g - EXPONENT_TOLERANCE)
        leads, rest = [], []
        for part in parts:
            (leads if part[0] >= g - EXPONENT_TOLERANCE and part[1] == m else rest).append(part)
        ref = max(s for _, _, _, s in leads)
        lead = sum(c * np.exp(s - ref) for _, _, c, s in leads)
        for gj, mj, c, s in rest:
            ratio, gap = abs(c) / (_ROUNDING * lead), (g - gj) / (1.0 + mj)
            reach = max(reach, (np.log(ratio) + (s - ref)) / gap if 0.0 < ratio < math.inf
                        and gap > EXPONENT_TOLERANCE else math.inf)
        kappa += power * g
        logs += power * m
        limit *= lead ** power
        scale += power * ref
    return kappa, logs, float(limit * np.exp(scale)), reach


def _scan(factors: _Factors, label: str) -> ConditionReport:
    """Divergent when a bracket diverges at the end it integrates from or the
    product ~ C T^kappa (log T)^m is unbounded toward r -> inf or r -> 0;
    else the supremum of the reads between the breakpoints and the ends'
    reach, and of the limits C where kappa = m = 0."""
    terms = [t for ts, _ in factors for t in ts]
    if any(t.integrand.diverges_at_infinity if t.upper else t.integrand.diverges_at_zero
           for t in terms):
        return ConditionReport(math.inf, math.nan, "divergent", "inner-integral endpoint", label)
    # The fastest rate in log r of r, a read, a weight power or a partial
    # product: none leaves the floats within 600 / rate of the breakpoints.
    rate = max(1.0, max(1.0, sum(abs(p) for _, p in factors)) * max(t.rate() for t in terms))
    kinked = any(t.kinks() for t in terms)
    breaks = np.concatenate([t.breaks() for t in terms]) if kinked else ()
    lo, hi = (breaks.min(), breaks.max()) if kinked else (0.0, 0.0)
    limits, ends = [], []
    with np.errstate(all="ignore"):  # a limit that over- or underflows; 0 ** -p, 0 * inf
        for site, sign, r_end in (("r->inf", 1.0, math.inf), ("r->0", -1.0, 0.0)):
            kappa, logs, limit, reach = _toward(factors, sign > 0.0)
            if kappa > EXPONENT_TOLERANCE or (kappa >= -EXPONENT_TOLERANCE
                                              and logs > EXPONENT_TOLERANCE):
                return ConditionReport(math.inf, r_end, "divergent", site, label)
            if abs(kappa) <= EXPONENT_TOLERANCE and abs(logs) <= EXPONENT_TOLERANCE:
                limits.append((r_end, limit))
            edge = sign * (hi if sign > 0.0 else lo)  # the outermost breakpoint, in log T
            if reach > edge:  # the end segment, from it to the reach
                ends.append(sign * min(reach, edge + 600.0 / rate))
        reads = ()  # neither breakpoint nor reach: the constant C
        if kinked or ends:
            edges = np.union1d(breaks, ends + [lo, hi] if ends else [])
            reads = np.sort(np.concatenate([edges] + [
                np.linspace(a, b, _INNER + int((b - a) * rate) + 2)[1:-1]
                for a, b in zip(edges, edges[1:])]))
        rep = _sup_scan(lambda r: _product(factors, r), label, reads, limits)
    if not rep.sup_value < math.inf:  # an infinite bracket, or a zero one under a negative power
        rep.verdict = "divergent" if rep.sup_value == math.inf else "indeterminate"
        rep.divergence_site = "inner-integral endpoint" if rep.sup_value == math.inf else None
    return rep


def hardy_pair_condition(u: Weight, v: Weight, s: Weight, w: Weight, exps: ExponentSet,
                         brackets: Optional[BracketTable] = None
                         ) -> Tuple[ConditionReport, ConditionReport]:
    """The two Hardy-type supremum conditions.

    First:  sup_r (int_0^(1/r) u w^(q/a'))^(1/q) (int_0^r v^(1-p') s^(p'/a'))^(1/p')
    Second: sup_r (int_(1/r)^inf u w^(q(1/a'-1/2)))^(1/q)
                  (int_r^inf v^(1-p') s^(p'(1/a'-1/2)))^(1/p')

    ``brackets`` is the config's table (a new one when not given).
    """
    brackets = BracketTable() if brackets is None else brackets
    q, p_prime, inv_a = exps.q, exps.p_prime, exps.inv_a_prime

    c_a1 = brackets.product([(u, 1.0), (w, q * inv_a)])
    c_b1 = brackets.product([(v, 1.0 - p_prime), (s, p_prime * inv_a)])
    rep1 = _scan([([_Term(c_a1, inverted=True)], 1.0 / q), ([_Term(c_b1)], 1.0 / p_prime)],
                 "hardy_condition_1")

    c_a2 = brackets.product([(u, 1.0), (w, q * (inv_a - 0.5))])
    c_b2 = brackets.product([(v, 1.0 - p_prime), (s, p_prime * (inv_a - 0.5))])
    rep2 = _scan([([_Term(c_a2, upper=True, inverted=True)], 1.0 / q),
                  ([_Term(c_b2, upper=True)], 1.0 / p_prime)],
                 "hardy_condition_2")
    return rep1, rep2


def glued_condition(u: Weight, v: Weight, s: Weight, w: Weight, exps: ExponentSet,
                    brackets: Optional[BracketTable] = None) -> ConditionReport:
    """The single four-term supremum equivalent (under the s-w duality
    s(x) w(1/x) comparable to 1, a = 1) to the simultaneous Hardy pair; its
    four brackets are the pair's.  s(x) w(1/x) is log-linear between the
    nodes of s and the reciprocals of those of w, and a power beyond them:
    its end exponents must be 0 and its values there in [1/3, 3]."""
    if not math.isinf(exps.a_prime):
        raise ValueError("the glued condition applies to a = 1")
    ratio = [s(x) * w(1.0 / x) for x in s.nodes + tuple(1.0 / y for y in w.nodes)]
    ends = (s.exponents[0] - w.exponents[-1], s.exponents[-1] - w.exponents[0])
    if max(map(abs, ends)) > EXPONENT_TOLERANCE or not all(1.0 / 3.0 <= r <= 3.0 for r in ratio):
        raise InverseRelationViolated(
            f"s(x) w(1/x) has end exponents {ends[0]:g}, {ends[1]:g} and ranges over "
            f"[{min(ratio):.3g}, {max(ratio):.3g}] at the nodes")

    brackets = BracketTable() if brackets is None else brackets
    q, p_prime = exps.q, exps.p_prime
    # (int_0^t v^(1-p') + s(t)^(p'/2) int_t^inf v^(1-p') s^(-p'/2))^(1/p')
    b1 = [_Term(brackets.product([(v, 1.0 - p_prime)])),
          _Term(brackets.product([(v, 1.0 - p_prime), (s, -0.5 * p_prime)]), upper=True,
                weight=s, weight_power=0.5 * p_prime)]
    # (w(1/t)^(q/2) int_(1/t)^inf u w^(-q/2) + int_0^(1/t) u)^(1/q)
    b2 = [_Term(brackets.product([(u, 1.0), (w, -0.5 * q)]), upper=True, inverted=True,
                weight=w, weight_power=0.5 * q),
          _Term(u, inverted=True)]
    return _scan([(b1, 1.0 / p_prime), (b2, 1.0 / q)], "glued")


def lorentz_necessity_condition(u: Weight, v: Weight, s: Weight, exps: ExponentSet
                                ) -> ConditionReport:
    """sup_r (int_0^(1/r) u)^(1/q) (int_0^r v)^(-1/p) (int_0^r s)."""
    return _scan([([_Term(u, inverted=True)], 1.0 / exps.q),
                  ([_Term(v)], -1.0 / exps.p),
                  ([_Term(s)], 1.0)], "lorentz_necessity")


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
        return {**vars(self), "excluded": list(self.excluded)}


def _require_strict(spec: TransformSpec) -> None:
    if not spec.kernel.envelope.strict:
        raise EnvelopeNotStrict(
            f"{spec.name}: envelope exponents satisfy b1 - b2 = "
            f"{spec.kernel.envelope.b1 - spec.kernel.envelope.b2:g} <= 0")


def _relation_offset(spec: TransformSpec, exps: ExponentSet) -> float:
    return spec.c0 - spec.b0 + 1.0 / exps.q - 1.0 / exps.p_prime


def power_pitt_range(spec: TransformSpec, exps: ExponentSet
                     ) -> Tuple[RangeVerdict, Optional[RangeVerdict]]:
    """Sufficient exponent range from the two-regime power envelope, and a
    sharp (iff) range where the kernel oscillates: Pitt's range [max(1/q -
    1/p', 0) + c0 + b2, 1/q + c0 + b1) with the two-factor estimate, else
    the sufficient range itself for an exact envelope."""
    _require_strict(spec)
    env, oscillatory = spec.kernel.envelope, spec.kernel.oscillatory
    q, pp = exps.q, exps.p_prime
    offset = _relation_offset(spec, exps)
    suff = RangeVerdict("power_sufficient",
                        1.0 / q + spec.c0 + env.b2, 1.0 / q + spec.c0 + env.b1,
                        False, False, offset)

    sharp: Optional[RangeVerdict] = None
    if oscillatory and spec.kernel_est_holds:
        sharp = RangeVerdict("power_sharp", max(1.0 / q - 1.0 / pp, 0.0) + spec.c0 + env.b2,
                             suff.hi, True, False, offset, sharp=True)
    elif oscillatory and env.exact:
        sharp = RangeVerdict("power_sharp", suff.lo, suff.hi, False, False, offset, sharp=True)
    return suff, sharp


def gm_power_range(spec: TransformSpec, exps: ExponentSet) -> RangeVerdict:
    """Exponent range valid for admissible general-monotone functions,
    driven by the primitive bound (b >= 0, c < b1) instead of the kernel's
    large-argument envelope; sharp wherever it exists."""
    pb = spec.primitive_bound
    if pb is None:
        raise MissingPrimitiveBound(spec.name)
    env = spec.kernel.envelope
    if pb.b < 0 or pb.c >= env.b1:
        raise ValueError("gm range needs primitive bound with b >= 0 and c < b1")
    return RangeVerdict("gm_range", 1.0 / exps.q + spec.c0 + pb.c,
                        1.0 / exps.q + spec.c0 + env.b1, False, False,
                        _relation_offset(spec, exps), sharp=True)


def vanishing_moment_range(spec: TransformSpec, n: int, exps: ExponentSet) -> RangeVerdict:
    """Extended range when the first n kernel-series moments of f vanish,
    with the excluded interior lattice points."""
    series = spec.kernel.series
    if series is None:
        raise NoSeriesKernel(spec.name)
    if n < 1:
        raise ValueError("n must be >= 1")
    base = 1.0 / exps.q + spec.c0 + series.b1
    k = float(series.step)
    excluded = tuple(base + j * k for j in range(1, n))
    return RangeVerdict("vanishing_moment_range", base, base + n * k,
                        False, False, _relation_offset(spec, exps), excluded)


# ---------------------------------------------------------------------------
# scan route for pure power weights
# ---------------------------------------------------------------------------

def power_hardy_verdict(spec: TransformSpec, exps: ExponentSet,
                        beta: float, gamma: float) -> Tuple[ConditionReport, ConditionReport]:
    """Scan verdict for pure power weights u = y^(-beta q), v = x^(gamma p)
    through the reduction to the model setting s = w = x^(2d), a = 1, with
    d the envelope exponent drop."""
    _require_strict(spec)
    env = spec.kernel.envelope
    d = env.b1 - env.b2
    beta_red = beta - spec.c0 - env.b1
    gamma_red = gamma - spec.b0 - env.b1
    exps_a1 = ExponentSet(p=exps.p, q=exps.q, a=1.0)
    u = Weight.power(-beta_red * exps.q)
    v = Weight.power(gamma_red * exps.p)
    sw = Weight.power(2.0 * d)
    return hardy_pair_condition(u, v, sw, sw, exps_a1)


# ---------------------------------------------------------------------------
# kernel diagnostics in t = xy
# ---------------------------------------------------------------------------

# Reads lie _STEP apart in s = log t (t <= 1), t - 1 (t > 1): 16 to a period
# 2 pi.  The read nearest a lobe's peak A is at least A cos(_STEP / 2), so a
# lobe read below _LOBE times the best is not refined.  Reads past the
# crossover come _BATCH at a time, until the far end's bound is within _END
# of the best value.
_STEP = math.pi / 8.0
_LOBE = math.cos(0.5 * _STEP)
_END = 4.0 * np.finfo(float).eps
_BATCH = 32


@dataclass
class EnvelopeReport:
    max_ratio: float
    argmax_t: float  # 0 or inf where the supremum is an end limit
    min_ratio: Optional[float] = None  # only for exact (two-sided) envelopes
    argmin_t: Optional[float] = None


def _t(s: np.ndarray) -> np.ndarray:
    """t at the read abscissa s."""
    return np.where(s > 0.0, 1.0 + s, np.exp(np.minimum(s, 0.0)))


def _terms(c: np.ndarray, power: float, step: float, t: float) -> Tuple[np.ndarray, float]:
    """(terms, bar) of sum_j c_j t^(power - step j) (nan c_j as 0): its terms
    to the smallest at t, and twice the first omitted (``_cut``); bounds
    beyond t where no term grows, limits at 0, inf."""
    c = np.append(c, (0.0, 0.0))  # a term past the cut, and one for ``_cut`` to read past it
    with np.errstate(invalid="ignore", divide="ignore"):  # 0 inf where c_j = 0
        tau = np.where(np.abs(c) > 0.0, c * np.float64(t) ** (power - step * np.arange(len(c))), 0.0)
    if not 0.0 < abs(tau[0]) < math.inf:
        return tau[:1], 0.0
    n, rest = _cut(np.abs(tau))
    return tau[:n + 1], rest * abs(tau[0])


def _extremes(ratio: Callable[[np.ndarray], np.ndarray], near: Optional[list], far: list,
              crossover: float, sign: float = 1.0, signed: bool = False) -> Tuple[float, float]:
    """(C, t): the supremum (sign 1) or infimum (sign -1) of ``ratio`` over
    t > 0 (t >= 1 without a ``near`` end) and where it is attained, t = 0 or
    inf for an end limit.  An end is a list of series (c, power, step): past
    t the ratio lies within their ``_terms`` of the first one's lead, c >= 0.
    A ``signed`` far end (a supremum only) keeps the signs of its c: there
    each term lies between 0 and its value at t, so |ratio| is at most the
    larger of the sums of its positive and its negative terms.  The reads
    span from where the near end's bound, to where the far end's (by
    _REACH_CAP past the crossover, else NonConvergence), is within _END of
    the best value; ``_sup_scan`` refines each lobe read near the best."""
    def bound(end: list, t: float, signed: bool = False) -> float:  # of sign * ratio, beyond t
        parts = [_terms(c, power, step, t) for c, power, step in end]
        if signed:
            return max(sum(float(np.sum(np.maximum(s * terms, 0.0))) + bar for terms, bar in parts)
                       for s in (1.0, -1.0))
        (lead, rest), *others = [(float(terms[0]), float(np.sum(terms[1:]) + bar))
                                 for terms, bar in parts]
        return sign * lead + rest + sum(a + b for a, b in others)

    def read(s: np.ndarray) -> float:
        """The best value so far, with the reads at s and their lobes near it."""
        v = sign * ratio(_t(s))
        edge = max(best, float(np.max(v))) * _LOBE ** sign
        for i in np.flatnonzero(np.r_[True, v[1:] >= v[:-1]] & np.r_[v[:-1] > v[1:], True]
                                & (v >= edge)).tolist():
            rep = _sup_scan(lambda r: sign * ratio(np.maximum(_t(s[i] + np.log(r)), t_min)),
                            "kernel constant", s[max(i - 1, 0):i + 2] - s[i], [])
            found.append((rep.sup_value, max(float(_t(s[i] + math.log(rep.argmax_r))), t_min)))
        return max(value for value, _ in found)

    found = [(sign * max(sign * bound(end, t, end is far and signed), 0.0), t)  # at the ends
             for t, end in ((0.0, near), (math.inf, far)) if end]
    best = max(value for value, _ in found)
    lo, hi, t_min = 0, math.ceil((crossover - 1.0) / _STEP), 0.0 if near else 1.0
    while near and bound(near, math.exp(lo * _STEP)) > best + abs(best) * _END:
        lo -= 1
    best = read(_STEP * np.arange(lo, hi + 1))
    while bound(far, 1.0 + hi * _STEP, signed) > best + abs(best) * _END:
        if hi * _STEP > crossover + _REACH_CAP:
            raise NonConvergence(math.nan, math.inf, f"no far-field bound within "
                                 f"{_REACH_CAP} of the crossover meets the best read")
        # from the last read on, so a lobe across it is seen whole
        best, hi = read(_STEP * np.arange(hi, hi + _BATCH + 1)), hi + _BATCH
    value, t = max(found, key=lambda pair: pair[0])
    return sign * value, t


def check_envelope(kernel: KernelSpec) -> EnvelopeReport:
    """The supremum over t of |phi(t)| / min{t^b1, t^b2}, and for an exact
    envelope its infimum (``_extremes``): toward 0 the series over t^b1, led
    by |a_0|, toward inf the far field over t^b2, the drift's lead steady.
    Raises ValueError for a kernel without a series and a far field."""
    series, far = kernel.series or kernel.near, kernel.far_field
    if series is None or far is None:
        raise ValueError(f"{kernel.kind}: the envelope constant is read from the expansions")
    env = kernel.envelope
    low, high = sorted((env.b1, env.b2))  # the envelope's powers beyond t = 1 and below it
    ends = (lambda t: np.abs(kernel.phi(t)) / env.bound(t),
            [(np.abs(series.coefs), series.b1 - high, -series.step)],
            [(np.abs(far.drift), far.drift_power - low, 2.0),
             (abs(far.scale) * np.abs(far.osc), far.osc_power - low, 1.0)], kernel.crossover)
    return EnvelopeReport(*_extremes(*ends), *(_extremes(*ends, -1.0) if env.exact else ()))


def primitive_bound(kernel: KernelSpec, nu: float) -> Tuple[float, float]:
    """(C, argmax_t): the supremum over t > 0 of |Phi_nu(t)| / min{t^k_near,
    t^k_far} (``primitive_exponents``), from the dilation table of (kernel,
    nu): toward 0 its series integrated, sum a_m t^(e_m+1)/(e_m+1), toward
    inf the Mellin constant plus the far field integrated, whose terms keep
    their signs where it does not oscillate (``_extremes``).  The primitive
    of t^nu phi(t y) is y^(-nu-1) Phi_nu(xy), so C bounds it for every x and
    y.  Raises ValueError where t^nu phi(t) is not integrable at 0."""
    k_near, k_far = integrable_exponents(kernel, nu)
    table, signed = _table(kernel, nu), not kernel.oscillatory
    far, step = table.far_field, (kernel.series or kernel.near).step
    s = nu + far.drift_power + 1.0 - 2.0 * np.arange(len(far.drift))
    with np.errstate(invalid="ignore"):  # 0 / 0 past a drift that ends
        drift, mellin = np.asarray(far.drift) / s, np.array([table.mellin()[0]])
    if not signed:
        drift, mellin = np.abs(drift), np.abs(mellin)
    return _extremes(lambda t: np.abs(table.integral(np.zeros(len(t)), t)[0])
                     / np.minimum(t ** k_near, t ** k_far),
                     [(np.abs(table.coefs / (table.exponents + 1.0)),
                       table.exponents[0] + 1.0 - k_near, -step)],
                     [(mellin, -k_far, 1.0),
                      (abs(far.scale) * table.osc_e_abs, table.osc_power - k_far, 1.0),
                      (drift, nu + far.drift_power + 1.0 - k_far, 2.0)], kernel.crossover,
                     signed=signed)


@dataclass
class OinarovReport:
    n_values: List[float]
    d_required: List[float]
    verdict: str  # "bounded" | "unbounded" | "indeterminate"
    exponent: Optional[float] = None  # kappa in d(N) ~ N^kappa, for an exact envelope
    feasible_d: Optional[float] = None


def oinarov_check(kernel: KernelSpec,
                  n_grid: Sequence[float] = (10.0, 100.0, 1000.0),
                  ab_pairs: Sequence[Tuple[float, float]] = ((2.0, 1.0), (3.0, 1.0))
                  ) -> OinarovReport:
    """Smallest d with d^-1 (K(t,u) + K(u,v)) <= K(t,v) <= d (K(t,u) + K(u,v))
    on the triples t = N^a, u = N^b, v = N^(-(a+b)/2), a > b > 0, read at
    each N: tu, uv and tv are N^s, s = a + b, (b - a)/2, (a - b)/2.  For an
    exact envelope phi(N^s) is comparable to N^e(s), e(s) = s b1 (s < 0) and
    s b2 (s > 0), so d(N) ~ N^kappa, kappa the largest over the pairs of
    |max(e_tu, e_uv) - e_tv|: bounded iff kappa = 0; else indeterminate."""
    a, b = np.reshape(np.asarray(ab_pairs, dtype=float), (-1, 2)).T
    if not np.all((a > b) & (b > 0.0)):
        raise ValueError("pairs must satisfy a > b > 0")
    s = np.array([a + b, 0.5 * (b - a), 0.5 * (a - b)])
    k = kernel.phi(np.asarray(n_grid, dtype=float)[:, None, None] ** s)  # [N, tu|uv|tv, pair]
    k_tv, total = k[:, 2], k[:, 0] + k[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):  # d is inf where a K is not positive
        d = np.where((k_tv > 0.0) & (total > 0.0), np.maximum(total / k_tv, k_tv / total), math.inf)
    d_req, env = np.max(d, axis=1, initial=1.0).tolist(), kernel.envelope
    if not env.exact:
        return OinarovReport(list(n_grid), d_req, "indeterminate")
    e = s * np.where(s < 0.0, env.b1, env.b2)
    kappa = float(np.max(np.abs(np.maximum(e[0], e[1]) - e[2])))
    if kappa > EXPONENT_TOLERANCE:
        return OinarovReport(list(n_grid), d_req, "unbounded", kappa)
    return OinarovReport(list(n_grid), d_req, "bounded", kappa, feasible_d=max(d_req))


# ---------------------------------------------------------------------------
# general monotonicity
# ---------------------------------------------------------------------------

# The dilation constant: M(x) grows with it, so the least C cannot grow.
_GM_LAMBDA = 8.0


def _gm_ratio(f: TestFunction, x: np.ndarray) -> np.ndarray:
    """R(x) = x V(x) / M(x) at each x of an array, 0 where V is: V the
    variation of f on the closed [x, 2x] (each piece's |c| |b^e - a^e| on its
    part [a, b] of it, plus every jump in it, its ends included), M the
    integral of |f| over [x / lambda, lambda x]."""
    v = np.zeros_like(x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for p in f.pieces:
            a, b = np.maximum(x, p.lo), np.minimum(2.0 * x, p.hi)
            v += np.where(b > a, abs(p.coef) * np.abs(b ** p.exponent - a ** p.exponent), 0.0)
        mass = f.abs_weighted_integral(0.0, x / _GM_LAMBDA, _GM_LAMBDA * x)
        for s in f.breakpoints:
            jump = sum((p.coef if p.hi == s else -p.coef) * s ** p.exponent
                       for p in f.pieces if s in (p.lo, p.hi))
            v += np.where((x <= s) & (s <= 2.0 * x), abs(jump), 0.0)
        return np.where(v > 0.0, x * v / mass, 0.0)


def check_gm(f: Callable) -> Optional[GMWitness]:
    """The general-monotonicity witness (C, lambda = 8) of a test function:
    the least C with var_[x,2x] f <= (C/x) int_(x/lambda)^(lambda x) |f| for
    every x > 0, the supremum of ``_gm_ratio``.

    R is smooth between the events b, b/2, b/lambda and lambda b of each
    breakpoint b, and counting the jumps at both ends of [x, 2x] makes its
    read at an event at least both one-sided limits.  From the outermost
    events on, the window sees one end piece c x^e alone, where R is the
    constant |2^e - 1| / int_(1/lambda)^lambda t^e dt (1/(4 log lambda) at
    e = -1; 0 where f vanishes), and one piece on (0, inf) has it
    everywhere.  So the scan reads every event (those of x = 1 without
    breakpoints) and points inside each segment between them, and refines
    about the best read (``_sup_scan``).

    One lambda serves: M only grows with lambda, so R and C cannot.
    A callable without closed-form pieces, such as np.sin, gets None: no
    constant can be certified for it.  So does a constant on (0, inf), where
    V and so C are 0; every other test function has finitely many pieces
    and gets a finite witness."""
    if not isinstance(f, TestFunction):
        return None
    events = np.unique(np.outer(f.breakpoints or (1.0,), (1.0 / _GM_LAMBDA, 0.5, 1.0, _GM_LAMBDA)))
    t, rate = np.log(events), 1.0 + max(abs(p.exponent) for p in f.pieces)
    reads = np.sort(np.concatenate([t] + [np.linspace(a, b, _INNER + int((b - a) * rate) + 2)[1:-1]
                                          for a, b in zip(t, t[1:])]))
    # The events read in x as well: exp(log(b/2)) can miss b by a rounding,
    # and so the jump there.  lambda and 1/2 are powers of 2, so b/2 is exact.
    c = max(float(np.max(_gm_ratio(f, events))),
            _sup_scan(lambda x: _gm_ratio(f, x), "general monotonicity", reads, []).sup_value)
    return GMWitness(C=c, lam=_GM_LAMBDA) if c > 0.0 else None
