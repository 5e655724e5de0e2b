"""Weight-condition evaluators: Hardy-type supremum pairs, the glued
single-condition form, the Lorentz-space necessity condition, closed-form
power ranges per transform, and the kernel additivity (Oinarov) diagnostic.

Every weight is a piecewise power, and so is a product of weight powers
(``Weight.product``): every bracket is the exact ``Weight.integral`` of
one, a sum of closed-form power segments between its nodes, continued with
its end exponents beyond them.

One ``BracketTable`` per config builds each distinct bracket integrand
once and reads each bracket on the scan grid once, for every condition of
the config: at a = 1 the glued condition's brackets are the Hardy pair's,
and the Lorentz condition's u-bracket is the pair's first for every a.

Each condition states its bracket product once, as a list of factors
(sums of weight-power x bracket-read terms, raised to a power).  By the
brackets' end exponents a read that integrates from a non-integrable end
is infinite, and otherwise every read tends to 0, a constant, log x or
x^(e+1), so the product behaves like C r^kappa (log r)^m at both ends and
is unbounded iff kappa > 0, or kappa = 0 and m > 0.  A bounded product is
scanned on a 60-point log r-grid, then zoomed in five rounds of 17 points
spanning one spacing of the round before about the best point so far; a
limit C (kappa = m = 0) above the scan is the supremum, at r = 0 or inf.
A product constant on the grid to 1e-9 reports no argmax.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .kernels import KernelSpec
from .weights import ExponentSet, Weight
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
# supremum scans
# ---------------------------------------------------------------------------

@dataclass
class ConditionReport:
    sup_value: float
    argmax_r: Optional[float]  # None for a constant product
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


# The scan's r-grid, shared by every scan and so read-only.  Zoom rounds of the scan: each
# reads _ZOOM_POINTS points spanning one spacing of the previous round on
# either side of the best point so far, so the spacing shrinks 8x per round.
# From the 60-point grid's spacing ln(1e12)/59 five rounds reach 1.4e-5 in
# log r.
_SCAN_R = np.geomspace(1e-6, 1e6, 60)
_SCAN_R.flags.writeable = False
_SCAN_ENDS = math.log(_SCAN_R[0]), math.log(_SCAN_R[-1])
_SCAN_SPACING = (_SCAN_ENDS[1] - _SCAN_ENDS[0]) / (len(_SCAN_R) - 1)
_ZOOM_ROUNDS = 5
_ZOOM_POINTS = 17
# Grid products this close (relative) are constant: the tolerance of the
# quadrature brackets the scans once read, kept so flat reports stay flat.
_FLAT_SPREAD = 1e-9


def _sup_scan(product: Callable[[np.ndarray], np.ndarray], label: str = "") -> ConditionReport:
    vals = product(_SCAN_R)
    trace = list(zip(_SCAN_R.tolist(), vals.tolist()))
    i = int(np.argmax(vals))
    if vals[i] - np.min(vals) <= _FLAT_SPREAD * abs(vals[i]) < math.inf:
        return ConditionReport(float(vals[i]), None, "finite", None, trace, label)
    ends = _SCAN_ENDS
    best_t, best_v = math.log(_SCAN_R[i]), float(vals[i])
    half = _SCAN_SPACING
    for _ in range(_ZOOM_ROUNDS):
        ts = np.linspace(max(best_t - half, ends[0]), min(best_t + half, ends[1]), _ZOOM_POINTS)
        vals = product(np.exp(ts))
        j = int(np.argmax(vals))
        if vals[j] > best_v:
            best_t, best_v = float(ts[j]), float(vals[j])
        half *= 2.0 / (_ZOOM_POINTS - 1)
    return ConditionReport(best_v, math.exp(best_t), "finite", None, trace, label)


class BracketTable:
    """The brackets of one config: each product of weight powers built once
    (``product``, keyed by its factors: weights by identity, powers other
    than 0), and each bracket read on the scan grid once (``read``, keyed
    by integrand, direction and argument).  Reads at other r, the zoom
    rounds', are not kept.  The table holds its weights, so their
    identities stay distinct while it lives; make one per config."""

    def __init__(self):
        self._products = {}
        self._scan_reads = {}

    def product(self, factors: Sequence[Tuple[Weight, float]]) -> Weight:
        key = tuple((w, float(p)) for w, p in factors if p != 0.0)
        if key not in self._products:
            self._products[key] = Weight.product(key)
        return self._products[key]

    def read(self, integrand: Weight, upper: bool, inverted: bool, r: np.ndarray) -> np.ndarray:
        """integrand's integral from 0 to x, or from x to inf when ``upper``,
        at x = r, or 1/r when ``inverted``."""
        if r is not _SCAN_R:
            return integrand.integral(1.0 / r if inverted else r, upper)
        key = (integrand, upper, inverted)
        if key not in self._scan_reads:
            self._scan_reads[key] = integrand.integral(1.0 / r if inverted else r, upper)
        return self._scan_reads[key]


@dataclass(frozen=True)
class _Term:
    """One bracket read at x = r, or x = 1/r when ``inverted``: the integral
    of ``integrand`` from 0 to x, or from x to inf when ``upper``, times
    ``weight ** weight_power`` at x."""

    integrand: Weight
    upper: bool = False
    inverted: bool = False
    weight: Optional[Weight] = None
    weight_power: float = 0.0

    def value(self, r: np.ndarray, brackets: BracketTable) -> np.ndarray:
        read = brackets.read(self.integrand, self.upper, self.inverted, r)
        if self.weight is None:
            return read
        x = 1.0 / r if self.inverted else r
        return np.asarray(self.weight(x), dtype=float) ** self.weight_power * read

    def growth(self, r_to_inf: bool) -> Tuple[float, float, float]:
        """(g, m, c) with the term ~ c T^g (log T)^m as T -> inf, where r = T
        (``r_to_inf``) or r = 1/T."""
        x_to_inf = r_to_inf != self.inverted
        # Beyond the outermost node the integrand is k x^(end exponent), and
        # integrated from 1 toward the end x tends to it grows like T^e.  The
        # read is ~ k T^e / |e| where it integrates from that end or grows,
        # ~ k log T where e = 0, and else ~ the whole integral.
        f = self.integrand
        e = f.exponent_at_infinity + 1.0 if x_to_inf else -(f.exponent_at_zero + 1.0)
        k = f.end_coefficient(x_to_inf)
        if self.upper == x_to_inf or e > EXPONENT_TOLERANCE:
            g, m, c = e, 0.0, k / abs(e)
        elif e >= -EXPONENT_TOLERANCE:
            g, m, c = 0.0, 1.0, k
        else:
            g, m, c = 0.0, 0.0, f.total
        if self.weight is not None:
            g += self.weight_power * (self.weight.exponent_at_infinity if x_to_inf
                                      else -self.weight.exponent_at_zero)
            c *= self.weight.end_coefficient(x_to_inf) ** self.weight_power
        return g, m, c


# A bracket product: the product over its factors (terms, power) of
# (sum of the terms) ** power.
_Factors = Sequence[Tuple[Sequence[_Term], float]]


def _product(factors: _Factors, r: np.ndarray, brackets: BracketTable) -> np.ndarray:
    """The product at every r of an array; inf where a base is 0 under a
    negative power."""
    val = np.ones_like(r)
    pole = np.zeros(r.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 ** -p and 0 * inf
        for terms, power in factors:
            base = sum(term.value(r, brackets) for term in terms)
            pole |= (base == 0.0) & (power < 0.0)
            val = val * base ** power
    return np.where(pole, math.inf, val)


def _toward(factors: _Factors, r_to_inf: bool) -> Tuple[float, float, float]:
    """(kappa, m, C) with the product ~ C T^kappa (log T)^m as T -> inf, r = T
    or 1/T; each factor's base is led by its terms of largest g, then m."""
    kappa, logs, limit = 0.0, 0.0, np.float64(1.0)
    with np.errstate(all="ignore"):  # a limit that over- or underflows
        for terms, power in factors:
            growths = [term.growth(r_to_inf) for term in terms]
            g = max(gj for gj, _, _ in growths)
            m = max(mj for gj, mj, _ in growths if gj >= g - EXPONENT_TOLERANCE)
            kappa += power * g
            logs += power * m
            limit *= sum(c for gj, mj, c in growths
                         if gj >= g - EXPONENT_TOLERANCE and mj == m) ** power
    return kappa, logs, float(limit)


def _scan(factors: _Factors, label: str, brackets: BracketTable) -> ConditionReport:
    """Divergent when a bracket diverges at the end it integrates from or the
    product ~ C T^kappa (log T)^m is unbounded toward r -> inf or r -> 0;
    else the supremum of the scan and of the limits C where kappa = m = 0."""
    if any(t.integrand.diverges_at_infinity if t.upper else t.integrand.diverges_at_zero
           for terms, _ in factors for t in terms):
        return ConditionReport(math.inf, math.nan, "divergent",
                               "inner-integral endpoint", [], label)
    limits = []
    for site, r_to_inf, r_end in (("r->inf", True, math.inf), ("r->0", False, 0.0)):
        kappa, logs, limit = _toward(factors, r_to_inf)
        if kappa > EXPONENT_TOLERANCE or (kappa >= -EXPONENT_TOLERANCE
                                          and logs > EXPONENT_TOLERANCE):
            return ConditionReport(math.inf, r_end, "divergent", site, [], label)
        if abs(kappa) <= EXPONENT_TOLERANCE and abs(logs) <= EXPONENT_TOLERANCE:
            limits.append((r_end, limit))
    with np.errstate(invalid="ignore"):  # the flatness test of an infinite product
        rep = _sup_scan(lambda r: _product(factors, r, brackets), label)
    for r_end, limit in limits:  # a limit that beats the scan is the supremum
        if limit - rep.sup_value > _FLAT_SPREAD * abs(rep.sup_value):
            rep.sup_value, rep.argmax_r = limit, r_end
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
    q, p_prime, a_prime = exps.q, exps.p_prime, exps.a_prime
    inv_a = 0.0 if math.isinf(a_prime) else 1.0 / a_prime

    c_a1 = brackets.product([(u, 1.0), (w, q * inv_a)])
    c_b1 = brackets.product([(v, 1.0 - p_prime), (s, p_prime * inv_a)])
    rep1 = _scan([([_Term(c_a1, inverted=True)], 1.0 / q), ([_Term(c_b1)], 1.0 / p_prime)],
                 "hardy_condition_1", brackets)

    c_a2 = brackets.product([(u, 1.0), (w, q * (inv_a - 0.5))])
    c_b2 = brackets.product([(v, 1.0 - p_prime), (s, p_prime * (inv_a - 0.5))])
    rep2 = _scan([([_Term(c_a2, upper=True, inverted=True)], 1.0 / q),
                  ([_Term(c_b2, upper=True)], 1.0 / p_prime)],
                 "hardy_condition_2", brackets)
    return rep1, rep2


# Where the glued condition checks s(x) w(1/x) ~ 1.
_GLUED_GRID = np.geomspace(1e-3, 1e3, 40)
_GLUED_GRID.flags.writeable = False


def glued_condition(u: Weight, v: Weight, s: Weight, w: Weight, exps: ExponentSet,
                    brackets: Optional[BracketTable] = None) -> ConditionReport:
    """The single four-term supremum equivalent (under the s-w duality
    s(x) w(1/x) comparable to 1, a = 1) to the simultaneous Hardy pair; its
    four brackets are the pair's."""
    if not math.isinf(exps.a_prime):
        raise ValueError("the glued condition applies to a = 1")
    ratio = np.asarray(s(_GLUED_GRID), dtype=float) * np.asarray(w(1.0 / _GLUED_GRID), dtype=float)
    if np.any(ratio < 1.0 / 3.0) or np.any(ratio > 3.0):
        raise InverseRelationViolated(
            f"s(x) w(1/x) ranges over [{ratio.min():.3g}, {ratio.max():.3g}]")

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
    return _scan([(b1, 1.0 / p_prime), (b2, 1.0 / q)], "glued", brackets)


def lorentz_necessity_condition(u: Weight, v: Weight, s: Weight, exps: ExponentSet,
                                brackets: Optional[BracketTable] = None) -> ConditionReport:
    """sup_r (int_0^(1/r) u)^(1/q) (int_0^r v)^(-1/p) (int_0^r s)."""
    return _scan([([_Term(u, inverted=True)], 1.0 / exps.q),
                  ([_Term(v)], -1.0 / exps.p),
                  ([_Term(s)], 1.0)], "lorentz_necessity",
                 BracketTable() if brackets is None else brackets)


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
                        1.0 / q + spec.c0 + env.b2, 1.0 / q + spec.c0 + env.b1,
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
    driven by the primitive bound (b >= 0, c < b1) instead of the kernel's
    large-argument envelope."""
    pb = spec.primitive_bound
    if pb is None:
        raise MissingPrimitiveBound(spec.name)
    env = spec.kernel.envelope
    if pb.b < 0 or pb.c >= env.b1:
        raise ValueError("gm range needs primitive bound with b >= 0 and c < b1")
    offset = _relation_offset(spec, exps)
    sharp = spec.name in ("hankel", "sine", "cosine", "scripth")
    verdict = RangeVerdict("gm_range", 1.0 / exps.q + spec.c0 + pb.c,
                           1.0 / exps.q + spec.c0 + env.b1, False, False,
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
    base = 1.0 / exps.q + spec.c0 + series.b1
    k = float(series.step)
    excluded = tuple(base + j * k for j in range(1, n))
    verdict = RangeVerdict("vanishing_moment_range", base, base + n * k,
                           False, False, _relation_offset(spec, exps), excluded)
    if beta is not None:
        verdict = verdict.query(beta, gamma)
    return verdict


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
# kernel additivity diagnostic
# ---------------------------------------------------------------------------

@dataclass
class OinarovReport:
    n_values: List[float]
    d_required: List[float]
    verdict: str  # "bounded" | "unbounded"
    feasible_d: Optional[float] = None


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
