"""Weights, Lebesgue exponent sets and closed-form test-function families.

Weights and test functions are piecewise powers, so values, products,
moments, absolute integrals and weight integrals all have exact closed
forms.  Both are immutable once built, apart from a weight's caches: its
first array read builds its segment table's arrays, its first ``integral``
read its prefix and suffix sums, and its first ``integral_growth`` read of
an end that end's parts, each in one assignment of the same values
whichever thread fills it.  So both are safe to share across threads.
"""

from __future__ import annotations

import bisect
import copy
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

# Exponents this close count as equal: a node between two such pieces is
# no kink, and an exponent sum this close to 0 is 0 (``conditions``).
EXPONENT_TOLERANCE = 1e-9
# An end exponent must clear -1 by more than this for an integral to converge
# there; within it the end is divergent (or a logarithm, continued analytically).
DIVERGENCE_MARGIN = 1e-12
_FORMS = {"power": {"exponent", "coefficient"},  # descriptor keys besides "form"
          "piecewise_power": {"a1", "a2"}, "tabulated": {"x", "y"}}


class Weight:
    """Nonnegative weight on (0, inf), one power of x between consecutive
    ``nodes`` and beyond both ends, given by its values at the nodes and
    the exponents of the len(nodes) + 1 pieces.  A power and a piecewise
    power have the node 1, a tabulated weight its abscissae (log-linear
    between them, with power-law extrapolation fitted on the outermost
    decades), and a product of weight powers (``product``) the union of its
    factors' nodes.

    Its segment table is built once, as tuples of floats: ``kinks`` are the
    nodes where the exponent changes, segment j runs from ``edges[j]`` to
    ``edges[j + 1]`` (0, the kinks, inf), and on it w(x) = at_anchors[j]
    (x / anchors[j]) ** exponents[j], so exponents[0] and exponents[-1] are
    its end exponents.  Each segment is anchored at its node (kinks
    included) where |log w| is least, so no value overflows or underflows
    where another node on the segment does not.  A read at a float is
    scalar arithmetic on the table; the table's numpy arrays are built on
    the first array read.

    ``integral`` reads integral_0^x w or integral_x^inf w exactly: a prefix
    or suffix sum of closed-form segments (``power_moment``) plus one
    partial segment.  ``integral_growth`` gives its closed form beyond the
    outermost kink."""

    def __init__(self, nodes: Tuple[float, ...], values, exponents):
        exponents = [float(e) for e in exponents]
        if not (math.isfinite(exponents[0]) and math.isfinite(exponents[-1])):
            raise ValueError("weight exponents must be finite")
        self.nodes = nodes
        kinked = [i for i in range(len(nodes))
                  if abs(exponents[i] - exponents[i + 1]) > EXPONENT_TOLERANCE]
        size = [abs(math.log(v)) if v > 0.0 else math.inf for v in values]
        bounds = [0] + kinked + [len(nodes) - 1]  # each segment's first and last node
        anchored = [min(range(lo, hi + 1), key=size.__getitem__)
                    for lo, hi in zip(bounds, bounds[1:])]
        self.kinks = tuple(nodes[i] for i in kinked)
        self.edges = (0.0,) + self.kinks + (math.inf,)
        self.exponents = tuple(exponents[:1] + [exponents[i + 1] for i in kinked])
        self.anchors = tuple(nodes[i] for i in anchored)
        self.at_anchors = tuple(float(values[i]) for i in anchored)
        self.diverges_at_zero = self.exponents[0] <= -1.0 + DIVERGENCE_MARGIN
        self.diverges_at_infinity = self.exponents[-1] >= -1.0 - DIVERGENCE_MARGIN
        self._arrays = None
        self._sums = None
        self._growth = {}

    @classmethod
    def power(cls, exponent: float, coefficient: float = 1.0) -> "Weight":
        c, e = float(coefficient), float(exponent)
        if not 0.0 <= c < math.inf:
            raise ValueError("a power weight needs a nonnegative finite coefficient")
        return cls((1.0,), [c], [e, e])

    @classmethod
    def piecewise_power(cls, a1: float, a2: float) -> "Weight":
        return cls((1.0,), [1.0], [float(a1), float(a2)])

    @classmethod
    def tabulated(cls, x: Sequence[float], y: Sequence[float]) -> "Weight":
        """Log-linear through the points (x, y), a y of 0 read as 1e-300."""
        xs, ys = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if xs.ndim != 1 or len(xs) == 0 or ys.shape != xs.shape:
            raise ValueError(f"tabulated weight needs x and y of one nonzero length, "
                             f"got shapes {xs.shape} and {ys.shape}")
        if not (np.all(np.diff(xs) > 0) and 0.0 < xs[0] and xs[-1] < math.inf):
            raise ValueError("tabulated weight needs increasing positive finite abscissae")
        if not np.all((ys >= 0.0) & (ys < math.inf)):
            raise ValueError("tabulated weight needs nonnegative finite values")
        ys = np.maximum(ys, 1e-300)
        lx, ly = np.log(xs), np.log(ys)
        inner = np.diff(ly) / np.diff(lx)
        # The end exponents: log-log slopes fitted on the outermost decades.
        e0, einf = (float(np.polyfit(lx[m], ly[m], 1)[0]) if np.sum(m) > 1 else 0.0
                    for m in (lx <= lx[0] + math.log(10.0), lx >= lx[-1] - math.log(10.0)))
        return cls(tuple(xs.tolist()), ys.tolist(), np.concatenate([[e0], inner, [einf]]))

    @classmethod
    def product(cls, factors: Sequence[Tuple["Weight", float]]) -> "Weight":
        """prod w^p over the factors (w, p): at the union of their nodes
        (the node 1 without any) its values are prod w(node)^p, and on each
        piece its exponent is sum p e over the factors' exponents there, each
        accumulated in the factors' order.  One factor at power 1 is that
        weight."""
        factors = [(w, float(p)) for w, p in factors if p != 0.0]
        if len(factors) == 1 and factors[0][1] == 1.0:
            return factors[0][0]
        nodes = sorted(set().union(*(w.nodes for w, _ in factors))) or [1.0]
        starts = [0.0] + nodes  # where each piece starts
        values, exponents = [1.0] * len(nodes), [0.0] * len(starts)
        for w, p in factors:
            values = [v * _power(w(x), p) for v, x in zip(values, nodes)]
            exponents = [e + p * w.exponents[bisect.bisect_right(w.kinks, x)]
                         for e, x in zip(exponents, starts)]
        return cls(tuple(nodes), values, exponents)

    def __call__(self, x):
        """w at x: a float at a float x >= 0, an array at an array (and at
        any other x, so a negative x reads nan, not a complex power)."""
        if isinstance(x, (float, int)) and x >= 0.0:
            j = bisect.bisect_right(self.kinks, x)
            return self.at_anchors[j] * _power(x / self.anchors[j], self.exponents[j])
        kinks, _, exponents, anchors, at_anchors = self._segment_arrays()
        x = np.asarray(x, dtype=float)
        j = np.searchsorted(kinks, x, side="right")
        return at_anchors[j] * (x / anchors[j]) ** exponents[j]

    def _segment_arrays(self) -> Tuple[np.ndarray, ...]:
        """(kinks, edges, exponents, anchors, at_anchors) as arrays, built on
        the first array read."""
        if self._arrays is None:
            self._arrays = tuple(np.array(column, dtype=float) for column in (
                self.kinks, self.edges, self.exponents, self.anchors, self.at_anchors))
        return self._arrays

    @classmethod
    def from_descriptor(cls, d: dict) -> "Weight":
        d = dict(d)
        form = d.pop("form")
        if form not in _FORMS:
            raise ValueError(f"unknown weight form {form!r}")
        if not set(d) <= _FORMS[form]:
            raise ValueError(f"{form} weight has no key(s) {sorted(set(d) - _FORMS[form])}")
        return getattr(cls, form)(**d)

    # -- closed-form integrals ---------------------------------------------

    def _moment(self, j: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """integral_a^b w on the segments j."""
        _, _, exponents, anchors, at_anchors = self._segment_arrays()
        c = anchors[j]
        with np.errstate(invalid="ignore", over="ignore"):
            return at_anchors[j] * c * power_moment(exponents[j], a / c, b / c)

    def integral(self, x, upper: bool = False) -> np.ndarray:
        """integral_0^x w, or integral_x^inf w if ``upper``, at each x of an
        array: a prefix or suffix sum (nonnegative terms, filled on the first
        read) plus one partial segment.  A read that integrates from a
        non-integrable end (``diverges_at_zero``: end exponent <= -1 +
        DIVERGENCE_MARGIN; ``diverges_at_infinity``: >= -1 - DIVERGENCE_MARGIN)
        is inf."""
        x = np.asarray(x, dtype=float)
        if self.diverges_at_infinity if upper else self.diverges_at_zero:
            return np.full(x.shape, math.inf)
        kinks, edges, exponents, _, _ = self._segment_arrays()
        if self._sums is None:
            full = self._moment(np.arange(len(exponents)), edges[:-1], edges[1:])
            self._sums = (np.concatenate([[0.0], np.cumsum(full)]),
                          np.append(np.cumsum(full[::-1])[::-1], 0.0))
        prefix, suffix = self._sums
        j = np.searchsorted(kinks, x, side="right")
        if upper:
            return suffix[j + 1] + self._moment(j, x, edges[j + 1])
        return prefix[j] + self._moment(j, edges[j], x)

    def integral_growth(self, upper: bool, x_to_inf: bool
                        ) -> List[Tuple[float, float, float, float]]:
        """Parts (g, m, c, L): beyond the outermost kink ``integral(x,
        upper)`` is exactly the sum of c e^L T^g (log T)^m over them as T ->
        inf, where x = T (``x_to_inf``) or x = 1/T.  L carries the anchor's
        power a^(-eps) in logs, which overflows where a steep end meets an
        anchor far from 1.  Computed once for each (upper, end)."""
        key = (upper, x_to_inf)
        if key in self._growth:
            return self._growth[key]
        # Beyond its outermost kink the weight is w(a) (x/a)^eps on its outer
        # segment, anchored at a, and integrated from 1 toward the end x tends
        # to it grows like T^e.  A read from that end is k T^e / |e|, any
        # other k T^e / e, or k log T at e = 0, with k = w(a) a^(-eps), plus
        # the constant making it the read at x = a (0 without kinks).
        i = -1 if x_to_inf else 0
        a, k, eps = self.anchors[i], self.at_anchors[i], self.exponents[i]
        e, scale = eps + 1.0 if x_to_inf else -(eps + 1.0), -eps * math.log(a)
        toward, log = upper == x_to_inf, abs(e) <= EXPONENT_TOLERANCE
        parts = [(0.0, 1.0, k, scale) if log else (e, 0.0, k / abs(e) if toward else k / e, scale)]
        if not toward and self.kinks:  # at x = a: T^e a^(-eps) = a, log T = +-log(a)
            at_anchor = k * np.exp(scale) * math.log(a) * (1.0 if x_to_inf else -1.0) if log \
                else k * a / e
            parts.append((0.0, 0.0, float(self.integral(a, upper) - at_anchor), 0.0))
        self._growth[key] = parts
        return parts


def _power(x: float, p: float) -> float:
    """x ** p for x >= 0 with numpy's float semantics: 0 to a negative power,
    and a power that overflows, are inf."""
    try:
        return x ** p
    except (ZeroDivisionError, OverflowError):
        return math.inf


# ---------------------------------------------------------------------------
# exponent sets
# ---------------------------------------------------------------------------

def _dual(e: float) -> float:
    if e == 1.0:
        return math.inf
    if math.isinf(e):
        return 1.0
    return e / (e - 1.0)


@dataclass(frozen=True)
class ExponentSet:
    """Lebesgue exponents 1 < p <= q < inf and the interpolation parameter
    a in [1, inf], with their duals."""

    p: float
    q: float
    a: float = 1.0

    def __post_init__(self):
        if not (1.0 < self.p <= self.q):
            raise ValueError(f"need 1 < p <= q, got p={self.p}, q={self.q}")
        if math.isinf(self.q):
            raise ValueError("q must be finite")
        if not (1.0 <= self.a):
            raise ValueError("a must lie in [1, inf]")

    @property
    def p_prime(self) -> float:
        return _dual(self.p)

    @property
    def a_prime(self) -> float:
        return _dual(self.a)

    @property
    def inv_a(self) -> float:
        """1/a, 0 where a is infinite: the power of s in the two-factor
        setting ||u^(1/q) w^(1/a') Ff||_q <= ||v^(1/p) s^(1/a) f||_p."""
        return 0.0 if math.isinf(self.a) else 1.0 / self.a

    @property
    def inv_a_prime(self) -> float:
        """1/a', 0 where a' is infinite (a = 1): the power of w there."""
        return 0.0 if math.isinf(self.a_prime) else 1.0 / self.a_prime


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GMWitness:
    C: float
    lam: float

    def __post_init__(self):
        if self.C <= 0 or self.lam <= 1.0:
            raise ValueError("witness needs C > 0 and lambda > 1")


def power_moment(e, a, b):
    """integral_a^b x^e dx (0 where b <= a) for 0 <= a, b <= inf, broadcast
    over arrays, a float for floats: E^m (1 - (a/b)^|m|) / |m| with m = e + 1
    and E the end where x^m is larger, log(b/a) for m = 0, so neither the
    ends' powers nor an m near 0 cancel; inf where it diverges (|m| < 1e-14
    counts as 0)."""
    m = np.asarray(e, dtype=float) + 1.0
    m = np.where(np.abs(m) < 1e-14, 0.0, m)
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_ratio = np.log(b / a)
        mag = np.abs(m)
        seg = np.where(m > 0, b, a) ** m * -np.expm1(-mag * log_ratio) / mag
        if (m == 0).any():
            seg = np.where(m == 0, log_ratio, seg)
        out = np.where(b > a, seg, 0.0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Piece:
    lo: float
    hi: float
    coef: float
    exponent: float


class TestFunction:
    """A closed-form test function: a sum of power pieces c x^e on disjoint
    intervals [lo, hi), so its values, moments and absolute integrals are
    exact.  Carries its jump points, vanished moments (each checked
    with the exact ``moment`` at construction) and an optional
    general-monotonicity witness."""

    __test__ = False  # keep pytest collection away from the name

    def __init__(self, family: str, pieces: Sequence[Piece],
                 vanished_moments: Sequence[float] = (),
                 gm_witness: Optional[GMWitness] = None,
                 params: Optional[dict] = None):
        self.family = family
        self.pieces = list(pieces)
        ordered = sorted(self.pieces, key=lambda p: (p.lo, p.hi))
        if not ordered or not all(p.lo <= p.hi for p in ordered):
            raise ValueError(f"{family}: needs one piece or more, each with lo <= hi")
        if any(p.hi > nxt.lo for p, nxt in zip(ordered, ordered[1:])):
            raise ValueError(f"{family}: pieces overlap")
        self.params = dict(params or {})
        self.gm_witness = gm_witness
        self.breakpoints = tuple(sorted({p.lo for p in ordered if p.lo > 0}
                                        | {p.hi for p in ordered if not math.isinf(p.hi)}))
        self.vanished_moments = tuple(vanished_moments)
        for mu in self.vanished_moments:
            resid = abs(self.moment(mu))
            if resid > 1e-12:
                raise ValueError(f"declared vanished moment {mu} is {resid:.3e}")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for p in self.pieces:
            mask = (x >= p.lo) & (x < p.hi)
            if np.any(mask):
                out[mask] += p.coef * x[mask] ** p.exponent
        return out

    def moment(self, mu: float) -> float:
        """integral x^mu f(x) dx."""
        return sum(p.coef * power_moment(mu + p.exponent, p.lo, p.hi)
                   for p in self.pieces)

    def abs_weighted_integral(self, mu: float, a, b):
        """integral_a^b x^mu |f(x)| dx, broadcast over arrays of ends a and
        b, a float for floats."""
        return sum(abs(p.coef) * power_moment(mu + p.exponent, np.maximum(a, p.lo),
                                              np.minimum(b, p.hi))
                   for p in self.pieces)

    def scaled(self, sigma: float) -> "TestFunction":
        """x^sigma * f."""
        pieces = [Piece(p.lo, p.hi, p.coef, p.exponent + sigma) for p in self.pieces]
        return TestFunction(self.family + f"*x^{sigma:g}", pieces, params=self.params)


def _layout(f: TestFunction) -> Tuple[tuple, dict]:
    """(key, jumps): f's jump points as (x, exponent) -> summed jump c (each
    piece end inside (0, inf) adds -c at lo and c at hi), in order of first
    appearance, and what of f a family's members share: the piece exponents,
    which pieces start at 0 and which reach inf, the jumps' exponents and
    which jumps are 0, and the vanished moments."""
    jumps: dict = {}
    for p in f.pieces:
        for x, sign in ((p.lo, -1.0), (p.hi, 1.0)):
            if 0.0 < x < math.inf:
                jumps[x, p.exponent] = jumps.get((x, p.exponent), 0.0) + sign * p.coef
    key = (tuple((p.exponent, p.lo == 0.0, p.hi == math.inf) for p in f.pieces),
           tuple((e, c != 0.0) for (_, e), c in jumps.items()), f.vanished_moments)
    return key, jumps


class FunctionFamily:
    """Test functions of one layout (``_layout``) as arrays with one row per
    member: piece ends ``lo`` and ``hi`` and coefficients ``coef``, and the
    jump points ``jump_x`` with their jumps ``jump``.  The ``exponents`` of
    the pieces and the ``jump_exponents`` are shared, as is ``params``, the
    parameters every member has alike.  A single function is a family of
    one.  Its members fall into dilation classes (``dilations``): members
    that are c g(x / lam) of one unit member g."""

    def __init__(self, members: Sequence[TestFunction], layouts: Optional[list] = None):
        """``layouts``: each member's ``_layout``, computed here if not given."""
        self.members = list(members)
        keys, jumps = zip(*(layouts or [_layout(f) for f in self.members]))
        if len(set(keys)) != 1:
            raise ValueError("family members must share one piece and jump layout")
        pieces, jump_layout, self.vanished_moments = keys[0]
        self.exponents = np.array([e for e, _, _ in pieces], dtype=float)
        ends = np.array([[(p.lo, p.hi, p.coef) for p in f.pieces] for f in self.members])
        self.lo, self.hi, self.coef = ends[:, :, 0], ends[:, :, 1], ends[:, :, 2]
        self.jump_exponents = np.array([e for e, _ in jump_layout], dtype=float)
        self.jump_live = np.array([live for _, live in jump_layout], dtype=bool)
        shape = (len(self.members), len(jump_layout))
        self.jump_x = np.array([list(j) for j in jumps], dtype=float).reshape(shape + (2,))[:, :, 0]
        self.jump = np.array([list(j.values()) for j in jumps], dtype=float).reshape(shape)
        first = self.members[0].params
        self.params = {k: v for k, v in first.items()
                       if all(f.params.get(k) == v for f in self.members)}

    def take(self, index: Sequence[int]) -> "FunctionFamily":
        """The members at ``index``, as a family of their own."""
        sub = copy.copy(self)
        sub.members = [self.members[i] for i in index]
        for name in ("lo", "hi", "coef", "jump_x", "jump"):
            setattr(sub, name, getattr(self, name)[index])
        return sub

    def dilations(self, lo: float, hi: float
                  ) -> Tuple["FunctionFamily", np.ndarray, np.ndarray, np.ndarray]:
        """(units, index, scale, log_coef): each member as f_i(x) = c_i
        g_i(x / lam_i), with lam_i (``scale``) its largest finite piece end
        (1 without one) and c_i = |a_i| lam_i^e_i, kept as log c_i
        (``log_coef``), for a_i x^e_i its first piece whose coefficient is
        not 0 (its first piece, |a_i| read as 1, where none is).  The unit
        member g_i has f_i's piece ends and jump points over lam_i, and its
        coefficients and jumps times lam_i^(e - e_i) / |a_i|.  Members whose
        g_i and scaled lhs domain (lam_i lo, lam_i hi) are equal, float for
        float, form one dilation class: ``units`` holds each class's g once,
        in order of first appearance, and ``index`` each member's class.  A
        member's g_i depends on that member alone, so a truncated-power
        family is one class, and a member no other matches is a class of
        one."""
        rows = np.arange(len(self.members))
        ends = np.concatenate([self.lo, np.where(np.isfinite(self.hi), self.hi, 0.0)], axis=1)
        scale = np.max(ends, axis=1, initial=0.0)
        scale = np.where(scale > 0.0, scale, 1.0)
        anchor = np.argmax(self.coef != 0.0, axis=1)
        size, power = np.abs(self.coef[rows, anchor]), self.exponents[anchor]
        size = np.where(size > 0.0, size, 1.0)
        lam = scale[:, None]
        with np.errstate(over="ignore"):
            coef = self.coef / size[:, None] * lam ** (self.exponents - power[:, None])
            jump = self.jump / size[:, None] * lam ** (self.jump_exponents - power[:, None])
        unit = {"lo": self.lo / lam, "hi": self.hi / lam, "coef": coef,
                "jump_x": self.jump_x / lam, "jump": jump}
        keys = np.concatenate([*unit.values(), lo * lam, hi * lam], axis=1).tolist()
        classes: dict = {}
        index = np.array([classes.setdefault(tuple(key), len(classes)) for key in keys])
        first = np.unique(index, return_index=True)[1]
        units = copy.copy(self)
        for name, value in unit.items():
            setattr(units, name, value[first])
        ends = zip(units.lo.tolist(), units.hi.tolist(), units.coef.tolist())
        units.members = [TestFunction(self.members[i].family,
                                      list(map(Piece, *row, self.exponents.tolist())))
                         for i, row in zip(first.tolist(), ends)]
        units.params = {}
        return units, index, scale, np.log(size) + power * np.log(scale)

    @classmethod
    def partition(cls, functions: Sequence[TestFunction]
                  ) -> List[Tuple[List[int], "FunctionFamily"]]:
        """The functions as families of one layout each, with each family's
        indices into ``functions``, in order of first appearance."""
        groups: dict = {}
        for i, f in enumerate(functions):
            layout = _layout(f)
            groups.setdefault(layout[0], []).append((i, layout))
        return [([i for i, _ in rows], cls([functions[i] for i, _ in rows], [l for _, l in rows]))
                for rows in groups.values()]


class SingularSystem(Exception):
    """The vanishing-moment linear solve is rank-deficient for these nodes."""


def make_truncated_power(sigma: float, r: float, side: str = "left") -> TestFunction:
    """x^sigma on (0, r) for side='left', or on (r, inf) for side='right'."""
    if r <= 0:
        raise ValueError("cutoff must be positive")
    if side == "left":
        pieces = [Piece(0.0, r, 1.0, sigma)]
    elif side == "right":
        pieces = [Piece(r, math.inf, 1.0, sigma)]
    else:
        raise ValueError("side must be 'left' or 'right'")
    return TestFunction("truncated_power", pieces,
                        params={"sigma": sigma, "r": r, "side": side})


def make_log_counterexample(N: float, b0_plus_b1: float) -> TestFunction:
    """x^-(b0+b1+1) * (indicator(1/N,1) - indicator(1,N)); its
    (b0+b1)-moment vanishes exactly."""
    if N < 2:
        raise ValueError("N must be >= 2")
    e = -(b0_plus_b1 + 1.0)
    pieces = [Piece(1.0 / N, 1.0, 1.0, e), Piece(1.0, N, -1.0, e)]
    return TestFunction("log_counterexample", pieces,
                        vanished_moments=(b0_plus_b1,),
                        params={"N": N, "b0_plus_b1": b0_plus_b1})


def make_vanishing_moment_function(orders: Sequence[float],
                                   nodes: Sequence[float]) -> TestFunction:
    """Piecewise power c_i x^e, e = -(min(orders) + 1), on the node intervals
    with every listed moment killed (1 on the first interval without
    orders).  Coefficients come from an exact closed-form linear solve; the
    result is normalized to unit L2 norm."""
    nodes = sorted(float(t) for t in nodes)
    if any(t <= 0 for t in nodes):
        raise ValueError("nodes must be positive")
    m = len(nodes) - 1
    orders = list(orders)
    if not orders:
        if m < 1:
            raise SingularSystem("need at least one interval")
        pieces = [Piece(nodes[0], nodes[1], 1.0, 0.0)]
        return TestFunction("vanishing_moments", pieces, params={"orders": []})
    if m < len(orders) + 1:
        raise SingularSystem(
            f"{m} intervals cannot kill {len(orders)} moments with a free normalization")
    e = -(min(orders) + 1.0)

    rows = []
    for mu in orders:
        rows.append([power_moment(mu + e, nodes[i], nodes[i + 1]) for i in range(m)])
    # Normalization row pins the first coefficient.
    rows.append([1.0] + [0.0] * (m - 1))
    rhs = [0.0] * len(orders) + [1.0]
    A = np.asarray(rows)
    try:
        coefs, residual, rank, _ = np.linalg.lstsq(A, np.asarray(rhs), rcond=None)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    if rank < min(A.shape):
        raise SingularSystem("moment matrix is rank-deficient for these nodes")
    fit = A @ coefs
    if np.max(np.abs(fit - rhs)) > 1e-9:
        raise SingularSystem("moment system inconsistent for these nodes")

    norm2 = math.sqrt(sum(
        coefs[i] ** 2 * power_moment(2 * e, nodes[i], nodes[i + 1]) for i in range(m)))
    coefs = coefs / norm2
    pieces = [Piece(nodes[i], nodes[i + 1], float(coefs[i]), e)
              for i in range(m) if abs(coefs[i]) > 0]
    return TestFunction("vanishing_moments", pieces, vanished_moments=tuple(orders),
                        params={"orders": list(orders), "nodes": nodes, "exponent": e})
