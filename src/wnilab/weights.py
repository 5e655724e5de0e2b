"""Weights, Lebesgue exponent sets, closed-form test-function families,
general-monotonicity checks and admissibility predicates.

Weights and test functions are immutable after construction and safe to
share across threads.  Test functions built here are piecewise powers, so
moments and absolute integrals have exact closed forms; the constructors
still verify declared vanishing moments by quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .quadrature import QuadratureConfig, integrate


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

class Weight:
    """Nonnegative weight on (0, inf), one power of x between consecutive
    ``nodes`` and beyond both ends: a power, a piecewise power (node 1), or a
    tabulated function (log-linear between its abscissae, the nodes, with
    power-law extrapolation fitted on the outermost decades)."""

    def __init__(self, form: str, **params):
        self.form = form
        self.params = params
        if form == "power":
            e = float(params["exponent"])
            c = float(params.get("coefficient", 1.0))
            if c < 0:
                raise ValueError("weights are nonnegative")
            self._fn = lambda x: c * np.asarray(x, dtype=float) ** e
            self._e0 = self._einf = e
            self.nodes: Tuple[float, ...] = ()
        elif form == "piecewise_power":
            a1, a2 = float(params["a1"]), float(params["a2"])
            def fn(x, a1=a1, a2=a2):
                x = np.asarray(x, dtype=float)
                return np.where(x <= 1.0, x ** a1, x ** a2)
            self._fn = fn
            self._e0, self._einf = a1, a2
            self.nodes = (1.0,)
        elif form == "tabulated":
            xs = np.asarray(params["x"], dtype=float)
            ys = np.asarray(params["y"], dtype=float)
            if np.any(xs <= 0) or np.any(ys < 0):
                raise ValueError("tabulated weight needs positive abscissae and nonnegative values")
            lx, ly = np.log(xs), np.log(np.maximum(ys, 1e-300))
            self._e0 = _fit_slope(lx, ly, lx <= lx[0] + math.log(10.0))
            self._einf = _fit_slope(lx, ly, lx >= lx[-1] - math.log(10.0))
            def fn(x, lx=lx, ly=ly, e0=self._e0, einf=self._einf, xs=xs, ys=ys):
                x = np.asarray(x, dtype=float)
                out = np.exp(np.interp(np.log(np.maximum(x, 1e-300)), lx, ly))
                out = np.where(x < xs[0], ys[0] * (x / xs[0]) ** e0, out)
                out = np.where(x > xs[-1], ys[-1] * (x / xs[-1]) ** einf, out)
                return out
            self._fn = fn
            self.nodes = tuple(xs.tolist())
        else:
            raise ValueError(f"unknown weight form {form!r}")

    @classmethod
    def power(cls, exponent: float, coefficient: float = 1.0) -> "Weight":
        if coefficient == 1.0:
            return cls("power", exponent=exponent)
        return cls("power", exponent=exponent, coefficient=coefficient)

    @classmethod
    def piecewise_power(cls, a1: float, a2: float) -> "Weight":
        return cls("piecewise_power", a1=a1, a2=a2)

    @classmethod
    def tabulated(cls, x: Sequence[float], y: Sequence[float]) -> "Weight":
        return cls("tabulated", x=list(x), y=list(y))

    def __call__(self, x):
        return self._fn(x)

    @property
    def exponent_at_zero(self) -> float:
        return self._e0

    @property
    def exponent_at_infinity(self) -> float:
        return self._einf

    def descriptor(self) -> dict:
        return {"form": self.form, **self.params}

    @classmethod
    def from_descriptor(cls, d: dict) -> "Weight":
        d = dict(d)
        return cls(d.pop("form"), **d)


def _fit_slope(lx, ly, mask):
    lx, ly = lx[mask], ly[mask]
    if len(lx) < 2:
        return 0.0
    return float(np.polyfit(lx, ly, 1)[0])


class WeightExpr:
    """Product of weights (or of expressions) raised to real powers, with
    tracked endpoint exponents and nodes, the union of its factors' nodes.
    The condition evaluators build their bracket integrands from these."""

    def __init__(self, factors: Sequence[Tuple[Weight, float]]):
        self.factors = [(w, float(p)) for w, p in factors if p != 0.0]
        self.nodes = tuple(sorted(set().union(*(w.nodes for w, _ in self.factors))))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.ones_like(x)
        for w, p in self.factors:
            out = out * np.asarray(w(x), dtype=float) ** p
        return out

    @property
    def exponent_at_zero(self) -> float:
        return sum(p * w.exponent_at_zero for w, p in self.factors)

    @property
    def exponent_at_infinity(self) -> float:
        return sum(p * w.exponent_at_infinity for w, p in self.factors)


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
    """A closed-form test function: a sum of power pieces on disjoint
    intervals, or a custom evaluator.  Carries support, jump points,
    vanished moments and an optional general-monotonicity witness."""

    __test__ = False  # keep pytest collection away from the name

    def __init__(self, family: str, pieces: Optional[Sequence[Piece]] = None,
                 evaluator: Optional[Callable] = None,
                 support: Optional[Tuple[float, float]] = None,
                 vanished_moments: Sequence[float] = (),
                 gm_witness: Optional[GMWitness] = None,
                 params: Optional[dict] = None,
                 check_moments: bool = True):
        self.family = family
        self.pieces = list(pieces) if pieces is not None else None
        self.params = dict(params or {})
        self.gm_witness = gm_witness
        if self.pieces is not None:
            lo = min(p.lo for p in self.pieces)
            hi = max(p.hi for p in self.pieces)
            self.support = (lo, hi)
            bps = set()
            for p in self.pieces:
                if p.lo > 0:
                    bps.add(p.lo)
                if not math.isinf(p.hi):
                    bps.add(p.hi)
            self.breakpoints = tuple(sorted(bps))
        else:
            if evaluator is None or support is None:
                raise ValueError("custom test function needs evaluator and support")
            self.support = tuple(support)
            self.breakpoints = ()
        self._evaluator = evaluator
        self.vanished_moments = tuple(vanished_moments)
        if check_moments:
            for mu in self.vanished_moments:
                resid = abs(self.moment_by_quadrature(mu))
                if resid > 1e-12:
                    raise ValueError(
                        f"declared vanished moment {mu} integrates to {resid:.3e}")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.pieces is None:
            return np.asarray(self._evaluator(x), dtype=float)
        out = np.zeros_like(x)
        for p in self.pieces:
            mask = (x >= p.lo) & (x < p.hi)
            if np.any(mask):
                out[mask] += p.coef * x[mask] ** p.exponent
        return out

    # -- exact piecewise helpers ------------------------------------------

    def moment(self, mu: float) -> float:
        """integral x^mu f(x) dx, exact for piecewise powers."""
        if self.pieces is None:
            raise ValueError("exact moments need piecewise form")
        return sum(p.coef * power_moment(mu + p.exponent, p.lo, p.hi)
                   for p in self.pieces)

    def abs_weighted_integral(self, mu: float, a: float, b: float) -> float:
        """integral_a^b x^mu |f(x)| dx, exact for piecewise powers."""
        if self.pieces is None:
            val, _ = integrate(lambda x: x ** mu * np.abs(self(x)),
                               (max(a, self.support[0]), min(b, self.support[1])))
            return val
        return sum(abs(p.coef) * power_moment(mu + p.exponent, max(a, p.lo), min(b, p.hi))
                   for p in self.pieces)

    def moment_by_quadrature(self, mu: float, config: Optional[QuadratureConfig] = None) -> float:
        val, _ = integrate(lambda x: x ** mu * self(x), self.support,
                           config or QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15),
                           breakpoints=self.breakpoints)
        return val

    def scaled(self, sigma: float) -> "TestFunction":
        """x^sigma * f, preserving the piecewise structure."""
        if self.pieces is None:
            raise ValueError("scaling needs piecewise form")
        pieces = [Piece(p.lo, p.hi, p.coef, p.exponent + sigma) for p in self.pieces]
        return TestFunction(self.family + f"*x^{sigma:g}", pieces,
                            params=self.params, check_moments=False)


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
                                   nodes: Sequence[float],
                                   exponent: Optional[float] = None) -> TestFunction:
    """Piecewise power c_i x^e on the node intervals with every listed
    moment killed.  Coefficients come from an exact closed-form linear
    solve; the result is normalized to unit L2 norm."""
    nodes = sorted(float(t) for t in nodes)
    if any(t <= 0 for t in nodes):
        raise ValueError("nodes must be positive")
    m = len(nodes) - 1
    orders = list(orders)
    if not orders:
        if m < 1:
            raise SingularSystem("need at least one interval")
        pieces = [Piece(nodes[0], nodes[1], 1.0, exponent if exponent is not None else 0.0)]
        return TestFunction("vanishing_moments", pieces, params={"orders": []})
    if m < len(orders) + 1:
        raise SingularSystem(
            f"{m} intervals cannot kill {len(orders)} moments with a free normalization")
    e = exponent if exponent is not None else -(min(orders) + 1.0)

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


# ---------------------------------------------------------------------------
# general monotonicity
# ---------------------------------------------------------------------------

_DEFAULT_LAMBDAS = (1.25, 1.5, 2.0, 4.0, 8.0)
_GM_C_CAP = 1e6
_GM_GROWTH_CAP = 3.0  # max tolerated growth of the fitted C per decade


def _variation(f: TestFunction, x: float, n_sub: int = 128) -> float:
    """Total variation of f on [x, 2x] from a fine log subgrid, with jump
    points sampled from both sides."""
    pts = list(np.geomspace(x, 2.0 * x, n_sub))
    for b in getattr(f, "breakpoints", ()):
        if x <= b <= 2.0 * x:
            pts.extend([b * (1.0 - 1e-9), b * (1.0 + 1e-9)])
    pts = np.sort(np.asarray(pts))
    vals = f(pts)
    return float(np.sum(np.abs(np.diff(vals))))


def check_gm(f: TestFunction,
             lambda_grid: Sequence[float] = _DEFAULT_LAMBDAS,
             x_grid: Optional[np.ndarray] = None,
             c_cap: float = _GM_C_CAP) -> Optional[GMWitness]:
    """Fit the smallest constant C (over the lambda menu) such that the
    variation of f on [x, 2x] is dominated by (C/x) times its average over
    [x/lambda, lambda*x] on the whole grid.

    Membership needs more than C staying under the cap on a finite grid:
    the required constant must not grow systematically across decades,
    otherwise any bounded grid would certify sin-like functions.  Returns
    None when no tested lambda admits a stable constant.
    """
    if x_grid is None:
        x_grid = np.geomspace(1e-3, 1e3, 241)  # 40 points per decade
    variations = np.asarray([_variation(f, float(x)) for x in x_grid])

    best: Optional[GMWitness] = None
    for lam in lambda_grid:
        required = np.empty(len(x_grid))
        for i, x in enumerate(x_grid):
            if variations[i] == 0.0:
                required[i] = 0.0
                continue
            avg = _abs_mass(f, x / lam, lam * x)
            required[i] = math.inf if avg == 0.0 else variations[i] * x / avg
        cmax = float(np.max(required))
        if not math.isfinite(cmax) or cmax > c_cap or cmax == 0.0:
            continue
        if _grows_across_decades(x_grid, required):
            continue
        if best is None or cmax < best.C:
            best = GMWitness(C=cmax, lam=lam)
    return best


def _abs_mass(f: TestFunction, a: float, b: float) -> float:
    """integral_a^b |f|: exact for piecewise powers, log-grid trapezoid for
    custom evaluators (the GM diagnostic only needs percent-level accuracy,
    and blind quadrature of |f| stalls on oscillatory tails)."""
    if f.pieces is not None:
        return f.abs_weighted_integral(0.0, a, b)
    lo = max(a, f.support[0], 1e-12)
    hi = min(b, f.support[1])
    if hi <= lo:
        return 0.0
    grid = np.geomspace(lo, hi, 512)
    return float(np.trapezoid(np.abs(f(grid)), grid))


def _grows_across_decades(x_grid: np.ndarray, required: np.ndarray) -> bool:
    lo, hi = math.log10(x_grid[0]), math.log10(x_grid[-1])
    edges = np.arange(math.floor(lo), math.ceil(hi) + 1)
    maxima = []
    for a, b in zip(edges[:-1], edges[1:]):
        mask = (x_grid >= 10.0 ** a) & (x_grid < 10.0 ** b)
        if np.any(mask):
            maxima.append(float(np.max(required[mask])))
    live = [(i, m) for i, m in enumerate(maxima) if m > 0.0]
    if len(live) < 3:
        return False
    idx = np.asarray([i for i, _ in live], dtype=float)
    logm = np.log10([m for _, m in live])
    slope = float(np.polyfit(idx, logm, 1)[0])
    return slope > math.log10(_GM_GROWTH_CAP)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

@dataclass
class AdmissibilityReport:
    admissible: bool
    near_origin: float
    tail: float

    def __bool__(self) -> bool:
        return self.admissible


def check_admissible(f: TestFunction, transform, mode: str = "pointwise") -> AdmissibilityReport:
    """Are the two regime integrals of |f| finite, so the transform of f is
    pointwise defined?

    mode='pointwise' checks integral_0^1 x^b0 |f| + integral_1^inf
    x^(b0/2) |f|; mode='gm' checks integral_0^1 x^(b0+b1) |f| +
    integral_1^inf x^(b-1) |f| with b from the transform's primitive bound.
    """
    if mode == "pointwise":
        mu0 = transform.b0
        mu1 = 0.5 * transform.b0
    elif mode == "gm":
        mu0 = transform.b0 + transform.kernel.envelope.b1
        pb = transform.primitive_bound
        if pb is None:
            raise ValueError(f"transform {transform.name!r} carries no primitive bound")
        mu1 = pb.b - 1.0
    else:
        raise ValueError("mode must be 'pointwise' or 'gm'")

    near = f.abs_weighted_integral(mu0, 0.0, 1.0)
    tail = f.abs_weighted_integral(mu1, 1.0, math.inf)
    finite = math.isfinite(near) and math.isfinite(tail)
    return AdmissibilityReport(finite, near, tail)
