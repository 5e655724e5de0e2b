"""Reference values that do not use the code under test.

Only ``math`` and ``mpmath`` are used: nothing here imports ``wnilab``.

hankel-verify
    Hankel transform of order 0 (b0 = 1), f = 1 on (0, r):
    F f(y) = integral_0^r x J0(xy) dx = r J1(ry) / y.  With (p, q, a) =
    (2, 2, 2), the ``sw`` normalization adds b0/a' = b0/a = 1/2 to both
    weight exponents, so with beta = 0.6, gamma = 0.25
        lhs^2 = integral y^(-0.2) |F f|^2 dy = r^3.2 W(2.2),
        rhs^2 = integral_0^r x^1.5 dx = r^2.5 / 2.5,
    where W(lam) = integral_0^inf t^(-lam) J1(t)^2 dt is the
    Weber-Schafheitlin integral
        W(lam) = G(lam) G((3-lam)/2) / (2^lam G((1+lam)/2)^2 G((3+lam)/2)).
    Hence ratio(r) = sqrt(2.5 W(2.2)) r^0.35.

scripth-probe
    Struve transform of order 0 (b0 = c0 = 1/2), f = x^(1/2) on (0, r):
    F f(y) = y^(1/2) integral_0^r x H0(xy) dx = r y^(-1/2) H1(ry), using
    d/dt (t H1(t)) = t H0(t).  With beta = 1.8, gamma = 1.2, p = q = 2,
        lhs^2 = r^2 integral y^(-4.6) H1(ry)^2 dy = r^5.6 I,
        rhs^2 = integral_0^r x^3.4 dx = r^4.4 / 4.4,
    with I = integral_0^inf t^(-4.6) H1(t)^2 dt (mpmath quadrature).
    Hence ratio(r) = sqrt(4.4 I) r^0.6.

conditions-grid
    See ``power_pair``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

_G = math.gamma


def _weber_schafheitlin_j1(lam: float) -> float:
    """integral_0^inf t^(-lam) J1(t)^2 dt for 0 < lam < 3."""
    return (_G(lam) * _G((3.0 - lam) / 2.0)
            / (2.0 ** lam * _G((1.0 + lam) / 2.0) ** 2 * _G((3.0 + lam) / 2.0)))


def hankel_verify_ratio(r: float) -> float:
    return math.sqrt(2.5 * _weber_schafheitlin_j1(2.2)) * r ** 0.35


@lru_cache(maxsize=None)
def _struve_h1_moment() -> float:
    """integral_0^inf t^(-4.6) H1(t)^2 dt.

    The integrand is ~ t^-0.6 at 0 and ~ (2/pi)^2 t^-4.6 at infinity.
    Splitting at every second unit up to 40 keeps each panel within a
    third of an oscillation; the result agrees with a 20-digit evaluation
    to 2e-8.
    """
    import mpmath

    with mpmath.workdps(15):
        f = lambda t: t ** mpmath.mpf(-4.6) * mpmath.struveh(1, t) ** 2
        return float(mpmath.quad(f, list(range(0, 41, 2)) + [mpmath.inf]))


def scripth_probe_ratio(r: float) -> float:
    return math.sqrt(4.4 * _struve_h1_moment()) * r ** 0.6


# Below this per-decade growth of the bracket product (10^|balance|), a
# divergent power pair is reported as finite at the seed commit: the scan
# declares divergence only on 1.5x growth per decade.
SLOW_GROWTH_PER_DECADE = 1.5


@dataclass(frozen=True)
class PairVerdict:
    finite: bool
    site: str  # "" | "inner integral at 0" | "inner integral at infinity" | "relation offset"
    balance: float  # exponent of r in the bracket product

    @property
    def growth_per_decade(self) -> float:
        return 10.0 ** abs(self.balance)

    @property
    def slow_power_growth(self) -> bool:
        """Divergent only through a power of r growing slower than
        SLOW_GROWTH_PER_DECADE per decade."""
        return self.site == "relation offset" and self.growth_per_decade < SLOW_GROWTH_PER_DECADE

    def describe(self) -> str:
        if self.finite:
            return "finite"
        if self.site == "relation offset":
            return (f"divergent by relation offset {self.balance:+.4f} "
                    f"({self.growth_per_decade:.3f}x per decade)")
        return f"divergent ({self.site})"


_EXPONENT_TOL = 1e-9


def power_pair(delta: float, p: float, q: float, beta: float, gamma: float) -> PairVerdict:
    """Finiteness of the Hardy-type pair for u = y^(-beta q), v = x^(gamma p),
    s = w = x^delta and a = 1.

    For pure powers every bracket is a power of r:
      first condition   (int_0^(1/r) x^ea1)^(1/q) (int_0^r x^eb1)^(1/p'),
      second condition  (int_(1/r)^inf x^ea2)^(1/q) (int_r^inf x^eb2)^(1/p'),
    with ea1 = -beta q, eb1 = -gamma p', ea2 = ea1 - delta q / 2 and
    eb2 = eb1 - delta p' / 2.  The first needs ea1, eb1 > -1 (convergence
    at 0), the second ea2, eb2 < -1 (convergence at infinity).  Both
    products are then r^balance with the same balance
    beta - gamma - 1/q + 1/p', and the supremum over r is finite iff the
    balance is zero.
    """
    pp = p / (p - 1.0)
    ea1, eb1 = -beta * q, -gamma * pp
    ea2, eb2 = ea1 - 0.5 * delta * q, eb1 - 0.5 * delta * pp
    balance = beta - gamma - 1.0 / q + 1.0 / pp
    if min(ea1, eb1) <= -1.0 + _EXPONENT_TOL:
        return PairVerdict(False, "inner integral at 0", balance)
    if max(ea2, eb2) >= -1.0 - _EXPONENT_TOL:
        return PairVerdict(False, "inner integral at infinity", balance)
    if abs(balance) > _EXPONENT_TOL:
        return PairVerdict(False, "relation offset", balance)
    return PairVerdict(True, "", balance)
