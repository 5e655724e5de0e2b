import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wnilab import quadrature
from wnilab.quadrature import QuadratureConfig, integrate
from wnilab.transforms import DilationTable, hankel, scripth, sine


def _integrate(f, window, config=None):
    """One window through ``integrate``: its (value, error), or its failure
    raised."""
    (outcome,) = integrate([f], [window], config)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def test_polynomial_exactness_single_panel():
    # The Kronrod rule integrates polynomials well past degree 20 on one panel.
    for k in (0, 3, 7, 13, 20):
        val, _ = _integrate(lambda x, k=k: x ** k, (1.0, 2.0))
        exact = (2.0 ** (k + 1) - 1.0) / (k + 1)
        assert val == pytest.approx(exact, rel=1e-13)


def test_trivial_closed_forms():
    val, _ = _integrate(lambda x: x, (0.5, 1.0))
    assert val == pytest.approx(0.375, rel=1e-12)
    # A window spanning twelve decades starts from geometric panels.
    val, _ = _integrate(lambda x: np.minimum(1.0, x ** -2.0), (1e-6, 1e6))
    assert val == pytest.approx(2.0 - 2e-6, rel=1e-8)


def test_geometric_edges_are_geomspace_bit_for_bit():
    # Windows from just above a factor of 4 to twelve decades, anywhere from
    # 1e-9 to 1e6, split as integrate splits them: the edges are
    # np.geomspace's, bit for bit.
    rng = np.random.default_rng(20)
    for lo, decades in zip(10.0 ** rng.uniform(-9.0, 6.0, 4000),
                           rng.uniform(math.log10(4.0) + 1e-12, 12.0, 4000)):
        hi = lo * 10.0 ** decades
        n = math.ceil(math.log2(hi / lo)) + 1
        assert np.array_equal(quadrature._geometric_edges(lo, hi, n),
                              np.geomspace(lo, hi, n)), (lo, hi)


def test_sine_antiderivative_oracle():
    # int_a^r sin(x y) dx = (cos(a y) - cos(r y)) / y, frozen at (a, r, y) = (0.5, 3, 2).
    val, _ = _integrate(lambda x: np.sin(2.0 * x), (0.5, 3.0))
    assert val == pytest.approx((math.cos(1.0) - math.cos(6.0)) / 2.0, rel=1e-12)


def test_windows_only():
    # Ends at 0 and at infinity are the callers' to take in closed form.
    for window in ((0.0, 1.0), (-1.0, 1.0), (1.0, math.inf), (0.0, math.inf)):
        with pytest.raises(ValueError):
            integrate([np.ones_like], [window])
    assert integrate([np.ones_like], [(2.0, 1.0)]) == [(0.0, 0.0)]


@pytest.mark.filterwarnings("error")
def test_huge_integrand_raises_no_overflow_warning():
    # A panel's Kronrod-Gauss gap past 1.6e203 overflows the (200 diff)^1.5
    # scaling, which then yields to the gap itself: no warning, and the
    # value within its bar of the closed form.
    val, err = _integrate(lambda x: 1e300 * np.cos(40.0 * x), (1.0, 2.0))
    exact = 1e300 * (math.sin(80.0) - math.sin(40.0)) / 40.0
    assert abs(val - exact) <= err + 1e-12 * abs(exact)


@pytest.mark.parametrize("n,tol", [(10, 1e-14), (100, 1e-13), (10000, 1e-9)])
def test_oscillatory_cancellation(n, tol):
    # sin over n whole periods: the value, whose exact value is 0, lies
    # within its bar.
    cfg = QuadratureConfig(abs_tol=tol, max_panels=50000)
    period = 2.0 * math.pi
    val, err = _integrate(np.sin, (period, period * (n + 1)), cfg)
    assert abs(val) <= err


def test_integrable_endpoint_singularities():
    # Steep powers near the lower end of a window many decades long.
    val, _ = _integrate(lambda x: x ** -0.9, (1e-10, 1.0))
    assert val == pytest.approx(10.0 * (1.0 - 1e-1), rel=1e-10)
    val, _ = _integrate(lambda x: x ** -0.5, (1e-12, 2.0))
    assert val == pytest.approx(2.0 * (math.sqrt(2.0) - 1e-6), rel=1e-12)


def test_refinement_consistency():
    # Halving rel_tol never moves a converged value by more than the
    # previous error estimate.
    f = lambda x: np.sin(3.0 * x) * x ** -0.3
    v1, e1 = _integrate(f, (1e-3, 10.0), QuadratureConfig(rel_tol=1e-6))
    v2, _ = _integrate(f, (1e-3, 10.0), QuadratureConfig(rel_tol=5e-7))
    assert abs(v2 - v1) <= max(e1, 1e-14)



def test_windows_refined_together_keep_their_own_outcomes():
    # Windows that converge in their first batch, after refinement rounds,
    # never (panel budget) or whose integrand raises or is not finite: each
    # outcome together is bitwise the outcome alone, and a window leaves the
    # later rounds once it has one.
    cfg = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-14, max_panels=64)
    rounds = {}

    def counted(name, f):
        def g(x):
            rounds[name] = rounds.get(name, 0) + 1
            return f(x)
        return g

    def divergent(x):
        raise quadrature.DivergentIntegral("inner integral")

    cases = {"first batch": (lambda x: x ** 3, (1.0, 2.0)),
             "refined": (lambda x: np.sin(3.0 * x) * x ** -0.3, (1e-3, 10.0)),
             "budget": (np.sin, (2.0 * math.pi, 2002.0 * math.pi)),
             "raises": (divergent, (0.5, 1.0)),
             "not finite": (lambda x: np.where(x < 0.75, math.nan, x), (0.5, 2.0))}
    together = integrate([counted(name, f) for name, (f, _) in cases.items()],
                         [w for _, w in cases.values()], cfg)
    assert rounds == {"first batch": 1, "refined": 3, "budget": 9, "raises": 1, "not finite": 1}
    for (f, window), got in zip(cases.values(), together):
        (alone,) = integrate([f], [window], cfg)
        if isinstance(alone, Exception):
            assert (type(got), str(got)) == (type(alone), str(alone))
        else:
            assert got == alone
    assert [type(o) for o in together[2:]] == [quadrature.NonConvergence,
                                                quadrature.DivergentIntegral, ValueError]


def _weighted_norm(f, weight, p, domain):
    """(integral over the domain of weight |f|^p)^(1/p), as the command
    line's outer norm integrates its window."""
    val, _ = _integrate(lambda x: weight(x) * np.abs(f(x)) ** p, domain)
    return val ** (1.0 / p)


def test_weighted_lp_norm_closed_forms():
    assert _weighted_norm(np.ones_like, np.ones_like, 2.0, (0.5, 1.5)) == pytest.approx(
        1.0, rel=1e-10)

    # f = x^0.5 on (0, 2), weight x^(0.3 p) with p = 2: closed-form power integral.
    got = _weighted_norm(lambda x: np.where(x < 2.0, x ** 0.5, 0.0), lambda x: x ** 0.6,
                         2.0, (1e-3, 2.0))
    assert got == pytest.approx(((2.0 ** 2.6 - 1e-3 ** 2.6) / 2.6) ** 0.5, rel=1e-10)

    # The log family: f = 1/x on (1/N, N) with weight x^(p-1) has norm (2 log N)^(1/p).
    for N, p in ((2.0, 2.0), (1000.0, 2.0), (100.0, 1.5)):
        got = _weighted_norm(lambda x: 1.0 / x, lambda x, p=p: x ** (p - 1.0), p, (1.0 / N, N))
        assert got == pytest.approx((2.0 * math.log(N)) ** (1.0 / p), rel=1e-10)


@given(st.floats(min_value=-0.8, max_value=1.5),
       st.floats(min_value=0.2, max_value=5.0))
@settings(max_examples=25, deadline=None)
def test_norm_monotone_in_domain(expo, hi):
    # Enlarging the domain never decreases the weighted norm.
    f = lambda x: x ** 0.3
    w = lambda x: x ** expo
    n1 = _weighted_norm(f, w, 2.0, (1e-6, hi))
    n2 = _weighted_norm(f, w, 2.0, (1e-6, 2.0 * hi))
    assert n2 >= n1 * (1.0 - 1e-9)


def test_config_validation():
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=tol)
        with pytest.raises(ValueError):
            QuadratureConfig(abs_tol=tol)
    with pytest.raises(ValueError):
        QuadratureConfig(max_panels=0)


TABLE_CASES = [(hankel(0.0), 1.0), (hankel(1.5), -0.5), (scripth(0.0), 0.5), (sine(), -2.5)]


def test_table_reads_match_integrate():
    # The Chebyshev pieces of a dilation table read integral_1^x t^nu phi(t)
    # dt within the sum of their bar and the Kronrod error.
    spec, nu = TABLE_CASES[0]
    table = DilationTable(spec.kernel, nu)
    xs = np.concatenate([table.edges, [1.37, 5.5, 0.5 * (table.reach + 12.0)]])
    reads, read_errs = table._mid(xs)
    cfg = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-15)
    for x, read, read_err in zip(xs, reads, read_errs):
        val, err = _integrate(lambda t: t ** nu * spec.kernel.phi(t), (1.0, x), cfg)
        assert abs(read - val) <= read_err + err, x


def test_table_reads_on_edges_are_prefix_sums():
    # A read on a piece edge is that edge's prefix sum, to rounding, and no
    # read evaluates a kernel point.
    points = []

    def phi(t):
        points.append(np.size(t))
        return hankel(0.0).kernel.phi(t)

    table = DilationTable(dataclasses.replace(hankel(0.0).kernel, phi=phi), 1.0)
    del points[:]
    reads, errs = table._mid(table.edges)
    assert points == []
    rounding = 4.0 * np.finfo(float).eps * np.cumsum(np.abs(table.prefix))
    np.testing.assert_allclose(reads, table.prefix, rtol=0.0, atol=float(rounding[-1]))


@pytest.mark.parametrize("spec,nu", TABLE_CASES, ids=["j0-1", "j1.5--0.5", "h0-0.5", "sin--2.5"])
def test_chebyshev_reads_against_mpmath(spec, nu):
    # integral_1^x t^nu phi(t) dt from the Chebyshev pieces at 16 points of
    # (1, reach], each within its bar of 20-digit mpmath quadrature, and the
    # largest bar within 1e4 times the largest error seen.
    table = DilationTable(spec.kernel, nu)
    xs = np.linspace(1.0, table.reach, 17)[1:]
    reads, errs = table._mid(xs)
    kind, alpha = spec.kernel.kind, mpmath.mpf(spec.alpha or 0.0)

    def phi(t):
        if kind == "bessel_j":
            return mpmath.gamma(alpha + 1) * (2 / t) ** alpha * mpmath.besselj(alpha, t)
        return mpmath.struveh(alpha, t) if kind == "struve_h" else mpmath.sin(t)

    worst, exact, lo = 0.0, mpmath.mpf(0), mpmath.mpf(1)
    with mpmath.workdps(20):
        for x, read, err in zip(xs, reads, errs):
            exact += mpmath.quad(lambda t: t ** nu * phi(t), [lo, mpmath.mpf(x)])
            lo = mpmath.mpf(x)
            assert abs(mpmath.mpf(read) - exact) <= err, x
            worst = max(worst, float(abs(mpmath.mpf(read) - exact)))
    assert np.max(errs) <= 1e4 * max(worst, 1e-16)


def _kronrod_rule():
    """(nodes, Kronrod weights, Gauss weights) of the 15-point Gauss-Kronrod
    rule at 40 digits: the Gauss nodes are the roots of P_7 and their
    weights 2 / ((1 - x^2) P_7'(x)^2); the four positive Kronrod nodes and
    the eight weights at 0 and the positive nodes solve the even moment
    equations sum w x^(2m) = 2 / (2m + 1) to degree 22 by Newton's method,
    started from the module's values."""
    with mpmath.workdps(40):
        gauss = [mpmath.findroot(lambda x: mpmath.legendre(7, x), mpmath.mpf(x0))
                 for x0 in quadrature._GK_NODES[1::2]]
        gauss_w = [2 / ((1 - x * x) * (7 * (x * mpmath.legendre(7, x) - mpmath.legendre(6, x))
                                      / (x * x - 1)) ** 2) for x in gauss]
        positive = gauss[4:]

        def moments(*u):
            nodes = [u[0], positive[0], u[1], positive[1], u[2], positive[2], u[3]]
            return [(u[4] if m == 0 else 0) - mpmath.mpf(2) / (2 * m + 1)
                    + 2 * sum(w * x ** (2 * m) for w, x in zip(u[5:], nodes)) for m in range(12)]

        start = ([mpmath.mpf(x) for x in quadrature._GK_NODES[8::2]]
                 + [mpmath.mpf(w) for w in quadrature._GK_WEIGHTS_K[7:]])
        u = mpmath.findroot(moments, start)
        half = [u[0], positive[0], u[1], positive[1], u[2], positive[2], u[3]]
        nodes = [-x for x in half[::-1]] + [mpmath.mpf(0)] + half
        weights = list(u[5:])[::-1] + [u[4]] + list(u[5:])
        gauss_weights = [0 * x for x in nodes]
        gauss_weights[1::2] = gauss_w
        return [np.array([float(v) for v in col]) for col in (nodes, weights, gauss_weights)]


def test_kronrod_constants_are_full_precision():
    # The module's constants equal the 40-digit rule rounded to double, to 1 ulp.
    for module, derived in zip((quadrature._GK_NODES, quadrature._GK_WEIGHTS_K,
                                quadrature._GK_WEIGHTS_G), _kronrod_rule()):
        assert np.all(np.abs(module - derived) <= np.spacing(np.abs(derived)))
