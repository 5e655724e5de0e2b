import math
import sys
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wnilab.conditions import check_gm
from wnilab.transforms import check_admissible, hankel, scripth
from wnilab.weights import (ExponentSet, FunctionFamily, GMWitness, Piece, SingularSystem,
                            TestFunction, Weight, make_log_counterexample,
                            make_truncated_power, make_vanishing_moment_function,
                            power_moment)


def test_weight_forms_and_exponents():
    w = Weight.power(0.6)
    assert w(2.0) == pytest.approx(2.0 ** 0.6)
    assert w.exponents[0] == w.exponents[-1] == 0.6

    pw = Weight.piecewise_power(-0.3, 0.7)
    assert pw(0.5) == pytest.approx(0.5 ** -0.3)
    assert pw(2.0) == pytest.approx(2.0 ** 0.7)
    assert pw.exponents[0] == -0.3 and pw.exponents[-1] == 0.7

    xs = np.geomspace(1e-2, 1e2, 41)
    tab = Weight.tabulated(xs, xs ** 1.3)
    assert tab(3.0) == pytest.approx(3.0 ** 1.3, rel=1e-3)
    assert tab.exponents[0] == pytest.approx(1.3, abs=1e-6)
    # power-law extrapolation beyond the table
    assert tab(1e3) == pytest.approx(1e3 ** 1.3, rel=1e-2)


@given(st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=40, deadline=None)
def test_power_weight_homogeneous(expo, t, x):
    w = Weight.power(expo)
    assert w(t * x) == pytest.approx(t ** expo * w(x), rel=1e-12)


def test_weight_descriptor_roundtrip():
    # Each descriptor form builds the weight its factory builds.
    cases = [({"form": "power", "exponent": -0.4}, Weight.power(-0.4)),
             ({"form": "power", "exponent": 0.5, "coefficient": 2.0}, Weight.power(0.5, 2.0)),
             ({"form": "piecewise_power", "a1": 0.2, "a2": -1.1},
              Weight.piecewise_power(0.2, -1.1)),
             ({"form": "tabulated", "x": [0.5, 1.0, 4.0], "y": [1.0, 2.0, 3.0]},
              Weight.tabulated([0.5, 1.0, 4.0], [1.0, 2.0, 3.0]))]
    xs = np.geomspace(0.1, 10.0, 9)
    for d, w in cases:
        again = Weight.from_descriptor(d)
        assert again.nodes == w.nodes
        assert (again.exponents[0], again.exponents[-1]) == (w.exponents[0], w.exponents[-1])
        assert np.array_equal(again(xs), w(xs))


def test_weight_product_tracks_exponents():
    prod = Weight.product([(Weight.power(1.0), 2.0), (Weight.piecewise_power(-0.5, 0.5), -1.0)])
    assert prod.exponents[0] == pytest.approx(2.5)
    assert prod.exponents[-1] == pytest.approx(1.5)
    assert prod(2.0) == pytest.approx(4.0 / 2.0 ** 0.5)
    assert prod.nodes == (1.0,)


def test_product_of_tabulated_and_power_is_the_product_of_its_factors():
    # At the union of the nodes (the table's and the power's 1) and between
    # them, the product's log-linear read is its factors' product.
    tab = Weight.tabulated([0.2, 0.7, 3.0, 9.0], [0.5, 1.3, 0.8, 2.0])
    power = Weight.power(-0.6, coefficient=1.5)
    prod = Weight.product([(tab, 2.0), (power, 1.0)])
    assert prod.nodes == (0.2, 0.7, 1.0, 3.0, 9.0)
    xs = np.sort(np.concatenate([prod.nodes, np.geomspace(0.2, 9.0, 23)]))
    np.testing.assert_allclose(prod(xs), tab(xs) ** 2 * power(xs), rtol=1e-15)


def _ulps(a: float, b: float) -> float:
    return 0.0 if a == b else abs(a - b) / math.ulp(max(abs(a), abs(b)))


_exponent = st.floats(min_value=-3.0, max_value=3.0)


@given(_exponent, _exponent, st.floats(min_value=0.1, max_value=10.0),
       st.lists(st.floats(min_value=0.05, max_value=2.0), min_size=2, max_size=8),
       st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=8, max_size=8))
@settings(max_examples=60, deadline=None)
def test_scalar_node_values_agree_with_array_reads(e1, e2, coefficient, log_gaps, log_y):
    # A read at a float is scalar pow on the float table, a read at an array
    # numpy's array pow, which may differ from it in the last bit.  At every
    # node they agree within 1 ulp where w(node) is the pow alone (anchor
    # value 1), and within 2 ulps where an anchor value multiplies it.
    xs = np.exp(np.cumsum(log_gaps) - 3.0).tolist()
    unit = [Weight.power(e1), Weight.piecewise_power(e1, e2)]
    scaled = [Weight.power(e1, coefficient),
              Weight.tabulated(xs, [math.exp(t) for t in log_y[:len(xs)]]),
              Weight.tabulated(xs, [coefficient * x ** e1 for x in xs])]
    for ulps, weights in ((1.0, unit), (2.0, scaled)):
        for w in weights:
            nodes = list(w.nodes)
            for x, at_array in zip(nodes, w(np.array(nodes)).tolist()):
                assert _ulps(w(x), at_array) <= ulps, (w.nodes, x)


@given(st.lists(st.tuples(st.sampled_from(["power", "piecewise", "tabulated"]), _exponent,
                          _exponent, st.floats(min_value=-2.0, max_value=2.0)),
                min_size=2, max_size=4))
@settings(max_examples=60, deadline=None)
def test_product_exponents_are_the_factor_sums(draws):
    # On each segment of a product its exponent is sum p e over the factors'
    # exponents there, summed in the factors' order: exactly, not to rounding.
    factors = []
    for i, (form, e1, e2, p) in enumerate(draws):
        if form == "power":
            w = Weight.power(e1)
        elif form == "piecewise":
            w = Weight.piecewise_power(e1, e2)
        else:
            xs = [0.5 + i, 2.0 + i, 7.0 + i]
            ys = [x ** e1 for x in xs[:2]]  # a kink at xs[1] where e2 != e1
            w = Weight.tabulated(xs, ys + [ys[1] * (xs[2] / xs[1]) ** e2])
        factors.append((w, p))
    prod = Weight.product(factors)
    for start, exponent in zip(prod.edges, prod.exponents):
        expected = 0.0
        for w, p in factors:
            if p != 0.0:
                expected += p * w.exponents[sum(k <= start for k in w.kinks)]
        assert exponent == expected, (start, exponent, expected)


@pytest.mark.parametrize("make", [
    lambda: Weight.tabulated([0.2, 0.7, 3.0, 9.0], [0.5, 1.3, 0.8, 0.02]),
    lambda: Weight.product([(Weight.tabulated([0.2, 0.7, 3.0, 9.0], [0.5, 1.3, 0.8, 2.0]), 2.0),
                            (Weight.piecewise_power(-0.4, -7.0), 1.0)]),
], ids=["tabulated", "product"])
@pytest.mark.parametrize("upper", [False, True])
def test_weight_integral_does_not_depend_on_read_order(make, upper):
    # The first read fills the prefix and suffix sums.  Reads made in
    # opposite orders, one array against one x at a time after a first read
    # in the other direction, are the same to the bit.
    xs = np.concatenate([np.geomspace(1e-3, 1e3, 37), [0.2, 0.7, 1.0, 3.0, 9.0]])
    first, second = make(), make()
    forward = first.integral(xs, upper)
    second.integral(xs[::-1], not upper)
    backward = [second.integral(x, upper) for x in xs[::-1]]
    np.testing.assert_array_equal(np.array(backward[::-1]), forward)
    np.testing.assert_array_equal(first.integral(xs[::-1], upper)[::-1], forward)
    assert np.all(np.isfinite(forward) & (forward > 0.0))


@pytest.mark.parametrize("make", [
    lambda: Weight.piecewise_power(0.5, -2.5),
    lambda: Weight.product([(Weight.tabulated([0.2, 0.7, 3.0, 9.0], [0.5, 1.3, 0.8, 2.0]), 2.0),
                            (Weight.piecewise_power(-0.4, -7.0), 1.0)]),
    lambda: Weight.tabulated([0.1, 0.3, 1.0, 10.0], [2.0, 0.0, 1.0, 0.5]),
    # The zero squared underflows: the segment rising from it is anchored
    # at its other end.
    lambda: Weight.product([(Weight.tabulated([0.1, 0.3, 1.0, 10.0], [2.0, 0.0, 1.0, 0.5]), 2.0)]),
], ids=["piecewise", "product", "tabulated-zero", "tabulated-zero-squared"])
def test_weight_value_is_the_density_it_integrates(make):
    # A fine log-grid trapezoid of w across each segment (the outer ones cut
    # a decade beyond the outermost kink) matches the difference of its
    # integral, and w reads no NaN anywhere.
    w = make()
    edges = np.concatenate([[w.kinks[0] / 10.0], w.kinks, [w.kinks[-1] * 10.0]])
    for a, b in zip(edges, edges[1:]):
        t = np.linspace(math.log(a), math.log(b), 400_001)
        trapezoid = np.trapezoid(w(np.exp(t)) * np.exp(t), t)
        exact = w.integral(b) - w.integral(a)
        assert abs(trapezoid - exact) <= 1e-6 * exact, (a, b)
    xs = np.concatenate([[0.0, math.inf], np.geomspace(1e-300, 1e300, 601)])
    assert not np.any(np.isnan(w(xs)))


def test_product_of_one_weight_at_power_one_is_that_weight():
    w = Weight.tabulated([0.2, 0.7, 3.0], [0.5, 1.3, 0.8])
    assert Weight.product([(w, 1.0)]) is w
    assert Weight.product([(w, 1.0), (Weight.power(2.0), 0.0)]) is w
    assert Weight.product([(w, 2.0)]) is not w


def test_weight_integral_filled_once_across_threads():
    # The segment sums are filled on the first read; threads racing on that
    # fill read the same values as one thread alone.
    factors = [(Weight.tabulated([0.2, 0.7, 3.0, 9.0], [0.5, 1.3, 0.8, 2.0]), 1.0),
               (Weight.power(-1.5), 1.0)]
    xs = np.geomspace(1e-3, 1e3, 41)
    expected = Weight.product(factors).integral(xs, upper=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            shared = Weight.product(factors)
            with ThreadPoolExecutor(max_workers=8) as pool:
                reads = [pool.submit(shared.integral, xs, True) for _ in range(8)]
                for read in reads:
                    np.testing.assert_array_equal(read.result(timeout=10), expected)
    finally:
        sys.setswitchinterval(interval)


def test_exponent_set():
    es = ExponentSet(p=2.0, q=2.0, a=1.0)
    assert es.p_prime == 2.0 and math.isinf(es.a_prime)
    es = ExponentSet(p=1.5, q=3.0, a=2.0)
    assert es.p_prime == pytest.approx(3.0)
    assert es.a_prime == pytest.approx(2.0)
    assert ExponentSet(p=2, q=2, a=math.inf).a_prime == 1.0
    with pytest.raises(ValueError):
        ExponentSet(p=2.0, q=1.5)
    with pytest.raises(ValueError):
        ExponentSet(p=1.0, q=2.0)


def test_truncated_power_families():
    f = make_truncated_power(0.0, 1.0, "left")
    xs = np.array([0.5, 0.99, 1.01, 3.0])
    assert np.allclose(f(xs), [1.0, 1.0, 0.0, 0.0])
    g = make_truncated_power(-2.0, 1.0, "right")
    assert g(2.0) == pytest.approx(0.25)
    assert g(0.5) == 0.0
    assert [(p.lo, p.hi) for p in g.pieces] == [(1.0, math.inf)]
    with pytest.raises(ValueError):
        make_truncated_power(0.0, 1.0, "middle")


def test_log_counterexample_exact_moment():
    f = make_log_counterexample(10.0, 0.0)
    assert f.moment(0.0) == 0.0  # log N - log N, exactly
    assert _moment_by_quadrature(f, 0.0) == pytest.approx(0.0, abs=1e-12)
    # Weighted 2-norm with v = x^(p-1): (2 log N)^(1/2).
    mass = f.abs_weighted_integral(1.0, 0.0, math.inf)  # int x |f| = N - 1/N
    assert mass == pytest.approx(10.0 - 0.1, rel=1e-12)
    with pytest.raises(ValueError):
        make_log_counterexample(1.5, 0.0)


def test_abs_weighted_integral_broadcasts_over_its_ends():
    # Array ends read each (a, b) as the scalar call does, bit for bit, and a
    # scalar call is the per-piece sum with the ends clipped by max and min.
    f = make_log_counterexample(10.0, 0.0)
    a = np.array([0.0, 0.05, 0.5, 2.0, 20.0, 0.3])
    b = np.array([0.1, 1.0, 3.0, math.inf, 30.0, 0.2])
    for mu in (-1.5, 0.0, 1.0):
        scalar = [f.abs_weighted_integral(mu, x, y) for x, y in zip(a.tolist(), b.tolist())]
        assert all(type(v) is float for v in scalar)
        assert f.abs_weighted_integral(mu, a, b).tolist() == scalar
        assert scalar == [sum(abs(p.coef) * power_moment(mu + p.exponent, max(x, p.lo),
                                                         min(y, p.hi)) for p in f.pieces)
                          for x, y in zip(a.tolist(), b.tolist())]


def _moment_by_quadrature(f, mu):
    """integral x^mu f by mpmath quadrature of f's values, piece by piece,
    an oracle independent of the exact moments and of the package's
    quadrature."""
    return float(sum(mpmath.quad(lambda x: x ** mu * float(f(float(x))), [p.lo, p.hi])
                     for p in f.pieces))


def test_declared_moments_verified_at_construction():
    with pytest.raises(ValueError):
        TestFunction("bogus", [Piece(0.0, 1.0, 1.0, 0.0)], vanished_moments=(0.0,))


@pytest.mark.parametrize("pieces", [
    [],
    [Piece(2.0, 1.0, 1.0, 0.0)],
    [Piece(0.0, 1.0, 1.0, 0.0), Piece(0.0, 1.0, -1.0, 0.0)],
    [Piece(1.0, 3.0, 1.0, 0.0), Piece(0.0, 2.0, 1.0, 0.0)],
], ids=["no-pieces", "lo-above-hi", "same-interval", "overlap-unsorted"])
def test_test_function_pieces_are_disjoint(pieces):
    # f = 1 - 1 on (0, 1) as two pieces would be f = 0 with an absolute
    # integral of 2: overlapping pieces are refused.
    with pytest.raises(ValueError):
        TestFunction("bad", pieces)


def test_vanishing_moment_construction():
    f = make_vanishing_moment_function([2.0, 4.0], [0.25, 0.75, 2.0, 6.0])
    assert abs(f.moment(2.0)) < 1e-12
    assert abs(f.moment(4.0)) < 1e-12
    assert abs(_moment_by_quadrature(f, 2.0)) < 1e-12
    # One killed moment on nodes {1/N, 1, N} reproduces the log family shape.
    g = make_vanishing_moment_function([0.0], [0.1, 1.0, 10.0])
    assert g.pieces[0].exponent == pytest.approx(-1.0)
    assert g.pieces[0].coef == pytest.approx(-g.pieces[1].coef)
    # No orders: base function unchanged up to trivial wrapping.
    h = make_vanishing_moment_function([], [1.0, 2.0])
    assert h(1.5) == pytest.approx(1.0)
    with pytest.raises(SingularSystem):
        make_vanishing_moment_function([1.0], [1.0, 2.0])  # one interval only


def test_gm_witnesses():
    assert check_gm(make_truncated_power(0.0, 1.0, "left")) is not None
    assert check_gm(make_truncated_power(1.5, 2.0, "left")) is not None
    mono = TestFunction("x^-1", [Piece(0.0, math.inf, 1.0, -1.0)])
    assert check_gm(mono) is not None
    assert check_gm(np.sin) is None  # no closed form, nothing to certify
    # A constant has no variation, so no witness with C > 0.
    assert check_gm(TestFunction("1", [Piece(0.0, math.inf, 1.0, 0.0)])) is None


def test_gm_witness_validation():
    with pytest.raises(ValueError):
        GMWitness(C=0.0, lam=2.0)
    with pytest.raises(ValueError):
        GMWitness(C=1.0, lam=1.0)


def test_gm_stability_under_power_scaling():
    # If f has a witness then x^sigma f does too, for sigma in {-1, 1}.
    f = make_truncated_power(0.5, 1.0, "left")
    assert check_gm(f) is not None
    for sigma in (-1.0, 1.0):
        assert check_gm(f.scaled(sigma)) is not None


def test_gm_decay_along_grid_tail():
    # General-monotone f with finite tail integral has x |f(x)| -> 0: the
    # last decade of the tail grid sits far below its first decade.
    f = TestFunction("min(1,x^-2)", [Piece(0.0, 1.0, 1.0, 0.0),
                                     Piece(1.0, math.inf, 1.0, -2.0)])
    assert check_gm(f) is not None
    grid = np.geomspace(1.0, 1e3, 121)
    vals = grid * np.abs(f(grid))
    first = np.max(vals[grid <= 10.0])
    last = np.max(vals[grid >= 1e2])
    assert last <= 0.1 * first


def test_power_moment_divergent_ends():
    assert power_moment(-1.5, 0.0, 1.0) == math.inf
    assert power_moment(-1.0, 0.0, 1.0) == math.inf
    assert power_moment(-1.0, 1.0, math.inf) == math.inf
    assert power_moment(-0.5, 1.0, math.inf) == math.inf
    assert power_moment(-0.5, 0.0, 4.0) == pytest.approx(4.0)
    assert power_moment(-1.0, 1.0, math.e) == pytest.approx(1.0)
    assert power_moment(-3.0, 1.0, math.inf) == pytest.approx(0.5)
    f = TestFunction("x^-3", [Piece(0.0, 1.0, 1.0, -3.0)])
    assert f.abs_weighted_integral(0.0, 0.0, 1.0) == math.inf
    rep = check_admissible(f, hankel(0.0), "standard")
    assert not rep and math.isinf(rep.near_origin)


def test_admissibility_modes():
    hk = hankel(0.0)
    ind = make_truncated_power(0.0, 1.0, "left")
    rep = check_admissible(ind, hk, "standard")
    assert rep and math.isfinite(rep.near_origin)

    # f = x^{-b} exactly is not admissible in gm mode: log-divergent tail.
    sh = scripth(0.75)
    b = sh.primitive_bound.b
    f = TestFunction("x^-b", [Piece(0.0, math.inf, 1.0, -b)])
    rep = check_admissible(f, sh, "gm")
    assert not rep and math.isinf(rep.tail)

    # The extremal family x^(a+1/2) on (0, r) is admissible for the Struve transform.
    fr = make_truncated_power(0.75 + 0.5, 1.0, "left")
    assert check_admissible(fr, sh, "gm")
    assert check_admissible(fr, sh, "standard")

    with pytest.raises(ValueError):
        check_admissible(ind, hk, "bogus")


@pytest.mark.parametrize("sigma,side,start,stop,points", [
    (0.0, "left", 10.0 ** -2.8, 10.0 ** 3.2, 13),   # a hankel-verify grid
    (0.5, "left", 0.1 * 10.0 ** 0.37, 10.0 ** 1.37, 6),  # a scripth-probe grid
    (-2.5, "right", 1e-120, 1e120, 9),
])
def test_truncated_powers_are_one_dilation_class(sigma, side, start, stop, points):
    # x^sigma on (0, r) or (r, inf) is r^sigma g(x / r) with g the same unit
    # member, float for float: one class, whatever the grid.
    members = [make_truncated_power(sigma, r, side)
               for r in np.geomspace(start, stop, points).tolist()]
    fam = FunctionFamily(members)
    units, index, scale, log_coef = fam.dilations(0.0, math.inf)
    assert index.tolist() == [0] * points and len(units.members) == 1
    assert scale.tolist() == [f.params["r"] for f in members]
    assert np.allclose(log_coef, sigma * np.log(scale), rtol=1e-15, atol=1e-300)
    assert units.coef.tolist() == [[1.0]] and units.jump_x.tolist() == [[1.0]]
    assert units.lo.tolist() == [[0.0 if side == "left" else 1.0]]
    # On a finite lhs window the scaled domains differ: classes of one.
    assert fam.dilations(0.0, 2.0)[1].tolist() == list(range(points))


def test_dilation_classes_depend_on_each_member_alone():
    # Members split at r/2 and at r/4 form two classes in any order and in
    # any company; log counterexamples of different N are classes of one.
    def split(r, at):
        return TestFunction("split", [Piece(0.0, r * at, 1.5, -0.5), Piece(r * at, r, -1.0, -0.5)])

    members = [split(r, at) for r in (0.3, 1.0, 7.0) for at in (0.5, 0.25)]
    units, index, scale, log_coef = FunctionFamily(members).dilations(0.0, math.inf)
    assert index.tolist() == [0, 1] * 3 and len(units.members) == 2
    assert units.hi.tolist() == [[0.5, 1.0], [0.25, 1.0]]
    assert units.coef.tolist() == [[1.0, -1.0 / 1.5]] * 2
    for i, f in enumerate(members):
        unit = FunctionFamily([f]).dilations(0.0, math.inf)
        assert repr(unit[0].lo) == repr(units.lo[index[i]:index[i] + 1])
        assert (unit[2][0], unit[3][0]) == (scale[i], log_coef[i])
        # f(x) = c g(x / lam) at points inside every piece
        xs = np.array([0.1, 0.4, 0.9]) * scale[i]
        g = units.members[index[i]](xs / scale[i])
        assert np.allclose(f(xs), np.exp(log_coef[i]) * g, rtol=1e-14)
    logs = FunctionFamily([make_log_counterexample(n, 1.0) for n in (2.0, 10.0, 100.0)])
    assert logs.dilations(0.0, math.inf)[1].tolist() == [0, 1, 2]
