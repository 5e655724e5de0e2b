import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wnilab.conditions import _bracket
from wnilab.kernels import bessel_j
from wnilab.quadrature import (CumulativeIntegral, DivergentIntegral, NoDecay,
                               NonConvergence, NormSpec, QuadratureConfig, integrate,
                               tail_truncation_point, weighted_lp_norm)
from wnilab.weights import Weight


def test_polynomial_exactness_single_panel():
    # The Kronrod rule integrates polynomials well past degree 20 on one panel.
    for k in (0, 3, 7, 13, 20):
        val, _ = integrate(lambda x, k=k: x ** k, (1.0, 2.0))
        exact = (2.0 ** (k + 1) - 1.0) / (k + 1)
        assert val == pytest.approx(exact, rel=1e-13)


def test_trivial_closed_forms():
    val, _ = integrate(lambda x: x, (0.0, 1.0))
    assert val == pytest.approx(0.5, rel=1e-12)
    val, _ = integrate(lambda x: np.minimum(1.0, x ** -2.0), (0.0, math.inf),
                       tail_bound=(1.0, -2.0))
    assert val == pytest.approx(2.0, rel=1e-8)


def test_sine_antiderivative_oracle():
    # int_0^r sin(x y) dx = (1 - cos(r y)) / y, frozen at (r, y) = (3, 2).
    val, _ = integrate(lambda x: np.sin(2.0 * x), (0.0, 3.0), wavelength=math.pi)
    assert val == pytest.approx((1.0 - math.cos(6.0)) / 2.0, rel=1e-12)


@pytest.mark.parametrize("n,tol", [(10, 1e-14), (100, 1e-13), (10000, 1e-9)])
def test_oscillatory_cancellation(n, tol):
    cfg = QuadratureConfig(abs_tol=tol, max_panels=50000)
    val, err = integrate(np.sin, (0.0, 2.0 * math.pi * n), cfg, wavelength=2.0 * math.pi)
    assert abs(val) <= tol


def test_integrable_endpoint_singularities():
    val, _ = integrate(lambda x: x ** -0.9, (0.0, 1.0))
    assert val == pytest.approx(10.0, rel=1e-10)
    val, _ = integrate(lambda x: x ** -0.5, (0.0, 2.0))
    assert val == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)


def test_divergence_verdicts():
    with pytest.raises(DivergentIntegral) as exc:
        integrate(lambda x: x ** -1.5, (0.0, 1.0))
    assert "0" in exc.value.direction
    with pytest.raises(DivergentIntegral) as exc:
        integrate(lambda x: x ** 0.2, (1.0, math.inf))
    assert "inf" in exc.value.direction
    # Logarithmic tails are indistinguishable from slow convergence at any
    # finite horizon: the policy reports NonConvergence, not Divergent.
    with pytest.raises(NonConvergence):
        integrate(lambda x: 1.0 / x, (1.0, math.inf))


def test_refinement_consistency():
    # Halving rel_tol never moves a converged value by more than the
    # previous error estimate.
    f = lambda x: np.sin(3.0 * x) * x ** -0.3
    v1, e1 = integrate(f, (0.0, 10.0), QuadratureConfig(rel_tol=1e-6),
                       wavelength=2.0 * math.pi / 3.0)
    v2, _ = integrate(f, (0.0, 10.0), QuadratureConfig(rel_tol=5e-7),
                      wavelength=2.0 * math.pi / 3.0)
    assert abs(v2 - v1) <= max(e1, 1e-14)


def test_weighted_lp_norm_closed_forms():
    spec = NormSpec(p=2.0, weight=lambda x: np.ones_like(x), domain=(0.0, 1.0))
    assert weighted_lp_norm(lambda x: np.ones_like(x), spec) == pytest.approx(1.0, rel=1e-10)

    # f = x^0.5 on (0, 2), weight x^(0.3 p) with p = 2: closed-form power integral.
    spec = NormSpec(p=2.0, weight=lambda x: x ** 0.6, domain=(0.0, 2.0))
    got = weighted_lp_norm(lambda x: np.where(x < 2.0, x ** 0.5, 0.0), spec)
    assert got == pytest.approx((2.0 ** 2.6 / 2.6) ** 0.5, rel=1e-10)

    # The log family: f = 1/x on (1/N, N) with weight x^(p-1) has norm (2 log N)^(1/p).
    for N, p in ((2.0, 2.0), (1000.0, 2.0), (100.0, 1.5)):
        spec = NormSpec(p=p, weight=lambda x, p=p: x ** (p - 1.0), domain=(1.0 / N, N))
        got = weighted_lp_norm(lambda x: 1.0 / x, spec)
        assert got == pytest.approx((2.0 * math.log(N)) ** (1.0 / p), rel=1e-10)


def test_norm_divergence_verdict():
    spec = NormSpec(p=2.0, weight=lambda x: np.ones_like(x), domain=(0.0, math.inf))
    with pytest.raises(DivergentIntegral):
        weighted_lp_norm(lambda x: np.ones_like(x), spec)


def test_sup_norm():
    spec = NormSpec(p=math.inf, weight=lambda x: np.ones_like(x), domain=(0.1, 100.0))
    got = weighted_lp_norm(lambda x: x * np.exp(-x), spec)
    assert got == pytest.approx(math.exp(-1.0), rel=1e-6)


@given(st.floats(min_value=-0.8, max_value=1.5),
       st.floats(min_value=0.2, max_value=5.0))
@settings(max_examples=25, deadline=None)
def test_norm_monotone_in_domain(expo, hi):
    # Enlarging the domain never decreases the weighted norm.
    f = lambda x: x ** 0.3
    w = lambda x: x ** expo
    n1 = weighted_lp_norm(f, NormSpec(p=2.0, weight=w, domain=(0.0, hi)))
    n2 = weighted_lp_norm(f, NormSpec(p=2.0, weight=w, domain=(0.0, 2.0 * hi)))
    assert n2 >= n1 * (1.0 - 1e-9)


def test_tail_truncation_point():
    assert tail_truncation_point(1.0, -2.0, 1e-10) == pytest.approx(1e10, rel=1e-12)
    assert tail_truncation_point(3.0, -3.0, 1.5e-6) == pytest.approx(1000.0, rel=1e-12)
    with pytest.raises(NoDecay):
        tail_truncation_point(1.0, -1.0, 1e-6)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(max_panels=0)


def test_condition_bracket_refines_kink_off_octave_grid():
    # Log-linear table of x^(1/2) on (0, 3] and 9 sqrt(3) x^-2 on [3, inf):
    # the kink at 3 lies inside the octave panel [2, 4], and the integral
    # over (0, inf) is 2 sqrt(3) + 3 sqrt(3) = 5 sqrt(3).
    xs = [1e-3, 1e-2, 0.1, 1.0, 3.0, 10.0, 100.0, 1e3]
    ys = [x ** 0.5 if x <= 3.0 else 9.0 * math.sqrt(3.0) * x ** -2.0 for x in xs]
    table = _bracket([(Weight.tabulated(xs, ys), 1.0)])
    exact = 5.0 * math.sqrt(3.0)
    for r in (0.05, 1.0, 2.5, 3.0, 3.5, 7.0, 500.0):
        assert table.lower(r) + table.upper(r) == pytest.approx(exact, rel=1e-12)
    for r in (0.05, 1.0, 2.5, 3.0):
        assert table.lower(r) == pytest.approx(2.0 / 3.0 * r ** 1.5, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.5])
def test_bessel_primitive_table_closed_form(alpha):
    # integral_0^x t^(2a+1) j_a(t) dt = Gamma(a+1) 2^a x^(a+1) J_(a+1)(x),
    # with j_a = Gamma(a+1) (2/t)^a J_a(t) the normalized Bessel function.
    xs = np.geomspace(0.01, 60.0, 25)
    table = CumulativeIntegral(lambda t: t ** (2.0 * alpha + 1.0) * bessel_j(alpha, t),
                               np.concatenate([[0.0], xs]), wavelength=2.0 * math.pi)
    for x in xs:
        exact = float(mpmath.gamma(alpha + 1.0) * mpmath.mpf(2.0) ** alpha
                      * mpmath.mpf(x) ** (alpha + 1.0) * mpmath.besselj(alpha + 1.0, x))
        assert table.lower(x) == pytest.approx(exact, rel=1e-10)


def test_table_reads_match_integrate():
    f = lambda t: t ** -0.4 * np.cos(2.0 * t)
    xs = np.geomspace(0.1, 20.0, 9)
    table = CumulativeIntegral(f, np.concatenate([[0.0], xs]), wavelength=math.pi)
    total, total_err = integrate(f, (0.0, 20.0), wavelength=math.pi)
    rs = np.concatenate([xs, [0.37, 5.5, 19.9]])
    reads, read_errs = table.lower_with_error(rs)
    for x, read, read_err in zip(rs, reads, read_errs):
        val, err = integrate(f, (0.0, x), wavelength=math.pi)
        assert abs(table.lower(x) - val) <= table.error + err
        assert abs(table.upper(x) - (total - val)) <= table.error + total_err + err
        assert read == pytest.approx(table.lower(x), rel=1e-14)
        assert abs(read - val) <= read_err + err


def test_bracket_upper_reads_suffix_sums():
    # x^-2 on the octave table: nearly all of its mass sits near 2^-50, so
    # an upper read taken as total minus prefix keeps no digit of 1/r.
    table = _bracket([(Weight.power(-2.0), 1.0)])
    for r in (1e-3, 0.3, 7.0, 1e4, 1e12):
        assert table.upper(r) == pytest.approx(1.0 / r, rel=1e-12)


def test_table_power_slivers_and_endpoint_divergence():
    edges = 2.0 ** np.arange(-50, 52, dtype=float)
    table = CumulativeIntegral(lambda x: (1.0 + x) ** -2.0, edges, exponents=(0.0, -2.0))
    assert not (table.diverges_at_zero or table.diverges_at_infinity)
    for r in (1e-20, 1e-9, 0.3, 7.0, 1e9):
        assert table.lower(r) == pytest.approx(r / (1.0 + r), rel=1e-12)
    for r in (1e-9, 0.3, 7.0, 1e9, 1e20):
        assert table.upper(r) == pytest.approx(1.0 / (1.0 + r), rel=1e-12)
    table = CumulativeIntegral(lambda x: x ** -2.0, edges, exponents=(-2.0, -2.0))
    assert table.diverges_at_zero and table.lower(1.0) == math.inf
    table = CumulativeIntegral(lambda x: x ** 0.5, edges, exponents=(0.5, 0.5))
    assert table.diverges_at_infinity and table.upper(1.0) == math.inf
    for r in (1e-20, 0.3, 7.0):
        assert table.lower(r) == pytest.approx(2.0 / 3.0 * r ** 1.5, rel=1e-12)


def test_bracket_reads_beyond_edges_on_growing_side():
    # Beyond the octave edges [2^-50, 2^51] the reads continue the end
    # powers: integral_0^r x^(-1/2) = 2 r^(1/2), integral_r^inf x^(-3/2) =
    # 2 r^(-1/2), and integral_r^inf min(x^-1, x^-2) = 1 - log r through the
    # edge 2^-50.
    table = _bracket([(Weight.power(-0.5), 1.0)])
    for r in (1e6, 2.0 ** 51, 1e20, 1e100):
        assert table.lower(r) == pytest.approx(2.0 * math.sqrt(r), rel=1e-12)
    table = _bracket([(Weight.power(-1.5), 1.0)])
    for r in (1e-6, 2.0 ** -50, 1e-20, 1e-100):
        assert table.upper(r) == pytest.approx(2.0 / math.sqrt(r), rel=1e-12)
    edges = 2.0 ** np.arange(-50, 52, dtype=float)
    table = CumulativeIntegral(lambda x: np.minimum(1.0 / x, x ** -2.0), edges,
                               exponents=(-1.0, -2.0))
    for r in (1e-3, 1e-20, 1e-100):
        assert table.upper(r) == pytest.approx(1.0 - math.log(r), rel=1e-12)


def test_array_reads_equal_scalar_reads():
    # One array read (one searchsorted, one Kronrod batch of partial panels)
    # gives the scalar reads: inside the octave edges, exactly on edges, and
    # beyond both edges, the growing side's power continuation included.
    edges = 2.0 ** np.arange(-50, 52, dtype=float)
    rs = np.concatenate([[1e-100, 1e-20, 2.0 ** -50, 2.0 ** -10, 1.0, 2.0 ** 10, 2.0 ** 51,
                          1e20, 1e100], np.geomspace(1e-12, 1e12, 17)])
    tables = [(_bracket([(Weight.power(-0.5), 1.0)]), "lower"),
              (_bracket([(Weight.power(-1.5), 1.0)]), "upper"),
              (_bracket([(Weight.piecewise_power(0.5, -2.5), 1.0)]), "lower"),
              (_bracket([(Weight.piecewise_power(0.5, -2.5), 1.0)]), "upper"),
              (CumulativeIntegral(lambda x: np.minimum(1.0 / x, x ** -2.0), edges,
                                  exponents=(-1.0, -2.0)), "upper")]
    for table, side in tables:
        read = getattr(table, side)
        reads = read(rs)
        assert reads.shape == rs.shape
        for r, val in zip(rs, reads):
            scalar = read(float(r))
            assert isinstance(scalar, float)
            assert val == pytest.approx(scalar, rel=1e-14)
    table = _bracket([(Weight.power(-0.5), 1.0)])
    np.testing.assert_array_equal(table.lower_with_error(rs)[0], table.lower(rs))
    assert table.lower(rs[:9])[-1] == pytest.approx(2e50, rel=1e-12)


def test_table_out_of_budget_raises():
    with pytest.raises(NonConvergence):
        CumulativeIntegral(lambda x: np.where(x < 1.0 / 3.0, 0.0, 1.0), [0.1, 1.0, 2.0],
                           QuadratureConfig(max_panels=8))
