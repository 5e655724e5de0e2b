import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wnilab import quadrature
from wnilab.quadrature import CumulativeIntegral, NonConvergence, QuadratureConfig, integrate


def test_polynomial_exactness_single_panel():
    # The Kronrod rule integrates polynomials well past degree 20 on one panel.
    for k in (0, 3, 7, 13, 20):
        val, _ = integrate(lambda x, k=k: x ** k, (1.0, 2.0))
        exact = (2.0 ** (k + 1) - 1.0) / (k + 1)
        assert val == pytest.approx(exact, rel=1e-13)


def test_trivial_closed_forms():
    val, _ = integrate(lambda x: x, (0.5, 1.0))
    assert val == pytest.approx(0.375, rel=1e-12)
    # A window spanning twelve decades starts from geometric panels.
    val, _ = integrate(lambda x: np.minimum(1.0, x ** -2.0), (1e-6, 1e6))
    assert val == pytest.approx(2.0 - 2e-6, rel=1e-8)


def test_sine_antiderivative_oracle():
    # int_a^r sin(x y) dx = (cos(a y) - cos(r y)) / y, frozen at (a, r, y) = (0.5, 3, 2).
    val, _ = integrate(lambda x: np.sin(2.0 * x), (0.5, 3.0))
    assert val == pytest.approx((math.cos(1.0) - math.cos(6.0)) / 2.0, rel=1e-12)


def test_windows_only():
    # Ends at 0 and at infinity are the callers' to take in closed form.
    for window in ((0.0, 1.0), (-1.0, 1.0), (1.0, math.inf), (0.0, math.inf)):
        with pytest.raises(ValueError):
            integrate(np.ones_like, window)
    assert integrate(np.ones_like, (2.0, 1.0)) == (0.0, 0.0)


@pytest.mark.parametrize("n,tol", [(10, 1e-14), (100, 1e-13), (10000, 1e-9)])
def test_oscillatory_cancellation(n, tol):
    # sin over n whole periods: the table's panels never exceed half a
    # period, and the read, whose exact value is 0, lies within its bar.
    cfg = QuadratureConfig(abs_tol=tol, max_panels=50000)
    period = 2.0 * math.pi
    table = CumulativeIntegral(np.sin, [period, period * (n + 1)], cfg, wavelength=period)
    assert np.max(np.diff(table.edges)) <= 0.5 * period * (1.0 + 1e-12)
    val, err = table.lower_with_error(table.edges[-1])
    assert abs(val[0]) <= err[0]


def test_integrable_endpoint_singularities():
    # Steep powers near the lower end of a window many decades long.
    val, _ = integrate(lambda x: x ** -0.9, (1e-10, 1.0))
    assert val == pytest.approx(10.0 * (1.0 - 1e-1), rel=1e-10)
    val, _ = integrate(lambda x: x ** -0.5, (1e-12, 2.0))
    assert val == pytest.approx(2.0 * (math.sqrt(2.0) - 1e-6), rel=1e-12)


def test_refinement_consistency():
    # Halving rel_tol never moves a converged value by more than the
    # previous error estimate.
    f = lambda x: np.sin(3.0 * x) * x ** -0.3
    v1, e1 = integrate(f, (1e-3, 10.0), QuadratureConfig(rel_tol=1e-6))
    v2, _ = integrate(f, (1e-3, 10.0), QuadratureConfig(rel_tol=5e-7))
    assert abs(v2 - v1) <= max(e1, 1e-14)


def _weighted_norm(f, weight, p, domain):
    """(integral over the domain of weight |f|^p)^(1/p), as the command
    line's outer norm integrates its window."""
    val, _ = integrate(lambda x: weight(x) * np.abs(f(x)) ** p, domain)
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


def test_table_reads_match_integrate():
    f = lambda t: t ** -0.4 * np.cos(2.0 * t)
    xs = np.geomspace(0.1, 20.0, 9)
    table = CumulativeIntegral(f, xs, wavelength=math.pi)
    rs = np.concatenate([xs, [0.37, 5.5, 19.9]])
    reads, read_errs = table.lower_with_error(rs)
    for x, read, read_err in zip(rs, reads, read_errs):
        val, err = integrate(f, (0.1, x))
        assert abs(read - val) <= read_err + err


def test_table_reads_on_edges_are_prefix_sums(monkeypatch):
    # A read that lands on a panel edge is that edge's prefix sum: it
    # evaluates no partial panel.
    table = CumulativeIntegral(lambda t: t ** -0.4 * np.cos(2.0 * t), np.geomspace(0.1, 20.0, 9),
                               wavelength=math.pi)
    monkeypatch.setattr(quadrature, "_eval_panels", None)
    reads, errs = table.lower_with_error(table.edges)
    np.testing.assert_array_equal(reads, table.prefix)
    np.testing.assert_array_equal(errs, table.prefix_error + 2.0 * np.finfo(float).eps * np.abs(reads))


def test_table_out_of_budget_raises():
    with pytest.raises(NonConvergence):
        CumulativeIntegral(lambda x: np.where(x < 1.0 / 3.0, 0.0, 1.0), [0.1, 1.0, 2.0],
                           QuadratureConfig(max_panels=8))


def test_table_without_exponents_starts_above_zero():
    # Nothing accounts for a sliver (0, edges[0]], so a table from 0 is
    # refused rather than silently short of it.
    for lo in (0.0, 1e-16):
        with pytest.raises(ValueError):
            CumulativeIntegral(lambda x: x ** -0.5, [lo, 1.0])
