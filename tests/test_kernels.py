import math

import mpmath
import numpy as np
import pytest
from scipy.special import gamma as scipy_gamma, jv as scipy_jv, struve as scipy_struve

from wnilab.kernels import (PowerEnvelope, bessel_j, bessel_j_kernel,
                            bessel_primitive_bound, check_envelope, cosine_kernel,
                            model_min_kernel, sine_kernel, struve_derivative_check,
                            struve_h, struve_h_kernel, struve_primitive,
                            struve_primitive_bound)

XS = np.geomspace(1e-3, 100.0, 200)


def test_bessel_value_at_zero():
    for alpha in (-0.7, -0.5, 0.0, 0.7, 2.0, 5.0):
        assert bessel_j(alpha, 0.0) == 1.0


def test_half_order_identities():
    assert np.max(np.abs(bessel_j(-0.5, XS) - np.cos(XS)) / np.abs(np.cos(XS))) < 1e-10
    sinc = np.sin(XS) / XS
    assert np.max(np.abs(bessel_j(0.5, XS) - sinc) / np.abs(sinc)) < 1e-10


def test_bessel_against_scipy_general_orders():
    xs = np.geomspace(1e-2, 1e4, 250)
    # From order 5 on, the asymptotic terms near the crossover rise before
    # they fall.
    for alpha in (0.0, 0.3, 0.75, 1.5, 3.0, 6.0, 7.5, 10.3):
        mine = bessel_j(alpha, xs)
        ref = scipy_gamma(alpha + 1.0) * (xs / 2.0) ** (-alpha) * scipy_jv(alpha, xs)
        env = np.minimum(1.0, xs ** (-alpha - 0.5))
        # Envelope-relative: near oscillation zeros pointwise relative error
        # is meaningless for any fixed-precision evaluation.
        err = np.abs(mine - ref) / np.maximum(np.abs(ref), 1e-3 * env)
        assert np.max(err) < 1e-8


def test_struve_closed_form_half_order():
    ref = np.sqrt(2.0 / (np.pi * XS)) * (1.0 - np.cos(XS))
    err = np.abs(struve_h(0.5, XS) - ref) / np.abs(ref)
    assert np.max(err) < 1e-9


def test_struve_small_argument_leading_coefficient():
    # Struve(a, x) / x^(a+1) -> (1/2)^(a+1) / (Gamma(3/2) Gamma(a+3/2)) as x -> 0.
    alpha = 0.8
    lead = 0.5 ** (alpha + 1.0) / (math.gamma(1.5) * math.gamma(alpha + 1.5))
    for x in (1e-4, 1e-3, 1e-2):
        assert struve_h(alpha, x) / x ** (alpha + 1.0) == pytest.approx(lead, rel=1e-4)


def test_struve_large_argument_expansion():
    # Secondary term (x/2)^(a-1)/(Gamma(a+1/2) Gamma(1/2)) plus the leading
    # oscillation reproduces the value to 1e-4 relative at x = 200.
    alpha, x = 1.5, 200.0
    secondary = (x / 2.0) ** (alpha - 1.0) / (math.gamma(alpha + 0.5) * math.gamma(0.5))
    osc = math.sqrt(2.0 / (math.pi * x)) * math.sin(x - alpha * math.pi / 2.0 - math.pi / 4.0)
    assert struve_h(alpha, x) == pytest.approx(secondary + osc, rel=1e-4)


def test_struve_against_scipy_general_orders():
    xs = np.geomspace(1e-2, 1e3, 250)
    for alpha in (0.0, 0.3, 0.75, 1.5, 2.0, 3.0, 7.3):
        mine = struve_h(alpha, xs)
        ref = scipy_struve(alpha, xs)
        if alpha >= 0.5:
            env = np.minimum(xs ** (alpha + 1.0), xs ** (alpha - 1.0))
        else:
            env = np.minimum(xs ** (alpha + 1.0), xs ** -0.5)
        err = np.abs(mine - ref) / np.maximum(np.abs(ref), 1e-3 * env)
        assert np.max(err) < 2e-8, alpha


def test_struve_nonnegative_for_order_at_least_half():
    xs = np.geomspace(1e-3, 1e3, 400)
    for alpha in (0.5, 0.75, 1.5, 3.0):
        assert np.all(struve_h(alpha, xs) >= -1e-12)


def test_branch_agreement_in_crossover_window():
    from wnilab.kernels import (_bessel_j_asymptotic, _bessel_j_series,
                                _struve_h_asymptotic, _struve_h_series)
    xs = np.linspace(10.0, 14.0, 60)
    for alpha in (0.0, 0.6, 1.5, 3.0):
        s = _bessel_j_series(alpha, xs)
        a = _bessel_j_asymptotic(alpha, xs)
        scale = np.maximum(np.abs(s), xs ** (-alpha - 0.5))
        assert np.max(np.abs(s - a) / scale) < 1e-8, alpha
    # Struve crosses over at max(12, 2 alpha): 12 for these orders.
    for alpha in (0.0, 0.3, 0.75, 1.5, 2.2):
        s = _struve_h_series(alpha, xs)
        a = _struve_h_asymptotic(alpha, xs)
        scale = np.maximum(np.abs(s), np.minimum(xs ** (alpha + 1.0),
                                                 xs ** max(alpha - 1.0, -0.5)))
        assert np.max(np.abs(s - a) / scale) < 1e-8, alpha


# Log-spaced over the whole range, a 1/40 step through [10, 22], and the
# first arguments above 12 (the crossover, where the asymptotic series has
# its largest truncation error) and 20.
ORACLE_XS = np.unique(np.concatenate([
    np.geomspace(0.05, 5e3, 120), np.linspace(10.0, 22.0, 481),
    np.nextafter([12.0, 20.0], math.inf)]))
BESSEL_ABS_TOL = 5e-13
STRUVE_ABS_TOL = 1e-11


def _mp_bessel_j(alpha, xs):
    with mpmath.workdps(50):
        return np.array([float(mpmath.gamma(alpha + 1) * (mpmath.mpf(x) / 2) ** -alpha
                               * mpmath.besselj(alpha, x)) for x in xs])


def _mp_struve_h(alpha, xs):
    with mpmath.workdps(50):
        return np.array([float(mpmath.struveh(alpha, x)) for x in xs])


@pytest.mark.parametrize("alpha", [0.0, 0.25, 1.0, 2.5, 3.0])
def test_bessel_against_mpmath(alpha):
    err = np.abs(bessel_j(alpha, ORACLE_XS) - _mp_bessel_j(alpha, ORACLE_XS))
    assert np.max(err) <= BESSEL_ABS_TOL, ORACLE_XS[np.argmax(err)]


@pytest.mark.parametrize("alpha", [0.0, 0.25, 1.0, 1.5, 2.2])
def test_struve_against_mpmath(alpha):
    err = np.abs(struve_h(alpha, ORACLE_XS) - _mp_struve_h(alpha, ORACLE_XS))
    assert np.max(err) <= STRUVE_ABS_TOL, ORACLE_XS[np.argmax(err)]


@pytest.mark.parametrize("alpha", [8.0, 14.5, 20.0])
def test_struve_high_orders_against_mpmath(alpha):
    # Relative error through the transition region x ~ alpha, where Y_alpha
    # and H_alpha - Y_alpha cancel, and beyond the crossover 2 alpha.
    xs = np.linspace(1.0, 80.0, 317)
    ref = _mp_struve_h(alpha, xs)
    assert np.max(np.abs(struve_h(alpha, xs) - ref) / np.abs(ref)) <= 1e-12


def test_kernel_batch_shapes():
    for fn in (bessel_j, struve_h):
        out = fn(0.25, np.array([]))
        assert isinstance(out, np.ndarray) and out.shape == (0,)
    assert bessel_j(0.25, 0.0) == 1.0 and np.ndim(bessel_j(0.25, 0.0)) == 0
    assert struve_h(0.25, 0.0) == 0.0 and np.ndim(struve_h(0.25, 0.0)) == 0
    # The series term count comes from the largest argument of the batch,
    # the asymptotic truncation from the smallest: the other end of each
    # batch must still be accurate.
    for alpha in (0.0, 1.5, 2.2):
        small = np.array([1e-8, 11.9])
        ref = _mp_bessel_j(alpha, small)
        assert bessel_j(alpha, small) == pytest.approx(ref, rel=1e-15, abs=BESSEL_ABS_TOL)
        ref = _mp_struve_h(alpha, small)
        assert struve_h(alpha, small) == pytest.approx(ref, rel=1e-15, abs=STRUVE_ABS_TOL)
        large = np.array([12.01, 1e4])
        ref = _mp_bessel_j(alpha, large)
        assert bessel_j(alpha, large) == pytest.approx(ref, rel=1e-13, abs=BESSEL_ABS_TOL)
        ref = _mp_struve_h(alpha, large)
        assert struve_h(alpha, large) == pytest.approx(ref, rel=1e-13, abs=STRUVE_ABS_TOL)


def test_domain_errors():
    with pytest.raises(ValueError):
        bessel_j(-1.0, 1.0)
    with pytest.raises(ValueError):
        struve_h(-0.5, 1.0)
    # Negative or non-finite arguments (the large-argument expansions would
    # give nan at infinity).
    for x in (-1.0, math.inf, math.nan, [1.0, math.inf]):
        with pytest.raises(ValueError):
            bessel_j(0.0, x)
        with pytest.raises(ValueError):
            struve_h(1.0, x)


def test_derivative_identity_residual():
    # d/dx (x^a H_a) = x^a H_(a-1); centered differences decay like h^2.
    for alpha, x in ((1.5, 2.0), (2.0, 0.5)):
        assert struve_derivative_check(alpha, x, 1e-4) <= 1e-6
    r_coarse = struve_derivative_check(1.5, 2.0, 1e-2)
    r_fine = struve_derivative_check(1.5, 2.0, 1e-3)
    assert r_coarse / r_fine == pytest.approx(100.0, rel=0.05)
    with pytest.raises(ValueError):
        struve_derivative_check(0.4, 1.0, 1e-4)


def test_struve_primitive_closed_form():
    # For nu = alpha + 1 the primitive is y^-1 x^(a+1) Struve_(a+1)(x y).
    alpha, y, x = 0.5, 2.0, 3.0
    val, err = struve_primitive(alpha, alpha + 1.0, y, x)
    exact = x ** (alpha + 1.0) / y * struve_h(alpha + 1.0, x * y)
    assert val == pytest.approx(exact, rel=1e-9)


def test_struve_primitive_small_x_order():
    # Integrand ~ t^(nu+alpha+1) near zero, so the primitive is O(x^(nu+alpha+2)).
    alpha, nu, y = 1.0, 0.5, 1.0
    v1, _ = struve_primitive(alpha, nu, y, 1e-3)
    v2, _ = struve_primitive(alpha, nu, y, 2e-3)
    assert v2 / v1 == pytest.approx(2.0 ** (nu + alpha + 2.0), rel=1e-3)


def test_struve_primitive_bound_fitted_constant():
    grid = np.geomspace(0.3, 10.0, 6)
    c = struve_primitive_bound(1.0, 0.5, grid, grid)
    assert 0.0 < c < 50.0


def test_bessel_primitive_bound_examples():
    # alpha = -1/2, nu = 0: the primitive is sin(x), and |sin x| <= 1 = x^0 y^-1.
    c = bessel_primitive_bound(-0.5, 0.0, 1.0, np.linspace(1.0, 50.0, 25))
    assert c == pytest.approx(1.0, abs=0.02)
    c = bessel_primitive_bound(0.0, 1.0, 1.0, np.geomspace(1.0, 100.0, 30))
    assert 0.0 < c < 10.0
    # Stability under grid refinement.
    c2 = bessel_primitive_bound(0.5, 1.5, 3.0, np.geomspace(0.4, 50.0, 20))
    c3 = bessel_primitive_bound(0.5, 1.5, 3.0, np.geomspace(0.4, 50.0, 40))
    assert abs(c3 - c2) / c2 < 0.25


def test_envelope_checks():
    rep = check_envelope(bessel_j_kernel(0.0))
    assert rep.max_ratio < 1.5
    # Sine kernel: |sin t| <= min{t, 1} exactly, constant 1.
    rep = check_envelope(sine_kernel())
    assert rep.max_ratio <= 1.0 + 1e-12
    # Two-sided Struve envelope for order > 1/2: masked min ratio positive.
    rep = check_envelope(struve_h_kernel(0.75))
    assert rep.min_ratio is not None and 0.0 < rep.min_ratio <= rep.max_ratio
    rep = check_envelope(model_min_kernel(1.0))
    assert rep.max_ratio == pytest.approx(1.0, abs=1e-12)
    assert rep.min_ratio == pytest.approx(1.0, abs=1e-12)


def test_envelope_constant_stability_under_refinement():
    kern = bessel_j_kernel(0.75)
    cs = []
    for n in (100, 200, 400):
        g = np.geomspace(1e-3, 1e3, n)
        cs.append(check_envelope(kern, g, g).max_ratio)
    assert max(cs) / min(cs) < 1.05


def test_envelope_invariants():
    with pytest.raises(ValueError):
        PowerEnvelope(1.0, 1.0, 0.0, 0.5)  # b1-b2 != c1-c2
    with pytest.raises(ValueError):
        PowerEnvelope(1.0, 1.0, 0.0, 0.0, env_constant=0.0)
    assert PowerEnvelope(1.0, 1.0, 0.0, 0.0).strict
    assert not PowerEnvelope(0.0, 0.0, 0.0, 0.0).strict
    assert cosine_kernel().envelope.strict is False
