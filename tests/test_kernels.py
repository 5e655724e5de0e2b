import math

import mpmath
import numpy as np
import pytest
from scipy.special import gamma as scipy_gamma, jv as scipy_jv, struve as scipy_struve

from wnilab.conditions import check_envelope, primitive_bound
from wnilab.kernels import (KernelSpec, PowerEnvelope, _smallest_term_index, bessel_j,
                            bessel_j_error, bessel_j_kernel, cosine_kernel, model_min_kernel,
                            sine_kernel, struve_h, struve_h_error, struve_h_kernel)
from wnilab.transforms import _table, primitive_exponents, struve_primitive

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
    from wnilab.kernels import (_bessel_far_field, _bessel_j_series, _far_sum,
                                _struve_far_field, _struve_h_laplace, _struve_h_series)
    xs = np.linspace(10.0, 14.0, 60)
    for alpha in (0.0, 0.6, 1.5, 3.0):
        s = _bessel_j_series(alpha, xs)
        a = _far_sum(_bessel_far_field(alpha), xs)[0]
        scale = np.maximum(np.abs(s), xs ** (-alpha - 0.5))
        assert np.max(np.abs(s - a) / scale) < 1e-8, alpha
    # Struve crosses over at max(12, 2 alpha): 12 for these orders.
    for alpha in (0.0, 0.3, 0.75, 1.5, 2.2):
        s = _struve_h_series(alpha, xs)
        a = _far_sum(_struve_far_field(alpha), xs)[0] + _struve_h_laplace(alpha, xs)
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


@pytest.mark.parametrize("alpha", [0.0, 0.25, 1.0, 2.5, 3.0, 8.0, 12.0, 15.0, 20.0])
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


@pytest.mark.parametrize("alpha", [10.0, 14.5, 20.0])
def test_struve_error_bound_above_the_crossover_at_high_orders(alpha):
    # From just above the crossover 2 alpha to 80 every value lies within
    # its bound of 50-digit mpmath.  At alpha = 20 the 12-node Laplace
    # rule's own error (1.07e-7 at x = 40.25, 3.7 times the rest of the
    # bound) is what the bound has to count.
    xs = np.linspace(2.0 * alpha + 0.25, 80.0, 60)
    got, err = struve_h(alpha, xs), struve_h_error(alpha, xs)
    with mpmath.workdps(50):
        seen = np.array([float(abs(mpmath.mpf(v) - mpmath.struveh(alpha, x)))
                         for x, v in zip(xs, got)])
    assert np.all(seen <= err), xs[seen > err]


@pytest.mark.parametrize("alpha", [100.0, 140.0])
def test_struve_large_order_large_argument_stays_finite(alpha):
    # (x/2)^alpha overflows at x = 1e4 while H_alpha(x) does not (9.5e208
    # at alpha = 100): the value is finite and within its error bound.
    x = 1e4
    got, err = struve_h(alpha, x), struve_h_error(alpha, x)
    with mpmath.workdps(50):
        exact = mpmath.struveh(alpha, x)
        assert math.isfinite(got) and abs(mpmath.mpf(got) - exact) <= err


@pytest.mark.parametrize("kind", ["bessel_j", "struve_h"])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 8.0])
def test_kernel_error_bound_against_mpmath(kind, alpha):
    # On x in [0, 80], each branch one batch: the error bound holds at
    # every point against 50-digit mpmath, and its largest value is within
    # 100 times the largest error seen, so it is not vacuous.
    value, bound = {"bessel_j": (bessel_j, bessel_j_error),
                    "struve_h": (struve_h, struve_h_error)}[kind]
    xs = np.linspace(0.0, 80.0, 161)
    crossover = max(12.0, 2.0 * alpha)
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        for batch in (xs[xs <= crossover], xs[xs > crossover]):
            got, err = value(alpha, batch), bound(alpha, batch)
            seen = np.zeros_like(batch)
            for i, x in enumerate(batch):
                x = mpmath.mpf(x)
                if kind == "struve_h":
                    exact = mpmath.struveh(a, x)
                else:
                    exact = mpmath.gamma(a + 1) * (2 / x) ** a * mpmath.besselj(a, x) if x else 1
                seen[i] = float(abs(mpmath.mpf(got[i]) - exact))
            assert np.all(seen <= err)
            assert np.max(err) <= 100.0 * np.max(seen)


@pytest.mark.parametrize("kind,alpha", [("bessel_j", 0.0), ("bessel_j", 0.5), ("bessel_j", 1.0),
                                         ("bessel_j", 1.5), ("bessel_j", 8.0),
                                         ("struve_h", 0.0), ("struve_h", 0.5)])
def test_large_argument_against_mpmath(kind, alpha):
    # Far from the crossover the large-argument form is summed with e^(ix)
    # taken from x itself: at every x the error is within 1e-15 of the
    # amplitude (2/(pi x))^(1/2) (times Gamma(alpha + 1) (x/2)^-alpha for
    # Bessel), and within the error bound.
    value, bound = {"bessel_j": (bessel_j, bessel_j_error),
                    "struve_h": (struve_h, struve_h_error)}[kind]
    xs = np.geomspace(1e4, 1e8, 33)
    got, err = value(alpha, xs), bound(alpha, xs)
    with mpmath.workdps(60):
        a = mpmath.mpf(alpha)
        for x, v, e in zip(xs, got, err):
            x = mpmath.mpf(x)
            amp = mpmath.sqrt(2 / (mpmath.pi * x))
            if kind == "struve_h":
                exact = mpmath.struveh(a, x)
            else:
                scale = mpmath.gamma(a + 1) * (x / 2) ** -a
                exact, amp = scale * mpmath.besselj(a, x), scale * amp
            seen = abs(mpmath.mpf(v) - exact)
            assert seen <= 1e-15 * amp and seen <= e, float(x)


def test_smallest_term_passes_over_a_cancelled_zero():
    # A zero that later terms outgrow is not the smallest term; zeros that
    # end the series are, and so is the first term below the stop.
    assert _smallest_term_index(np.array([1.0, 0.0, 0.2, 0.1, 0.3]), 1.0) == 3
    assert _smallest_term_index(np.array([1.0, 0.5, 0.0, 0.0]), 1.0) == 2
    assert _smallest_term_index(np.array([1.0, 0.0, 1e-20, 1e-30]), 1.0) == 2


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


def test_orders_whose_constants_overflow_are_refused():
    # From order 150 on Gamma(alpha + 3/2) 2^(alpha + 1) overflows: the
    # factories and the large-argument branch raise ValueError, not
    # OverflowError or a nan.
    for factory in (bessel_j_kernel, struve_h_kernel):
        factory(149.0)
        for alpha in (150.0, 200.0, 2000.0):
            with pytest.raises(ValueError, match="too large"):
                factory(alpha)
    with pytest.raises(ValueError, match="too large"):
        bessel_j(200.0, 1e3)


def struve_derivative_check(alpha: float, x: float, h: float) -> float:
    """Centered-difference residual of d/dx (x^a Struve_a(x)) = x^a Struve_(a-1)(x),
    which decays like h^2.  Requires alpha > 1/2 so both orders stay in range."""
    if alpha <= 0.5:
        raise ValueError("derivative identity check needs order > 1/2")
    if x <= h:
        raise ValueError("step must be smaller than the evaluation point")
    up = (x + h) ** alpha * struve_h(alpha, x + h)
    dn = (x - h) ** alpha * struve_h(alpha, x - h)
    return abs((up - dn) / (2.0 * h) - x ** alpha * struve_h(alpha - 1.0, x))


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


def _mp_struve_primitive_closed_form(alpha, y, x):
    # integral_0^x t^(a+1) Struve_a(t y) dt = y^-1 x^(a+1) Struve_(a+1)(x y).
    with mpmath.workdps(30):
        x = mpmath.mpf(x)
        return x ** (alpha + 1) / y * mpmath.struveh(alpha + 1, x * y)


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_struve_primitive_far_field_against_mpmath(alpha):
    # Far beyond the dilation table's reach the read takes the closed-form
    # far field; each read lies within its own error bar of the closed form.
    y = 1.5
    for xy in (1e5, 2e5):
        val, err = struve_primitive(alpha, alpha + 1.0, y, xy / y)
        exact = _mp_struve_primitive_closed_form(alpha, y, xy / y)
        assert 0.0 < err <= 1e-13 * abs(val)
        assert abs(val - exact) <= err


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_struve_primitive_criterion_3_grid_against_mpmath(alpha):
    # Every read of a 12 x 12 (x, y) grid (nu = alpha + 1) against the
    # closed form, within its error bar.
    grid = np.geomspace(0.2, 20.0, 12)
    for x in grid:
        for y in grid:
            val, err = struve_primitive(alpha, alpha + 1.0, y, x)
            exact = _mp_struve_primitive_closed_form(alpha, y, x)
            assert abs(val - exact) <= err, (x, y)


def test_struve_primitive_small_x_order():
    # Integrand ~ t^(nu+alpha+1) near zero, so the primitive is O(x^(nu+alpha+2)).
    alpha, nu, y = 1.0, 0.5, 1.0
    v1, _ = struve_primitive(alpha, nu, y, 1e-3)
    v2, _ = struve_primitive(alpha, nu, y, 2e-3)
    assert v2 / v1 == pytest.approx(2.0 ** (nu + alpha + 2.0), rel=1e-3)


def test_struve_primitive_bound_fitted_constant():
    # The (1, 1/2) constant bounds every read of an (x, y) grid:
    # |h(x; y)| <= C y^-1 x^nu min{(xy)^(a+2), (xy)^a}.
    alpha, nu = 1.0, 0.5
    c, t = primitive_bound(struve_h_kernel(alpha), nu)
    assert 0.0 < c < 50.0 and 0.0 < t < math.inf
    grid = np.geomspace(0.3, 10.0, 6)
    for x in grid:
        for y in grid:
            val, _ = struve_primitive(alpha, nu, y, x)
            bound = c / y * x ** nu * min((x * y) ** (alpha + 2.0), (x * y) ** alpha)
            assert abs(val) <= bound * (1.0 + 1e-12), (x, y)


def test_struve_primitive_below_nu_one_half_against_mpmath():
    # (1, 1/4) lies below the lemma's nu >= 1/2, but t^(1/4) Struve_1(t) is
    # integrable at 0: reads against 25-digit quadrature, and at argmax_t the
    # read over min{t^(nu+3), t^(nu+1)} is the primitive constant 0.5981598.
    alpha, nu = 1.0, 0.25
    c, t = primitive_bound(struve_h_kernel(alpha), nu)
    with mpmath.workdps(25):
        for x, y in ((0.3, 2.0), (5.0, 1.0), (t, 1.0), (40.0, 0.7)):
            val, err = struve_primitive(alpha, nu, y, x)
            exact = mpmath.quad(lambda s: s ** nu * mpmath.struveh(alpha, s * y),
                                mpmath.linspace(0, x, 9))
            assert abs(val / float(exact) - 1.0) <= 1e-10, (x, y)
    val, _ = struve_primitive(alpha, nu, 1.0, t)
    assert abs(val) / min(t ** (nu + 3.0), t ** (nu + 1.0)) == pytest.approx(0.5981598, abs=1e-7)
    # t^nu Struve_1(t) ~ t^(nu+2): no primitive from 0 for nu <= -3.
    with pytest.raises(ValueError, match="not integrable at 0"):
        struve_primitive(alpha, -3.0, 1.0, 1.0)


# Dense reads: 4,001 points of t on [1e-6, 1e6] (the CI step reads 1e6).
DENSE_T = np.geomspace(1e-6, 1e6, 4_001)


def test_bessel_primitive_bound_examples():
    # alpha = -1/2, nu = 0: the primitive is sin t, and sup_t |sin t| / min{t, 1}
    # = 1 is its limit at infinity.
    c, t = primitive_bound(bessel_j_kernel(-0.5), 0.0)
    assert c == pytest.approx(1.0, rel=1e-12) and t == math.inf
    # alpha = 0, nu = 1: the primitive is t J_1(t), C = sup_(t >= 1) t^(1/2) |J_1|;
    # (1/2, 3/2): 20-digit quadrature of s^(3/2) sin(s) / s.  Each is attained at
    # argmax_t, and no dense read of t > 0 exceeds it.
    cases = (((0.0, 1.0), lambda t: t * mpmath.besselj(1, t)),
             ((0.5, 1.5), lambda t: mpmath.quad(lambda s: s ** 1.5 * mpmath.sinc(s), [0, t])))
    for (alpha, nu), exact in cases:
        kernel = bessel_j_kernel(alpha)
        c, t = primitive_bound(kernel, nu)
        k_near, k_far = primitive_exponents(kernel, nu)
        assert (k_near, k_far) == (nu + 1.0, nu - alpha - 0.5)
        with mpmath.workdps(20):
            assert abs(abs(exact(mpmath.mpf(t))) / mpmath.mpf(t) ** k_far / c - 1) <= 1e-10
        dense = np.abs(_table(kernel, nu).integral(np.zeros(len(DENSE_T)), DENSE_T)[0])
        dense /= np.minimum(DENSE_T ** k_near, DENSE_T ** k_far)
        assert 1.0 <= t < 10.0 and c >= np.max(dense) * (1.0 - 1e-12)
    assert primitive_bound(bessel_j_kernel(0.5), 1.5)[0] == pytest.approx(1.4006309, abs=1e-7)
    # nu < alpha + 1/2 with a nonzero Mellin constant: |Phi_nu| / t^(nu-a-1/2)
    # grows without bound.
    assert primitive_bound(bessel_j_kernel(1.0), 0.0) == (math.inf, math.inf)
    # t^nu phi(t) not integrable at 0: no primitive from 0.
    with pytest.raises(ValueError, match="not integrable at 0"):
        primitive_bound(bessel_j_kernel(0.0), -1.0)


@pytest.mark.parametrize("nu,limit", [(0.0, 2.0), (0.5, 1.0), (1.0, 2.0 / 3.0)])
def test_model_kernel_primitive_bound_is_its_far_limit(nu, limit):
    # model_min(1): Phi_nu(t) = 1/(nu + 1) + (t^(nu + 1/2) - 1)/(nu + 1/2) for
    # t > 1, so |Phi_nu| / t^(nu + 1/2) rises to 1/(nu + 1/2) toward infinity,
    # its supremum; below 1 the ratio is 1/(nu + 1) <= it.  The far end's
    # Mellin term is negative: counted with its sign, the bound meets the
    # limit.  No dense read of t > 0 exceeds it.
    kernel = model_min_kernel(1.0)
    assert primitive_bound(kernel, nu) == (pytest.approx(limit, rel=1e-15), math.inf)
    k_near, k_far = primitive_exponents(kernel, nu)
    phi = np.where(DENSE_T <= 1.0, DENSE_T ** (nu + 1.0) / (nu + 1.0),
                   1.0 / (nu + 1.0) + (DENSE_T ** (nu + 0.5) - 1.0) / (nu + 0.5))
    dense = np.abs(_table(kernel, nu).integral(np.zeros(len(DENSE_T)), DENSE_T)[0])
    assert np.allclose(dense, phi, rtol=1e-13)
    assert limit >= np.max(dense / np.minimum(DENSE_T ** k_near, DENSE_T ** k_far))


def test_envelope_checks():
    rep = check_envelope(bessel_j_kernel(0.0))
    assert rep.max_ratio < 1.5
    # Sine kernel: |sin t| <= min{t, 1} exactly, constant 1.
    rep = check_envelope(sine_kernel())
    assert rep.max_ratio <= 1.0 + 1e-12
    # Two-sided Struve envelope for order > 1/2: a positive lower constant.
    rep = check_envelope(struve_h_kernel(0.75))
    assert rep.min_ratio is not None and 0.0 < rep.min_ratio <= rep.max_ratio
    rep = check_envelope(model_min_kernel(1.0))
    assert rep.max_ratio == pytest.approx(1.0, abs=1e-12)
    assert rep.min_ratio == pytest.approx(1.0, abs=1e-12)
    # Without its expansions a kernel has no constant to read.
    with pytest.raises(ValueError, match="expansions"):
        check_envelope(KernelSpec("bare", PowerEnvelope(0.0, -0.5), bessel_j_kernel(0.0).phi))


def _mp_kernel(kernel, param):
    """phi at 30 digits for a preset kernel of parameter ``param``."""
    if kernel.kind == "bessel_j":
        a = mpmath.mpf(param)
        return lambda t: mpmath.gamma(a + 1) * (2 / t) ** a * mpmath.besselj(a, t)
    if kernel.kind == "struve_h":
        return lambda t: mpmath.struveh(param, t)
    if kernel.kind == "model_min":
        return lambda t: 1 if t <= 1 else t ** (-mpmath.mpf(param) / 2)
    return {"sine": mpmath.sin, "cosine": mpmath.cos}[kernel.kind]


def _struve_drift_lead(alpha):
    """(H_a - Y_a)(t) t^(1-a) as t -> inf: 2^(1-a) / (sqrt(pi) Gamma(a + 1/2))."""
    return 2.0 ** (1.0 - alpha) / (math.sqrt(math.pi) * math.gamma(alpha + 0.5))


# A preset, its parameter, and the closed-form limits of |phi| / min{t^b1,
# t^b2}: toward 0, and the lim sup and (exact envelopes) lim inf toward inf.
_AMP = math.sqrt(2.0 / math.pi)
ENVELOPE_LIMITS = [
    (bessel_j_kernel, -0.5, 1.0, 1.0, None),
    (bessel_j_kernel, 0.0, 1.0, _AMP, None),
    (bessel_j_kernel, 0.75, 1.0, math.gamma(1.75) * 2.0 ** 0.75 * _AMP, None),
    (bessel_j_kernel, 1.0, 1.0, 2.0 * _AMP, None),
    (bessel_j_kernel, 2.5, 1.0, math.gamma(3.5) * 2.0 ** 2.5 * _AMP, None),
    (struve_h_kernel, 0.25, 2.0 ** -1.25 / (math.gamma(1.5) * math.gamma(1.75)), _AMP, None),
    (struve_h_kernel, 0.5, 2.0 ** -1.5 / (math.gamma(1.5) * math.gamma(2.0)), 2.0 * _AMP, None),
    (struve_h_kernel, 0.75, 2.0 ** -1.75 / (math.gamma(1.5) * math.gamma(2.25)),
     _struve_drift_lead(0.75), _struve_drift_lead(0.75)),
    (struve_h_kernel, 1.0, 2.0 ** -2.0 / (math.gamma(1.5) * math.gamma(2.5)),
     _struve_drift_lead(1.0), _struve_drift_lead(1.0)),
    (lambda _: sine_kernel(), None, 1.0, 1.0, None),
    (lambda _: cosine_kernel(), None, 1.0, 1.0, None),
    (model_min_kernel, 1.0, 1.0, 1.0, 1.0),
    (model_min_kernel, 2.0, 1.0, 1.0, 1.0),
]


def test_envelope_constants_are_attained_suprema():
    # Each constant is attained: its ratio at argmax_t (argmin_t) by 30-digit
    # mpmath, or the closed-form limit at the end t = 0 or inf it names.  No
    # dense read lies above the supremum or below the infimum.
    for factory, param, at_zero, sup_at_inf, inf_at_inf in ENVELOPE_LIMITS:
        kernel = factory(param)
        env, phi = kernel.envelope, _mp_kernel(kernel, param)
        rep = check_envelope(kernel)
        dense = np.abs(kernel.phi(DENSE_T)) / env.bound(DENSE_T)
        assert rep.max_ratio >= np.max(dense) * (1.0 - 1e-12), kernel
        extremes = [(rep.max_ratio, rep.argmax_t, at_zero, sup_at_inf)]
        assert (rep.min_ratio is None) == (inf_at_inf is None), kernel
        if rep.min_ratio is not None:
            assert rep.min_ratio <= np.min(dense) * (1.0 + 1e-12), kernel
            extremes.append((rep.min_ratio, rep.argmin_t, at_zero, inf_at_inf))
        for value, t, limit_at_zero, limit_at_inf in extremes:
            if t == 0.0 or t == math.inf:
                exact = limit_at_zero if t == 0.0 else limit_at_inf
            else:
                with mpmath.workdps(30):
                    t = mpmath.mpf(t)
                    exact = abs(phi(t)) / min(t ** env.b1, t ** env.b2)
            assert abs(exact / value - 1) <= 1e-10, (kernel, t)


@pytest.mark.parametrize("kernel,b1,b2,exact", [
    (bessel_j_kernel(-0.5), 0.0, 0.0, False),
    (bessel_j_kernel(0.0), 0.0, -0.5, False),
    (bessel_j_kernel(2.5), 0.0, -3.0, False),
    (struve_h_kernel(0.25), 1.25, -0.5, False),
    (struve_h_kernel(0.5), 1.5, -0.5, False),
    (struve_h_kernel(0.75), 1.75, -0.25, True),
    (sine_kernel(), 1.0, 0.0, False),
    (cosine_kernel(), 0.0, 0.0, False),
    (model_min_kernel(1.0), 0.0, -0.5, True),
], ids=["bessel-0.5", "bessel0", "bessel2.5", "struve0.25", "struve0.5", "struve0.75",
        "sine", "cosine", "model_min1"])
def test_preset_envelope_is_its_expansions_leading_powers(kernel, b1, b2, exact):
    # min{(xy)^b1, (xy)^b2}: b1 is the series' leading power (t^(a+1) for
    # Struve, t for sine, 1 otherwise), b2 the slower decay of the far field:
    # Bessel's t^(-a-1/2), the larger of Struve's t^(-1/2) and drift t^(a-1)
    # (equal at a = 1/2), the model's t^(-delta/2).
    env, lead, far = kernel.envelope, kernel.series or kernel.near, kernel.far_field
    assert (env.b1, env.b2, env.exact) == (b1, b2, exact)
    assert env.b1 == lead.b1 and env.b2 in (far.osc_power, far.drift_power)


def test_envelope_invariants():
    assert PowerEnvelope(1.0, 0.0).strict
    assert not PowerEnvelope(0.0, 0.0).strict
    assert cosine_kernel().envelope.strict is False
