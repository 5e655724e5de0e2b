import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wnilab.kernels import check_envelope, fit_env_constant, struve_h
from wnilab.quadrature import NonConvergence, QuadratureConfig, integrate
from wnilab.transforms import (_DIRECT_HALF_PERIODS, AdmissibilityError,
                               MissingPrimitiveBound, MomentsNotVanished, NoSeriesKernel,
                               TransformSpec, _dilation_table, _point, _table_values, apply, cosine,
                               hankel, model_min, moment_reduced_apply,
                               moment_reduced_kernel, pointwise_bound, preset,
                               scripth, sine)
from wnilab.weights import (Piece, TestFunction, make_log_counterexample,
                            make_truncated_power, make_vanishing_moment_function)

CFG = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-13)


def test_preset_envelope_data():
    hk = hankel(1.0)
    assert hk.b0 == 3.0 and hk.c0 == 0.0
    assert hk.kernel.envelope.b2 == pytest.approx(-1.5)
    sh = scripth(1.0)
    assert sh.b0 == sh.c0 == 0.5
    assert sh.kernel.envelope.b1 == pytest.approx(2.0)
    assert sh.kernel.envelope.b2 == pytest.approx(0.0)
    sh_small = scripth(0.25)
    assert sh_small.kernel.envelope.b2 == pytest.approx(-0.5)
    sn = sine()
    assert (sn.kernel.envelope.b1, sn.kernel.envelope.b2) == (1.0, 0.0)
    assert preset("modelmin", delta=2.0).b0 == 2.0
    with pytest.raises(ValueError):
        preset("laplace")


def test_preset_parameters_checked_against_signature():
    with pytest.raises(ValueError, match="'sine'.*'alpha'"):
        preset("sine", alpha=3.0)
    with pytest.raises(ValueError, match="'hankel'.*'alpha'"):
        preset("hankel")
    with pytest.raises(ValueError, match="'modelmin'.*'alpah'"):
        preset("modelmin", delta=1.0, alpah=1.0)


def test_sine_transform_antiderivative_oracle():
    f = make_truncated_power(0.0, 3.0, "left")
    res = apply(sine(), f, [2.0], CFG)
    assert res.values[0] == pytest.approx((1.0 - math.cos(6.0)) / 2.0, rel=1e-10)


def test_scripth_closed_form():
    alpha, r = 0.75, 0.5
    f = make_truncated_power(alpha + 0.5, r, "left")
    ys = np.geomspace(1e-2, 1e2, 12)
    res = apply(scripth(alpha), f, ys, CFG, admissibility_mode="gm")
    closed = r ** (alpha + 1.0) * ys ** -0.5 * np.array([struve_h(alpha + 1.0, r * y) for y in ys])
    assert np.max(np.abs(res.values - closed) / np.abs(closed)) < 1e-8


def test_model_min_first_branch_only():
    f = make_truncated_power(0.0, 1.0, "left")
    res = apply(model_min(1.0), f, [0.5], CFG)
    assert res.values[0] == pytest.approx(0.5, rel=1e-12)


def test_apply_zero_function():
    z = TestFunction("zero", [Piece(0.0, 1.0, 0.0, 0.0)], check_moments=False)
    res = apply(hankel(0.0), z, [0.3, 3.0], CFG)
    assert np.allclose(res.values, 0.0)


def test_linearity():
    spec = hankel(0.5)
    f = make_truncated_power(0.2, 2.0, "left")
    g = make_truncated_power(1.0, 1.0, "left")
    combo = TestFunction("combo", [Piece(0.0, 2.0, 2.0, 0.2), Piece(0.0, 1.0, -3.0, 1.0)],
                         check_moments=False)
    ys = [0.3, 1.7, 9.0]
    rf = apply(spec, f, ys, CFG).values
    rg = apply(spec, g, ys, CFG).values
    rc = apply(spec, combo, ys, CFG).values
    assert np.allclose(rc, 2.0 * rf - 3.0 * rg, rtol=1e-8, atol=1e-12)


def test_hankel_dilation_covariance():
    # f(lam x) transforms to lam^(-2a-2) (H_a f)(y / lam).
    alpha, lam = 0.0, 2.5
    f = make_truncated_power(0.0, 1.0, "left")          # indicator (0, 1)
    f_scaled = make_truncated_power(0.0, 1.0 / lam, "left")  # f(lam x)
    ys = np.array([0.5, 2.0, 8.0])
    left = apply(hankel(alpha), f_scaled, ys, CFG).values
    right = lam ** (-2.0 * alpha - 2.0) * apply(hankel(alpha), f, ys / lam, CFG).values
    assert np.allclose(left, right, rtol=1e-9)


def test_pointwise_bound_standard():
    mm = model_min(1.0)
    f = make_truncated_power(0.0, 1.0, "left")
    # y = 0.5: int_0^1 x dx = 1/2 and the far regime is empty.
    assert pointwise_bound(mm, f, 0.5) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(ValueError):
        pointwise_bound(scripth(1.0), f, 1.0)  # no two-factor kernel estimate


def test_pointwise_bound_dominates_transform():
    for spec in (model_min(1.0), hankel(0.0), hankel(1.0)):
        c_env = fit_env_constant(spec.kernel)
        f = make_truncated_power(0.0, 1.0, "left")
        ys = np.geomspace(0.05, 50.0, 10)
        vals = apply(spec, f, ys, CFG).values
        for y, v in zip(ys, vals):
            assert abs(v) <= 1.0001 * c_env * pointwise_bound(spec, f, y)


def test_pointwise_bound_gm_dominates():
    alpha = 1.0
    spec = scripth(alpha)
    f = make_truncated_power(1.5, 1.0, "left")  # x^(a+1/2) on (0,1)
    from wnilab.weights import check_gm
    witness = check_gm(f)
    assert witness is not None
    f.gm_witness = witness
    ys = np.geomspace(1e-2, 1e2, 15)
    vals = apply(spec, f, ys, CFG, admissibility_mode="gm").values
    ratios = [abs(v) / pointwise_bound(spec, f, y, mode="gm") for y, v in zip(ys, vals)]
    assert max(ratios) < 50.0


def test_pointwise_bound_gm_requires_data():
    f = make_truncated_power(0.0, 1.0, "left")
    with pytest.raises(MissingPrimitiveBound):
        pointwise_bound(model_min(1.0), f, 1.0, mode="gm")
    with pytest.raises(ValueError):
        pointwise_bound(hankel(0.0), f, 1.0, mode="gm")  # no witness, no lam


def test_admissibility_gate():
    sh = scripth(0.75)
    bad = TestFunction("x^-b", [Piece(0.0, math.inf, 1.0, -sh.primitive_bound.b)],
                       check_moments=False)
    with pytest.raises(AdmissibilityError):
        apply(sh, bad, [1.0], CFG, admissibility_mode="gm")
    res = apply(sh, bad, [1.0], CFG, check=False)  # override computes anyway
    assert res.values.shape == (1,)


def test_moment_reduced_agreement_and_errors():
    spec = hankel(0.0)
    f = make_log_counterexample(10.0, spec.b0)  # kills the b0+b1 moment
    ys = np.geomspace(0.05, 5.0, 10)
    direct = apply(spec, f, ys, CFG).values
    reduced = moment_reduced_apply(spec, f, 1, ys, CFG).values
    rel = np.abs(direct - reduced) / np.maximum(np.abs(direct), 1e-12)
    assert np.max(rel) < 1e-6

    with pytest.raises(MomentsNotVanished):
        moment_reduced_apply(spec, make_truncated_power(0.0, 1.0, "left"), 1, [1.0], CFG)
    with pytest.raises(NoSeriesKernel):
        moment_reduced_apply(model_min(1.0), f, 1, [1.0], CFG)


def test_moment_reduced_sine_envelope():
    # For the sine kernel with one killed moment, the reduced kernel obeys
    # min{t^3, t} up to constant.
    kern = moment_reduced_kernel(sine(), 1)
    assert (kern.envelope.b1, kern.envelope.b2) == (2.0, 0.0)
    rep = check_envelope(kern)
    assert rep.max_ratio < 2.0
    # sine series: G_1(t) = sin(t)/t - 1.
    ts = np.array([0.3, 0.9, 2.0, 7.0])
    assert np.allclose(kern.phi(ts), np.sin(ts) / ts - 1.0, rtol=1e-10, atol=1e-14)


def test_reduced_kernel_has_no_far_field():
    # Beyond t = 1 the reduced kernel is phi minus a polynomial, which the
    # large-argument form of phi does not describe: its long spans keep the
    # envelope-mass route of _point.
    for spec in (hankel(0.0), sine(), cosine()):
        assert spec.kernel.far_field is not None
        assert moment_reduced_kernel(spec, 1).far_field is None


def test_infinite_support_transform_frozen_oracle():
    # Hankel(0) of x^-2.5 on (1, inf); reference values computed with
    # 25-digit arithmetic (mpmath.quadosc) and frozen.
    f = make_truncated_power(-2.5, 1.0, "right")
    res = apply(hankel(0.0), f, [0.5, 2.0, 20.0], CFG)
    frozen = [0.6894323981832482, -0.10384869638384017, -0.0022754015734200105]
    assert np.allclose(res.values, frozen, rtol=1e-7)


def test_long_span_against_bessel_identity():
    # Hankel(0) of the indicator of (0, r): r J_1(r y)/y, far beyond the
    # budget of half-wavelength panels.
    from scipy.special import jv
    f = make_truncated_power(0.0, 1000.0, "left")
    ys = [2.0, 6.0, 50.0]
    res = apply(hankel(0.0), f, ys, CFG)
    for y, v in zip(ys, res.values):
        exact = 1000.0 * jv(1, 1000.0 * y) / y
        assert v == pytest.approx(exact, rel=1e-9)


def test_long_span_sine_log_family():
    # Sine transform of the zero-mean log family: 2 Si(y) - Si(y/N) - Si(N y).
    from scipy.special import sici
    fN = make_log_counterexample(10000.0, 0.0)
    ys = [0.7, 1.3]
    res = apply(sine(), fN, ys, CFG)
    for y, v in zip(ys, res.values):
        N = 10000.0
        exact = 2.0 * sici(y)[0] - sici(y / N)[0] - sici(N * y)[0]
        assert v == pytest.approx(exact, abs=1e-10)


# ---------------------------------------------------------------------------
# dilation tables against the per-value route
# ---------------------------------------------------------------------------

SERIES_PRESETS = [hankel(0.0), hankel(0.5), hankel(1.5), scripth(0.0), scripth(1.0),
                  sine(), cosine()]
REACH = 1.0 + 0.45 * CFG.max_panels * math.pi
FAR_YS = np.geomspace(1.01, 1e3, 9)  # hi y / REACH beyond the reach


def _assert_served_within(spec, f, ys, exact, rel=0.0):
    """Every y served, each read within its error (plus rel |exact|) of the
    mpmath closed form exact(y)."""
    served, vals, errs = _table_values(spec, f, ys, CFG)
    assert np.all(served)
    with mpmath.workdps(30):
        for y, v, e in zip(ys, vals, errs):
            ex = exact(mpmath.mpf(y))
            assert abs(mpmath.mpf(v) - ex) <= e + rel * abs(ex)


def _point_values(spec, f, ys, cfg=CFG):
    """_point at every y, with a nonconvergent value kept as apply keeps it."""
    out = []
    for y in ys:
        try:
            out.append(_point(spec, f, float(y), cfg))
        except NonConvergence as exc:
            out.append((exc.value, exc.error))
    return np.array(out).T


@st.composite
def _finite_pieces(draw):
    """1-3 disjoint power pieces on (0, 4]; the first may start at 0 with an
    exponent integrable there for every preset."""
    n = draw(st.integers(1, 3))
    edges = sorted(draw(st.lists(st.floats(0.05, 4.0), min_size=n + 1, max_size=n + 1,
                                 unique=True)))
    if draw(st.booleans()):
        edges[0] = 0.0
    pieces = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        e = draw(st.floats(-0.9, 2.0) if lo == 0.0 else st.floats(-3.0, 2.0))
        pieces.append(Piece(lo, hi, draw(st.floats(-2.0, 2.0).filter(lambda c: abs(c) > 0.1)), e))
    return TestFunction("drawn", pieces, check_moments=False)


def _direct_phase(f, y, cfg):
    """The largest phase x y at which _point's direct panels evaluate the
    kernel: hi y within the panel budget, else 96 half-periods past the
    start of the oscillatory region."""
    lo, hi = max(f.support[0], 1.0 / y), f.support[1]
    if (hi - lo) * y <= 0.45 * cfg.max_panels * math.pi:
        return hi * y
    return lo * y + _DIRECT_HALF_PERIODS * math.pi


def _assert_agrees_with_point(spec, f, ys, cfg=CFG):
    """apply against _point: table reads within the sum of both errors, the
    other values taken from _point itself.  Returns the served mask.

    Where _point's direct panels run beyond the reach, the rounding of
    their phases x y (up to eps x y times the kernel envelope) is missing
    from its bar; rel_tol |value| is allowed for it there and nowhere
    else."""
    ys = np.asarray(ys, dtype=float)
    served, vals, errs = _table_values(spec, f, ys, cfg)
    point_vals, point_errs = _point_values(spec, f, ys, cfg)
    rel = np.array([cfg.rel_tol if _direct_phase(f, y, cfg) > REACH else 0.0 for y in ys])
    assert np.all(np.abs(vals - point_vals[served])
                  <= errs + point_errs[served] + (rel * np.abs(point_vals))[served])
    res = apply(spec, f, ys, cfg, check=False)
    assert np.array_equal(res.values[served], vals)
    assert np.array_equal(res.values[~served], point_vals[~served])
    return served


@settings(max_examples=12, deadline=None, derandomize=True)
@given(f=_finite_pieces(), u=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
def test_table_route_agrees_with_point(f, u):
    # hi y in (0, 1], (1, reach] and beyond reach, for every series preset.
    hi = f.support[1]
    ys = np.array([(0.05 + 0.95 * u[0]) / hi, (1.0 + (REACH - 1.0) * u[1]) / hi,
                   REACH * (1.05 + u[2]) / hi])
    for spec in SERIES_PRESETS:
        # Reads whose error misses the tolerance (values far below their
        # parts) are not served; beyond the reach the far field takes part.
        _assert_agrees_with_point(spec, f, ys)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.5])
def test_hankel_table_against_closed_form(alpha):
    # f = 1 on (0, r): F f(y) = G(a+1) 2^a y^(-2a-2) (ry)^(a+1) J_(a+1)(ry),
    # with r y up to 1e3 times the reach (the far field).
    r = 2.0
    _assert_served_within(
        hankel(alpha), make_truncated_power(0.0, r, "left"),
        np.concatenate([np.geomspace(1e-3, REACH / r, 40), FAR_YS * REACH / r]),
        lambda y: (mpmath.gamma(alpha + 1) * mpmath.mpf(2) ** alpha * y ** (-2 * alpha - 2)
                   * (r * y) ** (alpha + 1) * mpmath.besselj(alpha + 1, r * y)))


@pytest.mark.parametrize("spec", SERIES_PRESETS[:1] + SERIES_PRESETS[3:] + [model_min(1.0)],
                         ids=lambda s: s.name if s.alpha is None else f"{s.name}-{s.alpha:g}")
@pytest.mark.parametrize("lam", [1.0 / 3.0, 2.0, 10.0])
def test_dilation_covariance_every_preset(spec, lam):
    # F[f(lam .)](y) = lam^(c0 - b0 - 1) F f(y / lam), for f = x^(1/2) on
    # (0, 1) as pieces (the table route on series kernels) and as a custom
    # evaluator (always _point).
    def as_pieces(scale):
        return TestFunction("piece", [Piece(0.0, 1.0 / scale, scale ** 0.5, 0.5)],
                            check_moments=False)

    def as_custom(scale):
        return TestFunction("custom", evaluator=lambda x: np.sqrt(scale * x),
                            support=(0.0, 1.0 / scale), check_moments=False)

    ys = np.array([0.3, 4.0, 60.0]) * lam
    factor = lam ** (spec.c0 - spec.b0 - 1.0)
    for make in (as_pieces, as_custom):
        left = apply(spec, make(lam), ys, CFG, check=False)
        right = apply(spec, make(1.0), ys / lam, CFG, check=False)
        tol = left.errors + factor * right.errors + 1e-13 * np.abs(left.values)
        assert np.all(np.abs(left.values - factor * right.values) <= tol)
    served = _table_values(spec, as_pieces(lam), ys, CFG)[0]
    assert np.all(served) == (spec.series is not None)


def _assert_point_route(spec, f, ys, cfg=CFG):
    res = apply(spec, f, ys, cfg, check=False)
    vals, errs = _point_values(spec, f, ys, cfg)
    assert np.array_equal(res.values, vals) and np.array_equal(res.errors, errs)


def test_table_right_sided_power_agrees_with_point():
    # The piece reaching infinity is read from the far field; _point takes
    # panels for 96 half-periods and the far field beyond.  At y = 20 the
    # value (5e-4) is far below the table's error budget: _point serves it.
    served = _assert_agrees_with_point(hankel(0.0), make_truncated_power(-2.5, 1.0, "right"),
                                       [0.5, 2.0, 20.0])
    assert served.tolist() == [True, True, False]


def test_fallback_model_min():
    _assert_point_route(model_min(1.0), make_truncated_power(0.0, 1.0, "left"), [0.5, 3.0])


def test_fallback_moment_reduced():
    spec = hankel(0.0)
    f = make_log_counterexample(10.0, spec.b0)
    ys = [0.05, 0.5, 5.0]
    reduced = TransformSpec("hankel_reduced_1", spec.b0 + spec.series.b1,
                            spec.c0 + spec.series.c1, moment_reduced_kernel(spec, 1))
    vals, errs = _point_values(reduced, f, ys)
    res = moment_reduced_apply(spec, f, 1, ys, CFG)
    assert np.array_equal(res.values, vals) and np.array_equal(res.errors, errs)


def test_table_beyond_reach_agrees_with_point():
    f = make_truncated_power(0.0, 1.0, "left")
    assert np.all(_assert_agrees_with_point(hankel(0.0), f, [1.5 * REACH, 3.0 * REACH]))
    # A piece wholly beyond the reach is read from the far field alone.
    f = TestFunction("far", [Piece(1.0, 2.0, 1.0, -1.3)], check_moments=False)
    for spec in SERIES_PRESETS:
        assert np.all(_assert_agrees_with_point(spec, f, [1.05 * REACH, 40.0 * REACH]))
    # Its bar holds against closed forms for 1 on (1, 2): y^-2 [T J_1(T)]
    # from T = y to 2y for hankel(0), (cos y - cos 2y) / y for sine.
    f = TestFunction("far", [Piece(1.0, 2.0, 1.0, 0.0)], check_moments=False)
    ys = np.array([1.05, 1.5, 40.0]) * REACH
    _assert_served_within(hankel(0.0), f, ys, lambda y: (2 * y * mpmath.besselj(1, 2 * y)
                                                         - y * mpmath.besselj(1, y)) / y ** 2)
    _assert_served_within(sine(), f, ys, lambda y: (mpmath.cos(y) - mpmath.cos(2 * y)) / y)


def test_fallback_read_error_over_tolerance():
    # The table builds at rel_tol 1e-15 (its tolerance stops at the rounding
    # floor), but no read meets 1e-15 relative: every value takes _point.
    cfg = QuadratureConfig(rel_tol=1e-15, abs_tol=1e-300)
    spec = hankel(0.0)
    f = make_truncated_power(0.0, 1.0, "left")
    assert _dilation_table(spec.kernel, spec.b0, cfg.rel_tol, cfg.abs_tol,
                           cfg.max_panels) is not None
    _assert_point_route(spec, f, [0.5, 40.0], cfg)


# ---------------------------------------------------------------------------
# the far field beyond the reach, against mpmath
# ---------------------------------------------------------------------------

def test_sine_log_family_far_field_against_si():
    # 2 Si(y) - Si(y/N) - Si(N y) with N y beyond the reach.
    N = 1e4
    _assert_served_within(
        sine(), make_log_counterexample(N, 0.0), FAR_YS * REACH / N,
        lambda y: 2 * mpmath.si(y) - mpmath.si(mpmath.mpf(1.0 / N) * y)
        - mpmath.si(mpmath.mpf(N) * y))


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_scripth_far_field_against_closed_form(alpha):
    # x^(a+1/2) on (0, r): r^(a+1) y^(-1/2) H_(a+1)(r y), from
    # d/dt (t^(a+1) H_(a+1)(t)) = t^(a+1) H_a(t).
    r = 2.0
    _assert_served_within(
        scripth(alpha), make_truncated_power(alpha + 0.5, r, "left"), FAR_YS * REACH / r,
        lambda y: r ** (alpha + 1) * y ** -0.5 * mpmath.struveh(alpha + 1, r * y))


def _mellin_bessel(alpha, nu):
    # DLMF 10.22.43 at mu = nu - alpha + 1, scaled to j_a = G(a+1) (2/t)^a J_a.
    mu = mpmath.mpf(nu) - alpha + 1
    return (mpmath.gamma(alpha + 1) * mpmath.mpf(2) ** alpha * mpmath.mpf(2) ** (mu - 1)
            * mpmath.gamma((alpha + mu) / 2) * mpmath.rgamma((alpha - mu) / 2 + 1))


def _mellin_struve(alpha, nu):
    mu = mpmath.mpf(nu) + 1
    return (mpmath.mpf(2) ** (mu - 1) * mpmath.gamma((mu + alpha) / 2)
            * mpmath.tan(mpmath.pi * (mu + alpha) / 2) * mpmath.rgamma((alpha - mu) / 2 + 1))


def _mellin_sine(nu):
    s = mpmath.mpf(nu) + 1
    return mpmath.gamma(s) * mpmath.sin(mpmath.pi * s / 2)


def _mellin_cosine(nu):
    s = mpmath.mpf(nu) + 1
    return mpmath.gamma(s) * mpmath.cos(mpmath.pi * s / 2)


# (spec, nu, closed form): integral_0^inf t^nu phi(t) dt converges absolutely,
# conditionally, or (growing envelope t^m, m >= 0) as an Abel value.
MELLIN_CASES = [
    (hankel(1.5), -0.5, _mellin_bessel(1.5, -0.5)),    # absolutely
    (hankel(0.0), 0.25, _mellin_bessel(0.0, 0.25)),    # conditionally
    (hankel(0.0), 0.75, _mellin_bessel(0.0, 0.75)),    # Abel, m = 1/4
    (hankel(1.5), 2.7, _mellin_bessel(1.5, 2.7)),      # Abel, m = 0.7
    (scripth(0.0), -1.5, _mellin_struve(0.0, -1.5)),   # absolutely
    (scripth(0.0), -0.25, _mellin_struve(0.0, -0.25)),  # conditionally
    (scripth(1.0), -2.5, _mellin_struve(1.0, -2.5)),   # absolutely
    (sine(), -1.5, _mellin_sine(-1.5)),                # absolutely
    (sine(), -0.5, _mellin_sine(-0.5)),                # conditionally
    (sine(), 0.5, _mellin_sine(0.5)),                  # Abel, m = 1/2
    (sine(), 1.25, _mellin_sine(1.25)),                # Abel, m = 5/4
    (cosine(), -0.5, _mellin_cosine(-0.5)),            # conditionally
    (cosine(), 0.5, _mellin_cosine(0.5)),              # Abel, m = 1/2
    (cosine(), 1.25, _mellin_cosine(1.25)),            # Abel, m = 5/4
]


@pytest.mark.parametrize("spec,nu,exact", MELLIN_CASES,
                         ids=[f"{s.name}-{s.alpha}-{nu}" for s, nu, _ in MELLIN_CASES])
def test_phi_to_infinity_against_mellin_transform(spec, nu, exact):
    table = _dilation_table(spec.kernel, nu, CFG.rel_tol, CFG.abs_tol, CFG.max_panels)
    v, e = table.integral(np.array([0.0]), np.array([math.inf]))
    assert abs(mpmath.mpf(v[0]) - exact) <= e[0]


def test_struve_drift_that_does_not_decay_is_not_served():
    # scripth(0) of x^-1/4 on (1, inf): the drift t^-3/4 of H_0 does not
    # decay; the table reads inf and _point keeps its NonConvergence.
    table = _dilation_table(scripth(0.0).kernel, 0.25, CFG.rel_tol, CFG.abs_tol,
                            CFG.max_panels)
    assert not np.isfinite(table.integral(np.array([0.0]), np.array([math.inf]))[0][0])
    f = make_truncated_power(-0.25, 1.0, "right")
    assert not _table_values(scripth(0.0), f, np.array([2.0]), CFG)[0][0]
    with pytest.raises(NonConvergence):
        _point(scripth(0.0), f, 2.0, CFG)


def test_sine_far_field_oracles():
    # integral_1^inf sin(t)/t^2 dt = sin(1) - Ci(1), and
    # integral_0^inf sin(t)/t dt = pi/2 (frozen).
    for nu, a, exact in ((-2.0, 1.0, 0.5040670619069284), (-1.0, 0.0, math.pi / 2.0)):
        table = _dilation_table(sine().kernel, nu, CFG.rel_tol, CFG.abs_tol, CFG.max_panels)
        v, e = table.integral(np.array([a]), np.array([math.inf]))
        assert abs(v[0] - exact) <= e[0] + 1e-16
        assert v[0] == pytest.approx(exact, abs=1e-10)


def test_scripth_right_sided_power_against_mellin():
    # scripth(0) of x^-2 on (1, inf): F f(y) = y (C - integral_0^y t^-3/2
    # H_0(t) dt), with C = integral_0^inf t^-3/2 H_0 the Struve Mellin
    # transform at mu = -1/2.
    f = make_truncated_power(-2.0, 1.0, "right")
    ys = [0.5, 1.0, 3.0]
    res = apply(scripth(0.0), f, ys, CFG, check=False)
    with mpmath.workdps(30):
        c = _mellin_struve(0.0, -1.5)
        for y, v, e in zip(ys, res.values, res.errors):
            y = mpmath.mpf(y)
            exact = y * (c - mpmath.quad(lambda t: t ** -1.5 * mpmath.struveh(0, t), [0, y]))
            assert abs(mpmath.mpf(v) - exact) <= e
            assert e <= CFG.rel_tol * abs(exact)


def test_point_error_carries_rounding_of_its_parts():
    # hankel(0) of 1 on (0, 2) at y = 6.677: a head on (0, 1/y) and a span
    # on (1/y, 2).  The error is their Kronrod errors plus eps times their
    # magnitudes.
    spec, y = hankel(0.0), 6.677
    cfg = QuadratureConfig(rel_tol=1e-9)
    v, e = _point(spec, make_truncated_power(0.0, 2.0, "left"), y, cfg)
    integrand = lambda x: x * spec.kernel.phi(x * y)
    v1, e1 = integrate(integrand, (0.0, 1.0 / y), cfg)
    v2, e2 = integrate(integrand, (1.0 / y, 2.0), cfg, wavelength=2.0 * math.pi / y)
    assert v == v1 + v2
    assert e == e1 + e2 + np.finfo(float).eps * (abs(v1) + abs(v2))
