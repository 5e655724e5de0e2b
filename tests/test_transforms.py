import math

import numpy as np
import pytest

from wnilab.kernels import check_envelope, fit_env_constant, struve_h
from wnilab.quadrature import QuadratureConfig
from wnilab.transforms import (AdmissibilityError, MissingPrimitiveBound,
                               MomentsNotVanished, NoSeriesKernel, apply, cosine,
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


def test_reduced_kernel_is_not_drift_free():
    # Beyond t = 1 the reduced kernel is phi minus a polynomial: segment
    # acceleration of long spans does not apply to it.
    for spec in (hankel(0.0), sine(), cosine()):
        assert spec.kernel.osc_drift_free
        assert not moment_reduced_kernel(spec, 1).osc_drift_free


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
