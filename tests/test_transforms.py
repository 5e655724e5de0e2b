import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wnilab.conditions import check_envelope, check_gm
from wnilab.kernels import FarField, KernelSpec, PowerEnvelope, SeriesKernel, struve_h
from wnilab.quadrature import NonConvergence, QuadratureConfig
from wnilab.transforms import (AdmissibilityError, MissingPrimitiveBound, DilationTable,
                               TransformSpec, _dilation_table, apply, check_admissible, cosine,
                               far_envelope, hankel, model_min, near_expansion, pointwise_bound,
                               preset, scripth, sine)
from wnilab.weights import (FunctionFamily, GMWitness, Piece, TestFunction, make_log_counterexample,
                            make_truncated_power, make_vanishing_moment_function)

CFG = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-13)
EPS = float(np.finfo(float).eps)


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
    with pytest.raises(ValueError):
        preset("laplace")


def test_preset_parameters_checked_against_signature():
    with pytest.raises(ValueError, match="'sine'.*'alpha'"):
        preset("sine", alpha=3.0)
    with pytest.raises(ValueError, match="'hankel'.*'alpha'"):
        preset("hankel")
    with pytest.raises(ValueError, match="'model_min'.*'alpah'"):
        preset("model_min", delta=1.0, alpah=1.0)


def test_sine_transform_antiderivative_oracle():
    f = make_truncated_power(0.0, 3.0, "left")
    res = apply(sine(), f, [2.0], CFG)
    assert res.values[0] == pytest.approx((1.0 - math.cos(6.0)) / 2.0, rel=1e-10)


def test_scripth_closed_form():
    alpha, r = 0.75, 0.5
    f = make_truncated_power(alpha + 0.5, r, "left")
    ys = np.geomspace(1e-2, 1e2, 12)
    res = apply(scripth(alpha), f, ys, CFG)
    closed = r ** (alpha + 1.0) * ys ** -0.5 * np.array([struve_h(alpha + 1.0, r * y) for y in ys])
    assert np.max(np.abs(res.values - closed) / np.abs(closed)) < 1e-8


def test_model_min_first_branch_only():
    f = make_truncated_power(0.0, 1.0, "left")
    res = apply(model_min(1.0), f, [0.5], CFG)
    assert res.values[0] == pytest.approx(0.5, rel=1e-12)


def test_apply_zero_function():
    z = TestFunction("zero", [Piece(0.0, 1.0, 0.0, 0.0)])
    res = apply(hankel(0.0), z, [0.3, 3.0], CFG)
    assert np.allclose(res.values, 0.0)


def test_linearity():
    # 2 f - 3 g for f = x^0.2 on (0, 1) and g = x on (1, 2), disjoint pieces.
    spec = hankel(0.5)
    f = TestFunction("f", [Piece(0.0, 1.0, 1.0, 0.2)])
    g = TestFunction("g", [Piece(1.0, 2.0, 1.0, 1.0)])
    combo = TestFunction("combo", [Piece(0.0, 1.0, 2.0, 0.2), Piece(1.0, 2.0, -3.0, 1.0)])
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


def fit_env_constant(kernel: KernelSpec) -> float:
    """The envelope constant: the supremum over t of |phi(t)| over its
    envelope."""
    return check_envelope(kernel).max_ratio


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
    witness = check_gm(f)
    assert witness is not None
    f.gm_witness = witness
    ys = np.geomspace(1e-2, 1e2, 15)
    vals = apply(spec, f, ys, CFG).values
    ratios = [abs(v) / pointwise_bound(spec, f, y, mode="gm") for y, v in zip(ys, vals)]
    assert max(ratios) < 50.0


def test_pointwise_bound_gm_requires_data():
    f = make_truncated_power(0.0, 1.0, "left")
    with pytest.raises(MissingPrimitiveBound):
        pointwise_bound(model_min(1.0), f, 1.0, mode="gm")
    with pytest.raises(ValueError):
        pointwise_bound(hankel(0.0), f, 1.0, mode="gm")  # no witness


@pytest.mark.parametrize("name,params", [
    ("hankel", {"alpha": 0.0}), ("hankel", {"alpha": 1.5}), ("scripth", {"alpha": 0.75}),
    ("sine", {}), ("cosine", {}), ("model_min", {"delta": 1.0})])
def test_admissible_exactly_where_the_pointwise_bound_is_finite(name, params):
    # Both read one regime table: in each mode a preset carries (standard
    # with the two-factor kernel estimate, gm with a primitive bound), a
    # truncated power on either side is admissible exactly when its bound
    # at y = 1 is finite.
    spec = preset(name, **params)
    modes = ["standard"] * spec.kernel_est_holds + ["gm"] * (spec.primitive_bound is not None)
    seen = set()
    for sigma in np.arange(-4.0, 3.01, 0.25):
        for side in ("left", "right"):
            f = make_truncated_power(float(sigma), 2.0, side)
            f.gm_witness = GMWitness(C=1.0, lam=2.0)
            for mode in modes:
                admissible = bool(check_admissible(f, spec, mode))
                assert admissible == math.isfinite(pointwise_bound(spec, f, 1.0, mode))
                seen.add(admissible)
    assert seen == {False, True}
    with pytest.raises(ValueError, match="mode must be"):
        check_admissible(f, spec, "pointwise")


def test_admissibility_gate():
    sh = scripth(0.75)
    bad = TestFunction("x^-b", [Piece(0.0, math.inf, 1.0, -sh.primitive_bound.b)])
    with pytest.raises(AdmissibilityError):
        apply(sh, bad, [1.0], CFG)
    res = apply(sh, bad, [1.0], CFG, check=False)  # override computes anyway
    assert res.values.shape == (1,)


def test_admissibility_gate_reads_the_regime_its_transform_carries():
    # scripth's kernel lacks the two-factor estimate, so its gate is the gm
    # regime, whose near-origin exponent b0 + b1 admits x^-1.6 on (0, 1).
    # The value is integral_0^1 x^-1.1 H_(3/4)(x) dx.
    res = apply(scripth(0.75), make_truncated_power(-1.6, 1.0, "left"), [1.0])
    with mpmath.workdps(30):
        power = mpmath.mpf(-1.6) + 0.5
        exact = mpmath.quad(lambda x: x ** power * mpmath.struveh(0.75, x), [0, 1])
    assert abs(mpmath.mpf(res.values[0]) - exact) <= res.errors[0]


@pytest.mark.parametrize("spec,f", [
    (hankel(0.0), make_log_counterexample(10.0, 1.0)),
    (hankel(0.5), make_vanishing_moment_function([hankel(0.5).b0], [0.2, 1.0, 5.0]))],
    ids=["hankel-0-log", "hankel-0.5-criterion-9"])
def test_vanished_moment_leads_the_near_expansion_with_the_next_power(spec, f):
    # F f is the transform through the reduced kernel G_1: its moment series
    # drops the vanished moment's term exactly and is led by y^(c0 + b1 + k);
    # 1 on (0, 1), whose moment does not vanish, keeps the y^(c0 + b1) term.
    series = spec.kernel.series
    (c,), p, _, _, _ = near_expansion(spec, FunctionFamily([f]))
    assert c[0] == 0.0 and c[1] != 0.0
    assert p[1] == spec.c0 + series.b1 + series.step
    (c,), p, _, _, _ = near_expansion(spec, FunctionFamily([make_truncated_power(0.0, 1.0)]))
    assert c[0] != 0.0 and p[0] == spec.c0 + series.b1


def _reduced_kernel(spec):
    """G_1(t) = t^-b1 phi(t) - a_0, the kernel of the moment-reduced
    transform, as a bare callable with its envelope min{t^k, 1}."""
    series = spec.kernel.series

    def g(t):
        t = np.asarray(t, dtype=float)
        return spec.kernel.phi(t) * t ** -series.b1 - series.coefs[0]
    return KernelSpec(f"{spec.kernel.kind}_reduced_1", PowerEnvelope(series.step, 0.0), g)


def _reduced_kernel_expansions(spec):
    """G_1 with the expansions it is read from: the series a_1, a_2, ... and
    t^-b1 phi's far field plus the drift -a_0 (for a kernel without drift)."""
    series, far = spec.kernel.series, spec.kernel.far_field
    return dataclasses.replace(
        _reduced_kernel(spec), series=SeriesKernel(series.step, series.step, series.coefs[1:]),
        far_field=FarField(far.scale, far.osc_power - series.b1, far.osc, 0.0,
                           (-series.coefs[0],)), crossover=spec.kernel.crossover)


def test_moment_reduced_sine_envelope():
    # For the sine kernel with one killed moment, the reduced kernel
    # G_1(t) = sin(t)/t - 1 obeys min{t^2, 1}, with the constant 1 - sin(t)/t
    # at the first minimum of sin(t)/t, where tan t = t.
    kern = _reduced_kernel_expansions(sine())
    assert (kern.envelope.b1, kern.envelope.b2) == (2.0, 0.0)
    ts = np.array([0.3, 0.9, 2.0, 7.0])
    assert np.allclose(kern.phi(ts), np.sin(ts) / ts - 1.0, rtol=1e-10, atol=1e-14)
    rep = check_envelope(kern)
    with mpmath.workdps(30):
        t = mpmath.findroot(lambda t: mpmath.tan(t) - t, 4.49)
        assert abs(rep.argmax_t / t - 1) <= 1e-6
        assert abs((1 - mpmath.sin(t) / t) / rep.max_ratio - 1) <= 1e-12


def test_reduced_kernel_has_no_far_field():
    # Beyond t = 1 the reduced kernel is phi minus a polynomial, which the
    # large-argument form of phi does not describe: as a bare callable, apply
    # refuses it and check_envelope has no expansions to read.
    f = make_truncated_power(0.0, 1.0, "left")
    for spec in (hankel(0.0), sine(), cosine()):
        assert spec.kernel.far_field is not None
        kernel = _reduced_kernel(spec)
        assert kernel.far_field is None and not kernel.oscillatory
        reduced = TransformSpec("reduced", spec.b0 + spec.kernel.series.b1,
                                spec.c0 + spec.kernel.series.b1, kernel)
        with pytest.raises(ValueError, match="far field"):
            apply(reduced, f, [1.0], CFG, check=False)
        with pytest.raises(ValueError, match="expansions"):
            check_envelope(kernel)


def test_apply_domain_is_positive_y():
    # F f(y) is defined for y > 0; y = 0 and y = -1 name the domain.
    f = make_truncated_power(0.0, 2.0, "left")
    for y in (0.0, -1.0):
        with pytest.raises(ValueError, match="0 < y"):
            apply(hankel(0.0), f, [y, 1.0], check=False)


def test_table_that_cannot_be_built_is_nonconvergent():
    # A far field whose terms shrink only beyond t = 1e4 has no reach within
    # the cap; and j_30's series, whose error bound exceeds its value toward
    # its crossover 60, leaves a piece of t^61 j_30(t) that does not chop.
    kernel = dataclasses.replace(sine().kernel,
                                 far_field=FarField(-1j, 0.0, 1e4 ** np.arange(41.0)))
    with pytest.raises(NonConvergence, match="no far-field reach"):
        DilationTable(kernel, 0.0)
    with pytest.raises(NonConvergence, match="does not chop"):
        DilationTable(hankel(30.0).kernel, 61.0)
    f = make_truncated_power(0.0, 1.0, "left")
    for spec in (TransformSpec("slow", 0.0, 0.0, kernel), hankel(30.0)):
        with pytest.raises(NonConvergence, match="no Phi_nu table"):
            apply(spec, f, [1.0], check=False)


def test_kernel_error_enters_the_read_bar():
    # A Bessel kernel off by 1e-9 cos(t/3), whose error bound says so: every
    # read of integral_0^T t j_0 from its table lies within its bar of the
    # exact kernel's T J_1(T).
    base = hankel(0.0).kernel
    kernel = dataclasses.replace(base, phi=lambda t: base.phi(t) + 1e-9 * np.cos(t / 3.0),
                                 phi_error=lambda t: base.phi_error(t) + 1e-9)
    table = DilationTable(kernel, 1.0)
    ts = np.linspace(1.0, table.reach, 30)
    v, e = table.integral(np.zeros(30), ts)
    with mpmath.workdps(30):
        for t, vv, ee in zip(ts, v, e):
            assert abs(mpmath.mpf(vv) - t * mpmath.besselj(1, t)) <= ee, t


def test_table_chopped_at_the_kernel_error():
    # j_20's series loses digits toward its crossover 40, so a piece there
    # has no plateau at double precision and is chopped at the kernel's own
    # error: integral_0^T t^41 j_20 = G(21) 2^20 T^21 J_21(T) within its bar.
    table = DilationTable(hankel(20.0).kernel, 41.0)
    ts = np.array([10.0, 30.0, 39.0, table.reach])
    v, e = table.integral(np.zeros(4), ts)
    with mpmath.workdps(40):
        for t, vv, ee in zip(ts, v, e):
            exact = mpmath.gamma(21) * 2 ** 20 * mpmath.mpf(t) ** 21 * mpmath.besselj(21, t)
            assert abs(mpmath.mpf(vv) - exact) <= ee, t


def test_table_past_a_far_field_term_cancelled_to_zero():
    # For t^0 j_(5/2)(t) the tail series' e_1 = 3i - 3i is 0, yet e_2 = 3
    # and the terms after it grow: the cut passes over that zero, so the
    # table builds, and a read beyond its reach lies within its bar of
    # mpmath's integral of j_(5/2) = G(7/2) (2/t)^(5/2) J_(5/2)(t).
    table = DilationTable(hankel(2.5).kernel, 0.0)
    assert table.osc_e_abs[1] == 0.0 and table.osc_e_abs[2] == 3.0
    a = np.array([1.5, 3.0]) * table.reach
    b = a + np.array([7.3, 20.0])
    v, e = table.integral(a, b)
    with mpmath.workdps(30):
        j = lambda t: mpmath.gamma(3.5) * (2 / t) ** 2.5 * mpmath.besselj(2.5, t)  # noqa: E731
        for lo, hi, vv, ee in zip(a, b, v, e):
            assert abs(mpmath.mpf(vv) - mpmath.quad(j, mpmath.linspace(lo, hi, 5))) <= ee
    # Zeros that end the series still end it: sine and cosine at nu = 0
    # have e_1 ... e_40 = 0, and their reach stays the crossover.
    for spec in (sine(), cosine()):
        table = DilationTable(spec.kernel, 0.0)
        assert not np.any(table.osc_e_abs[1:]) and table.reach == 12.0


# Batches whose reads are independent of the batch: every b >= 1 (the
# series' error takes no log of an end), and tail series that end (sin t at
# nu = 0, t^2 j_(1/2)(t) = t sin t at nu = 2), so the far field's cut does
# not move.
@pytest.mark.parametrize("spec,nu", [(sine(), 0.0), (hankel(0.5), 2.0)], ids=["sine", "hankel"])
def test_chebyshev_reads_skip_rows_that_are_zero(spec, nu):
    # Rows from a = 0, from 1 < a < reach and from a >= reach, ending below
    # and beyond the reach: the batch reads each row bitwise as it reads
    # that row alone, though only the ends t > 1 of rows from a < reach
    # are read from the Chebyshev pieces.
    table = DilationTable(spec.kernel, nu)
    r = table.reach
    a = np.array([0.0, 0.0, 0.0, 0.0, 2.5, 2.5, 2.5, r, 1.5 * r, 2.0 * r])
    b = np.array([1.0, 3.0, 2.0 * r, math.inf, 0.5 * r, 3.0 * r, math.inf, 1.5 * r, 4.0 * r,
                  math.inf])
    v, e = table.integral(a, b)
    for i in range(len(a)):
        vi, ei = table.integral(a[i:i + 1], b[i:i + 1])
        assert (v[i], e[i]) == (vi[0], ei[0]), i


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
# dilation tables against independent oracles
# ---------------------------------------------------------------------------

SERIES_PRESETS = [hankel(0.0), hankel(0.5), hankel(1.5), scripth(0.0), scripth(1.0),
                  sine(), cosine()]
FAR_YS = np.geomspace(1.01, 1e3, 9)  # hi y / reach beyond the reach


def _reach(spec, f):
    """The largest reach of the tables that F f reads."""
    return max(_dilation_table(spec.kernel, spec.b0 + p.exponent).reach for p in f.pieces)


def _assert_served_within(spec, f, ys, exact):
    """Every value without a note, each within its error of the mpmath
    closed form exact(y)."""
    res = apply(spec, f, ys, CFG, check=False)
    assert res.notes == []
    with mpmath.workdps(30):
        for y, v, e in zip(ys, res.values, res.errors):
            ex = exact(mpmath.mpf(y))
            assert abs(mpmath.mpf(v) - ex) <= e


def _termwise_primitive(spec, nu, x):
    """integral_0^x t^nu phi(t) dt for a series preset, from its termwise
    primitive in mpmath (the analytic continuation in nu where the origin is
    not integrable; differences of two ends are exact either way).

    j_a (cosine j_(-1/2), sine t j_(1/2)): x^(m+1) / (m+1)
    1F2(c; a+1, c+1; -x^2/4), c = (m+1)/2.  Struve H_a: x^(m+a+2) /
    (2^(a+1) G(3/2) G(a+3/2) (m+a+2)) 2F3(1, c; 3/2, a+3/2, c+1; -x^2/4),
    c = (m+a+2)/2."""
    x = mpmath.mpf(x)
    z = -x ** 2 / 4
    if spec.kernel.kind == "struve_h":
        a = mpmath.mpf(spec.alpha)
        m = nu + a + 2
        lead = x ** m / (2 ** (a + 1) * mpmath.gamma(1.5) * mpmath.gamma(a + 1.5) * m)
        return lead * mpmath.hyp2f3(1, m / 2, 1.5, a + 1.5, m / 2 + 1, z)
    a, m = {"bessel_j": (spec.alpha, nu), "cosine": (-0.5, nu), "sine": (0.5, nu + 1)}[
        spec.kernel.kind]
    return x ** (m + 1) / (m + 1) * mpmath.hyp1f2((m + 1) / 2, mpmath.mpf(a) + 1,
                                                  (m + 1) / 2 + 1, z)


def _termwise_transform(spec, f, y):
    """F f(y) = y^c0 sum_pieces c y^(-nu-1) [P_nu(hi y) - P_nu(lo y)],
    nu = b0 + e, with every exponent in mpf."""
    y = mpmath.mpf(y)
    total = mpmath.mpf(0)
    for p in f.pieces:
        nu = mpmath.mpf(spec.b0) + mpmath.mpf(p.exponent)
        ends = _termwise_primitive(spec, nu, p.hi * y)
        if p.lo > 0:
            ends -= _termwise_primitive(spec, nu, p.lo * y)
        total += p.coef * y ** (-nu - 1) * ends
    return y ** mpmath.mpf(spec.c0) * total


def _off_log_case(e):
    # At integer and half-integer exponents some term of the primitive is a
    # logarithm, which the hypergeometric forms above do not give.
    return abs(2.0 * e - round(2.0 * e)) > 1e-6


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
        e = draw((st.floats(-0.9, 2.0) if lo == 0.0 else st.floats(-3.0, 2.0))
                 .filter(_off_log_case))
        pieces.append(Piece(lo, hi, draw(st.floats(-2.0, 2.0).filter(lambda c: abs(c) > 0.1)), e))
    return TestFunction("drawn", pieces)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(f=_finite_pieces(), u=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
def test_table_route_against_termwise_primitives(f, u):
    # hi y in (0, 1], (1, reach] and beyond the reach, for every series
    # preset: every value, with or without a note, lies within its own bar
    # of the 30-digit termwise primitives.
    hi = max(p.hi for p in f.pieces)
    with mpmath.workdps(30):
        for spec in SERIES_PRESETS:
            reach = _reach(spec, f)
            ys = np.array([(0.05 + 0.95 * u[0]) / hi, (1.0 + (reach - 1.0) * u[1]) / hi,
                           reach * (1.05 + u[2]) / hi])
            res = apply(spec, f, ys, CFG, check=False)
            for y, v, e in zip(ys, res.values, res.errors):
                assert abs(mpmath.mpf(v) - _termwise_transform(spec, f, y)) <= e, (spec.name, y)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.5])
def test_hankel_table_against_closed_form(alpha):
    # f = 1 on (0, r): F f(y) = G(a+1) 2^a y^(-2a-2) (ry)^(a+1) J_(a+1)(ry),
    # with r y up to 1e3 times the reach (the far field).
    r = 2.0
    f = make_truncated_power(0.0, r, "left")
    reach = _reach(hankel(alpha), f)
    _assert_served_within(
        hankel(alpha), f, np.concatenate([np.geomspace(1e-3, reach / r, 40), FAR_YS * reach / r]),
        lambda y: (mpmath.gamma(alpha + 1) * mpmath.mpf(2) ** alpha * y ** (-2 * alpha - 2)
                   * (r * y) ** (alpha + 1) * mpmath.besselj(alpha + 1, r * y)))


@pytest.mark.parametrize("spec", SERIES_PRESETS[:1] + SERIES_PRESETS[3:] + [model_min(1.0)],
                         ids=lambda s: s.name if s.alpha is None else f"{s.name}-{s.alpha:g}")
@pytest.mark.parametrize("lam", [1.0 / 3.0, 2.0, 10.0])
def test_dilation_covariance_every_preset(spec, lam):
    # F[f(lam .)](y) = lam^(c0 - b0 - 1) F f(y / lam), for f = x^(1/2) on
    # (0, 1).
    def as_pieces(scale):
        return TestFunction("piece", [Piece(0.0, 1.0 / scale, scale ** 0.5, 0.5)])

    ys = np.array([0.3, 4.0, 60.0]) * lam
    factor = lam ** (spec.c0 - spec.b0 - 1.0)
    left = apply(spec, as_pieces(lam), ys, CFG, check=False)
    right = apply(spec, as_pieces(1.0), ys / lam, CFG, check=False)
    assert left.notes == [] and right.notes == []
    tol = left.errors + factor * right.errors + 1e-13 * np.abs(left.values)
    assert np.all(np.abs(left.values - factor * right.values) <= tol)


def test_table_right_sided_power_agrees_with_point():
    # The piece reaching infinity is read from the Chebyshev pieces and the
    # far field.  At y = 20 the value (2e-3) is served without a note (the
    # Kronrod prefix table of earlier versions left it one); it is within
    # 6e-15 of the value the per-value quadrature route of earlier versions
    # gave (frozen), and within its bar of 30-digit mpmath.quadosc.
    f = make_truncated_power(-2.5, 1.0, "right")
    res = apply(hankel(0.0), f, [0.5, 2.0, 20.0], CFG, check=False)
    assert res.notes == []
    assert abs(res.values[2] - -0.002275401573419947) <= 6e-15
    assert abs(res.values[2] - -0.00227540157342001047308284160475) <= res.errors[2]


def test_right_sided_power_served_at_large_y():
    # Hankel(0) of x^-2.5 on (1, inf) at rel_tol 1e-6 is y^(1/2) (C - P(y)),
    # C the continued Mellin constant of t^-3/2 j_0 and P its termwise
    # primitive.  Every value, 1e-7 to 8e-6 in size, is served without a
    # note within its bar of the 30-digit form; earlier versions' Kronrod
    # prefix table left each a bar of 8e-11 to 2e-10 and a nonconvergent note.
    spec, ys = hankel(0.0), [1000.0, 2000.0, 4000.0, 5000.0, 5700.0]
    res = apply(spec, make_truncated_power(-2.5, 1.0, "right"), ys,
                QuadratureConfig(rel_tol=1e-6), check=False)
    assert res.notes == []
    with mpmath.workdps(30):
        c = _mellin_bessel(0.0, -1.5)
        for y, v, e in zip(ys, res.values, res.errors):
            exact = mpmath.sqrt(y) * (c - _termwise_primitive(spec, mpmath.mpf(-1.5), y))
            assert abs(mpmath.mpf(v) - exact) <= e, y


def _model_min_exact(delta, e, lo, hi, y):
    """model_min(delta) of x^e on (lo, hi) at y: power segments on each side
    of x = 1/y, integral x^nu (xy)^(-delta/2) beyond it, nu = delta + e."""
    def seg(m, a, b):  # integral_a^b x^m dx
        if b <= a:
            return mpmath.mpf(0)
        if m == -1:
            return mpmath.log(b / a)
        return ((0 if b == mpmath.inf else b ** (m + 1)) - a ** (m + 1)) / (m + 1)
    nu, split = delta + mpmath.mpf(e), 1 / y
    return (seg(nu, lo, min(hi, split))
            + y ** (-delta / 2) * seg(nu - delta / 2, max(lo, split), hi))


@pytest.mark.parametrize("e,lo,hi", [(0.0, 0.0, 1.0), (-0.7, 0.0, 2.0),
                                     (-2.5, 1.0, math.inf), (0.3, 0.5, 3.0)])
def test_model_min_table_against_closed_form(e, lo, hi):
    # The model kernel's Phi_nu is elementary: 1 below t = 1 and one drift
    # power beyond, so every read is served within its bar.
    f = TestFunction("power", [Piece(lo, hi, 1.0, e)])
    ys = np.geomspace(1e-3, 1e4, 15)
    res = apply(model_min(1.0), f, ys, CFG, check=False)
    assert res.notes == []
    with mpmath.workdps(40):
        for y, v, err in zip(ys, res.values, res.errors):
            exact = _model_min_exact(1, e, mpmath.mpf(lo), mpmath.mpf(hi), mpmath.mpf(y))
            assert abs(mpmath.mpf(v) - exact) <= err


def test_model_min_slowly_decaying_tail():
    # x^-1.151 (xy)^-0.15 decays like x^-1.001: the tail-bound cutoff of the
    # per-value route overflowed here; the drift power integrates exactly.
    f = make_truncated_power(-1.151, 1.0, "right")
    res = apply(model_min(0.3), f, [1.0], CFG, check=False)
    assert res.notes == []
    with mpmath.workdps(40):
        exact = _model_min_exact(mpmath.mpf(0.3), -1.151, 1, mpmath.inf, 1)
        assert abs(res.values[0] - exact) <= 1e-12 * exact


def test_model_min_near_cancelling_exponent_within_bar():
    # x^e (xy)^(-delta/2) on (1, inf) integrates t^(m-1) with m = e + 1 +
    # delta/2 near 0; the rounding of m moves the value by |dm|/m^2, 63
    # times the arithmetic bar at delta = 0.3, e = -1.151 and y = 1
    # (m = -0.001).  The scan covers delta in 0.3 ... 2.3 and m in
    # -0.03 ... -0.001, at y = 1/2 and 2: every read within its bar of the
    # 40-digit value.
    cases = [(0.3, -1.151, 1.0)] + [
        (delta, -1.0 - delta / 2.0 + m, y) for delta in np.round(np.arange(0.3, 2.31, 0.1), 10)
        for m in (-0.001, -0.002, -0.005, -0.01, -0.015, -0.02, -0.025, -0.03) for y in (0.5, 2.0)]
    with mpmath.workdps(40):
        for delta, e, y in cases:
            f = make_truncated_power(e, 1.0, "right")
            res = apply(model_min(float(delta)), f, [y], CFG, check=False)
            assert res.notes == []
            exact = _model_min_exact(mpmath.mpf(float(delta)), e, 1, mpmath.inf, mpmath.mpf(y))
            assert abs(mpmath.mpf(res.values[0]) - exact) <= res.errors[0], (delta, e, y)


@pytest.mark.parametrize("e,lo,hi", [(-0.4, 2.0, math.inf), (-3.0, 0.0, 1.0)],
                         ids=["tail", "origin"])
def test_model_min_divergent_pieces(e, lo, hi):
    # x^0.6 (xy)^(-1/2) is not integrable at infinity, x^-2 not at 0.
    f = TestFunction("power", [Piece(lo, hi, 1.0, e)])
    res = apply(model_min(1.0), f, [0.5, 3.0], CFG, check=False)
    assert np.all(np.isinf(res.values)) and np.all(np.isinf(res.errors))
    assert res.notes == ["y=0.5: divergent", "y=3: divergent"]


def _mp_reduced_transform(spec, f, y):
    """y^(c0+c1) integral x^(b0+b1) f(x) G_1(xy) dx by mpmath.quad over
    each piece, with G_1(t) = j_a(t) - 1 from mpmath.besselj (b1 = c1 = 0
    for the Hankel kernels)."""
    a = mpmath.mpf(spec.alpha)
    y = mpmath.mpf(y)

    def g1(t):
        return mpmath.gamma(a + 1) * (2 / t) ** a * mpmath.besselj(a, t) - 1

    total = mpmath.mpf(0)
    for p in f.pieces:
        lo, hi = mpmath.mpf(p.lo), mpmath.mpf(p.hi)
        nodes = mpmath.linspace(lo, hi, 2 + int(hi * y))
        total += p.coef * mpmath.quad(
            lambda x: x ** (spec.b0 + mpmath.mpf(p.exponent)) * g1(x * y), nodes)
    return y ** mpmath.mpf(spec.c0) * total


@pytest.mark.parametrize("spec,f", [
    (hankel(0.0), make_log_counterexample(10.0, 1.0)),
    (hankel(0.5), make_vanishing_moment_function([hankel(0.5).b0], [0.2, 1.0, 5.0]))],
    ids=["hankel-0-log", "hankel-0.5-criterion-9"])
def test_moment_reduced_against_quadrature(spec, f):
    # f's vanished moment makes F f the reduced transform: apply against
    # 20-digit quadrature of the reduced kernel itself (x y <= 50).
    ys = [0.05, 0.5, 5.0]
    res = apply(spec, f, ys, CFG)
    assert res.notes == []
    with mpmath.workdps(20):
        for y, v, e in zip(ys, res.values, res.errors):
            assert abs(mpmath.mpf(v) - _mp_reduced_transform(spec, f, y)) <= e, y


def test_table_beyond_reach_agrees_with_point():
    # hankel(0) of 1 on (0, 1), read beyond the reach: within its bar of
    # J_1(y) / y, and within the sum of both bars of the values (frozen) of
    # the per-value quadrature route of earlier versions.
    f = make_truncated_power(0.0, 1.0, "left")
    # The frozen points, 1.5 and 3 times the reach of earlier versions.
    ys = np.array([1.5, 3.0]) * (1.0 + 0.45 * 4096 * math.pi)
    _assert_served_within(hankel(0.0), f, ys, lambda y: mpmath.besselj(1, y) / y)
    res = apply(hankel(0.0), f, ys, CFG)
    point = [(-8.495943734544885e-08, 2.6331322787598873e-19),
             (2.849929368138169e-07, 6.597149280188481e-20)]
    for v, e, (pv, pe) in zip(res.values, res.errors, point):
        assert abs(v - pv) <= e + pe
    # A piece wholly beyond the reach is read from the far field alone.
    f = TestFunction("far", [Piece(1.0, 2.0, 1.0, -1.3)])
    with mpmath.workdps(30):
        for spec in SERIES_PRESETS:
            ys = np.array([1.05, 40.0]) * _reach(spec, f)
            res = apply(spec, f, ys, CFG, check=False)
            for y, v, e in zip(ys, res.values, res.errors):
                assert abs(mpmath.mpf(v) - _termwise_transform(spec, f, y)) <= e, (spec.name, y)
    # Its bar holds against closed forms for 1 on (1, 2): y^-2 [T J_1(T)]
    # from T = y to 2y for hankel(0), (cos y - cos 2y) / y for sine.
    f = TestFunction("far", [Piece(1.0, 2.0, 1.0, 0.0)])
    ys = np.array([1.05, 1.5, 40.0]) * max(_reach(hankel(0.0), f), _reach(sine(), f))
    _assert_served_within(hankel(0.0), f, ys, lambda y: (2 * y * mpmath.besselj(1, 2 * y)
                                                         - y * mpmath.besselj(1, y)) / y ** 2)
    _assert_served_within(sine(), f, ys, lambda y: (mpmath.cos(y) - mpmath.cos(2 * y)) / y)


def test_fallback_read_error_over_tolerance():
    # The table takes no tolerance, but no read meets 1e-15 relative: every
    # value carries a nonconvergent note with its read and error, the read
    # within its bar of the closed form J_1(y) / y.
    cfg = QuadratureConfig(rel_tol=1e-15, abs_tol=1e-300)
    spec = hankel(0.0)
    f = make_truncated_power(0.0, 1.0, "left")
    res = apply(spec, f, [0.5, 40.0], cfg, check=False)
    assert res.notes == [f"y={y:g}: nonconvergent ({e:.2g})"
                         for y, e in zip(res.y_grid, res.errors)]
    with mpmath.workdps(30):
        for y, v, e in zip(res.y_grid, res.values, res.errors):
            assert abs(mpmath.mpf(v) - mpmath.besselj(1, y) / y) <= e


# ---------------------------------------------------------------------------
# the far field beyond the reach, against mpmath
# ---------------------------------------------------------------------------

def test_sine_log_family_far_field_against_si():
    # 2 Si(y) - Si(y/N) - Si(N y) with N y beyond the reach.
    N = 1e4
    f = make_log_counterexample(N, 0.0)
    _assert_served_within(
        sine(), f, FAR_YS * _reach(sine(), f) / N,
        lambda y: 2 * mpmath.si(y) - mpmath.si(mpmath.mpf(1.0 / N) * y)
        - mpmath.si(mpmath.mpf(N) * y))


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_scripth_far_field_against_closed_form(alpha):
    # x^(a+1/2) on (0, r): r^(a+1) y^(-1/2) H_(a+1)(r y), from
    # d/dt (t^(a+1) H_(a+1)(t)) = t^(a+1) H_a(t).
    r = 2.0
    f = make_truncated_power(alpha + 0.5, r, "left")
    _assert_served_within(
        scripth(alpha), f, FAR_YS * _reach(scripth(alpha), f) / r,
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
    table = _dilation_table(spec.kernel, nu)
    v, e = table.integral(np.array([0.0]), np.array([math.inf]))
    assert abs(mpmath.mpf(v[0]) - exact) <= e[0]


# Beyond the cases above, Mellin transforms continued analytically: past the
# strip at 0 (Bessel, sine), with a drift that grows toward infinity
# (Struve at mu = 2, where tan(pi) makes it 0), and the model kernel, whose
# Phi_1(0, T) = T^(3/2) / (3/2) - 1/6 beyond T = 1 continues to -1/6.
CONTINUED_MELLIN_CASES = MELLIN_CASES + [
    (hankel(0.0), -1.5, _mellin_bessel(0.0, -1.5)),
    (sine(), -2.5, _mellin_sine(-2.5)),
    (scripth(0.0), 1.0, _mellin_struve(0.0, 1.0)),
    (model_min(1.0), 1.0, -mpmath.mpf(1) / 6),
]


@pytest.mark.parametrize("spec,nu,exact", CONTINUED_MELLIN_CASES,
                         ids=[f"{s.name}-{s.alpha}-{nu}" for s, nu, _ in CONTINUED_MELLIN_CASES])
def test_mellin_read_against_closed_form(spec, nu, exact):
    table = _dilation_table(spec.kernel, nu)
    v, e = table.mellin()
    assert abs(mpmath.mpf(v) - exact) <= e
    # Not a vacuous bar: the growing envelopes t^(5/4) read Phi(T) ~ 5e4 at
    # T = R, whose table error at rel_tol 1e-9 is about 5e-5.
    assert e <= 1e-4 * max(1.0, abs(exact))


def test_mellin_read_is_kept_on_the_table():
    # A second read evaluates no kernel point and returns the first read's
    # tuple; a read that raises is not kept and raises again.
    points = []

    def phi(t):
        points.append(np.size(t))
        return hankel(0.0).kernel.phi(t)

    table = DilationTable(dataclasses.replace(hankel(0.0).kernel, phi=phi), 0.25)
    first = table.mellin()
    del points[:]
    assert table.mellin() is first and points == []
    table = _dilation_table(model_min(1.0).kernel, -0.5)
    for _ in range(2):
        with pytest.raises(NonConvergence, match="logarithmic"):
            table.mellin()


# Continued power ends t^s / s with s within 1e-3 of 0, where a rounded
# exponent moves the term by (|log t| + 1/|s|) times its rounding: the model
# kernel's drift (nu - 0.15 + 1 = s) in its Mellin constant, and the moment
# series continued from x = 1 (0.3 + e + 1 = s) in the near expansion.
CONTINUED_S = [-1e-3, -1e-4, 1e-4, 1e-3]


@pytest.mark.parametrize("s", CONTINUED_S)
def test_continued_power_ends_within_their_bars(s):
    spec = model_min(0.3)
    nu = -0.85 + s
    c, err = DilationTable(spec.kernel, nu).mellin()
    with mpmath.workdps(50):
        exact = 1 / (mpmath.mpf(nu) + 1) - 1 / (mpmath.mpf(nu) + mpmath.mpf(-0.5 * 0.3) + 1)
    assert abs(mpmath.mpf(c) - exact) <= err <= 1e-10 * abs(c)
    e = -1.3 + s
    (coefs,), powers, (errs,), _, _ = near_expansion(
        spec, FunctionFamily([make_truncated_power(e, 1.0, "right")]))
    with mpmath.workdps(50):
        exact = -1 / (mpmath.mpf(spec.b0) + mpmath.mpf(e) + 1)
    assert powers[0] == 0.0
    assert abs(mpmath.mpf(coefs[0]) - exact) <= errs[0] <= 1e-10 * abs(coefs[0])


def test_model_min_log_case_against_closed_form():
    # x^-1.5 on (1, 2) under model_min(1): nu = -0.5 and the drift exponent
    # is exactly 0, so Phi(T) = 2 sqrt(T) on T <= 1 and 2 + log T beyond.
    f = TestFunction("log-case", [Piece(1.0, 2.0, 1.0, -1.5)])
    ys = [0.3, 0.7, 1.5, 4.0]
    res = apply(model_min(1.0), f, ys, CFG)
    assert res.notes == []
    with mpmath.workdps(30):
        def phi(t):
            t = mpmath.mpf(t)
            return 2 * mpmath.sqrt(t) if t <= 1 else 2 + mpmath.log(t)
        for y, v, e in zip(ys, res.values, res.errors):
            exact = mpmath.mpf(y) ** -0.5 * (phi(2 * y) - phi(y))
            assert abs(mpmath.mpf(v) - exact) <= min(e, 1e-15 * abs(exact)), y


END_CASES = [
    (hankel(0.0), make_truncated_power(0.0, 2.0)),
    (hankel(1.5), make_truncated_power(-2.5, 2.0, "right")),
    (scripth(0.0), make_truncated_power(0.5, 2.0)),
    (scripth(0.0), make_truncated_power(-2.0, 2.0, "right")),
    (model_min(1.0), make_truncated_power(-0.3, 2.0)),
    (sine(), make_truncated_power(-1.5, 0.5, "right")),
    (cosine(), make_log_counterexample(10.0, 0.0)),
]
END_IDS = [f"{s.name}-{f.params.get('side', 'log')}" for s, f in END_CASES]


@pytest.mark.parametrize("spec,f", END_CASES, ids=END_IDS)
def test_near_expansion_is_the_transform_below_one_over_x(spec, f):
    # sum c_i y^p_i against the table reads for y up to 1/X, X the largest
    # jump point; a declared vanished moment is an exact 0.
    (c,), p, (c_err,), (y_max,), (log,) = near_expansion(spec, FunctionFamily([f]))
    assert not log
    ys = y_max * np.array([1e-3, 0.1, 0.5, 1.0])
    res = apply(spec, f, ys, CFG, check=False)
    series = np.sum(c * ys[:, None] ** p, axis=1)
    bound = res.errors + np.sum(c_err * ys[:, None] ** p, axis=1) + 1e-13 * np.abs(series)
    assert np.all(np.abs(series - res.values) <= bound)
    if f.vanished_moments:
        assert c[0] == 0.0 and np.all(c[1:] != 0.0)


@pytest.mark.parametrize("spec,exact", [
    (hankel(0.0), lambda y: -mpmath.besselj(1, y) / y),
    (cosine(), lambda y: -mpmath.sin(y) / y),
], ids=["hankel", "cosine"])
def test_near_expansion_drops_a_vanishing_mellin_constant(spec, exact):
    # f = 1 on (1, inf): the Mellin constants integral_0^inf t J_0 and
    # integral_0^inf cos are 0, so F f leads with y^0 at 0, not with the
    # rounding residue of the constant times y^-2 or y^-1.
    f = make_truncated_power(0.0, 1.0, "right")
    (c,), p, (c_err,), _, _ = near_expansion(spec, FunctionFamily([f]))
    assert np.all(p >= 0.0) and p[np.flatnonzero(c)[0]] == 0.0
    ys = np.array([1e-3, 0.1, 0.5, 1.0])
    series = np.sum(c * ys[:, None] ** p, axis=1)
    for y, v, e in zip(ys, series, np.sum(c_err * ys[:, None] ** p, axis=1)):
        assert abs(mpmath.mpf(v) - exact(mpmath.mpf(y))) <= e + 1e-13


@pytest.mark.parametrize("spec,f", END_CASES, ids=END_IDS)
def test_far_envelope_bounds_the_transform(spec, f):
    # |F f| stays under the envelope on four decades beyond y1, and comes
    # within a factor 3 of it.
    (k,), kappa, (y1,), (log,) = far_envelope(spec, FunctionFamily([f]), 0.0)
    assert not log
    assert y1 * min(f.breakpoints) == pytest.approx(12.0)
    ys = y1 * np.geomspace(1.0, 1e4, 400)
    res = apply(spec, f, ys, CFG, check=False)
    envelope = np.sum(k * ys[:, None] ** kappa, axis=1)
    assert np.all(np.abs(res.values) <= envelope + res.errors)
    assert np.max(np.abs(res.values) / envelope) >= 1.0 / 3.0


def test_far_envelope_starts_at_the_kernel_crossover():
    # hankel(10) crosses over at 2 alpha = 20: from y1 = 20 / X on every
    # jump x y lies in the kernel's asymptotic range, and the envelope bounds
    # |F f| over three decades.
    spec, f = hankel(10.0), make_truncated_power(0.0, 1.0, "left")
    (k,), kappa, (y1,), _ = far_envelope(spec, FunctionFamily([f]), 1e-3)
    assert y1 == 20.0
    ys = y1 * np.geomspace(1.0, 1e3, 400)
    res = apply(spec, f, ys, CFG, check=False)
    assert np.all(np.abs(res.values) <= np.sum(k * ys[:, None] ** kappa, axis=1) + res.errors)


ENVELOPE_PRESETS = SERIES_PRESETS + [model_min(1.0)]


@pytest.mark.parametrize("spec", ENVELOPE_PRESETS,
                         ids=[f"{s.name}-{s.alpha}" for s in ENVELOPE_PRESETS])
def test_far_envelope_read_agrees_with_the_array_path(spec):
    # The envelope's oscillatory K, a Horner sum in Python floats, is
    # |scale| (sum_(k <= n) |e_k| t^-k + 2 |e_(n+1)| t^-(n+1)) summed over
    # numpy arrays, within 4 eps, at the crossover, the reach and 10 reach.
    for nu in (spec.b0, spec.b0 - 1.3):
        table = _dilation_table(spec.kernel, nu)
        ts = np.array([table.crossover, table.reach, 10.0 * table.reach])
        env, log = table._far_envelope(ts)
        assert not np.any(log)
        if not np.any(table.far_field.osc):
            assert len(env) == 1 and table.drift is not None
            continue
        for t, k_read in zip(ts, env[0][0]):
            n, w, e_abs = table._osc_cut(1.0 / t)[0], np.full(1, 1.0 / t), table.osc_e_abs
            k = abs(table.far_field.scale) * (np.polyval(e_abs[n::-1], w)
                                              + 2.0 * e_abs[n + 1] * w ** (n + 1))
            assert abs(k_read - k[0]) <= 4.0 * EPS * k[0], (nu, t)
        assert env[0][1] == table.osc_power


def test_far_envelope_reads_no_tail_value(monkeypatch):
    # The envelope is a scalar read: it evaluates no oscillatory tail value.
    spec, f = hankel(0.0), FunctionFamily([TestFunction("far", [Piece(1.0, 2.0, 1.0, 0.0)])])
    before = far_envelope(spec, f, 1e-3)

    def raises(*args):
        raise AssertionError("_osc_tail called")

    monkeypatch.setattr(DilationTable, "_osc_tail", raises)
    after = far_envelope(spec, f, 1e-3)
    assert all(np.array_equal(x, y) for x, y in zip(before, after))


FAMILIES = {
    "hankel-left": (hankel(0.0), [make_truncated_power(0.0, r)
                                  for r in np.geomspace(1e-3, 1e3, 13)]),
    "hankel-right": (hankel(0.0), [make_truncated_power(0.0, r, "right")
                                   for r in np.geomspace(1e-3, 1e3, 13)]),
    "scripth-left": (scripth(0.0), [make_truncated_power(0.5, r)
                                    for r in np.geomspace(0.1, 100, 6)]),
    "scripth-right": (scripth(0.0), [make_truncated_power(-2.0, r, "right")
                                     for r in np.geomspace(0.1, 100, 6)]),
    "model_min-right": (model_min(1.0), [make_truncated_power(-2.5, r, "right")
                                         for r in (0.5, 1.0, 2.0, 4.0)]),
    "cosine-log": (cosine(), [make_log_counterexample(n, 0.0) for n in (10.0, 100.0, 1e3, 1e4)]),
}


@pytest.mark.parametrize("name", list(FAMILIES))
def test_family_ends_are_the_one_member_ends(name):
    # near_expansion and far_envelope read a family in one pass; each
    # member's row is bitwise its one-member family's, its far-field cuts
    # taken at its own x y1 (y_min varies by member, so y1 does), and the
    # shared columns are the one-member ones.
    spec, members = FAMILIES[name]
    fam = FunctionFamily(members)
    y_min = np.where(np.arange(len(members)) % 2, 40.0 / fam.jump_x.max(axis=1), 1e-3)
    reads = [(lambda f, i: near_expansion(spec, f), (0, 2, 3, 4)),
             (lambda f, i: far_envelope(spec, f, y_min[i]), (0, 2, 3))]
    for end, rows in reads:
        whole = end(fam, slice(None))
        assert not np.any(whole[-1])
        for i, f in enumerate(members):
            alone = end(FunctionFamily([f]), slice(i, i + 1))
            for k, (a, b) in enumerate(zip(whole, alone)):
                got = a[i] if k in rows else a
                assert np.asarray(got).tobytes() == np.asarray(b[0] if k in rows else b).tobytes()


def test_far_envelope_without_a_jump_is_the_mellin_bound():
    # x^-1.5 on (0, inf) has no jump point: hankel(0) reads it as C y^-1/2,
    # C = 2.0921 its Mellin constant, and the envelope is that term's bound
    # alone, from y1 = y_min.
    spec, f = hankel(0.0), TestFunction("pure", [Piece(0.0, math.inf, 1.0, -1.5)])
    (k,), kappa, (y1,), (log,) = far_envelope(spec, FunctionFamily([f]), 1.0)
    assert y1 == 1.0 and not log and kappa.tolist() == [-0.5]
    (c,), p, (c_err,), _, _ = near_expansion(spec, FunctionFamily([f]))
    assert p[-1] == -0.5 and k[0] == abs(c[-1]) + c_err[-1]
    assert c[-1] == pytest.approx(2.0921, abs=1e-4)
    ys = np.geomspace(1.0, 1e4, 200)
    res = apply(spec, f, ys, CFG, check=False)
    assert np.all(np.abs(res.values) <= k[0] * ys ** kappa[0] + res.errors)


def test_struve_drift_that_does_not_decay_is_not_served():
    # scripth(0) of x^-1/4 on (1, inf): the drift t^-3/4 of t^1/4 H_0 is
    # not integrable toward infinity; the table reads inf, a divergent value.
    table = _dilation_table(scripth(0.0).kernel, 0.25)
    assert not np.isfinite(table.integral(np.array([0.0]), np.array([math.inf]))[0][0])
    res = apply(scripth(0.0), make_truncated_power(-0.25, 1.0, "right"), [2.0], CFG,
                check=False)
    assert res.notes == ["y=2: divergent"] and np.isinf(res.values[0])


def test_sine_far_field_oracles():
    # integral_1^inf sin(t)/t^2 dt = sin(1) - Ci(1), and
    # integral_0^inf sin(t)/t dt = pi/2 (frozen).
    for nu, a, exact in ((-2.0, 1.0, 0.5040670619069284), (-1.0, 0.0, math.pi / 2.0)):
        table = _dilation_table(sine().kernel, nu)
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
