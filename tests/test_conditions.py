import math

import mpmath
import numpy as np
import pytest

from wnilab import conditions
from wnilab.conditions import (EnvelopeNotStrict, InverseRelationViolated,
                               glued_condition, gm_power_range,
                               hardy_pair_condition, lorentz_necessity_condition,
                               oinarov_check, power_hardy_verdict,
                               power_pair_verdict_analytic, power_pitt_range,
                               special_case_222, vanishing_moment_range)
from wnilab.kernels import KernelSpec, PowerEnvelope, model_min_kernel
from wnilab.transforms import (MissingPrimitiveBound, NoSeriesKernel, cosine,
                               hankel, model_min, scripth, sine)
from wnilab.weights import ExponentSet, Weight

ES22 = ExponentSet(p=2.0, q=2.0, a=1.0)


def _hankel0_weights(beta, gamma):
    # The two-factor setting of the Hankel transform of order 0:
    # s = w = x^(2a+1) = x, u = y^(-beta q), v = x^(gamma p).
    return (Weight.power(-2.0 * beta), Weight.power(2.0 * gamma),
            Weight.power(1.0), Weight.power(1.0))


def test_hardy_pair_hankel_setting_inside():
    u, v, s, w = _hankel0_weights(0.25, 0.25)
    r1, r2 = hardy_pair_condition(u, v, s, w, ES22)
    assert r1.finite and r2.finite
    # Pure powers on the relation: the product is constant, sup = 2 exactly.
    assert r1.sup_value == pytest.approx(2.0, rel=1e-6)
    assert r2.sup_value == pytest.approx(2.0, rel=1e-6)


def test_hardy_pair_interior_maximum_against_mpmath():
    # Piecewise powers (switch at x = 1) whose bracket products rise and
    # fall: both suprema are interior maxima, at r > 1, where the brackets
    # are sums of closed-form powers.  Each maximum is located in mpmath;
    # the scan must find it to 1e-9 relative, at a point within its final
    # zoom spacing in log r.
    u, v = Weight.piecewise_power(-0.4, -0.6), Weight.piecewise_power(0.3, 0.5)
    x = Weight.power(1.0)
    rep1, rep2 = hardy_pair_condition(u, v, x, x, ES22)
    c = [mpmath.mpf(e) for e in ("0.4", "0.5", "0.6", "0.7")]

    def first(t):
        # (int_0^(1/r) u)^(1/2) (int_0^r 1/v)^(1/2) for r > 1
        r = mpmath.exp(t)
        return mpmath.sqrt(r ** -c[2] / c[2] * (1 / c[3] + (r ** c[1] - 1) / c[1]))

    def second(t):
        # (int_(1/r)^inf u/x)^(1/2) (int_r^inf 1/(v x))^(1/2) for r > 1
        r = mpmath.exp(t)
        return mpmath.sqrt(((r ** c[0] - 1) / c[0] + 1 / c[2]) * r ** -c[1] / c[1])

    spacing = math.log(1e12) / 59 * (2.0 / (conditions._ZOOM_POINTS - 1)) ** conditions._ZOOM_ROUNDS
    with mpmath.workdps(30):
        for rep, product, t0 in ((rep1, first, 1.08), (rep2, second, 1.27)):
            assert rep.finite
            t_max = mpmath.findroot(lambda t: mpmath.diff(product, t), t0)
            assert rep.sup_value == pytest.approx(float(product(t_max)), rel=1e-9)
            assert abs(math.log(rep.argmax_r) - float(t_max)) <= spacing


def test_hardy_pair_endpoint_divergence():
    u, v, s, w = _hankel0_weights(0.5, 0.25)
    r1, _ = hardy_pair_condition(u, v, s, w, ES22)
    assert r1.verdict == "divergent"
    assert r1.divergence_site == "inner-integral endpoint"


def test_hardy_pair_model_setting():
    # s = w = x^delta with delta = 1 and beta = gamma = 0.25: finite, and
    # the sup is stable to 2% under scan-grid refinement.
    u = Weight.power(-0.5)
    v = Weight.power(0.5)
    sw = Weight.power(1.0)
    r1, r2 = hardy_pair_condition(u, v, sw, sw, ES22)
    assert r1.finite and r2.finite
    assert len(r1.scan_trace) >= 50
    r1d, r2d = hardy_pair_condition(u, v, sw, sw, ES22, scan_points=120)
    assert abs(r1d.sup_value - r1.sup_value) / r1.sup_value < 0.02
    assert abs(r2d.sup_value - r2.sup_value) / r2.sup_value < 0.02


def test_scan_sup_scale_invariance():
    # Replacing u(y) by u(lam y) scales the first supremum by lam^(-beta);
    # the verdict is unchanged.
    beta, lam = 0.25, 7.0
    u, v, s, w = _hankel0_weights(beta, 0.25)
    u_scaled = Weight.power(-2.0 * beta, coefficient=lam ** (-2.0 * beta))
    r1, _ = hardy_pair_condition(u, v, s, w, ES22)
    r1s, _ = hardy_pair_condition(u_scaled, v, s, w, ES22)
    assert r1s.finite == r1.finite
    assert r1s.sup_value / r1.sup_value == pytest.approx(lam ** -beta, rel=1e-6)


def test_divergent_verdict_monotone_in_u():
    u, v, s, w = _hankel0_weights(0.5, 0.25)
    bigger_u = Weight.power(-1.0, coefficient=2.0)
    r1, _ = hardy_pair_condition(bigger_u, v, s, w, ES22)
    assert r1.verdict == "divergent"


def test_glued_matches_pair_and_duality_check():
    u, v, s, w = _hankel0_weights(0.25, 0.25)
    g = glued_condition(u, v, s, w, ES22)
    assert g.finite
    with pytest.raises(InverseRelationViolated):
        glued_condition(u, v, Weight.power(1.0), Weight.power(2.0), ES22)
    # Divergent case carries over.
    u2, v2, s2, w2 = _hankel0_weights(0.5, 0.25)
    assert glued_condition(u2, v2, s2, w2, ES22).verdict == "divergent"
    with pytest.raises(ValueError):
        glued_condition(u, v, s, w, ExponentSet(p=2, q=2, a=2.0))


def _random_piecewise_tuple(rng, q, p_prime, delta):
    """Piecewise-power weights with analytic margins away from every
    verdict boundary, plus the known pair verdict."""
    lo = 1.0 / q - 0.5 * delta
    hi = 1.0 / q
    rel = 1.0 / q - 1.0 / p_prime
    case = rng.integers(0, 4)
    def draw_inside():
        return rng.uniform(lo + 0.12, hi - 0.12)
    b1, b2 = draw_inside(), draw_inside()
    g1, g2 = b1 - rel, b2 - rel
    expected = True
    if case == 1:      # second component beyond the upper endpoint
        b2 = hi + rng.uniform(0.12, 0.8)
        g2 = b2 - rel
        expected = False
    elif case == 2:    # first component below the lower endpoint
        b1 = lo - rng.uniform(0.12, 0.8)
        g1 = b1 - rel
        expected = False
    elif case == 3:    # exponent relation broken: sup grows without bound.
        # Breaks of 0.25-0.7; test_glued_matches_pair_small_offsets covers
        # breaks of 0.01-0.17.
        off = rng.choice([-1.0, 1.0]) * rng.uniform(0.25, 0.7)
        g1, g2 = b1 - rel - off, b2 - rel - off
        expected = False
    u = Weight.piecewise_power(-b2 * q, -b1 * q)
    v = Weight.piecewise_power(g1 * (p_prime / (p_prime - 1.0)),
                               g2 * (p_prime / (p_prime - 1.0)))
    return u, v, expected


def test_gluing_equivalence_randomized():
    # On tuples satisfying the s-w duality, the glued verdict equals the
    # conjunction of the pair verdicts.
    rng = np.random.default_rng(20260808)
    agreements = 0
    for _ in range(20):
        q = rng.choice([1.5, 2.0, 2.5])
        p = rng.uniform(1.3, q)
        exps = ExponentSet(p=float(p), q=float(q), a=1.0)
        delta = rng.uniform(0.8, 2.5)
        sw = Weight.power(float(delta))
        u, v, expected = _random_piecewise_tuple(rng, exps.q, exps.p_prime, delta)
        r1, r2 = hardy_pair_condition(u, v, sw, sw, exps)
        pair = r1.finite and r2.finite
        g = glued_condition(u, v, sw, sw, exps)
        assert g.finite == pair
        assert pair == expected
        agreements += 1
    assert agreements == 20


def test_special_case_222():
    u = Weight.power(-0.5)
    v = Weight.power(0.5)
    sw = Weight.power(1.0)
    rep = special_case_222(u, v, sw, sw)
    assert "experimental" in rep.label
    assert rep.finite


def test_lorentz_condition_examples():
    ones = Weight.power(0.0)
    rep = lorentz_necessity_condition(ones, ones, ones, ES22)
    assert rep.finite
    assert rep.sup_value == pytest.approx(1.0, rel=1e-6)

    # Hankel-consistent powers inside the range: the Lorentz inequality
    # compares Ff and f directly, so v carries the full exponent
    # gamma = beta + 2a + 1 - 1/q + 1/p' (= 1.25 at beta = 0.25, a = 0).
    rep = lorentz_necessity_condition(Weight.power(-0.5), Weight.power(2.5),
                                      Weight.power(1.0), ES22)
    assert rep.finite

    # beta = 1/q endpoint: the inner u integral is log-divergent.
    rep = lorentz_necessity_condition(Weight.power(-1.0), Weight.power(0.5),
                                      Weight.power(1.0), ES22)
    assert rep.verdict == "divergent"
    assert rep.divergence_site == "inner-integral endpoint"


def test_power_ranges_match_known_values():
    suff, sharp = power_pitt_range(hankel(0.0), ES22)
    assert (suff.lo, suff.hi) == (0.0, 0.5)
    assert (sharp.lo, sharp.hi) == (-0.5, 0.5)
    assert sharp.lo_closed and not sharp.hi_closed

    suff, sharp = power_pitt_range(sine(), ES22)
    assert (suff.lo, suff.hi) == (0.5, 1.5)
    assert (sharp.lo, sharp.hi) == (0.0, 1.5)

    suff, sharp = power_pitt_range(scripth(1.0), ES22)
    assert (suff.lo, suff.hi) == (1.0, 3.0)
    assert sharp is not None and sharp.sharp and (sharp.lo, sharp.hi) == (1.0, 3.0)

    suff, sharp = power_pitt_range(scripth(0.25), ES22)
    assert (suff.lo, suff.hi) == (0.5, 2.25)
    assert sharp is None

    with pytest.raises(EnvelopeNotStrict):
        power_pitt_range(cosine(), ES22)


def test_power_range_relation_offset():
    # Hankel relation: beta = gamma - 2a - 1 + 1/q - 1/p'.
    suff, _ = power_pitt_range(hankel(1.0), ExponentSet(p=2.0, q=4.0))
    assert suff.relation_offset == pytest.approx(-3.0 + 0.25 - 0.5)
    v = suff.query(beta=0.1, gamma=0.1 + 3.0 + 0.25)
    assert v.satisfied
    v = suff.query(beta=0.1, gamma=0.0)
    assert not v.satisfied


def test_gm_ranges_match_known_values():
    assert (lambda r: (r.lo, r.hi))(gm_power_range(sine(), ES22)) == (-0.5, 1.5)
    assert (lambda r: (r.lo, r.hi))(gm_power_range(hankel(0.0), ES22)) == (-1.0, 0.5)
    r = gm_power_range(scripth(0.0), ES22)
    assert (r.lo, r.hi) == (0.0, 2.0) and r.sharp
    r = gm_power_range(cosine(), ES22)
    assert (r.lo, r.hi) == (-0.5, 0.5)
    with pytest.raises(MissingPrimitiveBound):
        gm_power_range(model_min(1.0), ES22)


def test_vanishing_moment_ranges():
    r = vanishing_moment_range(hankel(1.0), 2, ES22)
    assert (r.lo, r.hi) == (0.5, 4.5)
    assert r.excluded == (2.5,)
    r = vanishing_moment_range(sine(), 1, ES22)
    assert (r.lo, r.hi) == (1.5, 3.5) and r.excluded == ()
    r = vanishing_moment_range(scripth(0.5), 1, ES22)
    assert (r.lo, r.hi) == (2.5, 4.5)
    with pytest.raises(NoSeriesKernel):
        vanishing_moment_range(model_min(1.0), 1, ES22)
    # Interior lattice points are excluded from satisfaction.
    r = vanishing_moment_range(hankel(1.0), 2, ES22, beta=2.5)
    assert not r.satisfied and r.indeterminate


def test_endpoint_indeterminate_flag():
    suff, _ = power_pitt_range(hankel(0.0), ES22, beta=0.48)
    assert suff.indeterminate
    suff, _ = power_pitt_range(hankel(0.0), ES22, beta=0.25)
    assert not suff.indeterminate and suff.satisfied


def test_scan_agrees_with_closed_form_relation_enforced():
    for spec in (hankel(0.0), sine(), scripth(1.0)):
        suff, _ = power_pitt_range(spec, ES22)
        for beta in (suff.lo - 0.2, suff.lo + 0.15, 0.5 * (suff.lo + suff.hi),
                     suff.hi - 0.15, suff.hi + 0.2):
            gamma = beta - suff.relation_offset
            r1, r2 = power_hardy_verdict(spec, ES22, beta, gamma)
            scan = r1.finite and r2.finite
            analytic = suff.query(beta, gamma).satisfied
            assert scan == analytic, (spec.name, beta)


def test_analytic_pair_predicate():
    # Pure power weights in the model setting: verdicts from exponents.
    fin1, fin2 = power_pair_verdict_analytic(-0.5, 0.5, 1.0, 1.0, ES22)
    assert fin1 and fin2
    fin1, _ = power_pair_verdict_analytic(-1.2, 0.7, 1.0, 1.0, ES22)
    assert fin1 is False
    # Within the endpoint tolerance nothing is asserted.
    fin1, _ = power_pair_verdict_analytic(-0.98, 0.5, 1.0, 1.0, ES22)
    assert fin1 is None


def test_oinarov_model_kernel_unbounded():
    # K = min{1, (xy)^-1}: required d grows like N^((a-b)/2) on the triples.
    rep = oinarov_check(model_min_kernel(2.0), n_grid=(10.0, 100.0, 1000.0),
                        ab_pairs=((2.0, 1.0),))
    assert rep.verdict == "unbounded"
    for d, n in zip(rep.d_required, (10.0, 100.0, 1000.0)):
        assert d == pytest.approx(math.sqrt(n), rel=0.05)


def test_oinarov_constant_kernel_bounded():
    const = KernelSpec("custom", PowerEnvelope(0.0, 0.0, 0.0, 0.0),
                       lambda t: np.ones_like(np.asarray(t, dtype=float)))
    rep = oinarov_check(const)
    assert rep.verdict == "bounded"
    assert rep.feasible_d == pytest.approx(2.0)


def test_oinarov_exponential_kernel_diagnostic():
    # e^{-xy} on the same triples: the scan reports whatever it finds.
    expk = KernelSpec("custom", PowerEnvelope(0.0, 0.0, 0.0, 0.0),
                      lambda t: np.exp(-np.asarray(t, dtype=float)))
    rep = oinarov_check(expk)
    assert rep.verdict in ("bounded", "unbounded")
    assert all(d >= 1.0 for d in rep.d_required)


def test_condition_report_serializes():
    u, v, s, w = _hankel0_weights(0.25, 0.25)
    r1, _ = hardy_pair_condition(u, v, s, w, ES22)
    d = r1.to_dict()
    assert d["verdict"] == "finite"
    assert isinstance(d["scan_trace"][0][0], float)


@pytest.mark.parametrize("p,q", [(2.0, 2.0), (1.5, 2.5)])
@pytest.mark.parametrize("offset", [0.01, 0.03, 0.1, 0.17, -0.01, -0.03, -0.1, -0.17])
def test_hardy_pair_small_offsets_divergent(offset, p, q):
    # Pure powers off the exponent relation by `offset`: every bracket
    # converges, and both products are c r^offset, so the analytic verdict
    # is divergent at r -> inf for offset > 0 and at r -> 0 for offset < 0.
    exps = ExponentSet(p=p, q=q, a=1.0)
    beta = 1.0 / q - 0.25  # inside (1/q - delta/2, 1/q) for delta = 1
    gamma = beta - (1.0 / q - 1.0 / exps.p_prime) - offset
    assert power_pair_verdict_analytic(-beta * q, gamma * p, 1.0, 1.0, exps) == (False, False)
    sw = Weight.power(1.0)
    site = "r->inf" if offset > 0 else "r->0"
    for rep in hardy_pair_condition(Weight.power(-beta * q), Weight.power(gamma * p),
                                    sw, sw, exps):
        assert (rep.verdict, rep.divergence_site, rep.scan_trace) == ("divergent", site, [])


def test_glued_matches_pair_small_offsets():
    # Piecewise-power tuples off the exponent relation by 0.01-0.17 on both
    # pieces, with every bracket convergent: the pair and the glued
    # condition are unbounded at the same end.
    rng = np.random.default_rng(20261018)
    for _ in range(12):
        q = float(rng.choice([1.5, 2.0, 2.5]))
        p = float(rng.uniform(1.3, q))
        exps = ExponentSet(p=p, q=q, a=1.0)
        delta = float(rng.uniform(1.0, 2.5))
        sw = Weight.power(delta)
        lo, hi = 1.0 / q - 0.5 * delta, 1.0 / q
        rel = 1.0 / q - 1.0 / exps.p_prime
        b1, b2 = (float(b) for b in rng.uniform(lo + 0.2, hi - 0.2, size=2))
        off = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 0.17))
        u = Weight.piecewise_power(-b2 * q, -b1 * q)
        v = Weight.piecewise_power((b1 - rel - off) * p, (b2 - rel - off) * p)
        reports = [*hardy_pair_condition(u, v, sw, sw, exps),
                   glued_condition(u, v, sw, sw, exps)]
        site = "r->inf" if off > 0 else "r->0"
        assert [(r.verdict, r.divergence_site) for r in reports] == [("divergent", site)] * 3


def test_lorentz_log_bracket_at_zero_balance():
    # u = 1 on (0, 1] and 1/y beyond, v = x, s = 1, p = q = 2: for r < 1 the
    # product is sqrt(2 (1 + log(1/r))), r^0 times a log factor: unbounded
    # as r -> 0, however slowly.
    rep = lorentz_necessity_condition(Weight.piecewise_power(0.0, -1.0), Weight.power(1.0),
                                      Weight.power(0.0), ES22)
    assert (rep.verdict, rep.divergence_site, rep.scan_trace) == ("divergent", "r->0", [])
    # The log in the denominator instead: v = x on (0, 1] and 1/x beyond,
    # s = 1 on (0, 1] and x^(-1/2) beyond, u = 1 on (0, 1] and y^-2 beyond.
    # At r -> inf the product is ~ 2 / sqrt(log r); at r -> 0 it tends to 2.
    rep = lorentz_necessity_condition(Weight.piecewise_power(0.0, -2.0),
                                      Weight.piecewise_power(1.0, -1.0),
                                      Weight.piecewise_power(0.0, -0.5), ES22)
    assert rep.finite


def test_hardy_pair_tabulated_weight_offset():
    # u tabulated from a piecewise power with a kink at 1; its end
    # exponents are fitted.  On the relation the pair is finite; off it by
    # 0.05 (1.12x growth per decade) both products grow toward r -> inf.
    b1, b2 = 0.2, 0.3  # inside (0, 1/2) for p = q = 2, delta = 1
    xs = np.geomspace(1e-3, 1e3, 121)
    u = Weight.tabulated(xs, np.where(xs <= 1.0, xs ** (-2.0 * b2), xs ** (-2.0 * b1)))
    sw = Weight.power(1.0)
    for off, want in ((0.0, ("finite", None)), (0.05, ("divergent", "r->inf"))):
        v = Weight.piecewise_power(2.0 * (b1 - off), 2.0 * (b2 - off))
        for rep in hardy_pair_condition(u, v, sw, sw, ES22):
            assert (rep.verdict, rep.divergence_site) == want
