import math
from typing import Optional, Tuple

import mpmath
import numpy as np
import pytest

from wnilab.conditions import (ENDPOINT_TOLERANCE, EXPONENT_TOLERANCE, EnvelopeNotStrict,
                               InverseRelationViolated, _extremes, _gm_ratio, check_gm,
                               glued_condition, gm_power_range,
                               hardy_pair_condition, lorentz_necessity_condition,
                               oinarov_check, power_hardy_verdict, power_pitt_range,
                               vanishing_moment_range)
from wnilab.kernels import (KernelSpec, PowerEnvelope, bessel_j_kernel, model_min_kernel,
                            sine_kernel, struve_h_kernel)
from wnilab.transforms import (MissingPrimitiveBound, NoSeriesKernel, cosine,
                               hankel, model_min, scripth, sine)
from wnilab.weights import ExponentSet, Piece, TestFunction, Weight, make_truncated_power

ES22 = ExponentSet(p=2.0, q=2.0, a=1.0)


def power_pair_verdict_analytic(u_exp: float, v_exp: float, s_exp: float,
                                w_exp: float, exps: ExponentSet
                                ) -> Tuple[Optional[bool], Optional[bool]]:
    """Closed-form finiteness of the two Hardy conditions for exact power
    weights.  Returns None for a condition whose determining exponent sits
    within the endpoint tolerance (numerically unresolvable open/closed)."""
    q, pp, ap = exps.q, exps.p_prime, exps.a_prime
    inv_a = 0.0 if math.isinf(ap) else 1.0 / ap

    def verdict(ea: float, eb: float, at_zero: bool) -> Optional[bool]:
        conv_a = ea > -1.0 if at_zero else ea < -1.0
        conv_b = eb > -1.0 if at_zero else eb < -1.0
        # For powers: first bracket ~ r^(-(ea+1)/q) (zero case uses 1/r),
        # second ~ r^((eb+1)/p'); the sup is finite iff exponents cancel.
        balance = -(ea + 1.0) / q + (eb + 1.0) / pp
        margin = min(abs(ea + 1.0), abs(eb + 1.0))
        if margin < ENDPOINT_TOLERANCE:
            return None
        if not (conv_a and conv_b):
            return False
        return abs(balance) <= EXPONENT_TOLERANCE

    ea1 = u_exp + w_exp * q * inv_a
    eb1 = v_exp * (1.0 - pp) + s_exp * pp * inv_a
    ea2 = u_exp + w_exp * q * (inv_a - 0.5)
    eb2 = v_exp * (1.0 - pp) + s_exp * pp * (inv_a - 0.5)
    return verdict(ea1, eb1, True), verdict(ea2, eb2, False)


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
    # the scan must find it to 1e-9 relative, within 1.4e-5 in log r.
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

    with mpmath.workdps(30):
        for rep, product, t0 in ((rep1, first, 1.08), (rep2, second, 1.27)):
            assert rep.finite
            t_max = mpmath.findroot(lambda t: mpmath.diff(product, t), t0)
            assert rep.sup_value == pytest.approx(float(product(t_max)), rel=1e-9)
            assert abs(math.log(rep.argmax_r) - float(t_max)) <= 1.4e-5


def test_hardy_pair_endpoint_divergence():
    u, v, s, w = _hankel0_weights(0.5, 0.25)
    r1, _ = hardy_pair_condition(u, v, s, w, ES22)
    assert r1.verdict == "divergent"
    assert r1.divergence_site == "inner-integral endpoint"


def test_hardy_pair_model_setting():
    # s = w = x^delta with delta = 1 and beta = gamma = 0.25, a = 1: both
    # products are constant in r.  The first is
    # (int_0^(1/r) x^-1/2)^(1/2) (int_0^r x^-1/2)^(1/2), the second
    # (int_(1/r)^inf x^-3/2)^(1/2) (int_r^inf x^-3/2)^(1/2).  Each bracket
    # is its power primitive in mpmath, and the sup must match the product,
    # with no argmax.
    u = Weight.power(-0.5)
    v = Weight.power(0.5)
    sw = Weight.power(1.0)
    r1, r2 = hardy_pair_condition(u, v, sw, sw, ES22)

    def lower(e, x):  # int_0^x t^e, e > -1
        return x ** (e + 1) / (e + 1)

    def upper(e, x):  # int_x^inf t^e, e < -1
        return -x ** (e + 1) / (e + 1)

    half = mpmath.mpf(1) / 2
    with mpmath.workdps(30):
        for rep, bracket, e in ((r1, lower, -half), (r2, upper, -3 * half)):
            assert rep.finite and rep.argmax_r is None
            for r in (mpmath.mpf("1e-9"), mpmath.mpf(1), mpmath.mpf("3e7")):
                exact = mpmath.sqrt(bracket(e, 1 / r) * bracket(e, r))
                assert rep.sup_value == pytest.approx(float(exact), rel=1e-14)


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
    # s(x) w(1/x) = x^0.1 is unbounded, though within [1/3, 3] on [1e-3, 1e3].
    with pytest.raises(InverseRelationViolated):
        glued_condition(u, v, Weight.power(1.0), Weight.power(0.9), ES22)
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
    r = vanishing_moment_range(hankel(1.0), 2, ES22).query(2.5)
    assert not r.satisfied and r.indeterminate


def test_endpoint_indeterminate_flag():
    suff, _ = power_pitt_range(hankel(0.0), ES22)
    assert suff.query(0.48).indeterminate
    assert not suff.query(0.25).indeterminate and suff.query(0.25).satisfied


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


@pytest.mark.parametrize("center", [math.exp(-10.0), 20.0], ids=["near", "far"])
def test_t_scan_reads_on_to_where_the_end_bounds_meet_the_best(center):
    # A bump of height 1 on the limit 1, at t = e^-10 or at t = 20, past the
    # crossover 12: found only by reading on until the end's bound (1 + 1e6 t
    # toward 0, 1 + 1e8 t^-5 toward inf, each above the bump) meets the best.
    def ratio(t):
        return 1.0 + np.exp(-(np.log(t / center) if center < 1.0 else t - center) ** 2)

    c, t = _extremes(ratio, [(np.ones(1), 0.0, -1.0), (np.array([1e6]), 1.0, -1.0)],
                     [(np.ones(1), 0.0, 1.0), (np.array([1e8]), -5.0, 1.0)], 12.0)
    assert c == pytest.approx(2.0, rel=1e-12) and t == pytest.approx(center, rel=1e-5)


def test_oinarov_model_kernel_unbounded():
    # K = min{1, (xy)^-1}: required d grows like N^((a-b)/2) on the triples.
    rep = oinarov_check(model_min_kernel(2.0), n_grid=(10.0, 100.0, 1000.0),
                        ab_pairs=((2.0, 1.0),))
    assert rep.verdict == "unbounded" and rep.exponent == 0.5
    for d, n in zip(rep.d_required, (10.0, 100.0, 1000.0)):
        assert d == pytest.approx(math.sqrt(n), rel=0.05)


@pytest.mark.parametrize("kernel,kappa", [(model_min_kernel(2.0), 1.0),
                                          (struve_h_kernel(0.75), 0.75)],
                         ids=["model_min2", "struve0.75"])
def test_oinarov_exponent_from_the_exact_envelope(kernel, kappa):
    # With the default pairs (2, 1) and (3, 1), d(N) ~ N^kappa, kappa from the
    # envelope's b1 and b2; the reads grow at that rate over four decades.
    rep = oinarov_check(kernel, n_grid=(1e2, 1e6))
    assert rep.verdict == "unbounded" and rep.exponent == pytest.approx(kappa, abs=1e-12)
    assert math.log10(rep.d_required[1] / rep.d_required[0]) / 4.0 == pytest.approx(kappa,
                                                                                      abs=0.05)


def test_oinarov_constant_kernel_bounded():
    const = KernelSpec("custom", PowerEnvelope(0.0, 0.0, exact=True),
                       lambda t: np.ones_like(np.asarray(t, dtype=float)))
    rep = oinarov_check(const)
    assert rep.verdict == "bounded" and rep.exponent == 0.0
    assert rep.feasible_d == pytest.approx(2.0)


def test_oinarov_exponential_kernel_diagnostic():
    # e^{-xy} is not comparable to its envelope: the reads are reported, and
    # no verdict.
    expk = KernelSpec("custom", PowerEnvelope(0.0, 0.0),
                      lambda t: np.exp(-np.asarray(t, dtype=float)))
    rep = oinarov_check(expk)
    assert rep.verdict == "indeterminate" and rep.exponent is None and rep.feasible_d is None
    assert all(d >= 1.0 for d in rep.d_required)


@pytest.mark.parametrize("kernel", [bessel_j_kernel(0.0), sine_kernel()], ids=["bessel0", "sine"])
def test_oinarov_oscillating_kernel_is_indeterminate(kernel):
    # An oscillating kernel reads d = inf wherever a K is not positive (J_0
    # at its zeros, sine at N^s in a negative half period); its envelope is
    # not two-sided, so the reads give no verdict.
    rep = oinarov_check(kernel)
    assert math.inf in rep.d_required
    assert rep.verdict == "indeterminate" and rep.feasible_d is None


def test_condition_report_serializes():
    u, v, s, w = _hankel0_weights(0.25, 0.25)
    r1, _ = hardy_pair_condition(u, v, s, w, ES22)
    d = r1.to_dict()
    assert d == {"sup_value": r1.sup_value, "argmax_r": None, "verdict": "finite",
                 "divergence_site": None, "label": "hardy_condition_1"}
    assert isinstance(d["sup_value"], float)


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
    site, r_end = ("r->inf", math.inf) if offset > 0 else ("r->0", 0.0)
    for rep in hardy_pair_condition(Weight.power(-beta * q), Weight.power(gamma * p),
                                    sw, sw, exps):
        assert (rep.verdict, rep.divergence_site, rep.argmax_r) == ("divergent", site, r_end)


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
    assert (rep.verdict, rep.divergence_site, rep.argmax_r) == ("divergent", "r->0", 0.0)
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


# ---------------------------------------------------------------------------
# closed-form bracket reads
# ---------------------------------------------------------------------------

def _power_sum(pieces, lo, hi):
    """integral_lo^hi of sum of c x^e over pieces (a, b, c, e), in mpmath."""
    total = mpmath.mpf(0)
    for a, b, c, e in pieces:
        a, b = max(a, lo), min(b, hi)
        if b > a:
            m = mpmath.mpf(e) + 1
            top = 0 if b == mpmath.inf else b ** m
            total += mpmath.mpf(c) * (mpmath.log(b / a) if m == 0 else (top - a ** m) / m)
    return total


_KINK_NODES = [1e-3, 1e-2, 0.1, 1.0, 3.0, 10.0, 100.0, 1e3]


def _bracket_cases():
    # piecewise power: x^(1/2) on (0, 1], x^(-5/2) beyond.
    pw = ([(Weight.piecewise_power(0.5, -2.5), 1.0)],
          [(0, 1, 1, 0.5), (1, mpmath.inf, 1, -2.5)], True)
    # A nested expression: (x^-0.4 on (0, 1], x^-1.6 beyond, times a
    # tabulated x^(1/2) on nodes 0.5, 2, 8)^2 times 3 x^-0.3, so 3 x^-0.1 on
    # (0, 1] and 3 x^-2.5 beyond.
    nodes = [0.5, 2.0, 8.0]
    inner = Weight.product([(Weight.piecewise_power(-0.4, -1.6), 1.0),
                            (Weight.tabulated(nodes, [x ** 0.5 for x in nodes]), 1.0)])
    nested = ([(inner, 2.0), (Weight.power(-0.3, coefficient=3.0), 1.0)],
              [(0, 1, 3, -0.1), (1, mpmath.inf, 3, -2.5)], True)
    # A tabulated x^(1/2) up to 3, then sqrt(3) (x/3)^2, kinked at the node
    # 3; its upper reads diverge.
    ys = [x ** 0.5 if x <= 3.0 else math.sqrt(3.0) * (x / 3.0) ** 2 for x in _KINK_NODES]
    s3 = mpmath.sqrt(3)
    kink = ([(Weight.tabulated(_KINK_NODES, ys), 1.0)],
            [(0, 3, 1, 0.5), (3, mpmath.inf, s3 / 9, 2)], False)
    return {"piecewise": pw, "nested": nested, "growing-kink": kink}


@pytest.mark.parametrize("case", ["piecewise", "nested", "growing-kink"])
def test_bracket_reads_against_mpmath_power_sums(case):
    # Every read is a sum of exact power segments: it matches the mpmath
    # power sums to 1e-13 relative, and the tabulated kink to 1e-14 within
    # its nodes (beyond them its fitted end slopes carry rounding).
    factors, pieces, upper = _bracket_cases()[case]
    table = Weight.product(factors)
    rs = np.array([1e-9, 1e-3, 0.02, 0.5, 1.0, 2.0, 3.0, 4.0, 7.5, 80.0, 1e3, 5e3, 1e9])
    rel = np.where((case == "growing-kink") & (rs >= 1e-3) & (rs <= 1e3), 1e-14, 1e-13)
    with mpmath.workdps(40):
        for r, got, tol in zip(rs, table.integral(rs), rel):
            assert abs(got / _power_sum(pieces, 0, mpmath.mpf(r)) - 1) <= tol
        if upper:
            for r, got, tol in zip(rs, table.integral(rs, upper=True), rel):
                assert abs(got / _power_sum(pieces, mpmath.mpf(r), mpmath.inf) - 1) <= tol
        else:
            assert np.all(table.integral(rs, upper=True) == math.inf)


def test_bracket_endpoint_divergence():
    # A read integrating from a non-integrable end is inf: e0 <= -1 + 1e-12
    # for lower reads, einf >= -1 - 1e-12 for upper reads.
    rs = np.array([1e-6, 1.0, 1e6])
    for e in (-2.0, -1.0, -1.0 + 1e-13):
        table = Weight.product([(Weight.power(e), 1.0)])
        assert table.diverges_at_zero and np.all(table.integral(rs) == math.inf)
    for e in (0.5, -1.0, -1.0 - 1e-13):
        table = Weight.product([(Weight.power(e), 1.0)])
        assert table.diverges_at_infinity and np.all(table.integral(rs, upper=True) == math.inf)
    table = Weight.product([(Weight.power(-1.0 + 1e-11), 1.0)])
    assert not table.diverges_at_zero
    assert table.integral(rs)[1] == pytest.approx(1.0 / ((-1.0 + 1e-11) + 1.0), rel=1e-14)


def test_bracket_decaying_tabulated_kink():
    # Log-linear table of x^(1/2) on (0, 3] and 9 sqrt(3) x^-2 on [3, inf):
    # the integral over (0, inf) is 2 sqrt(3) + 3 sqrt(3) = 5 sqrt(3).
    ys = [x ** 0.5 if x <= 3.0 else 9.0 * math.sqrt(3.0) * x ** -2.0 for x in _KINK_NODES]
    table = Weight.product([(Weight.tabulated(_KINK_NODES, ys), 1.0)])
    rs = np.array([0.05, 1.0, 2.5, 3.0, 3.5, 7.0, 500.0])
    np.testing.assert_allclose(table.integral(rs) + table.integral(rs, upper=True), 5.0 * math.sqrt(3.0),
                               rtol=1e-14)
    np.testing.assert_allclose(table.integral(rs[:4]), 2.0 / 3.0 * rs[:4] ** 1.5, rtol=1e-14)


def test_bracket_upper_reads_suffix_sums():
    # x^-2: nearly all of its mass sits near 0, so an upper read taken as
    # total minus prefix would keep no digit of 1/r.
    table = Weight.product([(Weight.power(-2.0), 1.0)])
    rs = np.array([1e-3, 0.3, 7.0, 1e4, 1e12])
    np.testing.assert_allclose(table.integral(rs, upper=True), 1.0 / rs, rtol=1e-14)


def test_bracket_reads_at_extreme_arguments():
    # integral_0^r x^(-1/2) = 2 r^(1/2) and integral_r^inf x^(-3/2) =
    # 2 r^(-1/2) far beyond the scan range, and integral_r^inf
    # min(x^-1, x^-2) = 1 - log r for r < 1.
    rs = np.array([1e6, 2.0 ** 51, 1e20, 1e100])
    np.testing.assert_allclose(Weight.product([(Weight.power(-0.5), 1.0)]).integral(rs),
                               2.0 * np.sqrt(rs), rtol=1e-14)
    np.testing.assert_allclose(Weight.product([(Weight.power(-1.5), 1.0)]).integral(1.0 / rs, upper=True),
                               2.0 * np.sqrt(rs), rtol=1e-14)
    rs = np.array([1e-3, 1e-20, 1e-100])
    table = Weight.product([(Weight.piecewise_power(-1.0, -2.0), 1.0)])
    np.testing.assert_allclose(table.integral(rs, upper=True), 1.0 - np.log(rs), rtol=1e-14)


def test_bracket_array_reads_equal_single_reads():
    # One array read (one searchsorted, one vectorized partial segment)
    # gives the reads of one r at a time: on nodes, between them and far
    # beyond both ends.
    rs = np.concatenate([[1e-100, 1e-20, 2.0 ** -50, 1.0, 2.0 ** 51, 1e20, 1e100],
                         _KINK_NODES, np.geomspace(1e-12, 1e12, 17)])
    ys = [x ** 0.5 if x <= 3.0 else 9.0 * math.sqrt(3.0) * x ** -2.0 for x in _KINK_NODES]
    for weight in (Weight.power(-0.5), Weight.piecewise_power(0.5, -2.5),
                   Weight.tabulated(_KINK_NODES, ys)):
        table = Weight.product([(weight, 1.0)])
        for upper in (False, True):
            reads = table.integral(rs, upper)
            assert reads.shape == rs.shape
            for r, val in zip(rs, reads):
                assert table.integral(np.array([r]), upper)[0] == val


@pytest.mark.parametrize("r_end", [math.inf, 0.0])
def test_sup_beyond_scan_range(r_end):
    # u = x^-0.95, v = 1 on (0, 1] and x^0.95 beyond, s = w = 1 and
    # (p, q, a) = (2, 2, 1): the first product squared is
    # 20 r^-0.05 (20 r^0.05 - 19) = 400 - 380 r^-0.05 for r > 1, which rises
    # to 400 as r -> inf but at r = 1e6 is still 14.48^2.  Swapping the
    # roles of u and 1/v moves the supremum to r -> 0.
    u, v = Weight.power(-0.95), Weight.piecewise_power(0.0, 0.95)
    if r_end == 0.0:
        u, v = Weight.piecewise_power(0.0, -0.95), Weight.power(0.95)
    one = Weight.power(0.0)
    rep, _ = hardy_pair_condition(u, v, one, one, ES22)
    assert (rep.verdict, rep.argmax_r) == ("finite", r_end)
    assert rep.sup_value == pytest.approx(20.0, rel=1e-12)


def _spike(x0, low=False):
    """Flat 1 with one log-linear spike to 1e4 (a dip to 1e-4 when ``low``)
    at x0, 0.1 % wide on either side; its end exponents are 0."""
    return Weight.tabulated(x0 * np.array([1e-3, 0.999, 1.0, 1.001, 1e3]),
                            [1.0, 1.0, 1e-4 if low else 1e4, 1.0, 1.0])


@pytest.mark.parametrize("case,r_s", [("u", 1e3), ("u", 1e7), ("u", 1e9), ("u", 1e-9),
                                      ("v", 1e8)])
def test_hardy_sup_at_a_spike_anywhere(case, r_s):
    # (p, q, a) = (2, 2, 1), s = w = 1: the first product is
    # (int_0^(1/r) u)^(1/2) (int_0^r 1/v)^(1/2).  A spike of u at 1/r_s, or a
    # dip of v at r_s, raises it to about 1.78 just beside r_s, wherever r_s
    # lies; a dense read of the same brackets (400,002 points, 200,001 of
    # them within 0.2 % of r_s) is the oracle.
    one = Weight.power(0.0)
    u, v = (_spike(1.0 / r_s), one) if case == "u" else (one, _spike(r_s, low=True))
    rep, _ = hardy_pair_condition(u, v, one, one, ES22)
    r = np.concatenate([r_s * np.geomspace(1e-4, 1e4, 200_001),
                        r_s * np.geomspace(1.0 / 1.002, 1.002, 200_001)])
    dense = np.max(np.sqrt(u.integral(1.0 / r) * Weight.product([(v, -1.0)]).integral(r)))
    assert rep.finite and dense > 1.7
    assert rep.sup_value == pytest.approx(dense, rel=2e-7)
    assert abs(math.log(rep.argmax_r / r_s)) < 2e-3


@pytest.mark.parametrize("x0", [1e4, 1e7])
def test_steep_table_far_from_one_reads_its_constant(x0):
    # u = (x/x0)^-50 tabulated at x0 and 1.1 x0, v = x^50, s = w = 1 and
    # (p, q, a) = (2, 2, 1): the second product is the constant
    # (x0^50 T^49 / 49)^(1/2) (T^-49 / 49)^(1/2) = x0^25 / 49, although the
    # ends' coefficient x0^50 leaves the floats at x0 = 1e7.  So it is with a
    # third node at 1.05 x0: the fitted end slopes differ from the inner ones
    # by rounding only, so no node is a kink, and the scan reads no r where
    # one bracket alone leaves the floats.
    one = Weight.power(0.0)
    for ts in ([1.0, 1.1], [1.0, 1.05, 1.1]):
        u = Weight.tabulated([x0 * t for t in ts], [t ** -50 for t in ts])
        assert len(u.kinks) == 0
        _, rep = hardy_pair_condition(u, Weight.power(50.0), one, one, ES22)
        assert rep.finite and rep.sup_value == pytest.approx(x0 ** 25 / 49.0, rel=1e-6)


@pytest.mark.parametrize("f,exact", [
    (make_truncated_power(0.0, 1.0, "left"), 8.0 / 7.0),  # at x = 1
    (make_truncated_power(0.0, 10.0, "right"), 1.0 / 6.0),  # at x = 5: the jump at 2x
    (TestFunction("x^-1", [Piece(0.0, math.inf, 1.0, -1.0)]), 1.0 / (4.0 * math.log(8.0))),
    (TestFunction("min(1,x^-2)", [Piece(0.0, 1.0, 1.0, 0.0), Piece(1.0, math.inf, 1.0, -2.0)]),
     3.0 / 7.0),
    (make_truncated_power(0.5, 1.0, "left"), None),
    (make_truncated_power(1.5, 2.0, "left"), None),
    (make_truncated_power(0.3, 0.5, "left"), None),
    (make_truncated_power(2.5, 1.0, "left"), None),
], ids=["indicator", "indicator-right", "x^-1", "min(1,x^-2)", "x^0.5", "x^1.5", "x^0.3", "x^2.5"])
def test_gm_constant_is_the_exact_supremum(f, exact):
    # At lambda = 8 the witness is the closed-form supremum where one is
    # known, and no dense closed-form read of x V(x) / M(x) lies above it.
    witness = check_gm(f)
    assert witness.lam == 8.0
    if exact is not None:
        assert witness.C == pytest.approx(exact, rel=1e-12)
    dense = _gm_ratio(f, np.geomspace(1e-3, 1e3, 10**5))
    assert witness.C >= np.max(dense) * (1.0 - 1e-12)
