"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here, not configured elsewhere.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import math

import mpmath
import numpy as np
import pytest

from wnilab.cli import ExperimentConfig, compute_ratio_records, fit_growth, verify_summary
from wnilab.conditions import (check_envelope, check_gm, glued_condition, hardy_pair_condition,
                               oinarov_check, power_hardy_verdict, power_pitt_range,
                               struve_primitive_bound)
from wnilab.kernels import (FarField, KernelSpec, PowerEnvelope, SeriesKernel, bessel_j,
                            model_min_kernel, struve_derivative_check, struve_h, struve_h_kernel)
from wnilab.quadrature import QuadratureConfig
from wnilab.transforms import (_table, apply, hankel, near_expansion, pointwise_bound, scripth,
                               sine)
from wnilab.weights import (ExponentSet, FunctionFamily, Weight, make_truncated_power,
                            make_vanishing_moment_function, TestFunction, Piece)


def _line(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_kernel_identities():
    xs = np.geomspace(1e-3, 100.0, 200)
    worst = 0.0
    worst = max(worst, float(np.max(np.abs(bessel_j(-0.5, xs) - np.cos(xs))
                                    / np.abs(np.cos(xs)))))
    sinc = np.sin(xs) / xs
    worst = max(worst, float(np.max(np.abs(bessel_j(0.5, xs) - sinc) / np.abs(sinc))))
    closed = np.sqrt(2.0 / (np.pi * xs)) * (1.0 - np.cos(xs))
    worst = max(worst, float(np.max(np.abs(struve_h(0.5, xs) - closed) / closed)))
    assert _line(1, worst <= 1e-9,
                 f"half-order identities, worst relative error {worst:.2e} (tol 1e-9)")


def test_criterion_2_derivative_identity():
    worst = 0.0
    for alpha in (1.5, 2.0, 3.0):
        for x in (0.5, 2.0, 10.0):
            worst = max(worst, struve_derivative_check(alpha, x, 1e-4))
    assert _line(2, worst <= 1e-6,
                 f"derivative identity residual at h=1e-4, worst {worst:.2e} (tol 1e-6)")


def test_criterion_3_struve_primitive_bound():
    # C = sup_t |Phi_nu(t)| / min{t^(nu+a+2), t^(nu+a)}, Phi_nu the primitive of
    # t^nu H_a: attained at argmax_t (20-digit quadrature), and no dense read of
    # t on [1e-6, 1e6] lies above it.
    ts = np.geomspace(1e-6, 1e6, 4_001)
    worst, dense_ok, found = 0.0, True, []
    for alpha, nu, value in ((0.5, 1.5, 0.6329492), (1.0, 0.5, 0.5341040), (1.0, 2.0, 0.3206279)):
        c, t = struve_primitive_bound(alpha, nu)
        assert c == pytest.approx(value, abs=1e-7)
        envelope = lambda t: np.minimum(t ** (nu + alpha + 2.0), t ** (nu + alpha))
        with mpmath.workdps(20):
            exact = abs(mpmath.quad(lambda s: s ** nu * mpmath.struveh(alpha, s), [0, t]))
            worst = max(worst, float(abs(exact / envelope(mpmath.mpf(t)) / c - 1)))
        dense = np.abs(_table(struve_h_kernel(alpha), nu).integral(np.zeros(ts.size), ts)[0])
        dense_ok = dense_ok and bool(np.max(dense / envelope(ts)) <= c * (1.0 + 1e-12))
        found.append(f"{c:.7f} at t={t:.4f}")
    with pytest.raises(ValueError):
        struve_primitive_bound(1.0, 0.25)
    assert _line(3, worst <= 1e-10 and dense_ok,
                 f"primitive bound constants {', '.join(found)}: {worst:.1e} from quadrature at "
                 f"argmax_t (tol 1e-10), no dense read above: {dense_ok}")


def test_criterion_4_transform_oracles():
    cfg = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-13)
    ys = np.geomspace(1e-2, 1e2, 40)
    worst = 0.0
    for alpha in (0.75, 1.5):
        spec = scripth(alpha)
        for r in (0.5, 2.0):
            f = make_truncated_power(alpha + 0.5, r, "left")
            vals = apply(spec, f, ys, cfg).values
            closed = r ** (alpha + 1.0) * ys ** -0.5 * np.array(
                [struve_h(alpha + 1.0, r * y) for y in ys])
            worst = max(worst, float(np.max(np.abs(vals - closed) / np.abs(closed))))
    ok_struve = worst <= 1e-6

    worst_sine = 0.0
    sn = sine()
    for r in (0.5, 3.0):
        f = make_truncated_power(0.0, r, "left")
        vals = apply(sn, f, ys, cfg).values
        closed = (1.0 - np.cos(r * ys)) / ys
        # Relative error is meaningful away from the interior zeros of
        # 1 - cos(r y) at r y = 2 pi k; small arguments carry no cancellation.
        t = r * ys
        dist = np.abs(t - 2.0 * np.pi * np.round(t / (2.0 * np.pi)))
        live = (dist >= 0.05) | (t < math.pi)
        assert np.count_nonzero(live) >= 35
        worst_sine = max(worst_sine, float(np.max(
            np.abs(vals[live] - closed[live]) / np.abs(closed[live]))))
    ok = ok_struve and worst_sine <= 1e-8
    assert _line(4, ok, f"transform closed forms: struve {worst:.2e} (tol 1e-6), "
                        f"sine {worst_sine:.2e} (tol 1e-8)")


def test_criterion_5_condition_grid_agreement():
    grid = [1.25, 1.5, 2.0, 2.5, 3.0]
    specs = [hankel(0.0), hankel(1.0), sine(), scripth(0.25), scripth(1.0)]
    checked = agreed = 0
    for spec in specs:
        for p in grid:
            for q in grid:
                if p > q:
                    continue
                exps = ExponentSet(p=p, q=q, a=1.0)
                suff, _ = power_pitt_range(spec, exps)
                betas = [suff.lo - 0.15, suff.lo + 0.12, 0.5 * (suff.lo + suff.hi),
                         suff.hi - 0.12, suff.hi + 0.15]
                for beta in betas:
                    gamma = beta - suff.relation_offset
                    r1, r2 = power_hardy_verdict(spec, exps, beta, gamma)
                    scan = r1.finite and r2.finite
                    analytic = suff.query(beta, gamma).satisfied
                    checked += 1
                    agreed += int(scan == analytic)
    assert _line(5, agreed == checked,
                 f"scan vs closed-form verdicts agree at {agreed}/{checked} grid points")


def test_criterion_6_gluing_equivalence():
    rng = np.random.default_rng(1729)
    matches = 0
    total = 20
    for _ in range(total):
        q = float(rng.choice([1.5, 2.0, 2.5]))
        p = float(rng.uniform(1.3, q))
        exps = ExponentSet(p=p, q=q, a=1.0)
        delta = float(rng.uniform(0.8, 2.5))
        sw = Weight.power(delta)
        lo, hi = 1.0 / q - 0.5 * delta, 1.0 / q
        rel = 1.0 / q - 1.0 / exps.p_prime
        case = int(rng.integers(0, 4))
        b1 = float(rng.uniform(lo + 0.12, hi - 0.12))
        b2 = float(rng.uniform(lo + 0.12, hi - 0.12))
        g1, g2 = b1 - rel, b2 - rel
        if case == 1:
            b2 = hi + float(rng.uniform(0.12, 0.8)); g2 = b2 - rel
        elif case == 2:
            b1 = lo - float(rng.uniform(0.12, 0.8)); g1 = b1 - rel
        elif case == 3:
            off = float(rng.choice([-1.0, 1.0])) * float(rng.uniform(0.25, 0.7))
            g1, g2 = b1 - rel - off, b2 - rel - off
        u = Weight.piecewise_power(-b2 * q, -b1 * q)
        v = Weight.piecewise_power(g1 * p, g2 * p)
        r1, r2 = hardy_pair_condition(u, v, sw, sw, exps)
        g = glued_condition(u, v, sw, sw, exps)
        matches += int(g.finite == (r1.finite and r2.finite))
    assert _line(6, matches == total,
                 f"glued verdict equals pair conjunction on {matches}/{total} random tuples")


def _hankel_sw_config(beta, gamma, side, sigma, domain):
    return ExperimentConfig.from_dict({
        "experiment_id": f"hankel-{beta}",
        "transform": {"name": "hankel", "alpha": 0.0},
        "exponents": {"p": 2.0, "q": 2.0, "a": 2.0},
        "weights": {"beta": beta, "gamma": gamma},
        "normalization": "sw",
        "family": {"kind": "truncated_power", "sigma": sigma, "side": side,
                   "grid": {"start": 1e-3, "stop": 1e3, "points": 13}},
        "lhs_domain": domain,
        "quadrature": {"rel_tol": 1e-6, "norm_rel_tol": 1e-2},
    })


def test_criterion_7_power_sharpness():
    # Inside the admissible range (relation satisfied) the family ratio is
    # flat: the dilation exponent is 0 and the fitted one 0 within its bar.
    # At beta = 0.6 with gamma fixed the dilation exponent is 0.35, the
    # fitted one agrees within its bar, and the ratio must climb by a factor
    # of 10 over the last three decades.
    cfg_in = _hankel_sw_config(0.25, 0.25, "left", 0.0, None)
    rec_in = compute_ratio_records(cfg_in)
    s_in = verify_summary(cfg_in, rec_in)
    ok_in = (s_in["rows_used"] == 13 and s_in["bounded"] is True
             and s_in["dilation_exponent"] == 0.0
             and abs(s_in["fitted_exponent"]) <= s_in["fitted_exponent_err"])

    cfg_out = _hankel_sw_config(0.6, 0.25, "left", 0.0, None)
    rec_out = compute_ratio_records(cfg_out)
    s_out = verify_summary(cfg_out, rec_out)
    usable = sorted((r for r in rec_out if r.note == ""), key=lambda r: r.param)
    window = [r.ratio for r in usable if r.param >= usable[-1].param / 1000.0]
    monotone = all(b >= a * 0.99 for a, b in zip(window[:-1], window[1:]))
    growth = window[-1] / window[0]
    kappa, slope = s_out["dilation_exponent"], s_out["fitted_exponent"]
    ok_out = (monotone and growth >= 10.0 and s_out["bounded"] is False
              and abs(kappa - 0.35) <= 1e-12
              and abs(slope - kappa) <= s_out["fitted_exponent_err"])
    assert _line(7, ok_in and ok_out,
                 f"in-range fitted exponent {s_in['fitted_exponent']:.2e} "
                 f"(bar {s_in['fitted_exponent_err']:.1e}); out-of-range fitted "
                 f"{slope:.6f} against dilation exponent {kappa:.6f} "
                 f"(bar {s_out['fitted_exponent_err']:.1e}); growth x{growth:.1f} "
                 f"over 3 decades (need >=10, monotone={monotone})")


def test_criterion_8_log_sharpness():
    cfg = ExperimentConfig.from_dict({
        "experiment_id": "cosine-logN",
        "transform": {"name": "cosine"},
        "exponents": {"p": 2.0, "q": 2.0, "a": 1.0},
        "weights": {"beta": 0.5, "gamma": 0.5},
        "normalization": "power",
        "family": {"kind": "log_counterexample", "b0_plus_b1": 0.0,
                   "n_values": [10, 100, 1000, 10000]},
        "lhs_domain": [0.8, 1.25],
        "quadrature": {"rel_tol": 1e-7, "norm_rel_tol": 1e-5},
        "growth_model": "log",
    })
    records = compute_ratio_records(cfg)
    # rhs is the closed-form (2 log N)^(1/2)
    for rec in records:
        assert rec.rhs == pytest.approx(math.sqrt(2.0 * math.log(rec.param)), rel=1e-9)
    slope = fit_growth(records, "log")["fitted_exponent"]
    assert _line(8, abs(slope - 0.5) <= 0.075,
                 f"zero-mean log family: ratio ~ (log N)^s with fitted s={slope:.4f} "
                 f"(need 0.5 +/- 0.075)")


def test_criterion_9_moment_reduction():
    # f's first kernel-series moment vanishes, so F f is the transform through
    # the reduced kernel G_1(t) = phi(t) - a_0 (b1 = 0): below y = 1/5 (f's
    # largest jump point) it is its moment series, led by y^(c0 + b1 + k), the
    # next moment's power.  G_1 obeys min{t^k, 1} with a constant read from
    # its expansions: the series a_1, a_2, ...; phi's far field plus the
    # drift -a_0.
    cfg = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-14)
    spec = hankel(0.5)
    series, far = spec.kernel.series, spec.kernel.far_field
    f = make_vanishing_moment_function([spec.b0 + series.b1], [0.2, 1.0, 5.0])
    (c,), p, _, (y_max,), _ = near_expansion(spec, FunctionFamily([f]))
    lead = float(p[np.flatnonzero(c)[0]])
    ys = np.geomspace(0.02, 0.9 * y_max, 5)
    direct = apply(spec, f, ys, cfg).values
    rel = float(np.max(np.abs(direct - np.sum(c * ys[:, None] ** p, axis=1)) / np.abs(direct)))
    g1 = KernelSpec("bessel_j_reduced_1", PowerEnvelope(series.step, 0.0),
                    lambda t: spec.kernel.phi(t) - series.coefs[0],
                    series=SeriesKernel(series.step, series.step, series.coefs[1:]),
                    far_field=FarField(far.scale, far.osc_power - series.b1, far.osc, 0.0,
                                       (-series.coefs[0],)),
                    crossover=spec.kernel.crossover)
    rep = check_envelope(g1)
    env_ok = math.isfinite(rep.max_ratio) and rep.max_ratio < 10.0
    assert _line(9, lead == spec.c0 + series.b1 + series.step and rel <= 1e-9 and env_ok,
                 f"vanished moment: F f led by y^{lead:g}, its moment series within {rel:.1e} "
                 f"of F f (tol 1e-9), G1 envelope constant {rep.max_ratio:.7f} "
                 f"at t={rep.argmax_t:.4f}")


def test_criterion_10_gm_machinery():
    # Monotone powers and truncated powers receive witnesses; sin does not.
    w1 = check_gm(make_truncated_power(0.0, 1.0, "left"))
    w2 = check_gm(TestFunction("x^-1", [Piece(0.0, math.inf, 1.0, -1.0)]))
    w3 = check_gm(np.sin)
    witnesses_ok = w1 is not None and w2 is not None and w3 is None

    # The general-monotone pointwise bound dominates the Struve-type
    # transform with one fitted constant across four decades of y.
    alpha = 0.75
    spec = scripth(alpha)
    cfg = QuadratureConfig(rel_tol=1e-8, abs_tol=1e-12)
    ys = np.geomspace(1e-2, 1e2, 40)
    ys_ext = np.array([1e-3, 3e-3, 3e2, 1e3])
    domination_ok = True
    details = []
    for f in (make_truncated_power(alpha + 0.5, 1.0, "left"),
              make_truncated_power(0.0, 2.0, "left"),
              make_truncated_power(0.3, 0.5, "left")):
        f.gm_witness = check_gm(f)
        assert f.gm_witness is not None
        vals = apply(spec, f, ys, cfg).values
        ratios = np.abs(vals) / np.array([pointwise_bound(spec, f, y, "gm") for y in ys])
        c_fit = float(np.max(ratios))
        vals_ext = apply(spec, f, ys_ext, cfg).values
        ratios_ext = np.abs(vals_ext) / np.array(
            [pointwise_bound(spec, f, y, "gm") for y in ys_ext])
        stable = bool(np.all(ratios_ext <= 1.1 * c_fit))
        domination_ok = domination_ok and math.isfinite(c_fit) and stable
        details.append(f"{c_fit:.3f}")
    assert _line(10, witnesses_ok and domination_ok,
                 f"witnesses (indicator/power yes, sin no) and one fitted bound "
                 f"constant per function: {', '.join(details)}")


def test_criterion_11_oinarov_growth():
    rep = oinarov_check(model_min_kernel(2.0), n_grid=(10.0, 100.0, 1000.0),
                        ab_pairs=((2.0, 1.0),))
    steps = [rep.d_required[i + 1] / rep.d_required[i] for i in range(2)]
    ok = rep.verdict == "unbounded" and rep.exponent == 0.5 and all(
        s >= math.sqrt(10.0) * 0.999 for s in steps)
    assert _line(11, ok, f"required additivity constant grows x{steps[0]:.2f}, "
                         f"x{steps[1]:.2f} per decade (need >= sqrt(10)), "
                         f"envelope exponent {rep.exponent:g}")
