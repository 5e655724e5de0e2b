import csv
import dataclasses
import hashlib
import inspect
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wnilab.cli import (ConfigError, ExperimentConfig, FitDegenerate, RatioRecord,
                        _write_json, compute_ratio_records, fit_growth, main,
                        run_conditions, verify_summary)
from wnilab import cli, conditions as cond, transforms
from wnilab.kernels import KERNELS
from wnilab.transforms import _PRESETS
from wnilab.weights import FunctionFamily, Piece, TestFunction, Weight, make_truncated_power

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _modelmin_config(beta=0.25, gamma=0.25, points=7, extra=None):
    doc = {
        "experiment_id": "mm",
        "transform": {"name": "model_min", "delta": 1.0},
        "exponents": {"p": 2.0, "q": 2.0, "a": 1.0},
        "weights": {"beta": beta, "gamma": gamma},
        "normalization": "sw",
        "family": {"kind": "truncated_power", "sigma": 0.0, "side": "left",
                   "grid": {"start": 1e-2, "stop": 1e2, "points": points}},
        "quadrature": {"rel_tol": 1e-6, "norm_rel_tol": 1e-4},
    }
    if extra:
        doc.update(extra)
    return doc


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"transform": {"name": "hankel"}})
    doc = _modelmin_config()
    del doc["weights"]["beta"]
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(doc)
    doc = _modelmin_config(extra={"normalization": "weird"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(doc)
    doc = _modelmin_config(extra={"weights": {"u": {"form": "power", "exponent": -0.5},
                                              "v": {"form": "power", "exponent": 0.5}}})
    with pytest.raises(ConfigError, match="weights must set beta and gamma explicitly"):
        ExperimentConfig.from_dict(doc)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_modelmin_config(extra={
            "family": {"kind": "mystery"}}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_modelmin_config(extra={
            "transform": {"name": "hankel"}}))  # missing alpha


def test_modelmin_ratio_constant_on_relation():
    # The model kernel in the two-factor normalization: ratio exactly
    # constant along the family when beta = gamma.
    cfg = ExperimentConfig.from_dict(_modelmin_config())
    records = compute_ratio_records(cfg)
    ratios = [r.ratio for r in records if r.note == ""]
    assert len(ratios) == 7
    assert max(ratios) / min(ratios) < 1.01
    summary = verify_summary(cfg, records)
    assert summary["bounded"] is True
    assert summary["verdict_source"] == "dilation_exponent"
    assert summary["dilation_exponent"] == 0.0
    assert abs(summary["fitted_exponent"]) <= summary["fitted_exponent_err"]


def test_table_that_cannot_be_built_is_a_nonconvergent_record(monkeypatch):
    # A Phi_nu table that cannot be built raises NonConvergence inside
    # the outer norm: the record says so instead of the command failing.
    monkeypatch.setattr(transforms, "_dilation_table", lambda *args: None)
    records = compute_ratio_records(ExperimentConfig.from_dict(_modelmin_config(points=2)))
    assert [r.note for r in records] == ["nonconvergent"] * 2


def test_modelmin_ratio_grows_off_relation():
    cfg = ExperimentConfig.from_dict(_modelmin_config(beta=0.45, gamma=0.05))
    records = compute_ratio_records(cfg)
    usable = [r for r in records if r.note == ""]
    ratios = [r.ratio for r in sorted(usable, key=lambda r: r.param)]
    # dilation scaling gives ratio ~ r^(beta - gamma) = r^0.4
    assert ratios[-1] / ratios[0] == pytest.approx((1e2 / 1e-2) ** 0.4, rel=0.05)
    summary = verify_summary(cfg, records)
    assert summary["bounded"] is False
    assert summary["dilation_exponent"] == pytest.approx(0.4, abs=1e-12)
    assert abs(summary["fitted_exponent"] - 0.4) <= summary["fitted_exponent_err"]


def test_skipped_rows_for_zero_function():
    cfg = ExperimentConfig.from_dict(_modelmin_config())
    cfg.family = [(1.0, cfg.family[0][1].scaled(0.0))]  # keep one, then zero it
    from wnilab.weights import Piece, TestFunction
    zero = TestFunction("zero", [Piece(0.0, 1.0, 0.0, 0.0)])
    cfg.family = [(1.0, zero)]
    records = compute_ratio_records(cfg)
    assert records[0].note != ""
    assert verify_summary(cfg, records)["rows_used"] == 0


def test_divergent_rhs_rows_are_skipped(tmp_path):
    # |x^-1|^2 x^(2 gamma) with gamma = 1/4 is not integrable at 0.
    doc = _modelmin_config(extra={"normalization": "power"})
    doc["family"]["sigma"] = -1.0
    cfg_path = tmp_path / "div.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "mm_records.csv").read_text().splitlines()[1:]
    assert len(lines) == 7
    assert all(line.endswith("rhs zero or infinite; skipped") for line in lines)


def test_zero_ratios_are_no_growth():
    # A row of zeros has no logarithm to fit: the dilation family keeps its
    # closed-form verdict, and a family judged by its fit has none.
    rows = [RatioRecord(10.0 ** k, 0.0, 1.0, 0.0, 0.0, 0.0) for k in range(5)]
    summary = verify_summary(ExperimentConfig.from_dict(_modelmin_config()), rows)
    assert summary["max_ratio"] == 0.0 and summary["fitted_exponent"] is None
    assert summary["bounded"] is True
    cfg = ExperimentConfig.from_dict(_modelmin_config(extra={"lhs_domain": [0.5, 2.0]}))
    summary = verify_summary(cfg, rows)
    assert summary["dilation_exponent"] is None
    assert summary["bounded"] is None and summary["verdict_source"] is None


def test_divergent_inner_value_on_a_window_is_a_divergent_row(tmp_path, capsys):
    # model_min(1) of 1 on (r, inf): integral_r^inf x (x y)^-1/2 dx diverges,
    # so F f is inf at every y of the window [0.5, 2].
    doc = {"experiment_id": "mm-win", "transform": {"name": "model_min", "delta": 1.0},
           "exponents": {"p": 2, "q": 2, "a": 1}, "weights": {"beta": 0.25, "gamma": -1.0},
           "normalization": "power", "lhs_domain": [0.5, 2.0],
           "family": {"kind": "truncated_power", "sigma": 0.0, "side": "right",
                      "grid": {"start": 0.5, "stop": 2.0, "points": 4}}}
    path = tmp_path / "mm-win.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "mm-win_records.csv") as fh:
        notes = [row["note"] for row in csv.DictReader(fh)]
    assert len(notes) == 4 and all(note.startswith("lhs divergent") for note in notes)
    assert json.loads((tmp_path / "mm-win_summary.json").read_text())["bounded"] is False
    assert "Traceback" not in capsys.readouterr().err


def _one_by_one(cfg):
    """Each member's record from a one-member family of its own."""
    return [compute_ratio_records(dataclasses.replace(cfg, family=[member]))[0]
            for member in cfg.family]


def _hankel_verify_seed_7():
    """The benchmark's seed-7 hankel-verify config: the shipped endpoint
    family of thirteen members, its grid started where that seed draws it."""
    doc = json.loads((CONFIGS / "hankel_verify_endpoint.json").read_text())
    start = 10.0 ** (-3.0 + 0.5 * random.Random("hankel-verify:7").random())
    doc["family"]["grid"].update(start=start, stop=start * 1e6)
    return doc


@pytest.mark.parametrize("doc", [
    _hankel_verify_seed_7(),
    # Two pieces per member, on a finite lhs window.
    json.loads((CONFIGS / "cosine_sharpness_logN.json").read_text()),
], ids=["hankel-verify-7", "cosine-logN"])
def test_members_integrated_together_read_as_alone(doc):
    # Every member's window in shared panel batches: each record is bitwise
    # its record as a one-member family.
    cfg = ExperimentConfig.from_dict(doc)
    records = compute_ratio_records(cfg)
    assert all(r.note == "" for r in records)
    assert repr(records) == repr(_one_by_one(cfg))


@pytest.mark.parametrize("bad", ["inner value not finite", "table not built"])
def test_a_bad_member_changes_only_its_own_row(bad, monkeypatch):
    # model_min(1) on the window [0.5, 2]: x^-2 on (r, inf) has a finite
    # transform.  Of 1 on (r, inf) it is infinite at every y; x^-2.5 on
    # (r, inf) reads the Phi_nu table of nu = -1.5, here one that cannot be
    # built.  A bad member among healthy ones reads as it does alone, and
    # every other row as without it.
    cfg = ExperimentConfig.from_dict(_modelmin_config(extra={
        "normalization": "power", "lhs_domain": [0.5, 2.0],
        "weights": {"beta": 0.25, "gamma": -1.0}}))
    healthy = [(r, make_truncated_power(-2.0, r, "right")) for r in (0.5, 1.0, 2.0, 4.0)]
    if bad == "table not built":
        table = transforms._dilation_table
        monkeypatch.setattr(transforms, "_dilation_table",
                            lambda kernel, nu: None if nu == -1.5 else table(kernel, nu))
        member, note = (1.5, make_truncated_power(-2.5, 1.5, "right")), "nonconvergent"
    else:
        member, note = (1.5, make_truncated_power(0.0, 1.5, "right")), "lhs divergent (inner integral)"
    clean = compute_ratio_records(dataclasses.replace(cfg, family=healthy))
    mixed = compute_ratio_records(dataclasses.replace(cfg, family=healthy[:2] + [member] + healthy[2:]))
    assert all(r.note == "" for r in clean)
    assert repr(mixed[:2] + mixed[3:]) == repr(clean)
    assert mixed[2].note == note
    assert repr(mixed[2:3]) == repr(compute_ratio_records(dataclasses.replace(cfg, family=[member])))


def _family_cases():
    """Families of one layout each, covering both family kinds, both sides,
    a finite lhs window and the failing ends: the CI smoke step's divergent
    beta = -0.6 geometry, and the sine of x^-2 on (r, inf), whose Mellin
    constant meets a logarithm."""
    def shipped(name):
        return json.loads((CONFIGS / f"{name}.json").read_text())

    left = _hankel_verify_seed_7()
    right = json.loads(json.dumps(left))
    right["family"]["side"] = "right"
    right["weights"]["gamma"] = -1.5
    log = shipped("hankel_verify_endpoint")
    log["family"] = {"kind": "log_counterexample", "b0_plus_b1": 1.0,
                     "n_values": [2, 10, 100, 1000]}
    divergent = shipped("hankel_verify_endpoint")
    divergent["weights"]["beta"] = -0.6
    sine = {"transform": {"name": "sine"}, "exponents": {"p": 2, "q": 2, "a": 1},
            "weights": {"beta": 0, "gamma": 0}, "normalization": "power",
            "family": {"kind": "truncated_power", "sigma": -2, "side": "right",
                       "grid": {"start": 0.5, "stop": 2, "points": 4}},
            "quadrature": {"rel_tol": 1e-8}}
    return {"hankel-left-13": (left, ""), "hankel-right-13": (right, ""),
            "hankel-log": (log, ""), "cosine-log-window": (shipped("cosine_sharpness_logN"), ""),
            "hankel-divergent": (divergent, "lhs divergent (y -> inf)"),
            "sine-log-end": (sine, "nonconvergent")}


FAMILY_CASES = _family_cases()
# The first 16 hex digits of the sha256 of each case's records CSV, as
# written when every member's ends were computed member by member.
MEMBER_BY_MEMBER_RECORDS = {
    "hankel-left-13": "e3a492fe543b5291", "hankel-right-13": "9bc012c279cc5c6d",
    "hankel-log": "e44ec04b87168e21", "cosine-log-window": "b97de37c60cc17b7",
    "hankel-divergent": "912d477d871363ed", "sine-log-end": "e49b4e9388b33fc8",
}


@pytest.mark.parametrize("name", list(FAMILY_CASES))
def test_family_ends_read_as_one_member_families(name, tmp_path):
    # Every member's rhs, lower tail and upper tail from one pass over the
    # family are bitwise those of its one-member family, failures included;
    # so are its record and note, and the records CSV is the one written
    # member by member.
    doc, note = FAMILY_CASES[name]
    cfg = ExperimentConfig.from_dict(doc)
    [(index, fam)] = FunctionFamily.partition([f for _, f in cfg.family])
    assert index == list(range(len(cfg.family))) and len(fam.members) >= 4
    share = cli._END_SHARE * max(cfg.quadrature.rel_tol, cfg.norm_rel_tol)
    rows = cli._family_ends(cfg, fam, share)
    alone = [cli._family_ends(cfg, FunctionFamily([f]), share)[0] for f in fam.members]
    def read(row):
        return repr(dataclasses.replace(row, failure=None)), repr(row.failure)

    assert [read(r) for r in rows] == [read(r) for r in alone]
    records = compute_ratio_records(cfg)
    assert [r.note for r in records] == [note] * len(records)
    assert repr(records) == repr(_one_by_one(cfg))
    cli.write_records_csv(tmp_path / "records.csv", cfg, records)
    digest = hashlib.sha256((tmp_path / "records.csv").read_bytes()).hexdigest()[:16]
    assert digest == MEMBER_BY_MEMBER_RECORDS[name]


def test_members_whose_moments_vanish_apart_read_as_alone():
    # f = x^-2 on (a, 1) minus x^-2 on (1, 2): hankel(0)'s first moment,
    # log(1/a) - log 2, is exactly 0 at a = 1/2 only, so in one family the
    # members' lower tails lead with different terms and sum different
    # columns; each member's ends, record and note read as when it is alone.
    doc = json.loads((CONFIGS / "hankel_verify_endpoint.json").read_text())
    cfg = ExperimentConfig.from_dict(doc)
    members = [TestFunction("pair", [Piece(a, 1.0, 1.0, -2.0), Piece(1.0, 2.0, -1.0, -2.0)])
               for a in (0.25, 0.5, 0.125)]
    cfg = dataclasses.replace(cfg, family=[(a, f) for a, f in zip((0.25, 0.5, 0.125), members)])
    [(_, fam)] = FunctionFamily.partition(members)
    c = transforms.near_expansion(cfg.transform, fam)[0]
    assert c[1, 0] == 0.0 and c[0, 0] != 0.0 and c[2, 0] != 0.0
    share = cli._END_SHARE * cfg.norm_rel_tol
    rows, alone = cli._family_ends(cfg, fam, share), [
        cli._family_ends(cfg, FunctionFamily([f]), share)[0] for f in members]
    assert repr(rows) == repr(alone)
    records = compute_ratio_records(cfg)
    assert all(r.note == "" for r in records)
    assert repr(records) == repr(_one_by_one(cfg))


def test_members_of_other_layouts_form_families_of_their_own():
    # A family list mixing piece layouts is read as one family per layout,
    # each member keeping its place; one layout per FunctionFamily.
    left = [make_truncated_power(0.0, r) for r in (0.5, 2.0)]
    right = make_truncated_power(-2.0, 1.0, "right")
    parts = FunctionFamily.partition([left[0], right, left[1]])
    assert [index for index, _ in parts] == [[0, 2], [1]]
    assert parts[0][1].lo.shape == (2, 1) and parts[0][1].params == {"sigma": 0.0, "side": "left"}
    assert parts[0][1].take([1]).hi.tolist() == [[2.0]]
    with pytest.raises(ValueError, match="one piece and jump layout"):
        FunctionFamily([left[0], right])


def test_fit_verdict_outside_the_dilation_setting():
    # On a restricted lhs domain the ratio is no longer one power of r: the
    # verdict is the fit's, a slope within its bar of 0.  A divergent row
    # makes the family unbounded whatever the fit says.
    cfg = ExperimentConfig.from_dict(_modelmin_config(extra={"lhs_domain": [0.5, 2.0]}))
    flat = [RatioRecord(10.0 ** k, 1.0 + 1e-3 * (-1) ** k, 1.0, 1.0 + 1e-3 * (-1) ** k,
                        2e-3, 0.0) for k in range(5)]
    summary = verify_summary(cfg, flat)
    assert summary["verdict_source"] == "fit" and summary["bounded"] is True
    assert abs(summary["fitted_exponent"]) <= summary["fitted_exponent_err"]
    grows = [RatioRecord(r.param, r.param ** 0.01, 1.0, r.param ** 0.01, 1e-3, 0.0)
             for r in flat]
    assert verify_summary(cfg, grows)["bounded"] is False
    divergent = flat + [RatioRecord(1e5, math.inf, math.nan, math.inf, 0.0, 0.0,
                                    "lhs divergent (y -> inf)")]
    assert verify_summary(cfg, divergent)["bounded"] is False
    # Fewer than 4 usable rows: the fit fields are null, not an error.
    summary = verify_summary(cfg, flat[:3])
    assert summary["fitted_exponent"] is None and summary["bounded"] is None


def _weber_schafheitlin(lam):
    """integral_0^inf t^-lam J_1(t)^2 dt for 0 < lam < 3."""
    g = math.gamma
    return (g(lam) * g((3.0 - lam) / 2.0)
            / (2.0 ** lam * g((1.0 + lam) / 2.0) ** 2 * g((3.0 + lam) / 2.0)))


def _hankel_sw_records(beta, side="left"):
    # Hankel order 0 of f = 1 on (0, r) is r J_1(r y) / y, and of f = 1 on
    # (r, inf) it is -r J_1(r y) / y (an Abel value; the Mellin constant
    # integral_0^inf t J_0 is 0).  With (p, q, a) = (2, 2, 2) in the sw
    # normalization the outer norm of either is r^(beta + 1) W(1 + 2
    # beta)^(1/2), W the Weber-Schafheitlin integral, finite for -1/2 <
    # beta < 1.  The rhs of the right-sided f needs gamma < -1.
    return compute_ratio_records(ExperimentConfig.from_dict({
        "experiment_id": "ws",
        "transform": {"name": "hankel", "alpha": 0.0},
        "exponents": {"p": 2.0, "q": 2.0, "a": 2.0},
        "weights": {"beta": beta, "gamma": 0.25 if side == "left" else -1.5},
        "normalization": "sw",
        "family": {"kind": "truncated_power", "sigma": 0.0, "side": side,
                   "grid": {"start": 1e-2, "stop": 1e2, "points": 3}},
        "quadrature": {"rel_tol": 1e-6, "norm_rel_tol": 1e-2},
    }))


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("beta", [0.25, 0.6, 0.995])
def test_outer_norm_against_weber_schafheitlin(beta, side, monkeypatch):
    # beta = 0.995 puts the integrand's end exponent at 0 at -0.99: most of
    # the norm lies below any window start and comes from the closed form.
    # From beta = 0.6 (the shipped hankel_verify_endpoint family) the upper
    # tail's bound at the first window end costs half of itself, within its
    # share, so each member takes one Kronrod window, all in one call.
    windows = []

    def counted(integrands, family_windows, config):
        windows.append(list(family_windows))
        return integrate(integrands, family_windows, config)

    integrate = cli.integrate
    monkeypatch.setattr(cli, "integrate", counted)
    records = _hankel_sw_records(beta, side)
    for rec in records:
        exact = rec.param ** (beta + 1.0) * math.sqrt(_weber_schafheitlin(1.0 + 2.0 * beta))
        assert rec.note == ""
        assert abs(rec.lhs - exact) <= rec.lhs_err <= 1e-2 * exact
    if beta >= 0.6:
        assert [len(w) for w in windows] == [len(records)]


@pytest.mark.parametrize("beta,end", [(-0.6, "y -> inf"), (1.005, "y -> 0")])
def test_outer_norm_divergent_ends(beta, end):
    # End exponents of the integrand at -0.8 toward infinity and -1.01 at 0.
    records = _hankel_sw_records(beta)
    assert [r.note for r in records] == [f"lhs divergent ({end})"] * 3
    assert all(r.lhs == math.inf for r in records)


def test_fit_growth_models_and_degenerate():
    rows = [RatioRecord(10.0 ** k, 1.0, 1.0, 5.0 * (10.0 ** k) ** 0.3, 0, 0)
            for k in range(5)]
    fit = fit_growth(rows, "power")
    assert fit["fitted_exponent"] == pytest.approx(0.3, abs=1e-12)
    rows = [RatioRecord(10.0 ** k, 1.0, 1.0, 2.0 * (k * math.log(10.0)) ** 0.5, 0, 0)
            for k in range(1, 6)]
    fit = fit_growth(rows, "log")
    assert fit["fitted_exponent"] == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(FitDegenerate):
        fit_growth(rows[:3], "power")
    with pytest.raises(FitDegenerate):  # log log r is not real for r <= 1
        fit_growth([RatioRecord(0.5 * 10.0 ** k, 1.0, 1.0, 1.0, 0, 0) for k in range(5)], "log")


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
       st.lists(st.floats(1e-6, 1e-2), min_size=6, max_size=6))
def test_fit_bar_bounds_every_perturbation_within_the_rows_errors(signs, rel):
    # Moving each log ratio by at most its relative error moves the slope by
    # at most the bar, and the sign(d_i)-weighted move reaches it.
    params = [10.0 ** k for k in range(-2, 4)]
    exact = [RatioRecord(r, r ** 0.3, 1.0, r ** 0.3, e * r ** 0.3, 0.0)
             for r, e in zip(params, rel)]
    bar = fit_growth(exact, "power")["fitted_exponent_err"]
    x = np.log(params)
    d = x - x.mean()
    for move in (np.asarray(signs) * rel, np.sign(d) * rel):
        moved = [RatioRecord(r.param, 1.0, 1.0, r.ratio * math.exp(m), 0.0, 0.0)
                 for r, m in zip(exact, move)]
        shift = abs(fit_growth(moved, "power")["fitted_exponent"] - 0.3)
        assert shift <= bar * (1.0 + 1e-9) + 1e-12
    assert shift == pytest.approx(bar, rel=1e-6)


def test_run_conditions_document():
    doc = run_conditions({
        "experiment_id": "hk",
        "transform": {"name": "hankel", "alpha": 0.0},
        "exponents": {"p": 2.0, "q": 2.0, "a": 1.0},
        "weights": {"beta": 0.25, "gamma": 0.25},
    })
    assert doc["pair_finite"] is True
    assert doc["hardy_condition_1"]["verdict"] == "finite"
    assert doc["glued"]["verdict"] == "finite"
    assert doc["lorentz_necessity"]["verdict"] in ("finite", "divergent")
    # Ranges are reported in the plain power normalization: beta maps to
    # beta - delta/a' = 0.25 (a = 1), gamma to gamma + delta = 1.25.
    assert doc["power_range"]["satisfied"] is True

    doc = run_conditions({
        "experiment_id": "hk-endpoint",
        "transform": {"name": "hankel", "alpha": 0.0},
        "exponents": {"p": 2.0, "q": 2.0, "a": 1.0},
        "weights": {"beta": 0.5, "gamma": 0.5},
    })
    assert doc["hardy_condition_1"]["verdict"] == "divergent"
    assert doc["pair_finite"] is False


def test_shipped_conditions_config_lorentz_finite():
    # Hankel order 0, beta = gamma = 1/4, p = q = 2: in the plain power
    # normalization u = y^(-1/2) and v = x^(5/2), with s = x, so the
    # Lorentz product (2 r^(-1/2))^(1/2) (r^(7/2) / (7/2))^(-1/2) r^2 / 2 is
    # the constant sqrt(7)/2.
    path = Path(__file__).resolve().parents[1] / "configs" / "hankel_conditions.json"
    doc = run_conditions(json.loads(path.read_text()))
    assert doc["pair_finite"] is True
    rep = doc["lorentz_necessity"]
    assert rep["verdict"] == "finite"
    assert rep["sup_value"] == pytest.approx(math.sqrt(7.0) / 2.0, rel=1e-9)


def test_shipped_conditions_config_constant_products_have_no_argmax():
    # Pure power weights on the exponent relation: every finite bracket
    # product is constant in r, so the scan reports that constant and no
    # argmax.  With s = w = x, u = x^-1/2, v = x^1/2 and p = q = 2 the Hardy
    # products are (2 r^-1/2 2 r^1/2)^(1/2) = 2, the glued one
    # (4 r^1/2)^(1/2) (4 r^-1/2)^(1/2) = 4 and the Lorentz one sqrt(7)/2.
    path = Path(__file__).resolve().parents[1] / "configs" / "hankel_conditions.json"
    doc = run_conditions(json.loads(path.read_text()))
    exact = {"hardy_condition_1": 2, "hardy_condition_2": 2, "glued": 4,
             "lorentz_necessity": math.sqrt(7.0) / 2.0}
    for key, value in exact.items():
        rep = doc[key]
        assert (rep["verdict"], rep["argmax_r"]) == ("finite", None)
        assert rep["sup_value"] == pytest.approx(value, rel=1e-14)


def test_finite_pair_implies_finite_lorentz():
    # The Lorentz condition is necessary: every in-range power draw whose
    # Hardy pair is finite must have a finite Lorentz report.  Draws lie on
    # beta - gamma = 1/q - 1/p' with 1/q - delta/2 < beta < 1/q, delta the
    # exponent of s = w = x^delta.
    rng = random.Random(2018)
    presets = [({"name": "hankel", "alpha": 0.0}, 1.0), ({"name": "hankel", "alpha": 1.0}, 3.0),
               ({"name": "scripth", "alpha": 1.0}, 0.5), ({"name": "model_min", "delta": 1.0}, 1.0)]
    finite_pairs = 0
    for transform, delta in presets:
        for q in (1.5, 2.5):
            p = rng.uniform(1.2, q)
            beta = rng.uniform(1.0 / q - 0.5 * delta, 1.0 / q)
            gamma = beta - (1.0 / q - (p - 1.0) / p)
            doc = run_conditions({"transform": transform, "exponents": {"p": p, "q": q, "a": 1.0},
                                  "weights": {"beta": beta, "gamma": gamma}})
            if doc["pair_finite"]:
                finite_pairs += 1
                assert doc["lorentz_necessity"]["verdict"] == "finite", (transform, p, q, beta)
    assert finite_pairs >= 6


def test_run_conditions_piecewise_validation():
    with pytest.raises(ConfigError):
        run_conditions({
            "transform": {"name": "hankel", "alpha": 0.0},
            "exponents": {"p": 2.0, "q": 2.0},
            "weights": {"beta1": 0.3, "beta2": 0.2, "gamma1": 0.1, "gamma2": 0.1},
        })
    doc = run_conditions({
        "transform": {"name": "hankel", "alpha": 0.0},
        "exponents": {"p": 2.0, "q": 2.0},
        "weights": {"beta1": 0.3, "beta2": 0.2, "gamma1": 0.3, "gamma2": 0.2},
    })
    assert "pair_finite" in doc


def test_cli_end_to_end(tmp_path):
    cfg_path = tmp_path / "mm.json"
    cfg_path.write_text(json.dumps(_modelmin_config(points=5)))
    out = tmp_path / "out"
    rc = main(["verify", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    records = out / "mm_records.csv"
    assert records.exists()
    first = records.read_bytes()

    # Determinism: identical config implies byte-identical CSV output.
    rc = main(["verify", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    assert records.read_bytes() == first

    cond_path = tmp_path / "cond.json"
    cond_doc = _modelmin_config(points=5)
    cond_doc["experiment_id"] = "mm"
    cond_path.write_text(json.dumps(cond_doc))
    rc = main(["check-conditions", "--config", str(cond_path), "--out", str(out)])
    assert rc == 0

    rc = main(["report", str(records), str(out / "mm_summary.json"),
               str(out / "mm_conditions.json"), "--out", str(out)])
    assert rc == 0
    merged = (out / "report.csv").read_text().splitlines()
    assert merged[0].endswith("pair_verdict,consistent")
    assert [line.split(",")[-1] for line in merged[1:]] == ["CONSISTENT"] * 5


@pytest.mark.parametrize("name,bounded", [("hankel_verify_endpoint", False),
                                          ("hankel_verify_inrange", True),
                                          ("model_min_verify", True)])
def test_shipped_verify_config_agrees_with_its_conditions(name, bounded, tmp_path):
    # Each shipped verify config, checked by check-conditions under its own
    # experiment_id, reads CONSISTENT on every row of the report, and its
    # fitted exponent lies within its bar of the dilation exponent.
    config = str(Path(__file__).resolve().parent.parent / "configs" / f"{name}.json")
    eid = json.loads(Path(config).read_text())["experiment_id"]
    assert main(["verify", "--config", config, "--out", str(tmp_path)]) == 0
    assert main(["check-conditions", "--config", config, "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / f"{eid}_summary.json").read_text())
    assert summary["bounded"] is bounded
    assert (abs(summary["fitted_exponent"] - summary["dilation_exponent"])
            <= summary["fitted_exponent_err"])
    assert main(["report", str(tmp_path / f"{eid}_records.csv"),
                 str(tmp_path / f"{eid}_summary.json"),
                 str(tmp_path / f"{eid}_conditions.json"), "--out", str(tmp_path)]) == 0
    merged = (tmp_path / "report.csv").read_text().splitlines()[1:]
    assert merged and all(line.split(",")[-1] == "CONSISTENT" for line in merged)


def test_cli_probe_sharpness(tmp_path):
    cfg = _modelmin_config(beta=0.4, gamma=0.1, points=5)
    cfg["experiment_id"] = "probe"
    cfg["growth_model"] = "power"
    cfg_path = tmp_path / "probe.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["probe-sharpness", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert rc == 0
    fit = json.loads((tmp_path / "probe_growth.json").read_text())
    assert fit["fitted_exponent"] == pytest.approx(0.3, abs=0.01)


def test_cli_exit_codes(tmp_path):
    # usage / config errors exit 2
    assert main(["report", "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert main(["verify", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path)]) == 2
    piecewise = tmp_path / "pw.json"
    piecewise.write_text(json.dumps({
        "transform": {"name": "hankel", "alpha": 0.0},
        "exponents": {"p": 2.0, "q": 2.0},
        "weights": {"beta1": 0.3, "beta2": 0.2, "gamma1": 0.1, "gamma2": 0.1},
    }))
    assert main(["check-conditions", "--config", str(piecewise),
                 "--out", str(tmp_path)]) == 2


def test_cli_eval_kernel(capsys):
    rc = main(["eval-kernel", "--kind", "bessel_j", "--alpha", "0.5",
               "--x", "1.0", "3.0"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert float(lines[0].split()[1]) == pytest.approx(math.sin(1.0), rel=1e-12)
    assert float(lines[1].split()[1]) == pytest.approx(math.sin(3.0) / 3.0, rel=1e-12)


def test_scripth_probe_positive_slope(tmp_path):
    # Relation broken upward inside the admissible interval: the ratio
    # grows like a power of the cutoff.
    cfg = {
        "experiment_id": "sh-probe",
        "transform": {"name": "scripth", "alpha": 0.0},
        "exponents": {"p": 2.0, "q": 2.0, "a": 1.0},
        "weights": {"beta": 1.8, "gamma": 1.2},
        "normalization": "power",
        "family": {"kind": "truncated_power", "sigma": 0.5, "side": "left",
                   "grid": {"start": 0.1, "stop": 100.0, "points": 4}},
        "quadrature": {"rel_tol": 1e-6, "norm_rel_tol": 1e-3},
        "growth_model": "power",
    }
    cfg_path = tmp_path / "sh.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["probe-sharpness", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert rc == 0
    fit = json.loads((tmp_path / "sh-probe_growth.json").read_text())
    assert fit["fitted_exponent"] == pytest.approx(0.6, abs=0.05)


def _hankel_conditions_doc(**changes):
    doc = {
        "experiment_id": "hk",
        "transform": {"name": "hankel", "alpha": 0.0},
        "exponents": {"p": 2.0, "q": 2.0, "a": 1.0},
        "weights": {"beta": 0.25, "gamma": 0.25},
    }
    doc.update(changes)
    return {k: v for k, v in doc.items() if v is not None}


@pytest.mark.parametrize("doc", [
    _hankel_conditions_doc(transform={"name": "hankel", "alpha": -2.0}),
    _hankel_conditions_doc(exponents=None),
    _hankel_conditions_doc(exponents={"p": 0.5, "q": 2.0, "a": 1.0}),
    _hankel_conditions_doc(weights={"u": {"form": "tabulated", "x": [], "y": []},
                                    "v": {"form": "power", "exponent": 0.5}}),
    _hankel_conditions_doc(weights={"u": {"form": "tabulated", "x": [0.5, 2.0], "y": [1.0]},
                                    "v": {"form": "power", "exponent": 0.5}}),
    _hankel_conditions_doc(weights={"u": {"form": "tabulated", "x": [2.0, 0.5], "y": [1.0, 1.0]},
                                    "v": {"form": "power", "exponent": 0.5}}),
    _hankel_conditions_doc(weights={"u": {"form": "tabulated", "x": [2.0, 2.0], "y": [1.0, 1.0]},
                                    "v": {"form": "power", "exponent": 0.5}}),
    _hankel_conditions_doc(weights={"u": {"form": "power", "exponent": -0.5},
                                    "v": {"form": "power", "exponent": 0.5, "scale": 2.0}}),
    _hankel_conditions_doc(weights={"beta": "nan", "gamma": 0.25}),
    _hankel_conditions_doc(normalization="weird"),
], ids=["hankel-alpha-below-range", "no-exponents", "p-below-one", "tabulated-empty",
        "tabulated-lengths-differ", "tabulated-decreasing", "tabulated-repeated",
        "weight-unknown-key", "beta-nan", "normalization-unknown"])
def test_check_conditions_input_errors_exit_2(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["check-conditions", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("weights", [
    # u = 1, 0, 1 at x = 0.1, 1, 10: log-linear through the zero (clamped to
    # 1e-300), so u falls and rises like x^-300 and x^300 about x = 1 and
    # its end slopes are as steep.  Every inner integral of u diverges at
    # the end it integrates from.
    {"u": {"form": "tabulated", "x": [0.1, 1.0, 10.0], "y": [1.0, 0.0, 1.0]},
     "v": {"form": "power", "exponent": 0.5}},
    # v = 0: v^(1 - p') is infinite, and (integral_0^r v)^(-1/p) too.
    {"u": {"form": "power", "exponent": -0.5},
     "v": {"form": "power", "exponent": 0.5, "coefficient": 0.0}},
], ids=["tabulated-zero", "zero-v"])
def test_check_conditions_weight_with_zeros(tmp_path, capsys, weights):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(_hankel_conditions_doc(weights=weights)))
    assert main(["check-conditions", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    doc = json.loads((tmp_path / "hk_conditions.json").read_text())
    for key in ("hardy_condition_1", "hardy_condition_2", "glued", "lorentz_necessity"):
        assert (doc[key]["verdict"], doc[key]["divergence_site"]) == (
            "divergent", "inner-integral endpoint")


@pytest.mark.parametrize("extra", [
    {"quadrature": {"rel_tol": "abc"}},
    {"lhs_domain": [1.0]},
    {"lhs_domain": [-1.0, 2.0]},
    {"lhs_domain": [2.0, 1.0]},
    {"lhs_domain": [0.0, 0.0]},
    {"family": {"kind": "truncated_power", "grid": {"start": 1.0, "stop": 2.0, "points": 0}}},
    {"family": {"kind": "log_counterexample", "n_values": []}},
], ids=["non-numeric-rel-tol", "one-element-lhs-domain", "negative-lhs-domain",
        "reversed-lhs-domain", "empty-lhs-domain", "truncated-power-no-points",
        "log-counterexample-no-n-values"])
def test_verify_config_errors_exit_2(tmp_path, extra):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_modelmin_config(points=2, extra=extra)))
    assert main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("argv", [
    ["--kind", "bessel_j", "--alpha", "-2", "--x", "1.0"],
    ["--kind", "bessel_j", "--x", "-1"],
    ["--kind", "bessel_j", "--x", "abc"],
    ["--kind", "bessel_j", "--x", "inf"],
    ["--kind", "struve_h", "--alpha", "1", "--x", "inf"],
    ["--kind", "model_min", "--delta", "-1", "--x", "2.0"],
    ["--kind", "bessel_j", "--alpha", "200", "--x", "1"],
    ["--kind", "struve_h", "--alpha", "200", "--x", "1"],
], ids=["order-below-range", "negative-x", "non-numeric-x", "bessel-inf", "struve-inf",
        "model-min-delta-not-positive", "bessel-order-overflows", "struve-order-overflows"])
def test_eval_kernel_input_errors_exit_2(argv, capsys):
    assert main(["eval-kernel"] + argv) == 2
    assert capsys.readouterr().out == ""


_EVAL_XS = [0.5, 1.0, 2.0, 13.0, 25.0]


@pytest.mark.parametrize("kind", list(KERNELS))
def test_eval_kernel_prints_registry_phi(kind, capsys):
    assert main(["eval-kernel", "--kind", kind, "--alpha", "0.75", "--delta", "1.5",
                 "--x"] + [str(x) for x in _EVAL_XS]) == 0
    factory = KERNELS[kind]
    given = {"alpha": 0.75, "delta": 1.5}
    params = {name: given[name] for name in inspect.signature(factory).parameters}
    xs = np.asarray(_EVAL_XS)
    want = [f"{x:.17g} {v:.17g}" for x, v in zip(xs, factory(**params).phi(xs))]
    got = capsys.readouterr().out.splitlines()
    assert got == want
    closed = {"sine": np.sin(xs), "cosine": np.cos(xs),
              "model_min": np.minimum(1.0, xs ** -0.75)}
    if kind in closed:
        assert [float(line.split()[1]) for line in got] == closed[kind].tolist()


def _bad_transform_blocks():
    blocks = []
    for name, factory in _PRESETS.items():
        params = {p: 1.0 for p in inspect.signature(factory).parameters}
        blocks.append(pytest.param(dict(name=name, alpah=1.0, **params),
                                   id=f"{name}-unknown"))
        if params:
            blocks.append(pytest.param({"name": name}, id=f"{name}-missing"))
    blocks.append(pytest.param({"name": "sine", "alpha": 3}, id="sine-alpha"))
    return blocks


@pytest.mark.parametrize("block", _bad_transform_blocks())
@pytest.mark.parametrize("command", ["verify", "check-conditions"])
def test_transform_block_takes_exactly_preset_parameters(tmp_path, command, block):
    doc = _modelmin_config(points=2)
    doc["transform"] = block
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2


_NUMBERS = st.none() | st.booleans() | st.integers() | st.floats()
_STRINGS = st.text() | st.lists(st.sampled_from(
    [", ", "[", "]", "], [", '"', "\\", "\n", "1.5", "é", "∞", "😀"])).map("".join)
_LEAVES = (_NUMBERS | _STRINGS | st.lists(_NUMBERS) | st.lists(_NUMBERS).map(tuple)
           | st.lists(st.lists(_NUMBERS, max_size=4)))
_DOCS = st.recursive(_LEAVES, lambda kids: (st.lists(kids, max_size=4)
                                            | st.lists(kids, max_size=4).map(tuple)
                                            | st.dictionaries(_STRINGS, kids, max_size=4)),
                     max_leaves=24)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(doc=_DOCS)
@example(doc=[[1, [2]], 5])
@example(doc={"scan_trace": [[1e-06, math.inf], [2.0, math.nan]], "e": [], "t": ((1, -0.0),)})
def test_json_writer_is_the_stdlib_indented_form(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "doc.json"
    _write_json(path, doc)
    want = json.dumps(doc, indent=2, sort_keys=True, allow_nan=True) + "\n"
    assert path.read_bytes() == want.encode()


@pytest.mark.parametrize("doc", [object(), {"a": object()}, [1.0, object()],
                                 [[1.0], [object()]], {"a": [np.int64(1)]}])
def test_json_writer_refuses_what_the_stdlib_refuses(tmp_path, doc):
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2, sort_keys=True, allow_nan=True)
    with pytest.raises(TypeError):
        _write_json(tmp_path / "doc.json", doc)


# u tabulated from a piecewise power with a kink at 1, on the relation with
# v: every scan of a config with it refines about an interior maximum.
_TAB_XS = np.geomspace(1e-3, 1e3, 121)
_TAB_U = {"form": "tabulated", "x": _TAB_XS.tolist(),
          "y": np.where(_TAB_XS <= 1.0, _TAB_XS ** -0.6, _TAB_XS ** -0.4).tolist()}
_PW_V = {"form": "piecewise_power", "a1": 0.4, "a2": 0.6}
_SHARED_TABLE_DOCS = {
    f"{name}-a{a:g}": _hankel_conditions_doc(exponents={"p": 2.0, "q": 2.0, "a": a},
                                             weights=weights)
    for a in (1.0, 2.0)
    for name, weights in [
        ("power", {"beta": 0.25, "gamma": 0.25}),
        ("piecewise-exponents", {"beta1": 0.3, "beta2": 0.2, "gamma1": 0.3, "gamma2": 0.2}),
        ("tabulated-u", {"u": _TAB_U, "v": _PW_V}),
        ("piecewise-uv", {"u": {"form": "piecewise_power", "a1": -0.6, "a2": -0.4}, "v": _PW_V}),
    ]}


def _conditions_alone(doc):
    """The condition blocks of ``run_conditions(doc)`` from the three
    condition functions called alone, each with a table of its own."""
    transform, exps = cli._shared_blocks(doc)
    u, v, _ = cli._weights(doc, transform, exps)
    s, w = Weight.power(transform.b0), Weight.power(transform.b0)
    inv_ap = 0.0 if math.isinf(exps.a_prime) else 1.0 / exps.a_prime
    inv_a = 0.0 if math.isinf(exps.a) else 1.0 / exps.a
    rep1, rep2 = cond.hardy_pair_condition(u, v, s, w, exps)
    out = {"hardy_condition_1": rep1.to_dict(), "hardy_condition_2": rep2.to_dict()}
    if exps.a == 1.0:
        out["glued"] = cond.glued_condition(u, v, s, w, exps).to_dict()
    out["lorentz_necessity"] = cond.lorentz_necessity_condition(
        Weight.product([(u, 1.0), (w, exps.q * inv_ap)]),
        Weight.product([(v, 1.0), (s, exps.p * inv_a)]), s, exps).to_dict()
    return out


def _condition_blocks(doc):
    return json.dumps({k: doc[k] for k in ("hardy_condition_1", "hardy_condition_2", "glued",
                                           "lorentz_necessity") if k in doc})


@pytest.mark.parametrize("name", list(_SHARED_TABLE_DOCS))
def test_shared_bracket_table_changes_no_report(name):
    # run_conditions shares one bracket table among the Hardy pair, the
    # glued and the Lorentz conditions; each called alone builds and reads
    # its own.  The reports are the same to the bit, refined scans included.
    doc = _SHARED_TABLE_DOCS[name]
    got = run_conditions(doc)
    assert _condition_blocks(got) == _condition_blocks(_conditions_alone(doc))
    if name.startswith("tabulated-u"):
        assert any(0.0 < (got[k].get("argmax_r") or 0.0) < math.inf
                   for k in ("hardy_condition_1", "lorentz_necessity"))


def test_power_weight_scans_read_no_bracket(monkeypatch):
    # A power-weight product is C r^kappa with no breakpoint: its scan
    # calls the product at no r.  A tabulated weight's scans read it.
    calls = []
    sup_scan = cond._sup_scan

    def counted(product, *args):
        return sup_scan(lambda r: calls.append(len(r)) or product(r), *args)

    monkeypatch.setattr(cond, "_sup_scan", counted)
    run_conditions(_SHARED_TABLE_DOCS["power-a1"])
    assert calls == []
    run_conditions(_SHARED_TABLE_DOCS["tabulated-u-a1"])
    assert len(calls) > 0


def test_bracket_tables_do_not_outlive_their_config():
    # A config run after another reads the same reports as run first.
    first, second = _SHARED_TABLE_DOCS["tabulated-u-a2"], _SHARED_TABLE_DOCS["power-a1"]
    fresh = _condition_blocks(run_conditions(second))
    run_conditions(first)
    assert _condition_blocks(run_conditions(second)) == fresh
    assert _condition_blocks(run_conditions(first)) == _condition_blocks(_conditions_alone(first))


def test_conditions_read_a_power_config_as_verify_does():
    # scripth_probe is a "power" config: verify tests ||y^-1.8 F f||_2 <=
    # C ||x^1.2 f||_2, and check-conditions reads the same pair.
    path = Path(__file__).resolve().parents[1] / "configs" / "scripth_probe.json"
    doc = json.loads(path.read_text())
    assert run_conditions(doc)["power_normalization_exponents"] == {"beta": 1.8, "gamma": 1.2}
    assert ExperimentConfig.from_dict(doc).power_pair == (1.8, 1.2)


def _power_twin(weights, b0, exps):
    """The "power" weights block of an "sw" one: beta - b0/a' and gamma +
    b0/a, or descriptor exponents shifted by q b0/a' and p b0/a."""
    du, dv = b0 * exps.inv_a_prime, b0 * exps.inv_a
    if "u" in weights:
        keys = {"power": ("exponent",), "piecewise_power": ("a1", "a2")}
        u, v = dict(weights["u"]), dict(weights["v"])
        for k in keys[u["form"]]:
            u[k] += exps.q * du
        for k in keys[v["form"]]:
            v[k] += exps.p * dv
        return {"u": u, "v": v}
    return {k: x - du if k.startswith("beta") else x + dv for k, x in weights.items()}


# Two-factor weights: on the exponent relation (finite Hardy pairs for
# hankel) and off it.
_SW_WEIGHTS = {
    "beta-gamma": {"beta": 0.25, "gamma": 0.25},
    "beta-gamma-off": {"beta": 1.8, "gamma": 1.2},
    "piecewise-exponents": {"beta1": 0.3, "beta2": 0.2, "gamma1": 0.3, "gamma2": 0.2},
    "power-descriptors": {"u": {"form": "power", "exponent": -0.5},
                          "v": {"form": "power", "exponent": 0.5}},
    "piecewise-descriptors": {"u": {"form": "piecewise_power", "a1": -0.6, "a2": -0.4},
                              "v": _PW_V},
}


@pytest.mark.parametrize("a", [1.0, 2.0])
@pytest.mark.parametrize("transform", [{"name": "hankel", "alpha": 0.0},
                                       {"name": "scripth", "alpha": 0.0}],
                         ids=["hankel", "scripth"])
@pytest.mark.parametrize("form", list(_SW_WEIGHTS))
def test_power_config_reads_as_its_sw_twin(form, transform, a):
    # b0 = 1 (hankel) and 1/2 (scripth): the two normalizations differ by
    # the s and w factors, and a config in either gives the same reports.
    sw = _hankel_conditions_doc(transform=transform, exponents={"p": 2.0, "q": 2.0, "a": a},
                                weights=_SW_WEIGHTS[form], normalization="sw")
    spec, exps = cli._shared_blocks(sw)
    power = dict(sw, weights=_power_twin(sw["weights"], spec.b0, exps), normalization="power")
    got, want = run_conditions(power), run_conditions(sw)
    assert set(got) == set(want)
    reports = [k for k in got if isinstance(got[k], dict) and "verdict" in got[k]]
    assert len(reports) == (4 if a == 1.0 else 3)
    for key in reports:
        g, w = got[key], want[key]
        assert (g["verdict"], g["divergence_site"]) == (w["verdict"], w["divergence_site"])
        if math.isfinite(w["sup_value"]):
            assert g["sup_value"] == pytest.approx(w["sup_value"], rel=1e-12, abs=0.0)
        else:
            assert repr(g["sup_value"]) == repr(w["sup_value"])
    if "beta" in sw["weights"]:
        pair = got["power_normalization_exponents"]
        assert (pair["beta"], pair["gamma"]) == (power["weights"]["beta"],
                                                 power["weights"]["gamma"])
        for key, value in want["power_normalization_exponents"].items():
            assert value == pytest.approx(pair[key], rel=1e-12)
        for key in ("power_range", "gm_range", "vanishing_moment_range_n1"):
            assert (got[key].get("satisfied"), got[key].get("indeterminate")) == (
                want[key].get("satisfied"), want[key].get("indeterminate"))
