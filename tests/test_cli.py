import inspect
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from wnilab.cli import (ConfigError, ExperimentConfig, FitDegenerate, RatioRecord,
                        compute_ratio_records, fit_growth, main, run_conditions,
                        verify_summary)
from wnilab.kernels import KERNELS
from wnilab.transforms import _PRESETS


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
    assert summary["unbounded_trend"] is False


def test_modelmin_ratio_grows_off_relation():
    cfg = ExperimentConfig.from_dict(_modelmin_config(beta=0.45, gamma=0.05))
    records = compute_ratio_records(cfg)
    usable = [r for r in records if r.note == ""]
    ratios = [r.ratio for r in sorted(usable, key=lambda r: r.param)]
    # dilation scaling gives ratio ~ r^(beta - gamma) = r^0.4
    assert ratios[-1] / ratios[0] == pytest.approx((1e2 / 1e-2) ** 0.4, rel=0.05)
    assert verify_summary(cfg, records)["unbounded_trend"] is True


def test_skipped_rows_for_zero_function():
    cfg = ExperimentConfig.from_dict(_modelmin_config())
    cfg.family = [(1.0, cfg.family[0][1].scaled(0.0))]  # keep one, then zero it
    from wnilab.weights import Piece, TestFunction
    zero = TestFunction("zero", [Piece(0.0, 1.0, 0.0, 0.0)], check_moments=False)
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
    assert "CONSISTENT" in merged[1]


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
], ids=["hankel-alpha-below-range", "no-exponents", "p-below-one"])
def test_check_conditions_input_errors_exit_2(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["check-conditions", "--config", str(path), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("extra", [
    {"quadrature": {"rel_tol": "abc"}},
    {"lhs_domain": [1.0]},
], ids=["non-numeric-rel-tol", "one-element-lhs-domain"])
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
], ids=["order-below-range", "negative-x", "non-numeric-x", "bessel-inf", "struve-inf",
        "model-min-delta-not-positive"])
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
