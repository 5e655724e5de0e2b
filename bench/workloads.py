"""Seeded workload definitions: the configs each workload feeds to the
``wnilab`` command line, and how each operation's output is judged.

This module uses only the standard library at import time, so the set-up
probe can time the import of ``wnilab`` itself.  ``wnilab`` is imported
inside ``parse`` only.

An operation is one family member (verify workloads) or one condition
config (``conditions-grid``).
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import oracles

# ---------------------------------------------------------------------------
# verify workloads
# ---------------------------------------------------------------------------


def _hankel_verify_doc(rng: random.Random) -> dict:
    # Grid start log-uniform over one grid step (13 points over six decades
    # are half a decade apart), so the union over seeds tiles the r-line.
    start = 10.0 ** (-3.0 + 0.5 * rng.random())
    return {
        "experiment_id": "hankel-verify",
        "transform": {"name": "hankel", "alpha": 0.0},
        "exponents": {"p": 2.0, "q": 2.0, "a": 2.0},
        "weights": {"beta": 0.6, "gamma": 0.25},
        "normalization": "sw",
        "family": {"kind": "truncated_power", "sigma": 0.0, "side": "left",
                   "grid": {"start": start, "stop": start * 1e6, "points": 13}},
        "quadrature": {"rel_tol": 1e-6, "norm_rel_tol": 1e-2},
    }


def _scripth_probe_doc(rng: random.Random) -> dict:
    start = 0.1 * 10.0 ** (0.5 * rng.random())
    return {
        "experiment_id": "scripth-probe",
        "transform": {"name": "scripth", "alpha": 0.0},
        "exponents": {"p": 2.0, "q": 2.0, "a": 1.0},
        "weights": {"beta": 1.8, "gamma": 1.2},
        "normalization": "power",
        "family": {"kind": "truncated_power", "sigma": 0.5, "side": "left",
                   "grid": {"start": start, "stop": start * 1e3, "points": 6}},
        "quadrature": {"rel_tol": 1e-6, "norm_rel_tol": 1e-3},
        "growth_model": "power",
    }


# ---------------------------------------------------------------------------
# conditions-grid
# ---------------------------------------------------------------------------

# (config transform block, delta = b0 of the transform).  s = w = x^delta in
# the two-factor setting the command line evaluates.
_PRESETS: List[Tuple[dict, float]] = [
    ({"name": "hankel", "alpha": 0.0}, 1.0),
    ({"name": "hankel", "alpha": 1.0}, 3.0),
    ({"name": "sine"}, 0.0),
    ({"name": "cosine"}, 0.0),
    ({"name": "scripth", "alpha": 0.25}, 0.5),
    ({"name": "scripth", "alpha": 1.0}, 0.5),
    ({"name": "model_min", "delta": 1.0}, 1.0),
]
_Q_VALUES = (1.25, 1.5, 2.0, 2.5, 3.0)
# Draw classes per (preset, q) cell.  Unbiased draws give only 7 % finite
# pairs, so six of eight draws are aimed at the finite set; sine and cosine
# have an empty finite set and take one draw of each divergent class.
# Finite pairs run every supremum scan and are the slow mode of the
# per-config latency; with two thirds of the configs finite, the median
# latency lies inside that mode instead of on the edge between the modes,
# where it would move with the seed's mix of draws.
_CLASSES_NONEMPTY = ("inside",) * 6 + ("endpoint", "offset")
_CLASSES_EMPTY = ("endpoint", "offset")


def _condition_draw(rng: random.Random, delta: float, q: float, kind: str
                    ) -> Tuple[float, float, float]:
    """(p, beta, gamma) for one draw of the given class.

    The finite set is beta - gamma = 1/q - 1/p' with 1/q - delta/2 < beta
    < 1/q (see oracles.power_pair).
    """
    p = rng.uniform(1.2, q)
    pp = p / (p - 1.0)
    lo, hi = 1.0 / q - 0.5 * delta, 1.0 / q
    if kind == "inside":
        beta = rng.uniform(lo, hi)
        offset = 0.0
    elif kind == "endpoint":
        # On the relation, at or beyond an end of the range: an inner
        # integral diverges at 0 or at infinity.
        gap = 0.0 if rng.random() < 0.25 else rng.uniform(0.0, 0.5)
        beta = hi + gap if rng.random() < 0.5 else lo - gap
        offset = 0.0
    else:
        # Inside the range but off the exponent relation: the bracket
        # product is a nonzero power of r.
        beta = rng.uniform(lo, hi) if delta > 0 else hi + rng.uniform(-0.5, 0.5)
        offset = rng.choice((-1.0, 1.0)) * rng.uniform(0.02, 0.5)
    gamma = beta - (1.0 / q - 1.0 / pp) - offset
    return p, beta, gamma


def _conditions_docs(rng: random.Random) -> List[dict]:
    docs = []
    for transform, delta in _PRESETS:
        classes = _CLASSES_NONEMPTY if delta > 0 else _CLASSES_EMPTY
        for q in _Q_VALUES:
            for kind in classes:
                p, beta, gamma = _condition_draw(rng, delta, q, kind)
                docs.append({
                    "experiment_id": f"cg-{len(docs):03d}",
                    "transform": dict(transform),
                    "exponents": {"p": p, "q": q, "a": 1.0},
                    "weights": {"beta": beta, "gamma": gamma},
                })
    return docs


# ---------------------------------------------------------------------------
# workload objects
# ---------------------------------------------------------------------------

@dataclass
class Call:
    """One command-line call: argv without --out, its config id and the
    config itself."""

    argv: List[str]
    item: str
    doc: dict


@dataclass
class Outcome:
    item: str
    ok: bool
    reason: str = ""
    known_defect: bool = False
    rel_err: Optional[float] = None


@dataclass
class Workload:
    calls: List[Call]
    judge: Callable[["Workload", Path, Dict[str, "CallResult"]], List[Outcome]]
    determinism_files: List[str] = field(default_factory=list)


@dataclass
class CallResult:
    rc: Optional[int]
    error: str
    seconds: float
    stderr: str = ""


def _write(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _verify_workload(command: str, doc: dict, work: Path,
                     oracle: Callable[[float], float]) -> Workload:
    cfg_path = work / f"{doc['experiment_id']}.json"
    _write(cfg_path, doc)
    members = int(doc["family"]["grid"]["points"])
    tol = float(doc["quadrature"]["norm_rel_tol"])
    records = f"{doc['experiment_id']}_records.csv"

    def judge(wl: Workload, out: Path, results: Dict[str, CallResult]) -> List[Outcome]:
        res = results[doc["experiment_id"]]
        failure = _call_failure(res)
        path = out / records
        if failure is None and not path.is_file():
            failure = "records CSV missing"
        if failure is not None:
            return [Outcome(f"member {i}", False, failure) for i in range(members)]
        rows = list(csv.DictReader(io.StringIO(path.read_text())))
        outcomes = []
        for row in rows:
            r = float(row["param"])
            ratio = float(row["ratio"])
            item = f"r={r:.6g}"
            if row["note"]:
                outcomes.append(Outcome(item, False, f"note: {row['note']}"))
                continue
            if not math.isfinite(ratio):
                outcomes.append(Outcome(item, False, f"ratio {ratio}"))
                continue
            err = abs(ratio / oracle(r) - 1.0)
            ok = err <= tol
            outcomes.append(Outcome(item, ok, "" if ok else
                                    f"ratio {ratio!r} off closed form by {err:.3g} > {tol:g}",
                                    rel_err=err))
        for i in range(len(rows), members):
            outcomes.append(Outcome(f"member {i}", False, "row missing"))
        return outcomes

    argv = [command, "--config", str(cfg_path)]
    return Workload([Call(argv, doc["experiment_id"], doc)], judge, [records])


def _call_failure(res: CallResult) -> Optional[str]:
    if res.error:
        return f"exception: {res.error}"
    if res.rc != 0:
        return f"exit code {res.rc}: {res.stderr[-200:]}"
    return None


def _conditions_workload(docs: List[dict], work: Path) -> Workload:
    calls = []
    for doc in docs:
        path = work / f"{doc['experiment_id']}.json"
        _write(path, doc)
        calls.append(Call(["check-conditions", "--config", str(path)],
                          doc["experiment_id"], doc))

    def judge(wl: Workload, out: Path, results: Dict[str, CallResult]) -> List[Outcome]:
        outcomes = []
        for call in wl.calls:
            e, w = call.doc["exponents"], call.doc["weights"]
            want = oracles.power_pair(_delta(call.doc), e["p"], e["q"], w["beta"], w["gamma"])
            res = results[call.item]
            failure = _call_failure(res)
            path = out / f"{call.item}_conditions.json"
            if failure is None and not path.is_file():
                failure = "conditions JSON missing"
            if failure is not None:
                outcomes.append(Outcome(call.item, False, failure))
                continue
            got = bool(json.loads(path.read_text())["pair_finite"])
            if got == want.finite:
                outcomes.append(Outcome(call.item, True))
                continue
            known = got and want.slow_power_growth
            outcomes.append(Outcome(
                call.item, False,
                f"pair_finite={got}, oracle {want.describe()}", known_defect=known))
        return outcomes

    return Workload(calls, judge)


def _delta(doc: dict) -> float:
    for transform, delta in _PRESETS:
        if transform == doc["transform"]:
            return delta
    raise ValueError(f"no delta for transform {doc['transform']}")


def generate(name: str, seed: int, work: Path) -> Workload:
    """Write the workload's configs under ``work`` and return the workload."""
    rng = random.Random(f"{name}:{seed}")
    work.mkdir(parents=True, exist_ok=True)
    if name == "hankel-verify":
        return _verify_workload("verify", _hankel_verify_doc(rng), work,
                                oracles.hankel_verify_ratio)
    if name == "scripth-probe":
        return _verify_workload("probe-sharpness", _scripth_probe_doc(rng), work,
                                oracles.scripth_probe_ratio)
    if name == "conditions-grid":
        return _conditions_workload(_conditions_docs(rng), work)
    raise ValueError(f"unknown workload {name!r}")


def parse(wl: Workload) -> list:
    """Parse every config the way the command line does and build the
    transforms and test-function families it names."""
    from wnilab import cli, transforms
    from wnilab.weights import ExponentSet

    built = []
    for call in wl.calls:
        doc = json.loads(Path(call.argv[2]).read_text())
        if "family" in doc:
            built.append(cli.ExperimentConfig.from_dict(doc))
        else:
            t = dict(doc["transform"])
            e = doc["exponents"]
            built.append((transforms.preset(t.pop("name"), **t),
                          ExponentSet(p=e["p"], q=e["q"], a=e["a"])))
    return built


WORKLOADS = ("hankel-verify", "scripth-probe", "conditions-grid")
