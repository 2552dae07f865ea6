"""Output checks for one benchmark child, run on every child of every run.

Each check reads only the files the child generated and the files the CLI
wrote, and returns the child's items, failures, result digest and a list of
problems.  A problem makes the run incorrect; a failed item (an evaluation
with an error, a node whose fitted probabilities are unusable) is counted
against the attempted items instead.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

#: Error types reported one by one in ``experiments.failed_by_type``; any
#: other type is counted under ``other``.
ERROR_TYPES = ("SaturatedPoint", "SingularInnerMatrix", "NoConvergence", "ValidationError")


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _exit_problems(report: dict) -> list:
    codes = report["exit_codes"]
    if len(codes) != report["commands"] or any(code != 0 for code in codes):
        return [f"CLI exit codes {codes}, expected 0 for each of {report['commands']} commands"]
    return []


def check_sweep(work: Path, report: dict) -> dict:
    """``risknet experiment``: row count, cost decomposition, strata."""
    problems = _exit_problems(report)
    results = work / "out" / "results.csv"
    if problems or not results.is_file():
        return {"problems": problems or ["results.csv missing"], "items": 0,
                "attempted": 0, "failed": 0}
    plan = json.loads((work / "plan.json").read_text())
    with open(results, newline="") as fh:
        rows = list(csv.DictReader(fh))

    if plan.get("stratify_by", "none") == "none":
        samples = plan["num_sets"]
    else:
        samples = sum(count for _, count in plan["groups"])
    phases = 2 if plan.get("phase") == "both" else 1
    expected = (samples + len(plan.get("baseline_sets", {}))) * phases
    if len(rows) != expected:
        problems.append(f"{len(rows)} result rows, expected {expected}")

    stratified = plan.get("stratify_by") == "steady_peak"
    failed_by_type: Counter = Counter()
    for k, row in enumerate(rows, start=1):
        if row["error"]:
            kind = row["error"].split(":", 1)[0]
            failed_by_type[kind if kind in ERROR_TYPES else "other"] += 1
            continue
        state, control = float(row["state_cost"]), float(row["control_cost"])
        if float(row["total_cost"]) != state + control:
            problems.append(f"row {k}: total_cost != state_cost + control_cost")
        if stratified and row["kind"] == "sample" and row["steady_peak"] != row["stratum"]:
            problems.append(f"row {k}: steady_peak {row['steady_peak']} != stratum {row['stratum']}")
    return {
        "problems": problems,
        "items": len(rows),
        "attempted": len(rows),
        "failed": sum(failed_by_type.values()),
        "failed_by_type": {kind: failed_by_type[kind] for kind in ERROR_TYPES + ("other",)},
        "digest": sha256(results),
    }


def _usable(p) -> bool:
    return p is not None and not (isinstance(p, float) and math.isnan(p)) and 0.0 <= p <= 1.0


def check_roundtrip(work: Path, report: dict) -> dict:
    """``risknet simulate`` then ``risknet fit``: one fitted entry per
    network node, in order.  Items are event-log transitions; the attempted
    units are nodes, and a node fails when a fitted probability is null or
    outside [0, 1].  A node without in-neighbours has an unidentifiable
    ``p_ext``, which must be null."""
    problems = _exit_problems(report)
    events = work / "out" / "events.csv"
    fitted_path = work / "out" / "fitted_params.json"
    if problems or not fitted_path.is_file():
        return {"problems": problems or ["fitted_params.json missing"], "items": 0,
                "attempted": 0, "failed": 0}
    net = json.loads((work / "network.json").read_text())
    fitted = json.loads(fitted_path.read_text())
    names = [node["name"] for node in net["nodes"]]
    got = [node.get("name") for node in fitted.get("nodes", [])]
    if got != names:
        problems.append(f"fitted nodes {got} differ from the network's {names}")

    exposed = {edge["to"] for edge in net.get("edges", []) if edge["weight"] > 0}
    failed, errors = 0, []
    for true, fit in zip(net["nodes"], fitted.get("nodes", [])):
        ok = _usable(fit.get("p_int")) and _usable(fit.get("p_con"))
        if true["name"] in exposed:
            ok = ok and _usable(fit.get("p_ext"))
            if ok:
                errors.append(abs(fit["p_ext"] - true["p_ext"]))
        else:
            ok = ok and fit.get("p_ext") is None
        failed += not ok

    with open(events, "rb") as fh:
        transitions = sum(1 for _ in fh) - 2  # header and initial state
    return {
        "problems": problems,
        "items": transitions,
        "attempted": len(names),
        "failed": failed,
        "fit_p_ext_mae": sum(errors) / len(errors) if errors else None,
        "event_log_bytes": events.stat().st_size,
        "digest": sha256(fitted_path),
    }


CHECKS = {
    "sweep_reactive": check_sweep,
    "sweep_proactive_strat": check_sweep,
    "roundtrip_weighted": check_roundtrip,
}
