"""risknet benchmark: one run of one workload, from the repository root.

    python3 perfbench/run.py --workload sweep_reactive --seed 1 --seconds 20 --trace 0

A run starts fresh child processes one after another (never two at once),
each of which generates the workload's inputs from the seed and runs them
through ``risknet.cli.cli_main`` (see ``workload.py``), until ``--seconds``
is used.  Every child's outputs are checked (``checks.py``).  With
``--trace 0`` the last stdout line carries the end-to-end metrics, medians
over the children; with ``--trace 1`` untraced and traced children
alternate, and it carries the per-layer metrics of the traced children
(``tracer.py``).  The lines above it name every metric with its unit, the
environment and the result digests.

End-to-end times are reference seconds: each child's wall seconds scaled
by the calibration kernel it timed around its CLI work (``calibrate.py``),
so that other tenants' load on the machine does not read as a change of
the program.  Per-layer times are wall seconds of the traced children.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibrate import NOMINAL_S  # noqa: E402
from checks import CHECKS  # noqa: E402
from tracer import summarize  # noqa: E402

END_TO_END = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "control.riccati_schedule.calls": "count",
    "control.riccati_schedule.s": "s",
    "control.rollout_feedback.calls": "count",
    "control.rollout_feedback.s": "s",
    "control.run_reactive.ms_p50": "ms",
    "control.run_reactive.ms_p90": "ms",
    "control.run_proactive.calls": "count",
    "control.run_proactive.ms_p50": "ms",
    "control.run_proactive.ms_p90": "ms",
    "control.evaluate_cost.s": "s",
    "dynamics.find_steady_state.calls": "count",
    "dynamics.find_steady_state.s": "s",
    "dynamics.linearize.calls": "count",
    "dynamics.linearize.s": "s",
    "dynamics.step_continuous.calls": "count",
    "dynamics.step_continuous.s": "s",
    "model.StateVector.constructions": "count",
    "experiments.run_experiment.s": "s",
    "experiments.run_experiment.self_s": "s",
    "experiments.sample_driver_sets.s": "s",
    "experiments.failed_by_type.SaturatedPoint": "count",
    "experiments.failed_by_type.SingularInnerMatrix": "count",
    "experiments.failed_by_type.NoConvergence": "count",
    "experiments.failed_by_type.ValidationError": "count",
    "experiments.failed_by_type.other": "count",
    "cascade.run_discrete.s": "s",
    "netio.write_event_log.s": "s",
    "netio.write_event_log.bytes": "bytes",
    "netio.load_event_log.s": "s",
    "netio.load_network.s": "s",
    "netio.load_plan.s": "s",
    "netio.write_experiment_csv.s": "s",
    "netio.write_experiment_summary.s": "s",
    "estimation.count_transitions.s": "s",
    "estimation.fit_probabilities.s": "s",
    "estimation.exposure_records": "count",
    "estimation.exposure_levels": "count",
    "estimation.fit_p_ext_mae": "prob",
    "cli.self_s": "s",
    "trace.overhead_frac": "frac",
}

#: Span fields a per-layer metric name may end in.
SPAN_FIELDS = ("calls", "s", "self_s", "ms_p50", "ms_p90")
#: Per-layer metrics that span names do not give directly.
SPAN_ALIASES = {"cli": "cli.cli_main"}
#: Per-layer metrics read from the checked outputs: name -> outcome key.
OUTPUT_METRICS = {
    "netio.write_event_log.bytes": "event_log_bytes",
    "estimation.fit_p_ext_mae": "fit_p_ext_mae",
}

CHILD_TIMEOUT_S = 150
WORK_DIR = ".perfbench_work"


class RunError(Exception):
    """A child could not run or report; no result is printed."""


def child_env(root: Path) -> dict:
    """The parent's environment, with the checkout's sources importable."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # single-threaded BLAS: the machine has two cores and runs one child at a time
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(root: Path, work: Path, args, traced: bool) -> dict:
    """Start one child, wait for it, check its outputs."""
    work.mkdir(parents=True)
    spawn = time.perf_counter_ns()
    proc = subprocess.run(
        [sys.executable, str(HERE / "workload.py"), args.workload, str(args.seed),
         str(work), str(spawn), "1" if traced else "0", args.size],
        cwd=root, env=child_env(root), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    report_path = work / "report.json"
    if proc.returncode != 0 or not report_path.is_file():
        raise RunError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(report_path.read_text())
    child = {"traced": traced, "report": report, "outcome": CHECKS[args.workload](work, report)}
    if traced:
        doc = json.loads((work / "trace.json").read_text())
        child.update(spans=summarize(doc), counts=doc["counts"])
    shutil.rmtree(work)
    return child


def run_children(root: Path, work_root: Path, args) -> list:
    """Children until the time is used: at least three untraced, or with
    tracing at least two untraced/traced pairs."""
    pattern = (False, True) if args.trace else (False,)
    minimum = 4 if args.trace else 3
    start = time.perf_counter()
    deadline = start + args.seconds
    children = []
    while True:
        traced = pattern[len(children) % len(pattern)]
        children.append(run_child(root, work_root / f"child{len(children)}", args, traced))
        done = len(children)
        if done >= minimum and done % len(pattern) == 0:
            now = time.perf_counter()
            per_round = (now - start) / done * len(pattern)
            if now + per_round > deadline:
                return children


def _percentile(values: list, q: float) -> float:
    """Linearly interpolated percentile, q in [0, 1]; 0 without samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def speed(child: dict) -> float:
    """Reference seconds per wall second while this child ran (below 1
    when other tenants slow the machine), from the calibration kernel."""
    return NOMINAL_S / statistics.mean(child["report"]["calib_s"])


def ref_wall_s(child: dict) -> float:
    return child["report"]["wall_s"] * speed(child)


def end_to_end(children: list) -> dict:
    """Medians over the untraced children, in reference seconds."""
    plain = [c for c in children if not c["traced"]]
    return {
        "items_per_s": statistics.median(c["outcome"]["items"] / ref_wall_s(c) for c in plain),
        "setup_s": statistics.median(c["report"]["setup_s"] * speed(c) for c in plain),
        "peak_rss_mb": statistics.median(c["report"]["maxrss_kb"] / 1024 for c in plain),
    }


def _median(name: str, values):
    """Median over traced children; counts stay whole numbers."""
    values = list(values)
    if PER_LAYER[name] in ("count", "bytes"):
        return statistics.median_low(values)
    return statistics.median(values)


def _span_metric(name: str, traced: list):
    span, field = name.rsplit(".", 1)
    span = SPAN_ALIASES.get(span, span)
    if span not in traced[0]["report"]["installed"]:
        return None  # the function is gone at this commit: reported absent
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "ms": []}
    stats = [c["spans"].get(span, empty) for c in traced]
    if field.startswith("ms_p"):
        pooled = [ms for s in stats for ms in s["ms"]]
        return _percentile(pooled, int(field[4:]) / 100)
    return _median(name, (s[field] for s in stats))


def per_layer(children: list) -> dict:
    traced = [c for c in children if c["traced"]]
    plain = [c for c in children if not c["traced"]]
    out = {}
    for name in PER_LAYER:
        value = None
        if name == "trace.overhead_frac":
            value = (statistics.median(ref_wall_s(c) for c in traced)
                     / statistics.median(ref_wall_s(c) for c in plain) - 1.0)
        elif name.startswith("experiments.failed_by_type."):
            kind = name.rsplit(".", 1)[1]
            value = _median(name, (
                c["outcome"].get("failed_by_type", {}).get(kind, 0) for c in traced))
        elif name in OUTPUT_METRICS:
            values = [c["outcome"].get(OUTPUT_METRICS[name], 0) for c in traced]
            if all(v is not None for v in values):
                value = _median(name, values)
        elif name.rsplit(".", 1)[1] in SPAN_FIELDS:
            value = _span_metric(name, traced)
        else:
            counts = [c["counts"].get(name) for c in traced]
            if all(v is not None for v in counts):
                value = _median(name, counts)
        if value is not None:
            out[name] = value
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CHECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the self-test only")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "risknet" / "__init__.py").is_file():
        print(f"perfbench: no risknet sources under {root / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    work_root = root / WORK_DIR / f"run-{os.getpid()}"
    try:
        children = run_children(root, work_root, args)
    except (RunError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass  # another run's directory is still there

    env = children[0]["report"]
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"size={args.size}")
    print(f"env python={env['python']} numpy={env['numpy']} nproc={env['nproc']}")
    problems = []
    for k, child in enumerate(children):
        out, rep = child["outcome"], child["report"]
        print(f"child {k} {'traced' if child['traced'] else 'untraced'} "
              f"speed={speed(child):.4f} setup_s={rep['setup_s']:.4f} wall_s={rep['wall_s']:.4f} "
              f"items={out['items']} failed={out['failed']} digest={out.get('digest')}")
        problems += [f"child {k}: {p}" for p in out["problems"]]
    digests = {c["outcome"].get("digest") for c in children}
    if len(digests) != 1:
        problems.append(f"children disagree on the result digest: {sorted(map(str, digests))}")
    output = "fitted_params.json" if args.workload.startswith("roundtrip") else "results.csv"
    print(f"digest {output} sha256={children[0]['outcome'].get('digest')}")
    for problem in problems:
        print(f"check failed: {problem}")

    metrics = {name: {"value": value, "unit": END_TO_END[name]}
               for name, value in end_to_end(children).items()}
    if args.trace:
        for name, m in metrics.items():
            print(f"metric {name} {m['value']!r} {m['unit']} (untraced children)")
        layers = per_layer(children)
        for name in PER_LAYER:
            if name not in layers:
                print(f"metric {name} absent (its function is not at this commit)")
        metrics = {name: {"value": value, "unit": PER_LAYER[name]}
                   for name, value in layers.items()}
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")

    print(json.dumps({
        "correct": not problems,
        "attempted": sum(c["outcome"]["attempted"] for c in children),
        "failed": sum(c["outcome"]["failed"] for c in children),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
