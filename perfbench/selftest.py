"""Self-test of the benchmark, from the repository root:

    python3 perfbench/selftest.py

1. A tiny run of every workload, untraced and traced, exits 0, passes its
   output checks and prints every metric ``BENCHMARK.json`` names, with the
   unit it names.
2. The output checks reject doctored outputs: a result row whose total is
   not state + control, and a fitted file that lacks a node.
3. Without the program's sources the benchmark exits non-zero and prints
   no result.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from checks import CHECKS  # noqa: E402

ROOT = Path.cwd()
SCRATCH = ROOT / run.WORK_DIR / "selftest"


def _benchmark_metrics(key: str) -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[key]}


def check_tiny_runs():
    expected = {0: _benchmark_metrics("end_to_end"), 1: _benchmark_metrics("per_layer")}
    assert expected[0] == run.END_TO_END, "BENCHMARK.json end_to_end differs from run.py"
    assert expected[1] == run.PER_LAYER, "BENCHMARK.json per_layer differs from run.py"
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    for workload in workloads:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                capture_output=True, text=True, timeout=170,
            )
            assert proc.returncode == 0, f"{workload} trace {trace}: {proc.stderr}"
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(doc) == {"correct", "attempted", "failed", "metrics"}, doc
            assert doc["correct"] and doc["attempted"] >= 1 and doc["failed"] == 0, doc
            got = {name: m["unit"] for name, m in doc["metrics"].items()}
            assert got == expected[trace], (
                f"{workload} trace {trace}: missing {sorted(set(expected[trace]) - set(got))}, "
                f"unexpected {sorted(set(got) - set(expected[trace]))}")
            assert all(isinstance(m["value"], (int, float)) for m in doc["metrics"].values())
            print(f"ok   tiny {workload} trace={trace}: {len(got)} metrics")


def _child(workload: str) -> Path:
    work = SCRATCH / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    subprocess.run(
        [sys.executable, str(HERE / "workload.py"), workload, "3", str(work), "0", "0", "tiny"],
        env=run.child_env(ROOT), stdout=subprocess.DEVNULL, check=True, timeout=170,
    )
    return work


def _problems(workload: str, work: Path) -> list:
    report = json.loads((work / "report.json").read_text())
    return CHECKS[workload](work, report)["problems"]


def check_doctored_outputs():
    work = _child("sweep_reactive")
    assert _problems("sweep_reactive", work) == [], "untouched results must pass"
    results = work / "out" / "results.csv"
    with open(results, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    total = header.index("total_cost")
    rows[1][total] = repr(float(rows[1][total]) + 1.0)
    with open(results, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    problems = _problems("sweep_reactive", work)
    assert any("total_cost != state_cost + control_cost" in p for p in problems), problems
    print("ok   doctored results.csv (total != state + control) rejected")

    work = _child("roundtrip_weighted")
    assert _problems("roundtrip_weighted", work) == [], "untouched fit must pass"
    fitted = work / "out" / "fitted_params.json"
    doc = json.loads(fitted.read_text())
    del doc["nodes"][5]
    fitted.write_text(json.dumps(doc, indent=2) + "\n")
    problems = _problems("roundtrip_weighted", work)
    assert any("fitted nodes" in p for p in problems), problems
    print("ok   doctored fitted_params.json (missing node) rejected")


def check_without_sources():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep_reactive", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok   without sources: exit {proc.returncode}, no result printed")


def main() -> int:
    try:
        check_tiny_runs()
        check_doctored_outputs()
        check_without_sources()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        try:
            SCRATCH.parent.rmdir()
        except OSError:
            pass
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
