"""Every metric of every workload at one seed, in one command:

    python3 perfbench/report.py --seed 1 --seconds 30 [--out perfbench/baseline.json]

Runs ``run.py --trace 1`` for each workload in ``BENCHMARK.json``, one
after another; each such run also runs untraced children, so its output
holds the end-to-end metrics, the per-layer metrics and the result digest.
Prints them per workload and, with ``--out``, writes them as JSON together
with the Python and numpy versions and the core count.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
LINE = re.compile(r"^metric (\S+) (\S+) (\S+)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", default=None, help="write the numbers here as JSON")
    args = parser.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    doc = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1"],
            capture_output=True, text=True,
        )
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            ok = False
            continue
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        entry = {"correct": result["correct"], "attempted": result["attempted"],
                 "failed": result["failed"], "metrics": {}}
        for line in lines[:-1]:
            if line.startswith("env "):
                doc["env"] = dict(kv.split("=", 1) for kv in line.split()[1:])
            elif line.startswith("digest "):
                entry["digest"] = line.split()[-1]
            elif match := LINE.match(line):
                name, value, unit = match.groups()
                if value != "absent":
                    entry["metrics"][name] = {"value": float(value), "unit": unit}
        doc["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
