"""One benchmark child: make a workload's inputs from the seed, then run
them through ``risknet.cli.cli_main`` in this fresh process.

``run.py`` starts this script and reads the ``report.json`` it leaves in
WORKDIR; the program itself only ever sees the generated files::

    python3 perfbench/workload.py WORKLOAD SEED WORKDIR SPAWN_NS TRACE SIZE

SPAWN_NS is the parent's ``time.perf_counter_ns()`` just before the start
(CLOCK_MONOTONIC, shared by all processes), so ``setup_s`` covers
interpreter start, importing ``risknet``, generating the inputs and
writing them.  The calibration kernel (``calibrate.py``) is timed right
before and right after the CLI work.  TRACE is 0 or 1; SIZE is ``full``
or ``tiny``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from calibrate import kernel_seconds  # noqa: E402

#: Work per child.  ``full`` is the benchmark; ``tiny`` only serves the
#: self-test.  Reactive sets and the roundtrip's step count are per child:
#: a run repeats children until its time is used.
SIZES = {
    "full": {
        "sweep_reactive": {"sets": 20, "steps": 500},
        "sweep_proactive_strat": {"quota": 40, "steps": 50},
        "roundtrip_weighted": {"steps": 25_000},
    },
    "tiny": {
        "sweep_reactive": {"sets": 2, "steps": 20},
        "sweep_proactive_strat": {"quota": 2, "steps": 5},
        "roundtrip_weighted": {"steps": 2_000},
    },
}

#: The named baseline set of the paper-scale sweep (acceptance criterion 7).
POLICY_MIX = ["risk_03", "risk_08", "risk_11", "risk_17", "risk_22", "risk_29", "risk_35"]
EDGE_WEIGHTS = (0.25, 0.5, 0.75, 1.0)


def _write_json(path: Path, doc):
    path.write_text(json.dumps(doc, indent=2) + "\n")


def _dense_network(netio, seed: int, work: Path) -> str:
    """The paper-scale 40-node network of acceptance criterion 7."""
    path = work / "network.json"
    netio.save_network(path, netio.generate_synthetic(40, 18.27, 4.60, seed=seed))
    return str(path)


def sweep_reactive(netio, seed: int, work: Path, size: dict) -> list:
    net = _dense_network(netio, seed, work)
    plan = work / "plan.json"
    _write_json(plan, {
        "schema_version": 1,
        "driver_size": 7,
        "num_sets": size["sets"],
        "seed": seed,
        "pinned": {"risk_00": 1},
        "stratify_by": "none",
        "phase": "reactive",
        "steps_reactive": size["steps"],
        "baseline_sets": {"policy_mix": POLICY_MIX},
    })
    return [["experiment", net, str(plan), "--output-dir", str(work / "out")]]


def sweep_proactive_strat(netio, seed: int, work: Path, size: dict) -> list:
    # No pin: with 40 candidates and the top ceil(0.25 * 40) = 10 nodes in
    # class, every seed gives the same stratum acceptance rates (stratum 6
    # accepts C(10,6)*30/C(40,7), about 0.034% of draws), so sampling work
    # does not depend on whether a pinned node happens to be in class.
    net = _dense_network(netio, seed, work)
    plan = work / "plan.json"
    _write_json(plan, {
        "schema_version": 1,
        "driver_size": 7,
        "seed": seed,
        "stratify_by": "steady_peak",
        "groups": [[value, size["quota"]] for value in range(7)],
        "phase": "proactive",
        "steps_proactive": size["steps"],
        "baseline_sets": {"policy_mix": POLICY_MIX},
    })
    return [["experiment", net, str(plan), "--output-dir", str(work / "out")]]


def roundtrip_weighted(netio, seed: int, work: Path, size: dict) -> list:
    import numpy as np
    from risknet.model import build_network

    sparse = netio.generate_synthetic(
        40, 4.0, 1.5, prob_ranges={"p_ext": (0.1, 0.5)}, seed=seed
    )
    rng = np.random.default_rng([seed, 2])
    upper = np.triu(sparse.E, 1) * rng.choice(EDGE_WEIGHTS, size=sparse.E.shape)
    net = build_network(sparse.names, sparse.p_int, sparse.p_ext, sparse.p_con,
                        upper + upper.T)
    path = work / "network.json"
    netio.save_network(path, net)
    out = work / "out"
    return [
        ["simulate", str(path), "--steps", str(size["steps"]), "--seed", str(seed),
         "--variant", "product", "--output-dir", str(out)],
        ["fit", str(out / "events.csv"), str(path), "--output-dir", str(out)],
    ]


WORKLOADS = {
    "sweep_reactive": sweep_reactive,
    "sweep_proactive_strat": sweep_proactive_strat,
    "roundtrip_weighted": roundtrip_weighted,
}


def main(argv) -> int:
    workload, seed, workdir, spawn_ns, trace, size = argv
    seed, spawn_ns, trace = int(seed), int(spawn_ns), trace == "1"
    work = Path(workdir)

    import numpy
    import risknet.cli
    from risknet import netio

    commands = WORKLOADS[workload](netio, seed, work, SIZES[size][workload])
    setup_s = (time.perf_counter_ns() - spawn_ns) / 1e9

    tracer = installed = None
    if trace:
        from tracer import Tracer, install

        tracer = Tracer()
        installed = install(tracer)

    calib_s = [kernel_seconds()]
    codes, command_s = [], []
    for command in commands:
        t0 = time.perf_counter()
        codes.append(risknet.cli.cli_main(command))
        command_s.append(time.perf_counter() - t0)
        if codes[-1] != 0:
            break
    calib_s.append(kernel_seconds())

    if tracer is not None:
        tracer.dump(work / "trace.json")
    _write_json(work / "report.json", {
        "setup_s": setup_s,
        "wall_s": sum(command_s),
        "command_s": command_s,
        "calib_s": calib_s,
        "exit_codes": codes,
        "commands": len(commands),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "installed": installed,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    })
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
