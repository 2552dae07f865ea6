"""Command-line surface.

Subcommands: generate, simulate, steady-state, linearize, control, fit,
experiment.  Each flag goes to the subcommands that read it: --output-dir
to all, --seed to generate and simulate, --format to steady-state.  Exit
codes: 0 success, 1 validation error, 2 numerical failure; errors go to
stderr as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import dynamics, netio
from .cascade import ADDITIVE, PRODUCT, SimConfig, run_discrete
from .control import run_proactive, run_reactive
from .dynamics import controllability_rank, find_steady_state, linearize
from .errors import NumericalError, RiskNetError, ValidationError
from .estimation import count_transitions, fit_probabilities
from .experiments import DEFAULT_STEPS, PHASE_PROACTIVE, PHASE_REACTIVE, run_experiment
from .model import (
    DriverSet,
    RiskNetwork,
    binary_state,
    continuous_state,
    degree_stats,
    identity_costs,
)


def _parse_names(net: RiskNetwork, names: list) -> list:
    """Indices of the node ``names``; ValidationError for an unknown name or
    one named twice."""
    indices = []
    for name in names:
        i = net.index_of(name)
        if i in indices:
            raise ValidationError(f"node {name!r} is named twice")
        indices.append(i)
    return indices


def _name_list(spec: str) -> list:
    """The comma-separated names in ``spec``, blanks dropped."""
    return [name.strip() for name in spec.split(",") if name.strip()]


def _initial_actives(net: RiskNetwork, spec: str) -> np.ndarray:
    """0/1 vector with ones at the comma-separated node names in ``spec``."""
    init = np.zeros(net.n)
    init[_parse_names(net, _name_list(spec))] = 1.0
    return init


def _parse_pins(net: RiskNetwork, pins: list) -> dict:
    names, values = [], []
    for item in pins:
        name, _, value = item.partition("=")
        if value not in ("0", "1"):
            raise ValidationError(f"pin {item!r} must be name=0 or name=1")
        names.append(name)
        values.append(int(value))
    return dict(zip(_parse_names(net, names), values))


def _out_dir(args) -> Path:
    out = Path(args.output_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_generate(args) -> int:
    ranges = {}
    for key in ("p_int", "p_ext", "p_con"):
        lo_hi = getattr(args, f"{key}_range")
        if lo_hi is not None:
            ranges[key] = tuple(lo_hi)
    net = netio.generate_synthetic(
        n=args.n,
        target_mean_degree=args.mean_degree,
        target_degree_std=args.degree_std,
        prob_ranges=ranges or None,
        seed=args.seed,
    )
    path = _out_dir(args) / "network.json"
    netio.save_network(path, net)
    mean, std = degree_stats(net)
    print(f"wrote {path} (n={net.n}, mean degree {mean:.2f}, std {std:.2f})")
    return 0


def _cmd_simulate(args) -> int:
    net = netio.load_network(args.network)
    init = _initial_actives(net, args.init_active)
    config = SimConfig(
        steps=args.steps,
        seed=args.seed,
        variant=args.variant,
        pinned=_parse_pins(net, args.pin),
    )
    log = run_discrete(net, binary_state(init), config)
    path = _out_dir(args) / "events.csv"
    netio.write_event_log(path, log, net.names)
    print(f"wrote {path} ({log.steps} steps, {log.n} nodes)")
    return 0


def _cmd_steady_state(args) -> int:
    net = netio.load_network(args.network)
    x_s = find_steady_state(
        net, tol=args.tol, max_iter=args.max_iter, damping=args.damping
    )
    pairs = [(name, float(v)) for name, v in zip(net.names, x_s.values)]
    if args.format == "json":
        doc = dict(pairs)
        print(netio.dump_json(doc), end="")
        if args.output_dir is not None:
            netio.write_json(_out_dir(args) / "steady_state.json", doc)
    else:
        for name, v in pairs:
            print(f"{name},{v:.9g}")
        if args.output_dir is not None:
            netio.write_csv(
                _out_dir(args) / "steady_state.csv", ["node", "steady_state"], pairs
            )
    return 0


def _cmd_linearize(args) -> int:
    net = netio.load_network(args.network)
    driver = DriverSet(tuple(_parse_names(net, _name_list(args.drivers))), net.n)
    A = linearize(net, find_steady_state(net))
    rank = controllability_rank(A, driver)
    out = _out_dir(args)
    netio.write_csv(out / "jacobian.csv", list(net.names), A.tolist())
    doc = {
        "rank": rank,
        "n": net.n,
        "controllable": rank == net.n,
        "drivers": [net.names[i] for i in driver.indices],
    }
    netio.write_json(out / "controllability.json", doc)
    print(f"controllability rank {rank} of {net.n}")
    return 0


def _cmd_control(args) -> int:
    net = netio.load_network(args.network)
    driver = DriverSet(tuple(_parse_names(net, _name_list(args.drivers))), net.n)
    costs = identity_costs(net.n)
    steps = DEFAULT_STEPS[args.phase] if args.steps is None else args.steps
    if args.phase == PHASE_PROACTIVE:
        if args.pin or args.init_active:
            raise ValidationError(
                "--pin and --init-active apply to the reactive phase only; "
                "a proactive run starts inactive and unpinned"
            )
        run = run_proactive(net, driver, costs, steps)
    else:
        pinned = _parse_pins(net, args.pin)
        init = None
        if args.init_active:
            init = continuous_state(_initial_actives(net, args.init_active))
        run = run_reactive(net, driver, costs, init, steps, pinned)
    out = _out_dir(args)
    netio.write_control_run(out, run, net.names)
    print(
        f"{args.phase} run: state cost {run.state_cost:.6g}, "
        f"control cost {run.control_cost:.6g}, total {run.total_cost:.6g}"
    )
    return 0


def _cmd_fit(args) -> int:
    net = netio.load_network(args.network)
    names, log = netio.load_event_log(args.log)
    if list(names) != list(net.names):
        raise ValidationError("event log columns do not match the network's nodes")
    counts = count_transitions(net, log, pinned=_parse_pins(net, args.pin))
    fit = fit_probabilities(counts, smoothing=args.smoothing)
    path = _out_dir(args) / "fitted_params.json"
    netio.write_fitted_params(path, net.names, fit)
    print(f"wrote {path}")
    return 0


def _cmd_experiment(args) -> int:
    net = netio.load_network(args.network)
    plan, costs = netio.load_plan(args.plan, net)
    init = None
    if args.init_active:
        init = continuous_state(_initial_actives(net, args.init_active))
    result = run_experiment(plan, net, init, costs)
    out = _out_dir(args)
    netio.write_experiment_csv(out / "results.csv", result, net.names)
    netio.write_experiment_summary(out / "summary.json", result)
    print(
        f"wrote {out / 'results.csv'} "
        f"({len(result.evaluations)} driver sets x {len(plan.phases)} phase(s))"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risknet",
        description="Risk-network dynamics, estimation, and driver-set control.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("generate", help="generate a synthetic network file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mean-degree", type=float, required=True)
    p.add_argument("--degree-std", type=float, required=True)
    for key in ("p-int", "p-ext", "p-con"):
        p.add_argument(f"--{key}-range", type=float, nargs=2, metavar=("LO", "HI"),
                       default=None)
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("simulate", help="run the discrete cascade, write events.csv")
    p.add_argument("network")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--variant", choices=(PRODUCT, ADDITIVE), default=PRODUCT)
    p.add_argument("--init-active", default="", help="comma-separated node names")
    p.add_argument("--pin", action="append", default=[], metavar="NAME=0|1")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("steady-state", help="print the natural steady state")
    p.add_argument("network")
    p.add_argument("--tol", type=float, default=dynamics.STEADY_STATE_TOL)
    p.add_argument("--max-iter", type=int, default=dynamics.STEADY_STATE_MAX_ITER)
    p.add_argument("--damping", type=float, default=None, help="in (0, 1]")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="stdout and output-file format")
    p.set_defaults(handler=_cmd_steady_state)

    p = sub.add_parser("linearize", help="emit the Jacobian and controllability rank")
    p.add_argument("network")
    p.add_argument("--drivers", required=True, help="comma-separated node names")
    p.set_defaults(handler=_cmd_linearize)

    p = sub.add_parser("control", help="one reactive or proactive control run")
    p.add_argument("network")
    p.add_argument("--drivers", required=True, help="comma-separated node names")
    p.add_argument("--phase", choices=(PHASE_REACTIVE, PHASE_PROACTIVE),
                   default=PHASE_REACTIVE)
    p.add_argument("--steps", type=int, default=None,
                   help=f"default: a plan's {DEFAULT_STEPS[PHASE_REACTIVE]} reactive or "
                        f"{DEFAULT_STEPS[PHASE_PROACTIVE]} proactive steps")
    p.add_argument("--init-active", default="",
                   help="reactive initial actives (default: steady state)")
    p.add_argument("--pin", action="append", default=[], metavar="NAME=0|1")
    p.set_defaults(handler=_cmd_control)

    p = sub.add_parser("fit", help="fit transition probabilities from an event log")
    p.add_argument("log", help="event log CSV")
    p.add_argument("network", help="network file providing the topology")
    p.add_argument("--smoothing", type=float, default=0.0)
    p.add_argument("--pin", action="append", default=[], metavar="NAME=0|1")
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("experiment", help="run a driver-set experiment plan")
    p.add_argument("network")
    p.add_argument("plan")
    p.add_argument("--init-active", default="",
                   help="initial actives (default: steady state)")
    p.set_defaults(handler=_cmd_experiment)

    for p in sub.choices.values():
        p.add_argument("--output-dir", default=None, help="directory for output files")
    return parser


def _emit_error(exc: Exception):
    doc = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(doc), file=sys.stderr)


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; map to the validation exit code
        return 0 if exc.code == 0 else 1
    if getattr(args, "handler", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.handler(args)
    except NumericalError as exc:
        _emit_error(exc)
        return 2
    except (RiskNetError, OSError, UnicodeDecodeError) as exc:
        _emit_error(exc)
        return 1


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
