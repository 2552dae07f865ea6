import csv
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import risknet
from risknet.cli import cli_main
from risknet.control import run_reactive
from risknet.dynamics import find_steady_state
from risknet.experiments import run_experiment
from risknet.netio import (
    generate_synthetic,
    load_event_log,
    load_network,
    load_plan,
    save_network,
    write_control_run,
    write_experiment_csv,
    write_experiment_summary,
)
from risknet.model import DriverSet, build_network, continuous_state, identity_costs
from helpers import load_matrix_csv


@pytest.fixture
def one_node_net(tmp_path):
    net = build_network(["a"], [0.1], [0.0], [0.7], [[0]])
    path = tmp_path / "one.json"
    save_network(path, net)
    return path


@pytest.fixture
def chain_net(tmp_path):
    net = build_network(
        ["a", "b", "c"],
        [0.05, 0.02, 0.01],
        [0.05, 0.1, 0.05],
        [0.5, 0.5, 0.5],
        [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
    )
    path = tmp_path / "chain.json"
    save_network(path, net)
    return path


def test_unknown_subcommand_exits_one(capsys):
    assert cli_main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_no_subcommand_exits_one(capsys):
    assert cli_main([]) == 1


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0


def test_steady_state_prints_closed_form(one_node_net, capsys):
    assert cli_main(["steady-state", str(one_node_net)]) == 0
    out = capsys.readouterr().out
    assert "0.25" in out


def test_steady_state_json_format(one_node_net, capsys):
    assert cli_main(["steady-state", str(one_node_net), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["a"] == pytest.approx(0.25)


def test_steady_state_json_file_equals_what_it_prints(one_node_net, tmp_path, capsys):
    assert cli_main([
        "steady-state", str(one_node_net), "--format", "json", "--output-dir", str(tmp_path),
    ]) == 0
    assert (tmp_path / "steady_state.json").read_text() == capsys.readouterr().out


def test_steady_state_no_convergence_exit_two(tmp_path, capsys):
    net = build_network(["osc"], [1.0], [0.0], [0.0], [[0]])
    path = tmp_path / "osc.json"
    save_network(path, net)
    assert cli_main(["steady-state", str(path), "--max-iter", "100"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NoConvergence"


@pytest.mark.parametrize("argv, message", [
    (["steady-state", "{net}", "--max-iter", "0"], "max_iter must be >= 1, got 0"),
    (["generate", "--n", "12", "--mean-degree", "5", "--degree-std", "1", "--seed", "-1"],
     "seed must be >= 0, got -1"),
])
def test_count_below_minimum_exit_one(argv, message, one_node_net, tmp_path, capsys):
    argv = [a.replace("{net}", str(one_node_net)) for a in argv]
    assert cli_main(argv + ["--output-dir", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "ValidationError", "message": message}
    assert not (tmp_path / "out").exists()


def test_missing_file_exit_one(capsys):
    assert cli_main(["steady-state", "nowhere.json"]) == 1


def test_generate_then_simulate_then_fit(tmp_path, capsys):
    out = tmp_path / "work"
    assert cli_main([
        "generate", "--n", "12", "--mean-degree", "5", "--degree-std", "1",
        "--seed", "3", "--output-dir", str(out),
    ]) == 0
    net_path = out / "network.json"
    net = load_network(net_path)
    assert net.n == 12

    assert cli_main([
        "simulate", str(net_path), "--steps", "500", "--seed", "4",
        "--init-active", net.names[0], "--output-dir", str(out),
    ]) == 0
    names, log = load_event_log(out / "events.csv")
    assert names == list(net.names)
    assert log.steps == 500
    assert log.states[0, 0] == 1

    assert cli_main([
        "fit", str(out / "events.csv"), str(net_path),
        "--smoothing", "0.5", "--output-dir", str(out),
    ]) == 0
    doc = json.loads((out / "fitted_params.json").read_text())
    assert len(doc["nodes"]) == 12
    assert all(0 <= node["p_con"] <= 1 for node in doc["nodes"])


def test_fit_rejects_mismatched_log(tmp_path, chain_net, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n0,0\n0,1\n")
    assert cli_main(["fit", str(bad), str(chain_net), "--output-dir", str(tmp_path)]) == 1


def test_fit_pin_value_checked_against_the_log(tmp_path, chain_net, capsys):
    # the log holds b at 1 from row 1 on; row 0, the initial state, has b at 0
    assert cli_main(["simulate", str(chain_net), "--steps", "20", "--pin", "b=1",
                     "--output-dir", str(tmp_path)]) == 0
    log = str(tmp_path / "events.csv")
    assert cli_main(["fit", log, str(chain_net), "--pin", "b=1",
                     "--output-dir", str(tmp_path / "held")]) == 0
    capsys.readouterr()
    # the value was ignored, so a pin the log breaks from step 1 on was fitted
    assert cli_main(["fit", log, str(chain_net), "--pin", "b=0",
                     "--output-dir", str(tmp_path / "broken")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert [json.loads(line) for line in lines] == [
        {"error": "ValidationError", "message": "pin b=0 does not hold at step 1"}
    ]
    assert not (tmp_path / "broken" / "fitted_params.json").exists()


def test_linearize_outputs(chain_net, tmp_path, capsys):
    out = tmp_path / "lin"
    assert cli_main([
        "linearize", str(chain_net), "--drivers", "a", "--output-dir", str(out),
    ]) == 0
    doc = json.loads((out / "controllability.json").read_text())
    assert doc["n"] == 3 and 1 <= doc["rank"] <= 3
    assert "rank" in capsys.readouterr().out
    assert (out / "jacobian.csv").exists()


def test_control_reactive_outputs(chain_net, tmp_path, capsys):
    out = tmp_path / "ctl"
    assert cli_main([
        "control", str(chain_net), "--drivers", "a,b", "--steps", "50",
        "--output-dir", str(out),
    ]) == 0
    doc = json.loads((out / "control.json").read_text())
    assert doc["total_cost"] == pytest.approx(
        doc["state_cost"] + doc["control_cost"]
    )
    assert (out / "control_trajectory.csv").exists()
    assert (out / "control_signals.csv").exists()


@pytest.mark.parametrize("extra, pinned, active", [
    (["--pin", "a=1"], {0: 1}, None),
    (["--init-active", "a,c"], None, [1.0, 0.0, 1.0]),
])
def test_control_reactive_files_equal_the_library_run(
    chain_net, tmp_path, capsys, extra, pinned, active
):
    assert cli_main([
        "control", str(chain_net), "--drivers", "b", "--steps", "30",
        "--output-dir", str(tmp_path / "cli"),
    ] + extra) == 0
    net = load_network(chain_net)
    init = find_steady_state(net) if active is None else continuous_state(active)
    run = run_reactive(net, DriverSet((1,), 3), identity_costs(3), init, 30, pinned)
    (tmp_path / "lib").mkdir()
    write_control_run(tmp_path / "lib", run, net.names)
    for name in ("control.json", "control_trajectory.csv", "control_signals.csv"):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()


def test_control_without_init_active_solves_the_steady_state_once(
    chain_net, tmp_path, monkeypatch
):
    # the command solved it for the start state, and run_reactive again
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return find_steady_state(*args, **kwargs)

    for module in (risknet.cli, risknet.control):
        monkeypatch.setattr(module, "find_steady_state", counted)
    assert cli_main([
        "control", str(chain_net), "--drivers", "b", "--steps", "30",
        "--output-dir", str(tmp_path),
    ]) == 0
    assert len(calls) == 1


def test_experiment_init_active_files_equal_the_library_run(chain_net, tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({
        "schema_version": 1, "driver_size": 1, "num_sets": 3, "seed": 2,
        "phase": "both", "steps_reactive": 20, "steps_proactive": 5,
    }))
    assert cli_main([
        "experiment", str(chain_net), str(plan_path), "--init-active", "a",
        "--output-dir", str(tmp_path / "cli"),
    ]) == 0
    net = load_network(chain_net)
    plan, costs = load_plan(plan_path, net)
    result = run_experiment(plan, net, continuous_state([1.0, 0.0, 0.0]), costs)
    write_experiment_csv(tmp_path / "results.csv", result, net.names)
    write_experiment_summary(tmp_path / "summary.json", result)
    for name in ("results.csv", "summary.json"):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / name).read_bytes()


def test_control_proactive_pin_free(chain_net, tmp_path):
    out = tmp_path / "pro"
    assert cli_main([
        "control", str(chain_net), "--drivers", "b", "--phase", "proactive",
        "--steps", "20", "--output-dir", str(out),
    ]) == 0


@pytest.mark.parametrize("phase, steps", [("reactive", 500), ("proactive", 50)])
def test_control_steps_default_to_the_plan_default_of_the_phase(
    chain_net, tmp_path, phase, steps
):
    assert cli_main([
        "control", str(chain_net), "--drivers", "b", "--phase", phase,
        "--output-dir", str(tmp_path),
    ]) == 0
    _, states = load_matrix_csv(tmp_path / "control_trajectory.csv")
    assert states.shape == (steps + 1, 3)


def test_control_bad_pin_value(chain_net, tmp_path, capsys):
    code = cli_main([
        "control", str(chain_net), "--drivers", "b", "--pin", "a=2",
        "--output-dir", str(tmp_path),
    ])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"


@pytest.mark.parametrize("extra", [["--pin", "a=1"], ["--init-active", "a"]])
def test_control_proactive_rejects_reactive_only_flags(chain_net, tmp_path, capsys, extra):
    code = cli_main([
        "control", str(chain_net), "--drivers", "b", "--phase", "proactive",
        "--steps", "5", "--output-dir", str(tmp_path),
    ] + extra)
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"


@pytest.mark.parametrize("command, extra", [
    (["linearize", "{net}", "--drivers", "a"], ["--format", "json"]),
    (["experiment", "{net}", "{plan}"], ["--seed", "1"]),
    (["fit", "{log}", "{net}"], ["--seed", "1"]),
    (["steady-state", "{net}"], ["--seed", "1"]),
])
def test_flag_the_subcommand_would_ignore_is_rejected(
    chain_net, tmp_path, capsys, command, extra
):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "schema_version": 1, "driver_size": 1, "num_sets": 2, "seed": 0,
        "steps_reactive": 5,
    }))
    log = tmp_path / "log.csv"
    log.write_text("a,b,c\n0,0,0\n1,0,0\n")
    argv = [a.format(net=chain_net, plan=plan, log=log) for a in command]
    argv += ["--output-dir", str(tmp_path / "out")]
    assert cli_main(argv) == 0
    capsys.readouterr()
    assert cli_main(argv + extra) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("document, mutate", [
    ("network", lambda d: d["nodes"].__setitem__(0, 1)),
    ("network", lambda d: d["nodes"][0].update(p_int="abc")),
    ("network", lambda d: d["nodes"][0].update(p_int="0.05")),
    ("network", lambda d: d["edges"][0].update(weight="x")),
    ("network", lambda d: d["nodes"][0].update(p_cont=0.9)),
    ("plan", lambda d: d.update(pinned=["a"])),
    ("plan", lambda d: d.update(driver_size="2")),
    ("plan", lambda d: d.update(baseline_sets={"b": "a"})),
    ("plan", lambda d: d.update(costs={"kind": "identity", "q": [5]})),
])
def test_malformed_document_exits_one_with_a_json_line(
    chain_net, tmp_path, capsys, document, mutate
):
    docs = {
        "network": json.loads(chain_net.read_text()),
        "plan": {"schema_version": 1, "driver_size": 1, "num_sets": 2, "seed": 0,
                 "steps_reactive": 5},
    }
    mutate(docs[document])
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    code = cli_main([
        "experiment", str(paths["network"]), str(paths["plan"]),
        "--output-dir", str(tmp_path / "out"),
    ])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "ParseError"


NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position {}: invalid start byte"


@pytest.mark.parametrize("argv, error, message", [
    (["generate", "--n", "10", "--mean-degree", "3", "--degree-std", "1",
      "--p-int-range", "0.5", "0.2"], "ValidationError",
     "p_int range must be a (lo, hi) pair with 0 <= lo <= hi <= 1, got (0.5, 0.2)"),
    # seed 2 draws every p_con below 1, so the range would pass by luck
    (["generate", "--n", "10", "--mean-degree", "3", "--degree-std", "1",
      "--p-con-range", "0.5", "1.0001", "--seed", "2"], "ValidationError",
     "p_con range must be a (lo, hi) pair with 0 <= lo <= hi <= 1, got (0.5, 1.0001)"),
    (["fit", "{bad}", "{net}"], "UnicodeDecodeError", NOT_UTF8.format(7)),
    (["steady-state", "{bad}"], "UnicodeDecodeError", NOT_UTF8.format(7)),
    (["experiment", "{net}", "{bad}"], "UnicodeDecodeError", NOT_UTF8.format(7)),
    (["simulate", "{net}", "--pin", "a=1", "--pin", "a=0"], "ValidationError",
     "node 'a' is pinned twice"),
    (["control", "{net}", "--drivers", "a,a,b"], "ValidationError",
     "driver index 0 is repeated"),
    (["generate", "--n", "40", "--mean-degree", "4", "--degree-std", "nan"], "ValidationError",
     "target_degree_std must be finite and >= 0"),
    (["generate", "--n", "40", "--mean-degree", "4", "--degree-std", "inf"], "ValidationError",
     "target_degree_std must be finite and >= 0"),
], ids=["inverted_range", "range_past_1", "not_utf8_log", "not_utf8_network", "not_utf8_plan",
        "repeated_pin", "repeated_driver", "nan_degree_std", "inf_degree_std"])
def test_input_failure_exits_one_with_a_json_line(chain_net, tmp_path, capsys, argv, error,
                                                  message):
    bad = tmp_path / "bad"
    bad.write_bytes(b"a,b,c\r\n\xff,0,0\r\n")
    argv = [a.format(net=chain_net, bad=bad) for a in argv]
    assert cli_main(argv + ["--output-dir", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": error, "message": message}
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("costs", [
    {"kind": "dense", "q_f": np.eye(3).tolist(), "q": np.diag([1.0, np.inf, 1.0]).tolist(),
     "r": np.eye(3).tolist()},
    {"kind": "diagonal", "q_f": [1.0] * 3, "q": [1.0, np.nan, 1.0], "r": [1.0] * 3},
], ids=["dense_infinity", "diagonal_nan"])
def test_non_finite_cost_exits_one_before_any_solve(chain_net, tmp_path, capsys, costs):
    # Python's json reads NaN and Infinity; the plan fails as one JSON line
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"schema_version": 1, "driver_size": 1, "num_sets": 2, "seed": 0,
                                "steps_reactive": 5, "costs": costs}))
    code = cli_main(["experiment", str(chain_net), str(plan), "--output-dir", str(tmp_path / "out")])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "ValidationError", "message": "Q has a non-finite entry"}
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fields, error, message", [
    ({"costs": {"kind": "diagonal", "q_f": [], "q": [], "r": []}}, "DimensionMismatch",
     "Q_f has shape (0, 0), expected a nonempty square matrix"),
    ({"costs": {"kind": "dense", "q_f": [], "q": [], "r": []}}, "DimensionMismatch",
     "Q_f has shape (0,), expected a nonempty square matrix"),
    ({"stratify_by": "steady_peak", "groups": [[1, 2]], "num_sets": 500}, "ValidationError",
     "num_sets 500 differs from the group total 2 of a stratified plan"),
    ({"steps_proactive": 5}, "ValidationError",
     "steps_proactive is set, but the plan runs no proactive phase"),
    ({"stratify_by": "steady_peak", "groups": [[1, 1], [1, 1]]}, "ValidationError",
     "stratum value 1 is repeated"),
    ({"baseline_sets": {"b": []}}, "ValidationError", "baseline set 'b' is empty"),
], ids=["empty_diagonal_costs", "empty_dense_costs", "stratified_num_sets",
        "steps_of_a_phase_not_run", "repeated_stratum_value", "empty_baseline_set"])
def test_plan_value_that_cannot_run_exits_one_with_a_json_line(
    chain_net, tmp_path, capsys, fields, error, message
):
    # empty costs printed numpy's "zero-size array" traceback; a num_sets or
    # steps value was silently replaced or ignored, a repeated stratum value
    # pooled two groups in one summary entry, and an empty baseline set
    # failed the sweep with a message that did not name it
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"schema_version": 1, "driver_size": 1, "num_sets": 2, "seed": 0,
                                "steps_reactive": 5} | fields))
    code = cli_main(["experiment", str(chain_net), str(plan), "--output-dir", str(tmp_path / "out")])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": error, "message": message}
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_steady_state_rejects_non_finite_tol(one_node_net, capsys, tol):
    assert cli_main(["steady-state", str(one_node_net), "--tol", tol]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"


def test_steady_state_rejects_damping_outside_unit_interval(one_node_net, capsys):
    code = cli_main(["steady-state", str(one_node_net), "--damping", "0",
                     "--max-iter", "100"])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"


def test_experiment_rows_and_byte_identical_reruns(chain_net, tmp_path, capsys):
    plan = {
        "schema_version": 1,
        "driver_size": 2,
        "num_sets": 6,
        "seed": 10,
        "phase": "both",
        "steps_reactive": 20,
        "steps_proactive": 10,
        "baseline_sets": {"pair": ["a", "c"]},
        "costs": {"kind": "identity"},
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert cli_main([
            "experiment", str(chain_net), str(plan_path), "--output-dir", str(out),
        ]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    lines = (out1 / "results.csv").read_text().splitlines()
    assert len(lines) == 1 + (6 + 1) * 2  # header + (sets + baseline) x phases


def test_summary_strata_are_quartiles_of_the_result_rows(tmp_path, capsys):
    net_path = tmp_path / "network.json"
    save_network(net_path, generate_synthetic(12, 5.0, 1.0, seed=3))
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({
        "schema_version": 1, "driver_size": 3, "seed": 4,
        "stratify_by": "steady_peak", "groups": [[0, 3], [1, 4], [2, 5]],
        "phase": "both", "steps_reactive": 40, "steps_proactive": 10,
    }))
    assert cli_main([
        "experiment", str(net_path), str(plan_path), "--output-dir", str(tmp_path),
    ]) == 0
    with open(tmp_path / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    strata = json.loads((tmp_path / "summary.json").read_text())["strata"]
    assert sorted(strata) == ["proactive", "reactive"]
    for phase, by_value in strata.items():
        assert sorted(by_value) == ["0", "1", "2"]
        for value, summary in by_value.items():
            mine = [r for r in rows if r["kind"] == "sample" and r["phase"] == phase
                    and r["stratum"] == value and not r["error"]]
            assert mine
            for cost in ("control_cost", "total_cost"):
                q1, med, q3 = np.percentile([float(r[cost]) for r in mine], [25.0, 50.0, 75.0])
                assert summary[cost] == {"q1": q1, "median": med, "q3": q3}


def test_generate_and_stratified_experiment_load_neither_networkx_nor_numpy_ma(tmp_path):
    # a fresh process: the generator needs no networkx, the strata
    # quartiles no numpy.ma (which np.percentile imports on first call)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({
        "schema_version": 1, "driver_size": 3, "seed": 4,
        "stratify_by": "steady_peak", "groups": [[0, 3], [1, 4], [2, 5]],
        "phase": "proactive", "steps_proactive": 10,
    }))
    script = textwrap.dedent("""
        import sys
        from risknet.cli import cli_main
        out, plan = sys.argv[1:]
        generate = ["generate", "--n", "12", "--mean-degree", "5", "--degree-std", "1",
                    "--seed", "3", "--output-dir", out]
        if cli_main(generate) or cli_main(["experiment", out + "/network.json", plan,
                                           "--output-dir", out]):
            sys.exit(1)
        print(sorted(m for m in ("networkx", "numpy.ma") if m in sys.modules))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(risknet.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path), str(plan_path)],
                          env=env, check=True, capture_output=True, text=True)
    assert done.stdout.splitlines()[-1] == "[]"
    assert json.loads((tmp_path / "summary.json").read_text())["strata"]


def test_experiment_identical_under_optimize(tmp_path):
    # the invariants the sweep relies on (pins, strata, total = state +
    # control) are checked by code, not by assert statements: a pinned,
    # stratified two-phase plan writes the same bytes under python -O
    net_path = tmp_path / "network.json"
    save_network(net_path, generate_synthetic(12, 5.0, 1.0, seed=3))
    names = load_network(net_path).names
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({
        "schema_version": 1,
        "driver_size": 3,
        "seed": 4,
        "pinned": {names[0]: 1},
        "stratify_by": "steady_peak",
        "groups": [[0, 2], [1, 3], [2, 2]],
        "phase": "both",
        "steps_reactive": 60,
        "steps_proactive": 20,
        "baseline_sets": {"pinned": [names[0], names[5]], "free": [names[1], names[2], names[7]]},
    }))
    env = dict(os.environ, PYTHONPATH=str(Path(risknet.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    results = []
    for flags in ([], ["-O"]):
        out = tmp_path / f"out{len(flags)}"
        subprocess.run(
            [sys.executable, *flags, "-m", "risknet.cli", "experiment", str(net_path),
             str(plan_path), "--output-dir", str(out)],
            env=env, check=True, capture_output=True,
        )
        results.append((out / "results.csv").read_bytes())
    assert results[0] == results[1]
    assert b"pinned nodes cannot be driven" in results[0]
