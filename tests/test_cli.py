import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import risknet
from risknet.cli import cli_main
from risknet.netio import (
    generate_synthetic,
    load_event_log,
    load_matrix_csv,
    load_network,
    save_network,
)
from risknet.model import build_network


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


def test_steady_state_no_convergence_exit_two(tmp_path, capsys):
    net = build_network(["osc"], [1.0], [0.0], [0.0], [[0]])
    path = tmp_path / "osc.json"
    save_network(path, net)
    assert cli_main(["steady-state", str(path), "--max-iter", "100"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NoConvergence"


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
