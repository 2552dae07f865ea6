"""One table for the input rules that ``risknet.model`` owns: every public
count rejects a non-integer and a value below its minimum with the same
two messages, and every pin map accepts only the integers 0 and 1.  One
more for the order of the control entry points: bad input that the whole
call shares fails before the first steady-state solve."""

import json
import re

import numpy as np
import pytest

from risknet import control, experiments
from risknet.cascade import EventLog, SimConfig, monte_carlo_mean
from risknet.control import (GainSchedule, riccati_schedule, rollout_feedback, run_proactive,
                             run_reactive)
from risknet.dynamics import find_steady_state
from risknet.errors import DimensionMismatch, NoConvergence, StratumInfeasible, ValidationError
from risknet.estimation import count_transitions
from risknet.experiments import ExperimentPlan, run_experiment
from risknet.model import (DriverSet, binary_state, build_network, continuous_state, identity_costs,
                           pin_arrays)
from risknet.netio import generate_synthetic, plan_from_dict

NET = build_network(["a", "b"], [0.1, 0.1], [0.2, 0.2], [0.5, 0.5], [[0, 1], [1, 0]])
#: x = 0 is a fixed point: the solver stops after one iteration
QUIET = build_network(["a", "b"], [0.0, 0.0], [0.2, 0.2], [0.5, 0.5], [[0, 1], [1, 0]])
DRIVER = DriverSet((0,), 2)
COSTS = identity_costs(2)
#: both columns active from row 1 on: the log honours the pin {0: 1}
ACTIVE_LOG = EventLog(np.ones((2, 2)))


def plan(**fields):
    return ExperimentPlan(**({"driver_size": 1, "seed": 0} | fields))


#: entry point -> (call taking the count's value, name, minimum)
COUNTS = {
    "SimConfig.steps": (lambda v: SimConfig(steps=v, seed=0), "steps", 1),
    "SimConfig.seed": (lambda v: SimConfig(steps=1, seed=v), "seed", 0),
    "monte_carlo_mean": (
        lambda v: monte_carlo_mean(NET, binary_state([0, 0]), SimConfig(steps=1, seed=0), v),
        "trials", 1,
    ),
    "DriverSet.n": (lambda v: DriverSet((0,), v), "n", 1),
    "riccati_schedule": (lambda v: riccati_schedule(0.5 * np.eye(2), DRIVER, COSTS, v), "horizon", 1),
    "run_reactive": (
        lambda v: run_reactive(NET, DRIVER, COSTS, continuous_state([0.5, 0.5]), v), "steps", 1,
    ),
    "run_proactive": (lambda v: run_proactive(NET, DRIVER, COSTS, v), "steps", 1),
    "find_steady_state": (lambda v: find_steady_state(QUIET, max_iter=v), "max_iter", 1),
    "generate_synthetic.n": (lambda v: generate_synthetic(v, 1.0, 0.0), "n", 2),
    "generate_synthetic.seed": (lambda v: generate_synthetic(2, 1.0, 0.0, seed=v), "seed", 0),
    "plan.driver_size": (lambda v: plan(driver_size=v), "driver_size", 1),
    "plan.seed": (lambda v: plan(seed=v), "seed", 0),
    "plan.num_sets": (lambda v: plan(num_sets=v), "num_sets", 1),
    "plan.steps_reactive": (lambda v: plan(steps_reactive=v), "steps_reactive", 1),
    "plan.steps_proactive": (
        lambda v: plan(phase="proactive", steps_proactive=v), "steps_proactive", 1,
    ),
    "plan.stratum_value": (
        lambda v: plan(stratify_by="steady_peak", groups=((v, 1),)), "stratum value", 0,
    ),
    "plan.stratum_count": (
        lambda v: plan(stratify_by="steady_peak", groups=((0, v),)), "stratum count", 1,
    ),
}


@pytest.mark.parametrize("entry", COUNTS)
def test_count_rule(entry):
    call, name, minimum = COUNTS[entry]
    with pytest.raises(ValidationError, match=f"^{name} must be an integer, got 1.5$"):
        call(1.5)
    with pytest.raises(ValidationError, match=f"^{name} must be >= {minimum}, got {minimum - 1}$"):
        call(minimum - 1)
    call(minimum)


def json_plan(pinned):
    doc = {"schema_version": 1, "driver_size": 1, "seed": 0, "pinned": {"a": pinned[0]}}
    return plan_from_dict(json.loads(json.dumps(doc)), NET)


PIN_ENTRIES = {
    "SimConfig": lambda pinned: SimConfig(steps=1, seed=0, pinned=pinned),
    "ExperimentPlan": lambda pinned: plan(pinned=pinned),
    "pin_arrays": lambda pinned: pin_arrays(pinned, 2),
    "json plan": json_plan,
    "count_transitions": lambda pinned: count_transitions(NET, ACTIVE_LOG, pinned),
}


@pytest.mark.parametrize("entry", PIN_ENTRIES)
@pytest.mark.parametrize("value", [True, 1.0, 2])
def test_pin_value_rule(entry, value):
    with pytest.raises(ValidationError, match="^pinned value for node 0 must be 0 or 1$"):
        PIN_ENTRIES[entry]({0: value})
    PIN_ENTRIES[entry]({0: 1})


@pytest.mark.parametrize("entry",
                         ["SimConfig", "ExperimentPlan", "pin_arrays", "count_transitions"])
def test_pin_index_rule(entry):
    with pytest.raises(ValidationError, match=re.escape("pinned index must be an integer, got 1.5")):
        PIN_ENTRIES[entry]({1.5: 1})


def not_a_map(kind):
    return f"pinned must be a map of node index to 0 or 1, got {kind}"


#: entry point -> (call with a pin map that is not a mapping, message)
NOT_A_MAP = {
    "SimConfig": (lambda: SimConfig(steps=1, seed=0, pinned=[0]), not_a_map("list")),
    "SimConfig.None": (lambda: SimConfig(steps=1, seed=0, pinned=None), not_a_map("NoneType")),
    "ExperimentPlan": (lambda: plan(pinned=[0]), not_a_map("list")),
    "pin_arrays": (lambda: pin_arrays(set(), 2), not_a_map("set")),
    "json plan": (
        lambda: plan_from_dict({"schema_version": 1, "driver_size": 1, "seed": 0, "pinned": ["a"]},
                               NET),
        "plan: pinned must be an object, got a list",
    ),
    "run_reactive": (
        lambda: run_reactive(NET, DRIVER, COSTS, continuous_state([0.5, 0.5]), 3, {1}),
        not_a_map("set"),
    ),
    "count_transitions.set": (lambda: count_transitions(NET, ACTIVE_LOG, {1}), not_a_map("set")),
    "count_transitions.list": (lambda: count_transitions(NET, ACTIVE_LOG, [1]), not_a_map("list")),
}


@pytest.mark.parametrize("entry", NOT_A_MAP)
def test_pin_map_rule(entry):
    call, message = NOT_A_MAP[entry]
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


#: node a flips every step and drives b: the undamped solve never converges
OSCILLATOR = build_network(["a", "b"], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [[0, 1], [0, 0]])
INIT = continuous_state([0.5, 0.5])
SCHEDULE = GainSchedule(np.zeros((1, 1, 2)), np.zeros(3, dtype=int), np.eye(2))
WRONG_SIZE = "driver set sized for a different network"
WRONG_INIT = "init must be a continuous state of 2 entries"
WRONG_COSTS = "cost matrices sized for a different network"
WRONG_PIN = "pinned index 2 out of range for 2 nodes"
DRIVEN_PIN = "pinned nodes cannot be driven: [0]"


def sweep(init=None, costs=COSTS, **fields):
    return run_experiment(plan(**fields), OSCILLATOR, init, costs)


#: (entry point, bad input) -> (call, error type, message)
WHOLE_CALL = {
    ("run_reactive", "steps"): (
        lambda: run_reactive(OSCILLATOR, DRIVER, COSTS, INIT, 0), ValidationError,
        "steps must be >= 1, got 0",
    ),
    ("run_reactive", "driver"): (
        lambda: run_reactive(OSCILLATOR, DriverSet((0,), 5), COSTS, INIT, 3), ValidationError,
        WRONG_SIZE,
    ),
    ("run_reactive", "init"): (
        lambda: run_reactive(OSCILLATOR, DRIVER, COSTS, binary_state([1, 0]), 3), ValidationError,
        WRONG_INIT,
    ),
    ("run_reactive", "costs"): (
        lambda: run_reactive(OSCILLATOR, DRIVER, identity_costs(3), INIT, 3), DimensionMismatch,
        WRONG_COSTS,
    ),
    ("run_reactive", "pins"): (
        lambda: run_reactive(OSCILLATOR, DRIVER, COSTS, INIT, 3, {2: 1}), ValidationError,
        WRONG_PIN,
    ),
    ("run_reactive", "driven_pin"): (
        lambda: run_reactive(OSCILLATOR, DRIVER, COSTS, INIT, 3, {0: 1}), ValidationError,
        DRIVEN_PIN,
    ),
    ("run_proactive", "steps"): (
        lambda: run_proactive(OSCILLATOR, DRIVER, COSTS, 0), ValidationError,
        "steps must be >= 1, got 0",
    ),
    ("run_proactive", "driver"): (
        lambda: run_proactive(OSCILLATOR, DriverSet((0,), 5), COSTS, 3), ValidationError,
        WRONG_SIZE,
    ),
    ("run_proactive", "costs"): (
        lambda: run_proactive(OSCILLATOR, DRIVER, identity_costs(3), 3), DimensionMismatch,
        WRONG_COSTS,
    ),
    ("rollout_feedback", "driver"): (
        lambda: rollout_feedback(OSCILLATOR, DriverSet((0,), 5), COSTS, INIT, SCHEDULE),
        ValidationError, WRONG_SIZE,
    ),
    ("rollout_feedback", "init"): (
        lambda: rollout_feedback(OSCILLATOR, DRIVER, COSTS, binary_state([1, 0]), SCHEDULE),
        ValidationError, WRONG_INIT,
    ),
    ("rollout_feedback", "costs"): (
        lambda: rollout_feedback(OSCILLATOR, DRIVER, identity_costs(3), INIT, SCHEDULE),
        DimensionMismatch, WRONG_COSTS,
    ),
    ("rollout_feedback", "pins"): (
        lambda: rollout_feedback(OSCILLATOR, DRIVER, COSTS, INIT, SCHEDULE, {2: 1}),
        ValidationError, WRONG_PIN,
    ),
    ("rollout_feedback", "driven_pin"): (
        lambda: rollout_feedback(OSCILLATOR, DRIVER, COSTS, INIT, SCHEDULE, {0: 1}),
        ValidationError, DRIVEN_PIN,
    ),
    ("run_experiment", "init"): (
        lambda: sweep(init=binary_state([1, 0])), ValidationError, WRONG_INIT,
    ),
    ("run_experiment", "costs"): (
        lambda: sweep(costs=identity_costs(3)), DimensionMismatch, WRONG_COSTS,
    ),
    ("run_experiment", "pins"): (
        lambda: sweep(pinned={2: 1}), ValidationError, WRONG_PIN,
    ),
    ("run_experiment", "driver"): (
        lambda: sweep(baseline_sets={"far": (4,)}), ValidationError,
        "driver indices (4,) out of range for 2 nodes",
    ),
    ("run_experiment", "repeated_baseline"): (
        lambda: sweep(driver_size=2, baseline_sets={"twice": (1, 1)}), ValidationError,
        "baseline set 'twice' index 1 is repeated",
    ),
    ("run_experiment", "driver_size"): (
        lambda: sweep(driver_size=3), ValidationError,
        "driver_size 3 exceeds the 2 non-pinned nodes",
    ),
    # a count that the given init cannot meet depends on no steady state
    ("run_experiment", "stratum"): (
        lambda: sweep(init=continuous_state([0.0, 0.0]), stratify_by="initially_active",
                      groups=((1, 2),)),
        StratumInfeasible, "stratum 1: needs 1 of 0 in-class and 0 of 2 out-of-class candidates",
    ),
}


@pytest.fixture
def solves(monkeypatch):
    """The networks handed to a steady-state solve capped at 100
    iterations, which the oscillator never meets."""
    calls = []

    def capped(net):
        calls.append(net)
        return find_steady_state(net, max_iter=100)

    for module in (control, experiments):
        monkeypatch.setattr(module, "find_steady_state", capped)
    return calls


@pytest.mark.parametrize("case", WHOLE_CALL, ids="-".join)
def test_whole_call_input_fails_before_the_first_solve(case, solves):
    call, error, message = WHOLE_CALL[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
    assert solves == []


@pytest.mark.parametrize("call", [
    lambda: run_reactive(OSCILLATOR, DRIVER, COSTS, INIT, 3),
    lambda: sweep(),
])
def test_valid_input_reaches_the_solve(call, solves):
    with pytest.raises(NoConvergence):
        call()
    assert solves == [OSCILLATOR]
