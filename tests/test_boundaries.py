"""One table for the input rules that ``risknet.model`` owns: every public
count rejects a non-integer and a value below its minimum with the same
two messages, and every pin map accepts only the integers 0 and 1."""

import json
import re

import numpy as np
import pytest

from risknet.cascade import SimConfig, monte_carlo_mean
from risknet.control import riccati_schedule, run_proactive, run_reactive
from risknet.errors import ValidationError
from risknet.experiments import ExperimentPlan
from risknet.model import (DriverSet, binary_state, build_network, continuous_state, identity_costs,
                           pin_arrays)
from risknet.netio import plan_from_dict

NET = build_network(["a", "b"], [0.1, 0.1], [0.2, 0.2], [0.5, 0.5], [[0, 1], [1, 0]])
DRIVER = DriverSet((0,), 2)
COSTS = identity_costs(2)


def plan(**fields):
    return ExperimentPlan(**({"driver_size": 1, "num_sets": 1, "seed": 0} | fields))


#: entry point -> (call taking the count's value, name, minimum)
COUNTS = {
    "SimConfig.steps": (lambda v: SimConfig(steps=v, seed=0), "steps", 1),
    "SimConfig.seed": (lambda v: SimConfig(steps=1, seed=v), "seed", 0),
    "monte_carlo_mean": (
        lambda v: monte_carlo_mean(NET, binary_state([0, 0]), SimConfig(steps=1, seed=0), v),
        "trials", 1,
    ),
    "riccati_schedule": (lambda v: riccati_schedule(0.5 * np.eye(2), DRIVER, COSTS, v), "horizon", 1),
    "run_reactive": (
        lambda v: run_reactive(NET, DRIVER, COSTS, continuous_state([0.5, 0.5]), v), "steps", 1,
    ),
    "run_proactive": (lambda v: run_proactive(NET, DRIVER, COSTS, v), "steps", 1),
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
}


@pytest.mark.parametrize("entry", PIN_ENTRIES)
@pytest.mark.parametrize("value", [True, 1.0, 2])
def test_pin_value_rule(entry, value):
    with pytest.raises(ValidationError, match="^pinned value for node 0 must be 0 or 1$"):
        PIN_ENTRIES[entry]({0: value})
    PIN_ENTRIES[entry]({0: 1})


@pytest.mark.parametrize("entry", ["SimConfig", "ExperimentPlan", "pin_arrays"])
def test_pin_index_rule(entry):
    with pytest.raises(ValidationError, match=re.escape("pinned index must be an integer, got 1.5")):
        PIN_ENTRIES[entry]({1.5: 1})
