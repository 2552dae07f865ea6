"""Lockstep blocks give every driver set the bits it gets on its own.

A sweep evaluates runs of consecutive driver sets of one size together
(``experiments._blocks``).  Each set's gains, trajectory, costs and error
must be byte for byte those of evaluating the set alone, as the public
one-set functions do, and those of the step-by-step oracles in ``helpers``
(``reference_schedule``, ``reference_rollout``).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from risknet import control, experiments
from risknet.control import (
    _feedback_block,
    _gain_window,
    _prepare,
    _proactive_block,
    _reactive_block,
    _riccati_block,
    riccati_schedule,
    rollout_feedback,
    run_proactive,
    run_reactive,
)
from risknet.dynamics import LinearizedSystem, find_steady_state, jacobian, linearize
from risknet.errors import RiskNetError
from risknet.experiments import ExperimentPlan, _blocks, run_experiment
from risknet.model import (
    CostMatrices,
    DriverSet,
    build_network,
    continuous_state,
    identity_costs,
    zeros_state,
)
from risknet.netio import generate_synthetic
from helpers import (
    contractive_network,
    interior_state,
    random_linear_instance,
    reference_rollout,
    reference_schedule,
    saturating_net,
)

POLICY_MIX = (3, 8, 11, 17, 22, 29, 35)
PINNED = "ValidationError: pinned nodes cannot be driven: [0]"
SINGULAR = (
    "SingularInnerMatrix: signal-cost block plus value quadratic is numerically "
    "singular; check the conditioning of R"
)
SATURATED = "SaturatedPoint: update map saturates at node 4 (raw value 1.85)"
NON_FINITE = "ValidationError: rollout produced a non-finite state; check the gains"
COSTS_SIZE = "DimensionMismatch: cost matrices sized for a different network"
COSTS_WIDTH = "DimensionMismatch: state/signal width does not match cost matrices"


def criterion_7_net():
    return generate_synthetic(40, 18.27, 4.60, seed=1)


def outcome_bytes(out):
    """A phase outcome, exactly: costs by ``repr`` (keeps -0.0 and nan)."""
    return (
        repr(out.state_cost), repr(out.control_cost), repr(out.total_cost),
        out.saturation_count, out.error,
    )


def assert_sweep_equals_per_set(plan, net, costs, init=None):
    """``run_experiment``'s outcomes equal those of evaluating each entry
    as a block of one set; returns the result."""
    result = run_experiment(plan, net, init, costs)
    x_s = experiments.find_steady_state(net)
    init = x_s if init is None else init
    prep = _prepare(net, costs, plan.pinned, x_s)
    for ev in result.evaluations:
        driver = DriverSet(ev.indices, net.n)
        for phase in plan.phases:
            (alone,) = experiments._evaluate_block(phase, prep, [driver], init, plan)
            assert outcome_bytes(ev.outcomes[phase]) == outcome_bytes(alone), (ev.label, phase)
    return result


def run_bytes(run):
    if isinstance(run, RiskNetError):
        return f"{type(run).__name__}: {run}"
    return (
        run.states.shape, run.states.tobytes(), run.signals.shape, run.signals.tobytes(),
        repr(run.state_cost), repr(run.control_cost), repr(run.total_cost),
        run.saturation_count,
    )


def one_set(fn, *args, **kwargs):
    """``fn``'s run, or its error as the sweep records it."""
    try:
        return fn(*args, **kwargs)
    except RiskNetError as exc:
        return exc


def assert_same_schedule(got, want):
    """Equal gains and P(0) bit for bit, and the same gain window."""
    assert len(got.K) == len(want.K)
    for a, b in zip(got.K, want.K):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert got.P0.shape == want.P0.shape and got.P0.tobytes() == want.P0.tobytes()
    assert _gain_window(got.K) == _gain_window(want.K)


def assert_matches_oracles(net, driver, costs, x0, steps, pinned, run, sys):
    """``run`` is the full recursion's gains on the linear system ``sys``
    stepped by ``helpers.reference_rollout``, byte for byte."""
    K, _ = reference_schedule(sys, driver, costs, steps)
    states, signals, saturation = reference_rollout(
        net, driver, x0, steps, lambda k, x: -K[k] @ x, pinned
    )
    assert run.states.tobytes() == states.tobytes()
    assert run.signals.tobytes() == signals.tobytes()
    assert run.saturation_count == saturation


class TestCriterion7:
    def test_every_set_both_phases_equals_per_set(self):
        # the 767 sampled sets and the baseline of acceptance criterion 7,
        # reactive with the pin and proactive: 96 blocks of 8 and 10 of 80
        net = criterion_7_net()
        plan = ExperimentPlan(
            driver_size=7, num_sets=767, seed=2017, pinned={0: 1}, phase="both",
            steps_reactive=500, baseline_sets={"policy_mix": POLICY_MIX},
        )
        result = assert_sweep_equals_per_set(plan, net, identity_costs(net.n))
        assert len(result.evaluations) == 768
        assert all(not out.error for ev in result.evaluations for out in ev.outcomes.values())

    def test_first_block_matches_oracles(self):
        net = criterion_7_net()
        x_s = find_steady_state(net)
        costs = identity_costs(net.n)
        prep = _prepare(net, costs, {0: 1}, x_s)
        plan = ExperimentPlan(driver_size=7, num_sets=8, seed=2017, pinned={0: 1})
        drivers = experiments.sample_driver_sets(plan, net, x_s, x_s)
        runs = _reactive_block(prep, drivers, x_s, 500)
        for driver, run in zip(drivers, runs):
            assert_matches_oracles(
                net, driver, costs, x_s.values, 500, {0: 1}, run, prep.linear
            )


class TestBlockBoundaries:
    """Block sizes come from one byte budget: 8 sets of 500 steps or 80 of
    50 on 40 nodes.  Runs one short of, at and one past the budget, closed by
    a baseline of another size, equal their per-set outcomes."""

    @pytest.mark.parametrize("phase, steps, budget", [
        ("reactive", 500, 8),
        ("proactive", 50, 80),
    ])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_budget_edges(self, phase, steps, budget, extra):
        net = criterion_7_net()
        sets = budget + extra
        plan = ExperimentPlan(
            driver_size=7, num_sets=sets, seed=3, pinned={0: 1}, phase=phase,
            steps_reactive=steps, steps_proactive=steps,
            baseline_sets={"pair": (5, 9), "policy_mix": POLICY_MIX},
        )
        drivers = [DriverSet(ev.indices, net.n) for ev in assert_sweep_equals_per_set(
            plan, net, identity_costs(net.n)
        ).evaluations]
        # samples, then the baselines by name: "pair" (2 nodes) ends the run
        # of 7-node sets and "policy_mix" starts a new one
        sizes = [len(block) for block in _blocks(drivers, steps, net.n)]
        if sets <= budget:
            assert sizes == [sets, 1, 1]
        else:
            assert sizes == [budget, sets - budget, 1, 1]

    def test_block_size_floor_is_one_set(self):
        drivers = [DriverSet((0,), 40)] * 3
        assert [len(b) for b in _blocks(drivers, 10**6, 40)] == [1, 1, 1]


def special_net():
    """Six live nodes and two dead ones (6, 7): no probabilities and no
    out-edges, so the value matrix stays 0 on them."""
    base = contractive_network(np.random.default_rng(4), 6)
    n = 8
    E = np.zeros((n, n))
    E[:6, :6] = base.E
    E[0, 6] = E[1, 7] = 1.0
    z = np.zeros(2)
    return build_network(
        [f"n{i}" for i in range(n)],
        np.r_[base.p_int, z], np.r_[base.p_ext, z], np.r_[base.p_con, z], E,
    )


def singular_costs():
    """No state cost on the dead nodes, and an R whose dead-node block is
    positive definite by its eigenvalues but fails Cholesky: any set driving
    both dead nodes has a singular gain equation at its first step."""
    q = np.diag([1.0] * 6 + [0.0, 0.0])
    R = np.eye(8)
    R[6:, 6:] = [[2.72936590562509, 0.6125947561513535],
                 [0.6125947561513535, 0.13749432954032229]]
    return CostMatrices(Q_f=q, Q=q, R=R)


class TestFailuresStayPerSet:
    def test_pinned_and_singular_sets_inside_one_block(self):
        net = special_net()
        costs = singular_costs()
        drivers = [DriverSet(d, 8) for d in
                   [(1, 3, 5), (0, 2, 4), (2, 6, 7), (3, 4, 5), (1, 6, 7), (2, 3, 6)]]
        x_s = find_steady_state(net)
        prep = _prepare(net, costs, {0: 1}, x_s)
        runs = _reactive_block(prep, drivers, x_s, 300)
        alone = [one_set(run_reactive, net, d, costs, x_s, 300, {0: 1}) for d in drivers]
        assert [run_bytes(r) for r in runs] == [run_bytes(r) for r in alone]
        assert [run_bytes(runs[i]) for i in (1, 2, 4)] == [PINNED, SINGULAR, SINGULAR]
        for i in (0, 3, 5):
            assert_matches_oracles(
                net, drivers[i], costs, x_s.values, 300, {0: 1}, runs[i], prep.linear
            )

    def test_sweep_records_one_set_errors(self):
        net = special_net()
        plan = ExperimentPlan(
            driver_size=3, num_sets=6, seed=11, pinned={0: 1}, phase="both",
            steps_reactive=120, steps_proactive=30,
            baseline_sets={"dead": (2, 6, 7), "pinned": (0, 1, 2)},
        )
        result = assert_sweep_equals_per_set(plan, net, singular_costs())
        errors = {ev.label: ev.outcomes["reactive"].error for ev in result.evaluations}
        assert errors["dead"] == SINGULAR and errors["pinned"] == PINNED
        assert all(not ev.outcomes["proactive"].error for ev in result.evaluations)

    def test_saturated_point_in_one_block(self, monkeypatch):
        # as in TestSaturatedSteadyState: the sweep is handed a point where
        # node c's raw update is 1.85, so no reactive set has gains
        net = saturating_net()
        point = continuous_state(np.array([1.0, 1.0, 1.0, 0.0, 0.0]))
        monkeypatch.setattr(experiments, "find_steady_state", lambda net: point)
        plan = ExperimentPlan(
            driver_size=2, num_sets=5, seed=5, phase="both", pinned={0: 1},
            steps_reactive=20, steps_proactive=5,
            baseline_sets={"free": (1, 2), "pinned": (0, 1)},
        )
        result = assert_sweep_equals_per_set(plan, net, identity_costs(net.n))
        assert len(list(_blocks([DriverSet(ev.indices, 5) for ev in result.evaluations],
                                20, 5))) == 1
        for ev in result.evaluations:
            want = PINNED if ev.label == "pinned" else SATURATED
            assert ev.outcomes["reactive"].error == want
            assert ev.outcomes["proactive"].error == ""

    def test_singular_at_a_later_step(self):
        # Q_f charges the dead nodes and Q does not: P(k) is 0 on them from
        # the second step on, where sets driving both fail and the rest of
        # the block steps on
        net = special_net()
        bad = singular_costs()
        costs = CostMatrices(Q_f=np.eye(8), Q=bad.Q, R=bad.R)
        drivers = [DriverSet(d, 8) for d in [(1, 6), (6, 7), (2, 3), (5, 6)]]
        x_s = find_steady_state(net)
        prep = _prepare(net, costs, None, x_s)
        for horizon, errors in ((1, ["", "", "", ""]), (40, ["", SINGULAR, "", ""])):
            runs = _reactive_block(prep, drivers, x_s, horizon)
            alone = [one_set(run_reactive, net, d, costs, x_s, horizon) for d in drivers]
            assert [run_bytes(r) for r in runs] == [run_bytes(r) for r in alone]
            assert [r if isinstance(r, str) else "" for r in map(run_bytes, runs)] == errors

    def test_nan_gain_fails_only_its_set(self):
        net = special_net()
        costs = identity_costs(8)
        x_s = find_steady_state(net)
        prep = _prepare(net, costs, {0: 1}, x_s)
        D = np.array([(1, 2), (3, 4), (2, 5)])
        schedules = [riccati_schedule(prep.linear, DriverSet(d, 8), costs, 60) for d in D]
        gains = [s.K for s in schedules]
        gains[1] = (np.full((2, 8), np.nan),) + gains[1][1:]
        runs = _feedback_block(prep, D, x_s.values, gains)
        assert run_bytes(runs[1]) == NON_FINITE
        for i in (0, 2):
            alone = rollout_feedback(net, DriverSet(D[i], 8), costs, x_s, schedules[i], {0: 1})
            assert run_bytes(runs[i]) == run_bytes(alone)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("spoil, step", [("nan", 39), ("huge", 38)])
    def test_non_finite_gain_equation(self, monkeypatch, spoil, step):
        # numpy's Cholesky returns NaN for a non-finite matrix instead of
        # raising; the gain equation is checked before it
        net = special_net()
        costs = identity_costs(8)
        x_s = find_steady_state(net)

        def spoiled(net, x):
            A = jacobian(net, x)
            if spoil == "nan":
                A[3, 0] = np.nan
            else:
                A = 1e200 * np.eye(8)
            return LinearizedSystem(A=A, x_lin=x)

        monkeypatch.setattr(control, "linearize", spoiled)
        drivers = [DriverSet(d, 8) for d in [(1, 3), (2, 5), (3, 4)]]
        runs = _reactive_block(_prepare(net, costs, None, x_s), drivers, x_s, 40)
        alone = [one_set(run_reactive, net, d, costs, x_s, 40) for d in drivers]
        assert [run_bytes(r) for r in runs] == [run_bytes(r) for r in alone]
        want = f"SingularInnerMatrix: gain equation is not finite at step {step}"
        assert [run_bytes(r) for r in runs] == [want] * 3


class TestErrorPrecedence:
    """A reactive set reports the first of its errors: a pin on a driven
    node, then a saturated steady state, then costs of another size.  A
    proactive set has no pins and no linearization and reports the width
    of its costs."""

    PLAN = ExperimentPlan(
        driver_size=2, num_sets=5, seed=5, phase="both", pinned={0: 1},
        steps_reactive=20, steps_proactive=5,
        baseline_sets={"free": (1, 2), "pinned": (0, 1)},
    )

    def assert_errors(self, net, reactive):
        result = assert_sweep_equals_per_set(self.PLAN, net, identity_costs(net.n + 1))
        for ev in result.evaluations:
            want = PINNED if ev.label == "pinned" else reactive
            assert ev.outcomes["reactive"].error == want
            assert ev.outcomes["proactive"].error == COSTS_WIDTH

    def test_costs_of_another_size(self):
        self.assert_errors(saturating_net(), COSTS_SIZE)

    def test_saturated_point_before_costs(self, monkeypatch):
        point = continuous_state(np.array([1.0, 1.0, 1.0, 0.0, 0.0]))
        monkeypatch.setattr(experiments, "find_steady_state", lambda net: point)
        self.assert_errors(saturating_net(), SATURATED)


class TestRiccatiBlock:
    def test_asymmetric_terminal_cost(self):
        # Q_f symmetric only to 1e-12: the driver columns must be gathered
        # as columns, not as the transpose of the rows
        net = criterion_7_net()
        x_s = find_steady_state(net)
        sys = linearize(net, x_s)
        rng = np.random.default_rng(7)
        Q_f = np.eye(40) + 1e-12 * rng.uniform(-1.0, 1.0, size=(40, 40))
        costs = CostMatrices(Q_f=Q_f, Q=np.eye(40), R=np.eye(40))
        assert not np.array_equal(costs.Q_f, costs.Q_f.T)
        plan = ExperimentPlan(driver_size=7, num_sets=6, seed=2017, pinned={0: 1})
        drivers = experiments.sample_driver_sets(plan, net, x_s, x_s) + [DriverSet(POLICY_MIX, 40)]
        D = np.array([d.indices for d in drivers])
        for horizon in (1, 2, 90, 500):
            block = _riccati_block(sys.A, D, costs, horizon)
            for driver, sched in zip(drivers, block):
                assert_same_schedule(sched, riccati_schedule(sys, driver, costs, horizon))
                K, P0 = reference_schedule(sys, driver, costs, horizon)
                assert [k.tobytes() for k in sched.K] == [k.tobytes() for k in K]
                assert sched.P0.tobytes() == P0.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        sets=st.integers(1, 12),
        radius=st.floats(0.05, 0.95),
        horizon=st.integers(1, 200),
    )
    def test_random_stable_instances(self, seed, n, sets, radius, horizon):
        rng = np.random.default_rng(seed)
        A, driver, costs, _, _ = random_linear_instance(rng, n)
        rho = np.max(np.abs(np.linalg.eigvals(A)))
        if rho > 0:
            A = A * (radius / rho)
        m = driver.size
        D = np.array([np.sort(rng.choice(n, size=m, replace=False)) for _ in range(sets)])
        sys = LinearizedSystem(A=A, x_lin=zeros_state(n))
        for d, sched in zip(D, _riccati_block(A, D, costs, horizon)):
            assert_same_schedule(sched, riccati_schedule(sys, DriverSet(d, n), costs, horizon))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 6),
    sets=st.integers(1, 12),
    horizon=st.integers(1, 200),
    pin=st.booleans(),
)
def test_random_blocks_equal_per_set(seed, n, sets, horizon, pin):
    """Random stable networks: a block of S sets gives each set the bytes of
    its own reactive and proactive runs."""
    rng = np.random.default_rng(seed)
    net = contractive_network(rng, n)
    _, driver, costs, _, _ = random_linear_instance(rng, n)
    m = min(driver.size, n - 1)
    pinned = {int(rng.integers(0, n)): int(rng.integers(0, 2))} if pin else None
    drivers = [DriverSet(tuple(rng.choice(n, size=m, replace=False)), n) for _ in range(sets)]
    x_s = find_steady_state(net)
    init = continuous_state(interior_state(rng, n))
    block = _reactive_block(_prepare(net, costs, pinned, x_s), drivers, init, horizon)
    alone = [one_set(run_reactive, net, d, costs, init, horizon, pinned) for d in drivers]
    assert [run_bytes(r) for r in block] == [run_bytes(r) for r in alone]
    block = _proactive_block(_prepare(net, costs, None, None), drivers, horizon)
    alone = [run_proactive(net, d, costs, horizon) for d in drivers]
    assert [run_bytes(r) for r in block] == [run_bytes(r) for r in alone]
