"""Lockstep blocks give every driver set the bits it gets on its own.

A sweep evaluates runs of consecutive driver sets of one size together
(``experiments._blocks``).  Each set's gains, trajectory, costs and error
must be byte for byte those of evaluating the set alone, as the public
one-set functions do, and those of the step-by-step oracles in ``helpers``
(``reference_schedule``, ``reference_rollout``).
"""

import math
import tracemalloc

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
    _same_bits,
    riccati_schedule,
    rollout_feedback,
    run_proactive,
    run_reactive,
)
from risknet.dynamics import find_steady_state, linearize
from risknet.errors import DimensionMismatch, RiskNetError, SaturatedPoint
from risknet.experiments import ExperimentPlan, _blocks, run_experiment
from risknet.model import (
    CostMatrices,
    DriverSet,
    build_network,
    continuous_state,
    identity_costs,
)
from risknet.netio import generate_synthetic
from helpers import (
    contractive_network,
    driver_sets,
    gain_stack,
    index_rows,
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
COSTS_SIZE = "cost matrices sized for a different network"


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
    prep = _prepare(net, costs, plan.pinned).linearized(x_s)
    for ev in result.evaluations:
        for phase in plan.phases:
            (alone,) = experiments._evaluate_block(phase, prep, np.array([ev.indices]), init, plan)
            assert outcome_bytes(ev.outcomes[phase]) == outcome_bytes(alone), (ev.label, phase)
    return result


def forbid_kernels(monkeypatch):
    """Fail the test if any block reaches the gain recursion or the rollout."""
    def kernel(*args):
        raise AssertionError("a driver set was evaluated")

    monkeypatch.setattr(control, "_riccati_block", kernel)
    monkeypatch.setattr(control, "_rollout_block", kernel)


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
    assert len(gain_stack(got)) == len(gain_stack(want))
    for a, b in zip(gain_stack(got), gain_stack(want)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert got.P0.shape == want.P0.shape and got.P0.tobytes() == want.P0.tobytes()
    assert _gain_window(got.index) == _gain_window(want.index)


def assert_matches_oracles(net, driver, costs, x0, steps, pinned, run, A):
    """``run`` is the full recursion's gains on the Jacobian ``A``
    stepped by ``helpers.reference_rollout``, byte for byte."""
    K, _ = reference_schedule(A, driver, costs, steps)
    states, signals, saturation = reference_rollout(
        net, driver, x0, steps, lambda k, x: -K[k] @ x, pinned
    )
    assert run.states.tobytes() == states.tobytes()
    assert run.signals.tobytes() == signals.tobytes()
    assert run.saturation_count == saturation


class TestCriterion7:
    def test_every_set_both_phases_equals_per_set(self):
        # the 767 sampled sets and the baseline of acceptance criterion 7,
        # reactive with the pin and proactive: 34 blocks of 22 and one of 20,
        # then 3 of 219 and one of 111
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
        prep = _prepare(net, costs, {0: 1}).linearized(x_s)
        plan = ExperimentPlan(driver_size=7, num_sets=8, seed=2017, pinned={0: 1})
        D = experiments.sample_driver_sets(plan, net, x_s, x_s)
        runs = _reactive_block(prep, D, x_s, 500)
        drivers = driver_sets(D, net.n)
        for driver, run in zip(drivers, runs):
            assert_matches_oracles(
                net, driver, costs, x_s.values, 500, {0: 1}, run, prep.A
            )


class TestBlockBoundaries:
    """Block sizes come from one byte budget: 22 sets of 500 steps or 219 of
    50 on 40 nodes with 7 drivers.  Runs one short of, at and one past the
    budget, closed by a baseline of another size, equal their per-set
    outcomes."""

    @pytest.mark.parametrize("phase, steps, budget", [
        ("reactive", 500, 22),
        ("proactive", 50, 219),
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
        rows = [ev.indices for ev in assert_sweep_equals_per_set(
            plan, net, identity_costs(net.n)
        ).evaluations]
        # samples, then the baselines by name: "pair" (2 nodes) ends the run
        # of 7-node sets and "policy_mix" starts a new one
        sizes = [len(block) for block in _blocks(rows, steps, net.n)]
        if sets <= budget:
            assert sizes == [sets, 1, 1]
        else:
            assert sizes == [budget, sets - budget, 1, 1]

    def test_block_size_floor_is_one_set(self):
        assert [len(b) for b in _blocks([(0,)] * 3, 10**6, 40)] == [1, 1, 1]


class TestBlockMemory:
    """A benchmark-sized criterion-7 child (20 sampled sets and the
    baseline, 500 reactive steps) is one block, and the block stores only
    the driven signal columns and each computed gain once."""

    #: tracemalloc peak of the sweep in bytes, as measured with numpy 2.4;
    #: the bound adds a 10% margin.  The block's states take 3.4 MB, its
    #: driven signals 0.6 MB, and the one gain array its schedules share
    #: 3.2 MB (1,424 computed gains, 66-74 per set) with a 0.1 MB index;
    #: full-width signals would add 2.8 MB.
    PEAK_MEASURED = 8_276_652
    PEAK_BOUND = PEAK_MEASURED * 11 // 10

    def test_one_block_of_driven_columns(self, monkeypatch):
        net = criterion_7_net()
        plan = ExperimentPlan(
            driver_size=7, num_sets=20, seed=1, pinned={0: 1}, steps_reactive=500,
            baseline_sets={"policy_mix": POLICY_MIX},
        )
        blocks, shapes = [], set()

        def recorded(prep, D, init, steps):
            runs = _reactive_block(prep, D, init, steps)
            blocks.append(len(D))
            shapes.update((run.states.shape, run.driven.shape) for run in runs)
            return runs

        monkeypatch.setattr(experiments, "_reactive_block", recorded)
        tracemalloc.start()
        try:
            result = run_experiment(plan, net, None, identity_costs(net.n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert blocks == [21]
        assert shapes == {((501, 40), (500, 7))}
        assert all(not ev.outcomes["reactive"].error for ev in result.evaluations)
        assert peak < self.PEAK_BOUND, peak

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
        prep = _prepare(net, costs, {0: 1}).linearized(x_s)
        runs = _reactive_block(prep, index_rows(drivers), x_s, 300)
        alone = [one_set(run_reactive, net, d, costs, x_s, 300, {0: 1}) for d in drivers]
        assert [run_bytes(r) for r in runs] == [run_bytes(r) for r in alone]
        assert [run_bytes(runs[i]) for i in (1, 2, 4)] == [PINNED, SINGULAR, SINGULAR]
        for i in (0, 3, 5):
            assert_matches_oracles(
                net, drivers[i], costs, x_s.values, 300, {0: 1}, runs[i], prep.A
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
        # node c's raw update is 1.85, so no reactive set has gains.  That
        # is no result about one set: the sweep raises what a one-set run on
        # the same point raises, and neither reaches a kernel.
        net = saturating_net()
        point = continuous_state(np.array([1.0, 1.0, 1.0, 0.0, 0.0]))
        for module in (experiments, control):
            monkeypatch.setattr(module, "find_steady_state", lambda net: point)
        forbid_kernels(monkeypatch)
        plan = ExperimentPlan(
            driver_size=2, num_sets=5, seed=5, phase="both", pinned={0: 1},
            steps_reactive=20, steps_proactive=5,
            baseline_sets={"free": (1, 2), "pinned": (0, 1)},
        )
        costs = identity_costs(net.n)
        with pytest.raises(SaturatedPoint) as sweep:
            run_experiment(plan, net, None, costs)
        with pytest.raises(SaturatedPoint) as alone:
            run_reactive(net, DriverSet((1, 2), 5), costs, point, 20, {0: 1})
        assert f"SaturatedPoint: {sweep.value}" == f"SaturatedPoint: {alone.value}" == SATURATED

    def test_singular_at_a_later_step(self):
        # Q_f charges the dead nodes and Q does not: P(k) is 0 on them from
        # the second step on, where sets driving both fail and the rest of
        # the block steps on
        net = special_net()
        bad = singular_costs()
        costs = CostMatrices(Q_f=np.eye(8), Q=bad.Q, R=bad.R)
        drivers = [DriverSet(d, 8) for d in [(1, 6), (6, 7), (2, 3), (5, 6)]]
        x_s = find_steady_state(net)
        prep = _prepare(net, costs, None).linearized(x_s)
        for horizon, errors in ((1, ["", "", "", ""]), (40, ["", SINGULAR, "", ""])):
            runs = _reactive_block(prep, index_rows(drivers), x_s, horizon)
            alone = [one_set(run_reactive, net, d, costs, x_s, horizon) for d in drivers]
            assert [run_bytes(r) for r in runs] == [run_bytes(r) for r in alone]
            assert [r if isinstance(r, str) else "" for r in map(run_bytes, runs)] == errors

    def test_nan_gain_fails_only_its_set(self):
        net = special_net()
        costs = identity_costs(8)
        x_s = find_steady_state(net)
        prep = _prepare(net, costs, {0: 1}).linearized(x_s)
        D = np.array([(1, 2), (3, 4), (2, 5)])
        schedules = [riccati_schedule(prep.A, DriverSet(d, 8), costs, 60) for d in D]
        # the three schedules' gains in one array, and a NaN gain as set 1's
        # gain of step 0
        gains = np.concatenate([s.gains for s in schedules] + [np.full((1, 2, 8), np.nan)])
        offsets = np.cumsum([0] + [len(s.gains) for s in schedules[:-1]])
        index = np.array([s.index + o for s, o in zip(schedules, offsets)])
        index[1, 0] = len(gains) - 1
        runs = _feedback_block(prep, D, x_s.values, gains, index)
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
            A = linearize(net, x)
            if spoil == "nan":
                A[3, 0] = np.nan
            else:
                A = 1e200 * np.eye(8)
            return A

        monkeypatch.setattr(control, "linearize", spoiled)
        drivers = [DriverSet(d, 8) for d in [(1, 3), (2, 5), (3, 4)]]
        prep = _prepare(net, costs, None).linearized(x_s)
        runs = _reactive_block(prep, index_rows(drivers), x_s, 40)
        alone = [one_set(run_reactive, net, d, costs, x_s, 40) for d in drivers]
        assert [run_bytes(r) for r in runs] == [run_bytes(r) for r in alone]
        want = f"SingularInnerMatrix: gain equation is not finite at step {step}"
        assert [run_bytes(r) for r in runs] == [want] * 3


class TestErrorPrecedence:
    """Costs of another size are an error of the whole call, in every
    phase: the sweep and each one-set function raise it before the steady
    state is solved, so before a saturated steady state, and no set is
    evaluated.  A pin on a driven node stays an error of its set."""

    PLAN = ExperimentPlan(
        driver_size=2, num_sets=5, seed=5, phase="both", pinned={0: 1},
        steps_reactive=20, steps_proactive=5,
        baseline_sets={"free": (1, 2), "pinned": (0, 1)},
    )

    def assert_raises_before_solving(self, monkeypatch, point):
        solves = []
        for module in (experiments, control):
            monkeypatch.setattr(module, "find_steady_state", lambda net: solves.append(net) or point)
        forbid_kernels(monkeypatch)
        net = saturating_net()
        costs, driver, init = identity_costs(net.n + 1), DriverSet((1, 2), 5), point
        schedule = control.GainSchedule(np.zeros((1, 2, 5)), np.zeros(20, dtype=int), np.eye(5))
        for call in (
            lambda: run_experiment(self.PLAN, net, None, costs),
            lambda: run_reactive(net, driver, costs, init, 20, {0: 1}),
            lambda: run_proactive(net, driver, costs, 5),
            lambda: rollout_feedback(net, driver, costs, init, schedule, {0: 1}),
        ):
            with pytest.raises(DimensionMismatch, match=f"^{COSTS_SIZE}$"):
                call()
        assert solves == []

    def test_costs_of_another_size(self, monkeypatch):
        self.assert_raises_before_solving(monkeypatch, continuous_state(np.full(5, 0.1)))

    def test_costs_before_saturated_point(self, monkeypatch):
        point = continuous_state(np.array([1.0, 1.0, 1.0, 0.0, 0.0]))
        self.assert_raises_before_solving(monkeypatch, point)


class TestRiccatiBlock:
    def test_asymmetric_terminal_cost(self):
        # Q_f symmetric only to 1e-12: the recursion starts from its
        # symmetric part, so every P is symmetric bit for bit and its driver
        # rows serve as its driver columns, in a block and alone
        net = criterion_7_net()
        x_s = find_steady_state(net)
        A = linearize(net, x_s)
        rng = np.random.default_rng(7)
        Q_f = np.eye(40) + 1e-12 * rng.uniform(-1.0, 1.0, size=(40, 40))
        costs = CostMatrices(Q_f=Q_f, Q=np.eye(40), R=np.eye(40))
        assert not np.array_equal(costs.Q_f, costs.Q_f.T)
        plan = ExperimentPlan(driver_size=7, num_sets=6, seed=2017, pinned={0: 1})
        D = np.vstack([experiments.sample_driver_sets(plan, net, x_s, x_s), [POLICY_MIX]])
        drivers = driver_sets(D, net.n)
        for horizon in (1, 2, 90, 500):
            block = _riccati_block(A, D, costs, horizon)
            for driver, sched in zip(drivers, block):
                assert_same_schedule(sched, riccati_schedule(A, driver, costs, horizon))
                K, P0 = reference_schedule(A, driver, costs, horizon)
                assert [k.tobytes() for k in gain_stack(sched)] == [k.tobytes() for k in K]
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
        for d, sched in zip(D, _riccati_block(A, D, costs, horizon)):
            assert_same_schedule(sched, riccati_schedule(A, DriverSet(d, n), costs, horizon))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        sets=st.integers(1, 8),
        radius=st.floats(0.05, 0.95),
        horizon=st.integers(1, 120),
    )
    def test_symmetric_value_matrices(self, seed, n, sets, radius, horizon):
        # every P0 is symmetric bit for bit, and a Q_f with an antisymmetric
        # part gives the schedules of its symmetric part, bit for bit
        rng = np.random.default_rng(seed)
        A, driver, costs, _, _ = random_linear_instance(rng, n)
        rho = np.max(np.abs(np.linalg.eigvals(A)))
        if rho > 0:
            A = A * (radius / rho)
        D = np.array([np.sort(rng.choice(n, size=driver.size, replace=False)) for _ in range(sets)])
        M = rng.uniform(-1.0, 1.0, size=(n, n))
        Q_f = M @ M.T + 1e-12 * np.triu(np.ones((n, n)), 1)
        half = 0.5 * (Q_f + Q_f.T)
        assert np.array_equal(half, half.T) and (n == 1 or not np.array_equal(Q_f, Q_f.T))
        asym, sym = (
            _riccati_block(A, D, CostMatrices(Q_f=terminal, Q=costs.Q, R=costs.R), horizon)
            for terminal in (Q_f, half)
        )
        for got, want in zip(asym, sym):
            assert got.P0.tobytes() == got.P0.T.copy().tobytes()
            assert_same_schedule(got, want)


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
    D = index_rows(drivers)
    block = _reactive_block(_prepare(net, costs, pinned).linearized(x_s), D, init, horizon)
    alone = [one_set(run_reactive, net, d, costs, init, horizon, pinned) for d in drivers]
    assert [run_bytes(r) for r in block] == [run_bytes(r) for r in alone]
    block = _proactive_block(_prepare(net, costs, None), D, horizon)
    alone = [run_proactive(net, d, costs, horizon) for d in drivers]
    assert [run_bytes(r) for r in block] == [run_bytes(r) for r in alone]


#: Bit patterns where bit equality and ``==`` disagree or that are easy to
#: lose: +0.0 and -0.0, quiet and signalling NaNs with distinct payloads and
#: signs, the extreme subnormals and the infinities.
SPECIAL_BITS = [
    0x0000000000000000, 0x8000000000000000,
    0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001,
    0x0000000000000001, 0x000FFFFFFFFFFFFF, 0x8000000000000001,
    0x7FF0000000000000, 0xFFF0000000000000,
]
bit_patterns = st.one_of(st.sampled_from(SPECIAL_BITS), st.integers(0, 2**64 - 1))


class TestSameBits:
    """The lockstep kernels' repeat check is bit equality of each set's
    matrix, as ``tobytes()`` compares it, never ``==``."""

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        shape=st.tuples(st.integers(0, 6), st.integers(1, 4), st.integers(1, 4)),
    )
    def test_agrees_with_tobytes_row_for_row(self, data, shape):
        size = math.prod(shape)
        a = np.array(data.draw(st.lists(bit_patterns, min_size=size, max_size=size)),
                     dtype=np.uint64)
        b = a.copy()
        # a few entries of b change: a sign flip (0.0 -> -0.0), a flip of the
        # lowest bit (another NaN payload, a subnormal) or a new pattern
        how = st.sampled_from(["sign", "low", "new"])
        for i, change in data.draw(st.lists(st.tuples(st.integers(0, size - 1), how),
                                            max_size=3)) if size else ():
            if change == "sign":
                b[i] ^= np.uint64(1 << 63)
            elif change == "low":
                b[i] ^= np.uint64(1)
            else:
                b[i] = data.draw(bit_patterns)
        a, b = a.view(np.float64).reshape(shape), b.view(np.float64).reshape(shape)
        want = [x.tobytes() == y.tobytes() for x, y in zip(a, b)]
        assert _same_bits(a, b).tolist() == want
        flat = (shape[0], shape[1] * shape[2])
        assert _same_bits(a.reshape(flat), b.reshape(flat)).tolist() == want

    def test_differs_from_value_equality(self):
        # == calls 0.0 and -0.0 equal, and a NaN unequal to itself
        assert not _same_bits(np.array([[0.0, 1.0]]), np.array([[-0.0, 1.0]]))[0]
        nan = np.array([[np.nan, 1.0]])
        assert _same_bits(nan, nan.copy())[0]


def dense_costs(rng, n):
    """Dense positive definite Q_f, Q and R, symmetric bit for bit."""
    def spd():
        M = rng.uniform(-1.0, 1.0, size=(n, n))
        M = M @ M.T + np.eye(n) * rng.uniform(0.1, 1.0)
        return 0.5 * (M + M.T)
    return CostMatrices(Q_f=spd(), Q=spd(), R=spd())


def random_block(rng, sets, steps, n, m):
    """Random states, driven signals, saturation counts and driver rows of
    a finished block."""
    states = rng.uniform(-1.0, 1.0, size=(sets, steps + 1, n))
    driven = rng.normal(size=(sets, steps, m))
    saturation = rng.integers(0, 3, size=(sets, steps))
    D = np.array([np.sort(rng.choice(n, size=m, replace=False)) for _ in range(sets)])
    return states, driven, saturation, D


def plain_costs(states, signals, costs):
    """``evaluate_cost``'s three costs as the 2-D products of one set."""
    body = states[:-1]
    state = float(states[-1] @ costs.Q_f @ states[-1] + np.sum((body @ costs.Q) * body))
    control = float(np.sum((signals @ costs.R) * signals))
    return state, control, state + control


class TestBlockCosts:
    """A finished block takes its sets' costs in one stacked pass per chunk,
    with each set's bits of ``evaluate_cost`` on its own rows."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sets=st.integers(1, 9),
        steps=st.integers(1, 60),
        n=st.integers(2, 13),
        chunk=st.sampled_from([1, 2, 10]),
    )
    def test_equals_evaluate_cost_per_set(self, seed, sets, steps, n, chunk):
        rng = np.random.default_rng(seed)
        costs = dense_costs(rng, n)
        m = int(rng.integers(1, n + 1))
        states, driven, saturation, D = random_block(rng, sets, steps, n, m)
        with pytest.MonkeyPatch.context() as patch:
            # chunks of ``chunk`` sets; 10 is more than any block here
            patch.setattr(control, "_COST_CHUNK_BYTES", chunk * 8 * steps * n)
            runs = control._block_runs(states, driven, saturation, D, costs)
        for s, run in enumerate(runs):
            signals = np.zeros((steps, n))
            signals[:, D[s]] = driven[s]
            want = control.evaluate_cost(states[s], signals, costs)
            got = (run.state_cost, run.control_cost, run.total_cost)
            assert [repr(x) for x in got] == [repr(x) for x in want]
            assert [repr(x) for x in got] == [repr(x) for x in plain_costs(states[s], signals, costs)]
            assert run.signals.tobytes() == signals.tobytes()
            assert run.saturation_count == int(saturation[s].sum())
            assert run.drivers == tuple(D[s].tolist())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_set_inside_a_chunk(self, bad):
        rng = np.random.default_rng(8)
        costs = dense_costs(rng, 6)
        states, driven, saturation, D = random_block(rng, 5, 20, 6, 2)
        states[2, 7, 3] = bad
        runs = control._block_runs(states, driven, saturation, D, costs)
        assert run_bytes(runs[2]) == NON_FINITE
        for s in (0, 1, 3, 4):
            alone = control._block_runs(states[s:s + 1], driven[s:s + 1], saturation[s:s + 1],
                                        D[s:s + 1], costs)
            assert run_bytes(runs[s]) == run_bytes(alone[0])

    def test_costs_of_another_width(self, monkeypatch):
        # costs of another width never reach a block: preparing the
        # network raises, so a proactive sweep or run steps no set
        net = criterion_7_net()
        forbid_kernels(monkeypatch)
        with pytest.raises(DimensionMismatch, match=f"^{COSTS_SIZE}$"):
            _prepare(net, identity_costs(41), None)
        with pytest.raises(DimensionMismatch, match=f"^{COSTS_SIZE}$"):
            run_proactive(net, DriverSet((1, 2), 40), identity_costs(41), 30)
        plan = ExperimentPlan(driver_size=2, num_sets=4, seed=3, phase="proactive",
                              steps_proactive=30)
        with pytest.raises(DimensionMismatch, match=f"^{COSTS_SIZE}$"):
            run_experiment(plan, net, None, identity_costs(41))
