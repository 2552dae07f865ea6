import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_discrete_are

from risknet import control
from risknet.control import (
    GainSchedule,
    _gain_window,
    _prepare,
    _rollout_block,
    _solve_gain,
    evaluate_cost,
    riccati_schedule,
    rollout_feedback,
    run_proactive,
    run_reactive,
)
from risknet.dynamics import find_steady_state, linearize, step_continuous
from risknet.errors import DimensionMismatch, SingularInnerMatrix, ValidationError
from risknet.experiments import ExperimentPlan, sample_driver_sets
from risknet.model import (
    CostMatrices,
    DriverSet,
    binary_state,
    build_network,
    continuous_state,
    identity_costs,
)
from risknet.netio import generate_synthetic
from helpers import (
    brute_force_linear_optimum,
    contractive_network,
    driver_sets,
    gain_stack,
    interior_state,
    linear_feedback_cost,
    linear_open_loop_cost,
    lu_schedule,
    random_linear_instance,
    reference_rollout,
    reference_schedule,
    saturating_net,
)


def schedule_for(A, driver_indices, costs, horizon):
    """``riccati_schedule`` of the linear system ``A`` and the driver set."""
    driver = DriverSet(driver_indices, A.shape[0])
    return riccati_schedule(A, driver, costs, horizon)


def scalar_net(p_int=0.1, p_con=0.7):
    return build_network(["a"], [p_int], [0.0], [p_con], [[0]])


class TestRiccatiSchedule:
    def test_scalar_one_step_gain(self):
        sched = schedule_for(np.array([[0.5]]), (0,), identity_costs(1), 1)
        assert gain_stack(sched)[0][0, 0] == pytest.approx(0.25)
        assert sched.P0[0, 0] == pytest.approx(1.125)

    def test_zero_dynamics_zero_gain(self):
        sched = schedule_for(np.zeros((3, 3)), (0, 2), identity_costs(3), 4)
        assert all(np.allclose(K, 0.0) for K in gain_stack(sched))

    def test_zero_state_costs_zero_gain(self):
        n = 3
        costs = CostMatrices(Q_f=np.zeros((n, n)), Q=np.zeros((n, n)), R=np.eye(n))
        rng = np.random.default_rng(0)
        sched = schedule_for(rng.uniform(-1, 1, (n, n)), (1,), costs, 3)
        assert all(np.allclose(K, 0.0) for K in gain_stack(sched))
        assert np.allclose(sched.P0, 0.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_value_matrices_symmetric_psd(self, seed):
        rng = np.random.default_rng(seed)
        A, driver, costs, tau, _ = random_linear_instance(rng, 4, tau=3)
        for h in range(1, tau + 1):
            sched = schedule_for(A, driver.indices, costs, h)
            assert len(gain_stack(sched)) == h
            assert np.allclose(sched.P0, sched.P0.T)
            assert np.linalg.eigvalsh(sched.P0).min() >= -1e-8

    def test_horizon_and_cost_size_validated(self):
        A, driver = np.array([[0.5]]), DriverSet((0,), 1)
        with pytest.raises(ValidationError, match="horizon"):
            riccati_schedule(A, driver, identity_costs(1), 0)
        with pytest.raises(DimensionMismatch):
            riccati_schedule(A, driver, identity_costs(2), 1)

    def test_driver_size_validated(self):
        with pytest.raises(ValidationError, match="driver set sized for a different network"):
            riccati_schedule(
                np.eye(2), DriverSet((0,), 3), identity_costs(2), 1
            )

    @pytest.mark.parametrize("A, step", [
        (np.array([[0.5, np.nan], [0.0, 0.5]]), 2),  # NaN in the first right-hand side
        (1e200 * np.eye(2), 1),  # P(2) overflows to inf
    ])
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_gain_equation_rejected(self, A, step):
        with pytest.raises(SingularInnerMatrix, match=f"not finite at step {step}$"):
            schedule_for(A, (0,), identity_costs(2), 3)

    def test_singular_inner_matrix_guard(self):
        with pytest.raises(SingularInnerMatrix):
            _solve_gain(np.zeros((2, 2)), np.ones((2, 2)), 0)
        with pytest.raises(SingularInnerMatrix):
            _solve_gain(np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2), 0)  # indefinite
        with pytest.raises(SingularInnerMatrix, match="not finite at step 5"):
            _solve_gain(np.array([[np.nan]]), np.ones((1, 1)), 5)

    def test_solve_gain_returns_gain_and_half_product(self):
        # (K, W) with inner @ K = rhs and W'W = rhs' inner^-1 rhs, the term
        # the value update subtracts
        rng = np.random.default_rng(3)
        M = rng.uniform(-1.0, 1.0, size=(4, 4))
        inner, rhs = M @ M.T + np.eye(4), rng.uniform(-1.0, 1.0, size=(4, 6))
        K, W = _solve_gain(inner, rhs, 0)
        assert K.shape == W.shape == (4, 6)
        assert np.allclose(inner @ K, rhs, rtol=0, atol=1e-13)
        assert np.allclose(W.T @ W, rhs.T @ np.linalg.solve(inner, rhs), rtol=0, atol=1e-13)


class TestStationaryLimit:
    """Over a long horizon the schedule reaches the stationary regulator:
    P0 solves the discrete algebraic Riccati equation and K(0) is its gain."""

    @pytest.mark.parametrize("net_seed, drivers", [
        (1, (3, 8, 11, 17, 22, 29, 35)),  # criterion 7's policy_mix set
        (1, (0,)),
        (2, (1, 5, 9)),
    ])
    def test_long_horizon_matches_dare(self, net_seed, drivers):
        net = generate_synthetic(40, 18.27, 4.60, seed=net_seed)
        A, driver = linearize(net, find_steady_state(net)), DriverSet(drivers, net.n)
        costs = identity_costs(net.n)
        sched = riccati_schedule(A, driver, costs, 500)
        B = driver.selection
        Rd = B.T @ costs.R @ B
        P = solve_discrete_are(A, B, costs.Q, Rd)
        K = np.linalg.solve(Rd + B.T @ P @ B, B.T @ P @ A)
        assert np.linalg.norm(sched.P0 - P) <= 1e-12 * np.linalg.norm(P)
        assert np.linalg.norm(gain_stack(sched)[0] - K) <= 1e-12 * np.linalg.norm(K)


def criterion_7_sets(net_seed):
    """The criterion-7 network of ``net_seed``, its steady state, its
    Jacobian there and its driver sets: ``policy_mix``, ``(0,)`` and
    the first 5 sets the sweep samples."""
    net = generate_synthetic(40, 18.27, 4.60, seed=net_seed)
    x_s = find_steady_state(net)
    plan = ExperimentPlan(driver_size=7, num_sets=5, seed=2017, pinned={0: 1})
    sets = [DriverSet((3, 8, 11, 17, 22, 29, 35), 40), DriverSet((0,), 40)]
    return net, x_s, linearize(net, x_s), sets + driver_sets(
        sample_driver_sets(plan, net, x_s, x_s), net.n
    )


def assert_same_schedule(sched, reference):
    """Every gain and P(0) equal the full recursion's bit for bit."""
    K, P0 = reference
    assert len(gain_stack(sched)) == len(K)
    for got, want in zip(gain_stack(sched), K):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert sched.P0.shape == P0.shape and sched.P0.tobytes() == P0.tobytes()


class TestEarlyStop:
    """The recursion stops at the first bitwise cycle of P; the schedule
    must equal the full recursion (``helpers.reference_schedule``) exactly."""

    @pytest.mark.parametrize("net_seed", [1, 2])
    def test_criterion_7_sets_match_full_recursion(self, net_seed):
        net, x_s, A, sets = criterion_7_sets(net_seed)
        costs = identity_costs(net.n)
        for driver in sets:
            sched = riccati_schedule(A, driver, costs, 500)
            assert_same_schedule(sched, reference_schedule(A, driver, costs, 500))
            # the cycle was found: fewer gains were computed than steps, and
            # earlier steps index the cycle's gains
            assert len(sched.gains) < 500
            assert np.unique(sched.index).size == len(sched.gains)

    def test_every_horizon_up_to_90(self):
        # net seed 1's policy_mix: period 6, found 69 steps back, so horizons
        # 70..90 end at every residue
        net, x_s, A, sets = criterion_7_sets(1)
        costs = identity_costs(net.n)
        for h in range(1, 91):
            sched = riccati_schedule(A, sets[0], costs, h)
            assert_same_schedule(sched, reference_schedule(A, sets[0], costs, h))
        assert len(sched.gains) < 90
        assert np.unique(sched.index).size == len(sched.gains)
        assert _gain_window(sched.index) == (6, 24)
        assert _gain_window(riccati_schedule(A, sets[0], costs, 500).index) == (6, 432)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 5),
        radius=st.floats(0.05, 0.95),
        horizon=st.integers(1, 300),
    )
    def test_random_stable_instances_match_full_recursion(self, seed, n, radius, horizon):
        rng = np.random.default_rng(seed)
        A, driver, costs, _, _ = random_linear_instance(rng, n)
        rho = np.max(np.abs(np.linalg.eigvals(A)))
        if rho > 0:
            A = A * (radius / rho)
        sched = riccati_schedule(A, driver, costs, horizon)
        assert_same_schedule(sched, reference_schedule(A, driver, costs, horizon))

    def test_gains_read_only(self):
        sched = schedule_for(np.array([[0.5]]), (0,), identity_costs(1), 50)
        with pytest.raises(ValueError):
            sched.gains[sched.index[0]][0, 0] = 1.0


class TestFactorDrift:
    """The recursion solves each gain equation through its Cholesky factor
    and starts from sym(Q_f).  Against the recursion it replaced
    (``helpers.lu_schedule``: LU solve, driver columns gathered, Q_f as
    given), gains, P(0) and the costs of their rollouts differ by rounding
    only: at most 1e-12 relative (measured: 4.8e-16 on a gain, 3.0e-17 on
    P(0) and 3.9e-16 on a cost, over these sets)."""

    BOUND = 1e-12

    def test_criterion_7_sets_within_bound(self):
        net = generate_synthetic(40, 18.27, 4.60, seed=1)
        x_s = find_steady_state(net)
        A, costs = linearize(net, x_s), identity_costs(net.n)
        plan = ExperimentPlan(driver_size=7, num_sets=20, seed=2017, pinned={0: 1})
        sets = [DriverSet((3, 8, 11, 17, 22, 29, 35), 40)] + driver_sets(
            sample_driver_sets(plan, net, x_s, x_s), net.n
        )
        for driver in sets:
            sched = riccati_schedule(A, driver, costs, 500)
            K, P0 = lu_schedule(A, driver, costs, 500)
            for new, old in zip(gain_stack(sched), K):
                assert np.linalg.norm(new - old) <= self.BOUND * np.linalg.norm(old)
            assert np.linalg.norm(sched.P0 - P0) <= self.BOUND * np.linalg.norm(P0)
            schedule = GainSchedule(gains=np.array(K), index=np.arange(len(K)), P0=P0)
            old = rollout_feedback(net, driver, costs, x_s, schedule, {0: 1})
            new = run_reactive(net, driver, costs, x_s, 500, {0: 1})
            for cost in ("state_cost", "control_cost", "total_cost"):
                want = getattr(old, cost)
                assert abs(getattr(new, cost) - want) <= self.BOUND * abs(want)
            assert new.saturation_count == old.saturation_count


class TestLinearOptimality:
    @pytest.mark.parametrize("seed", range(8))
    def test_schedule_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        A, driver, costs, tau, x0 = random_linear_instance(rng, n)
        sched = schedule_for(A, driver.indices, costs, tau)
        fb = linear_feedback_cost(A, driver, costs, sched, x0)
        opt, _ = brute_force_linear_optimum(A, driver, costs, tau, x0)
        assert fb == pytest.approx(opt, rel=1e-8, abs=1e-12)
        # value function gives the same number
        assert x0 @ sched.P0 @ x0 == pytest.approx(opt, rel=1e-8, abs=1e-12)

    def test_random_signals_never_beat_schedule(self):
        rng = np.random.default_rng(99)
        A, driver, costs, tau, x0 = random_linear_instance(rng, 3, tau=3)
        sched = schedule_for(A, driver.indices, costs, tau)
        fb = linear_feedback_cost(A, driver, costs, sched, x0)
        for _ in range(200):
            U = rng.normal(size=(tau, driver.size))
            assert linear_open_loop_cost(A, driver, costs, x0, U) >= fb - 1e-9


class TestCostAccounting:
    def test_control_energy_equals_identity_r_cost(self):
        net = scalar_net()
        run = run_reactive(
            net, DriverSet((0,), 1), identity_costs(1), find_steady_state(net), 50
        )
        assert np.sum(run.signals ** 2) == pytest.approx(run.control_cost)

    def test_zero_trajectory_zero_cost(self):
        costs = identity_costs(2)
        assert evaluate_cost(np.zeros((4, 2)), np.zeros((3, 2)), costs) == (0, 0, 0)

    def test_hand_one_step_decomposition(self):
        costs = identity_costs(2)
        states = np.array([[1.0, 0.0], [0.0, 0.0]])
        signals = np.zeros((1, 2))
        assert evaluate_cost(states, signals, costs) == (1.0, 0.0, 1.0)

    def test_total_is_exact_sum(self):
        rng = np.random.default_rng(1)
        costs = identity_costs(3)
        states = rng.random((11, 3))
        signals = rng.normal(size=(10, 3))
        s, c, t = evaluate_cost(states, signals, costs)
        assert t == s + c

    def test_dimension_mismatch(self):
        costs = identity_costs(2)
        with pytest.raises(DimensionMismatch):
            evaluate_cost(np.zeros((3, 2)), np.zeros((3, 2)), costs)
        with pytest.raises(DimensionMismatch):
            evaluate_cost(np.zeros((3, 3)), np.zeros((2, 3)), costs)


class TestReactive:
    def test_already_at_target_zero_cost(self):
        net = build_network(
            ["a", "b"], [0, 0], [0.4, 0.4], [0.5, 0.5], [[0, 1], [1, 0]]
        )
        run = run_reactive(
            net, DriverSet((0,), 2), identity_costs(2), continuous_state(np.zeros(2)), 50
        )
        assert run.total_cost == 0.0
        assert np.all(run.states == 0.0)

    def test_beats_uncontrolled_from_steady_state(self):
        net = scalar_net()
        x_s = find_steady_state(net)
        run = run_reactive(net, DriverSet((0,), 1), identity_costs(1), x_s, 500)
        uncontrolled_state_cost = float(np.sum(np.full(501, x_s.values[0] ** 2)))
        assert run.total_cost < uncontrolled_state_cost

    def test_no_init_starts_at_the_steady_state(self):
        net = generate_synthetic(12, 4, 1.0, seed=3)
        driver, costs = DriverSet((1, 5), 12), identity_costs(12)
        given = run_reactive(net, driver, costs, find_steady_state(net), 60, {0: 1})
        default = run_reactive(net, driver, costs, None, 60, {0: 1})
        for field in ("states", "driven"):
            assert getattr(default, field).tobytes() == getattr(given, field).tobytes()
        assert default.total_cost == given.total_cost

    def test_full_driver_no_worse_than_subsets(self):
        # weak coupling keeps the rollout in the near-linear regime
        rng = np.random.default_rng(12)
        E = (rng.random((4, 4)) < 0.5).astype(float)
        np.fill_diagonal(E, 0.0)
        net = build_network(
            ["a", "b", "c", "d"],
            [0.02, 0.04, 0.03, 0.05],
            [0.02, 0.03, 0.02, 0.01],
            [0.4, 0.5, 0.45, 0.55],
            E,
        )
        costs = identity_costs(4)
        init = find_steady_state(net)
        full = run_reactive(net, DriverSet((0, 1, 2, 3), 4), costs, init, 40)
        for subset in [(0,), (1, 2), (0, 3), (0, 1, 2)]:
            sub = run_reactive(net, DriverSet(subset, 4), costs, init, 40)
            assert full.total_cost <= sub.total_cost + 1e-9

    def test_zero_state_costs_reproduce_uncontrolled_trajectory(self):
        rng = np.random.default_rng(3)
        net = build_network(
            ["a", "b", "c"],
            rng.uniform(0, 0.2, 3),
            rng.uniform(0, 0.1, 3),
            rng.uniform(0.3, 0.7, 3),
            [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        )
        costs = CostMatrices(Q_f=np.zeros((3, 3)), Q=np.zeros((3, 3)), R=np.eye(3))
        init = continuous_state([0.9, 0.1, 0.4])
        run = run_reactive(net, DriverSet((0, 1), 3), costs, init, 30)
        assert np.allclose(run.signals, 0.0)
        x = init
        for k in range(30):
            x, _ = step_continuous(net, x)
            assert np.allclose(run.states[k + 1], x.values)

    def test_pinned_node_held_constant(self):
        net = build_network(
            ["a", "b", "c"],
            [0.1, 0.1, 0.1],
            [0.1, 0.1, 0.1],
            [0.5, 0.5, 0.5],
            [[0, 1, 1], [0, 0, 1], [0, 0, 0]],
        )
        run = run_reactive(
            net, DriverSet((1,), 3), identity_costs(3), continuous_state(np.zeros(3)), 25,
            pinned={0: 1},
        )
        assert np.all(run.states[:, 0] == 1.0)

    def test_pinned_driver_overlap_rejected(self):
        net = scalar_net()
        with pytest.raises(ValidationError, match="pinned"):
            run_reactive(
                net, DriverSet((0,), 1), identity_costs(1), continuous_state(np.zeros(1)), 5,
                pinned={0: 1},
            )

    @pytest.mark.parametrize("node", [-1, 3])
    def test_pinned_index_out_of_range_rejected(self, node):
        net = build_network(
            ["a", "b", "c"], [0.1, 0.1, 0.1], [0.1, 0.1, 0.1], [0.5, 0.5, 0.5],
            [[0, 1, 1], [0, 0, 1], [0, 0, 0]],
        )
        with pytest.raises(ValidationError, match="out of range"):
            run_reactive(
                net, DriverSet((1,), 3), identity_costs(3), continuous_state(np.zeros(3)), 5,
                pinned={node: 1},
            )

    def test_steps_validated(self):
        net = scalar_net()
        with pytest.raises(ValidationError):
            run_reactive(
                net, DriverSet((0,), 1), identity_costs(1), continuous_state(np.zeros(1)), 0
            )

    def test_non_finite_gain_rejected(self):
        net = scalar_net()
        schedule = GainSchedule(
            gains=np.full((1, 1, 1), np.nan), index=np.zeros(1, dtype=int), P0=np.zeros((1, 1))
        )
        with pytest.raises(ValidationError):
            rollout_feedback(
                net, DriverSet((0,), 1), identity_costs(1), continuous_state([0.5]),
                schedule,
            )


class TestProactive:
    def test_all_driver_closed_form(self):
        p_int = np.array([0.1, 0.25, 0.05])
        net = build_network(
            ["a", "b", "c"], p_int, [0.2, 0.3, 0.1], [0.5, 0.6, 0.7],
            [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        )
        steps = 17
        run = run_proactive(net, DriverSet((0, 1, 2), 3), identity_costs(3), steps)
        assert np.all(run.states == 0.0)
        assert run.state_cost == 0.0
        assert run.control_cost == pytest.approx(steps * float(np.sum(p_int**2)))

    def test_nothing_to_cancel_zero_cost(self):
        net = build_network(
            ["a", "b"], [0.0, 0.0], [0.5, 0.5], [0.8, 0.8], [[0, 1], [1, 0]]
        )
        run = run_proactive(net, DriverSet((0,), 2), identity_costs(2), 30)
        assert run.total_cost == 0.0

    def test_single_node_net_driver_is_all_drivers(self):
        net = scalar_net(p_int=0.2)
        run = run_proactive(net, DriverSet((0,), 1), identity_costs(1), 10)
        assert run.state_cost == 0.0
        assert run.control_cost == pytest.approx(10 * 0.04)

    def test_undriven_nodes_evolve_freely(self):
        net = build_network(
            ["a", "b"], [0.3, 0.2], [0.1, 0.1], [0.5, 0.5], [[0, 1], [1, 0]]
        )
        run = run_proactive(net, DriverSet((0,), 2), identity_costs(2), 40)
        assert np.all(run.states[:, 0] == 0.0)  # driven node held down
        assert run.states[-1, 1] > 0.1  # free node drifts up
        assert np.all(run.signals[:, 1] == 0.0)


class TestOneSetChecks:
    """The one-set runs check their driver set against the network, as
    ``riccati_schedule`` does, and ``rollout_feedback`` its init, its
    gains' shape and its index, raising ValidationError, not a bare numpy
    error."""

    @staticmethod
    def ten_nodes():
        net = contractive_network(np.random.default_rng(0), 10)
        x_s = find_steady_state(net)
        return net, x_s, linearize(net, x_s), identity_costs(10)

    @pytest.mark.parametrize("indices", [(1, 2), (12,)])
    @pytest.mark.parametrize("entry", ["run_reactive", "run_proactive", "rollout_feedback"])
    def test_driver_set_of_another_network(self, entry, indices):
        net, x_s, A, costs = self.ten_nodes()
        driver = DriverSet(indices, 50)
        schedule = riccati_schedule(A, DriverSet(tuple(range(len(indices))), 10), costs, 5)
        call = {
            "run_reactive": lambda: run_reactive(net, driver, costs, x_s, 5),
            "run_proactive": lambda: run_proactive(net, driver, costs, 5),
            "rollout_feedback": lambda: rollout_feedback(net, driver, costs, x_s, schedule),
        }[entry]
        with pytest.raises(ValidationError, match="driver set sized for a different network"):
            call()

    @pytest.mark.parametrize("entry", ["riccati_schedule", "run_reactive", "run_proactive"])
    def test_step_count_must_be_an_integer(self, entry):
        net, x_s, A, costs = self.ten_nodes()
        driver = DriverSet((1, 2), 10)
        call = {
            "riccati_schedule": lambda: riccati_schedule(A, driver, costs, 2.5),
            "run_reactive": lambda: run_reactive(net, driver, costs, x_s, 2.5),
            "run_proactive": lambda: run_proactive(net, driver, costs, 2.5),
        }[entry]
        with pytest.raises(ValidationError, match="must be an integer, got 2.5"):
            call()

    @pytest.mark.parametrize("init", [continuous_state(np.full(7, 0.5)), binary_state(np.ones(10))])
    def test_rollout_init_checked(self, init):
        net, _, A, costs = self.ten_nodes()
        driver = DriverSet((1, 2), 10)
        schedule = riccati_schedule(A, driver, costs, 5)
        with pytest.raises(ValidationError, match="init must be a continuous state"):
            rollout_feedback(net, driver, costs, init, schedule)

    def test_rollout_gains_checked(self):
        net, x_s, A, costs = self.ten_nodes()
        schedule = riccati_schedule(A, DriverSet((1, 2), 10), costs, 5)
        with pytest.raises(ValidationError, match=r"gains of shape \(2, 10\) for 3 drivers"):
            rollout_feedback(net, DriverSet((1, 2, 3), 10), costs, x_s, schedule)

    @pytest.mark.parametrize("index", [
        np.array([0, 1, 99]),  # past the gains
        np.array([0, -1, 1]),  # before them
        np.zeros((2, 3), dtype=int),
        np.zeros(0, dtype=int),
        np.array([0.0, 1.0]),
    ])
    def test_rollout_index_checked(self, index):
        net, x_s, A, costs = self.ten_nodes()
        driver = DriverSet((1, 2), 10)
        schedule = riccati_schedule(A, driver, costs, 5)
        bad = GainSchedule(gains=schedule.gains, index=index, P0=schedule.P0)
        message = r"index must be a nonempty 1-D integer array in \[0, \d+\)"
        with pytest.raises(ValidationError, match=message):
            rollout_feedback(net, driver, costs, x_s, bad)


class TestRolloutMatchesStepLoop:
    """The shared rollout reproduces a per-step ``step_continuous`` loop
    bit for bit, saturation included."""

    def assert_same(self, run, reference):
        states, signals, saturation = reference
        assert saturation > 0
        assert run.states.shape == states.shape and run.states.tobytes() == states.tobytes()
        assert run.signals.shape == signals.shape and run.signals.tobytes() == signals.tobytes()
        assert run.saturation_count == saturation

    def test_pinned_reactive(self):
        net = saturating_net()
        driver = DriverSet((3, 4), 5)
        costs = CostMatrices(Q_f=10 * np.eye(5), Q=10 * np.eye(5), R=np.eye(5))
        init = continuous_state(np.ones(5))
        run = run_reactive(net, driver, costs, init, 30, pinned={0: 1})
        K = gain_stack(riccati_schedule(linearize(net, find_steady_state(net)), driver, costs, 30))
        self.assert_same(run, reference_rollout(
            net, driver, init.values, 30, lambda k, x: -K[k] @ x, pinned={0: 1}
        ))

    def test_proactive(self):
        net = saturating_net()
        driver = DriverSet((3,), 5)
        run = run_proactive(net, driver, identity_costs(5), 30)
        d = list(driver.indices)

        def cancel_inflow(k, x):
            s = net.inflow(x)
            return -(net.p_int[d] + net.p_ext[d] * s[d]) * (1.0 - x[d])

        self.assert_same(run, reference_rollout(net, driver, np.zeros(5), 30, cancel_inflow))
        assert_driven_at_zero(run)


def cancel_inflow_signal(net, driver):
    """The proactive signal, written out independently of ``run_proactive``."""
    d = list(driver.indices)

    def cancel_inflow(k, x):
        s = net.inflow(x)
        return -(net.p_int[d] + net.p_ext[d] * s[d]) * (1.0 - x[d])

    return cancel_inflow


def assert_driven_at_zero(run):
    """Every driven column of the run's states is +0.0 bit for bit."""
    assert not run.states[:, list(run.drivers)].view(np.uint64).any()


def counted(signal):
    """``signal`` with a count of its calls: one per computed step."""
    def wrapped(k, x):
        wrapped.calls += 1
        return signal(k, x)

    wrapped.calls = 0
    return wrapped


def assert_same_run(run, reference, costs):
    """The run is the reference rollout byte for byte, costs included."""
    states, signals, saturation = reference
    assert run.states.shape == states.shape and run.states.tobytes() == states.tobytes()
    assert run.signals.shape == signals.shape and run.signals.tobytes() == signals.tobytes()
    assert run.saturation_count == saturation
    assert (run.state_cost, run.control_cost, run.total_cost) == evaluate_cost(
        states, signals, costs
    )


def rollout_one(net, driver, costs, x0, steps, signal, pinned=None, period=0, cycle_end=0):
    """``control._rollout_block`` for one set with the window ``(period,
    cycle_end)``, whose signal is a per-step map: ``signal(k, x)`` returns
    the driven nodes' signals (in index order) for step k at state x."""
    prep = _prepare(net, costs, pinned)
    (run,) = _rollout_block(
        prep, np.array([driver.indices]), np.asarray(x0, dtype=float)[None], steps,
        lambda rows, ks, X, driven: np.asarray(signal(int(ks[0]), X[0]), dtype=float)[None],
        [(period, cycle_end)], prep.pins,
    )
    return run


def feedback_reference(net, driver, x0, K, pinned):
    return reference_rollout(net, driver, x0, len(K), lambda k, x: -K[k] @ x, pinned)


class TestFastForward:
    """Once the closed-loop state repeats bit for bit inside the window of
    repeating gain indices, the rollout copies states, signals and
    saturation counts instead of stepping; the run must still be
    ``helpers.reference_rollout`` byte for byte."""

    @pytest.mark.parametrize("net_seed", [1, 2])
    def test_criterion_7_sets_match_reference(self, net_seed):
        net, x_s, A, sets = criterion_7_sets(net_seed)
        costs = identity_costs(net.n)
        for driver in sets:
            pinned = None if 0 in driver.indices else {0: 1}
            full = riccati_schedule(A, driver, costs, 500)
            _, end = _gain_window(full.index)
            K = gain_stack(full)
            signal = counted(lambda k, x: -K[k] @ x)
            rollout_one(net, driver, costs, x_s.values, 500, signal, pinned,
                        *_gain_window(full.index))
            assert signal.calls < 300
            # the step where the state repeated: every later step up to the
            # gain window's end was copied
            found = signal.calls - (500 - end)
            assert 0 < found < end
            # schedules of their own length, with and without a gain window
            for h in (40, 65, 150, 193, 194, 260):
                sched = riccati_schedule(A, driver, costs, h)
                assert_same_run(
                    rollout_feedback(net, driver, costs, x_s, sched, pinned),
                    feedback_reference(net, driver, x_s.values, gain_stack(sched), pinned),
                    costs,
                )
            # the 500-step gains cut short: horizons ending before, at and
            # after the repeat and the window's end
            for h in (found - 1, found, found + 1, end - 1, end, end + 1, 500):
                sched = GainSchedule(gains=full.gains, index=full.index[:h], P0=full.P0)
                K = gain_stack(sched)
                reference = feedback_reference(net, driver, x_s.values, K, pinned)
                signal = counted(lambda k, x: -K[k] @ x)
                run = rollout_one(net, driver, costs, x_s.values, h, signal, pinned,
                                  *_gain_window(sched.index))
                assert signal.calls == (found if found < h else h) + max(0, h - end)
                assert_same_run(run, reference, costs)
                assert_same_run(
                    rollout_feedback(net, driver, costs, x_s, sched, pinned), reference, costs
                )

    def test_saturation_counts_copied(self):
        # the repeating closed loop clamps one node at every step
        net = saturating_net()
        driver = DriverSet((3, 4), 5)
        costs = CostMatrices(Q_f=10 * np.eye(5), Q=10 * np.eye(5), R=np.eye(5))
        sched = riccati_schedule(linearize(net, find_steady_state(net)), driver, costs, 500)
        K = gain_stack(sched)
        signal = counted(lambda k, x: -K[k] @ x)
        run = rollout_one(net, driver, costs, np.ones(5), 500, signal, {0: 1},
                          *_gain_window(sched.index))
        assert signal.calls < 100
        reference = feedback_reference(net, driver, np.ones(5), gain_stack(sched), {0: 1})
        assert reference[2] == 500
        assert_same_run(run, reference, costs)

    def test_proactive_long_horizon(self):
        net, _, _, sets = criterion_7_sets(1)
        costs = identity_costs(net.n)
        driver = sets[0]
        reference = reference_rollout(
            net, driver, np.zeros(net.n), 300, cancel_inflow_signal(net, driver)
        )
        proactive = run_proactive(net, driver, costs, 300)
        assert_same_run(proactive, reference, costs)
        assert_driven_at_zero(proactive)
        signal = counted(cancel_inflow_signal(net, driver))
        run = rollout_one(net, driver, costs, np.zeros(net.n), 300, signal,
                          period=1, cycle_end=300)
        assert_same_run(run, reference, costs)
        assert signal.calls < 300

    def test_equal_but_distinct_gains_step_every_gain(self):
        # equal indices, not equal gains, mark a repeat: copied gains, each
        # at its own index, are all stepped
        net, x_s, A, sets = criterion_7_sets(1)
        costs = identity_costs(net.n)
        driver = sets[0]
        full = riccati_schedule(A, driver, costs, 500)
        K, index = gain_stack(full), np.arange(500)
        assert _gain_window(index) == (0, 0)
        signal = counted(lambda k, x: -K[k] @ x)
        run = rollout_one(net, driver, costs, x_s.values, 500, signal, {0: 1},
                          *_gain_window(index))
        assert signal.calls == 500
        reference = feedback_reference(net, driver, x_s.values, gain_stack(full), {0: 1})
        assert_same_run(run, reference, costs)
        assert_same_run(
            rollout_feedback(net, driver, costs, x_s,
                             GainSchedule(gains=K, index=index, P0=full.P0), {0: 1}),
            reference,
            costs,
        )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        horizon=st.integers(1, 300),
        pin=st.booleans(),
    )
    def test_random_stable_instances_match_reference(self, seed, n, horizon, pin):
        rng = np.random.default_rng(seed)
        net = contractive_network(rng, n)
        _, driver, costs, _, _ = random_linear_instance(rng, n)
        free = sorted(set(range(n)) - set(driver.indices))
        pinned = {free[0]: int(rng.integers(0, 2))} if pin and free else None
        x_s = find_steady_state(net)
        sched = riccati_schedule(linearize(net, x_s), driver, costs, horizon)
        x0 = interior_state(rng, n)
        assert_same_run(
            rollout_feedback(net, driver, costs, continuous_state(x0), sched, pinned),
            feedback_reference(net, driver, x0, gain_stack(sched), pinned),
            costs,
        )
        proactive = run_proactive(net, driver, costs, horizon)
        assert_same_run(
            proactive,
            reference_rollout(net, driver, np.zeros(n), horizon,
                              cancel_inflow_signal(net, driver)),
            costs,
        )
        assert_driven_at_zero(proactive)


def first_repeat(states, period, end):
    """By a scan of every earlier check: the first check step k = j period
    < end (j >= 1) whose state has the bits of an earlier check step's, or
    None."""
    seen = []
    for k in range(0, end, period) if period else ():
        bits = states[k].tobytes()
        if bits in seen:
            return k
        seen.append(bits)
    return None


class TestFirstRepeat:
    """The rollout stops stepping at the first check step whose state
    repeats an earlier check step's bit for bit, and copies from there."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 5),
        steps=st.integers(1, 200),
        period=st.integers(0, 4),
        cycle_end=st.integers(0, 220),
        pin=st.booleans(),
    )
    def test_copies_from_the_first_repeat(self, seed, n, steps, period, cycle_end, pin):
        rng = np.random.default_rng(seed)
        net = contractive_network(rng, n)
        driver = DriverSet(tuple(rng.choice(n, int(rng.integers(1, n + 1)), replace=False)), n)
        free = sorted(set(range(n)) - set(driver.indices))
        pinned = {free[0]: int(rng.integers(0, 2))} if pin and free else None
        # step k takes gain k mod period inside the window, its own after it
        K = rng.uniform(-0.2, 0.2, size=(steps, driver.size, n))
        gain = np.arange(steps)
        if period:
            gain[:cycle_end] %= period
        x0 = interior_state(rng, n)
        reference = reference_rollout(net, driver, x0, steps, lambda k, x: -K[gain[k]] @ x, pinned)
        signal = counted(lambda k, x: -K[gain[k]] @ x)
        run = rollout_one(net, driver, identity_costs(n), x0, steps, signal, pinned,
                          period, cycle_end)
        assert_same_run(run, reference, identity_costs(n))
        end = min(cycle_end, steps)
        first = first_repeat(reference[0], period, end)
        assert signal.calls == (steps if first is None else first + steps - end)

    def test_equal_hashes_of_unequal_states_do_not_copy(self, monkeypatch):
        # every state hashes alike: only a bitwise repeat may copy
        net, x_s, A, sets = criterion_7_sets(1)
        costs = identity_costs(net.n)
        driver = sets[0]
        sched = riccati_schedule(A, driver, costs, 500)
        window = _gain_window(sched.index)
        K = gain_stack(sched)
        reference = feedback_reference(net, driver, x_s.values, K, {0: 1})
        first = first_repeat(reference[0], *window)
        assert first is not None
        monkeypatch.setattr(control, "_bits_hash", lambda X: np.zeros(len(X), np.uint64))
        signal = counted(lambda k, x: -K[k] @ x)
        run = rollout_one(net, driver, costs, x_s.values, 500, signal, {0: 1}, *window)
        assert signal.calls == first + 500 - window[1]
        assert_same_run(run, reference, costs)


class TestGainWindow:
    def test_riccati_cycle_is_a_window(self):
        net, _, A, sets = criterion_7_sets(1)
        costs = identity_costs(net.n)
        period, end = _gain_window(riccati_schedule(A, sets[0], costs, 500).index)
        assert 1 <= period <= end < 500
        assert _gain_window(riccati_schedule(A, sets[0], costs, 40).index) == (0, 0)

    def test_window_read_from_indices(self):
        # b and c are equal gains at distinct indices
        a, b, c = 0, 1, 2
        assert _gain_window(np.array([a, b, a, b, c])) == (2, 4)
        assert _gain_window(np.array([a, a, a, a])) == (1, 4)
        assert _gain_window(np.array([a, b, c, b])) == (0, 0)  # a repeat must start at gain 0
        assert _gain_window(np.array([a])) == (0, 0)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=12))
    def test_window_matches_its_definition(self, values):
        index = np.array(values)
        tau = len(values)
        # the first p > 0 with an equal index, and the first W >= p where the
        # indices stop repeating with period p
        p = next((j for j in range(1, tau) if values[j] == values[0]), 0)
        W = next((j for j in range(p, tau) if values[j] != values[j - p]), tau)
        assert _gain_window(index) == ((p, W) if p else (0, 0))


class TestMonotonicity:
    def test_enlarging_driver_never_increases_linear_cost(self):
        rng = np.random.default_rng(5)
        A, _, costs, tau, x0 = random_linear_instance(rng, 4, m=1, tau=3)

        def optimal(indices):
            sched = schedule_for(A, indices, costs, tau)
            return float(x0 @ sched.P0 @ x0)

        small = optimal((1,))
        medium = optimal((1, 3))
        large = optimal((0, 1, 3))
        full = optimal((0, 1, 2, 3))
        assert small + 1e-8 >= medium >= large - 1e-8
        assert medium + 1e-8 >= large >= full - 1e-8
