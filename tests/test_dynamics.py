import numpy as np
import pytest

from risknet.dynamics import (
    LinearizedSystem,
    controllability_rank,
    find_steady_state,
    jacobian,
    linearize,
    step_continuous,
    unclamped_step,
)
from risknet.errors import NoConvergence, SaturatedPoint, ValidationError
from risknet.model import DriverSet, build_network, continuous_state, zeros_state
from helpers import contractive_network, fd_jacobian, interior_state, random_network


def scalar_net(p_int=0.1, p_con=0.7):
    return build_network(["a"], [p_int], [0.0], [p_con], [[0]])


def hand_chain():
    return build_network(
        ["a", "b"], [0.1, 0.0], [0.0, 0.5], [0.5, 0.5], [[0, 1], [0, 0]]
    )


class TestStepContinuous:
    def test_inactivity_fixed_without_internal_activation(self):
        rng = np.random.default_rng(0)
        net = random_network(rng, 4)
        net = build_network(net.names, np.zeros(4), net.p_ext, net.p_con, net.E)
        out, sat = step_continuous(net, zeros_state(4))
        assert np.array_equal(out.values, np.zeros(4))
        assert not sat.any()

    def test_two_node_hand_value(self):
        out, sat = step_continuous(hand_chain(), continuous_state([1.0, 0.0]))
        assert out.values == pytest.approx([0.5, 0.5])
        assert not sat.any()

    def test_steady_state_is_fixed(self):
        rng = np.random.default_rng(1)
        net = contractive_network(rng, 7)
        x_s = find_steady_state(net)
        out, _ = step_continuous(net, x_s)
        assert np.max(np.abs(out.values - x_s.values)) <= 1e-12

    def test_control_saturation_flagged(self):
        net = scalar_net()
        up, sat_up = step_continuous(
            net, continuous_state([0.5]), np.array([5.0]), DriverSet((0,), 1)
        )
        assert up.values[0] == 1.0 and sat_up[0]
        down, sat_down = step_continuous(
            net, continuous_state([0.5]), np.array([-5.0]), DriverSet((0,), 1)
        )
        assert down.values[0] == 0.0 and sat_down[0]

    def test_control_restricted_to_driver(self):
        net = hand_chain()
        u = np.array([0.2, 0.2])
        only_first, _ = step_continuous(
            net, continuous_state([0.0, 0.0]), u, DriverSet((0,), 2)
        )
        free, _ = step_continuous(net, continuous_state([0.0, 0.0]))
        assert only_first.values[1] == free.values[1]
        assert only_first.values[0] == pytest.approx(free.values[0] + 0.2)

    @pytest.mark.parametrize("seed", range(8))
    def test_maps_into_unit_box_for_any_control(self, seed):
        rng = np.random.default_rng(seed)
        net = random_network(rng, 6, weighted=True)
        x = continuous_state(rng.uniform(0, 1, size=6))
        u = rng.uniform(-5, 5, size=6)
        driver = DriverSet(tuple(rng.choice(6, size=3, replace=False)), 6)
        out, _ = step_continuous(net, x, u, driver)
        assert np.all(out.values >= 0.0) and np.all(out.values <= 1.0)


class TestSteadyState:
    def test_scalar_closed_form(self):
        x_s = find_steady_state(scalar_net())
        assert abs(x_s.values[0] - 0.25) <= 1e-10

    def test_no_activation_channel(self):
        net = build_network(
            ["a", "b"], [0, 0], [0.5, 0.5], [0.3, 0.3], np.zeros((2, 2))
        )
        assert np.array_equal(find_steady_state(net).values, np.zeros(2))

    def test_identity_dynamics_keeps_initial_point(self):
        net = build_network(["a", "b"], [0, 0], [0, 0], [1, 1], np.zeros((2, 2)))
        v = continuous_state([0.3, 0.8])
        assert np.array_equal(find_steady_state(net, x0=v).values, v.values)

    def test_residual_below_tol_on_random_networks(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            net = contractive_network(rng, 9)
            x_s = find_steady_state(net, tol=1e-12)
            out, _ = step_continuous(net, x_s)
            assert np.max(np.abs(out.values - x_s.values)) <= 1e-12

    def test_oscillator_fails_then_damping_rescues(self):
        # p_int=1, p_con=0 flips the state each step: period-2 orbit
        net = build_network(["a"], [1.0], [0.0], [0.0], [[0]])
        with pytest.raises(NoConvergence) as err:
            find_steady_state(net, max_iter=500)
        assert err.value.residual > 0.1
        x_s = find_steady_state(net, damping=0.5)
        assert x_s.values[0] == pytest.approx(0.5, abs=1e-10)

    def test_tol_validated(self):
        with pytest.raises(ValidationError):
            find_steady_state(scalar_net(), tol=0.0)

    @pytest.mark.parametrize("damping", [0.0, -0.5, 1.5])
    def test_damping_outside_unit_interval_rejected(self, damping):
        # 0 never moves the iterate; -0.5 diverges; 1.5 is not an average
        with pytest.raises(ValidationError, match="damping"):
            find_steady_state(scalar_net(), damping=damping, max_iter=100)


class TestJacobian:
    def test_scalar_value(self):
        A = jacobian(scalar_net(), continuous_state([0.4]))
        assert A[0, 0] == pytest.approx(0.6)

    def test_decoupled_nodes_diagonal(self):
        net = build_network(
            ["a", "b"], [0.2, 0.1], [0.7, 0.9], [0.5, 0.8], np.zeros((2, 2))
        )
        A = jacobian(net, continuous_state([0.3, 0.6]))
        assert A == pytest.approx(np.diag([0.3, 0.7]))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        net = random_network(rng, int(rng.integers(2, 12)), weighted=True)
        x = interior_state(rng, net.n)
        A = jacobian(net, continuous_state(x))
        assert np.max(np.abs(A - fd_jacobian(net, x))) < 1e-6

    def test_saturated_point_rejected(self):
        E = np.array([[0.0, 1.0], [1.0, 0.0]])
        net = build_network(["a", "b"], [0.9, 0.9], [1.0, 1.0], [0.9, 0.9], E)
        x = continuous_state([0.5, 1.0])
        assert np.any(unclamped_step(net, x.values) > 1.0)
        with pytest.raises(SaturatedPoint):
            jacobian(net, x)


class TestLinearize:
    def test_packages_jacobian_and_point(self):
        net = hand_chain()
        x_s = find_steady_state(net)
        sys_lin = linearize(net, x_s)
        assert np.array_equal(sys_lin.A, jacobian(net, x_s))
        assert np.array_equal(sys_lin.x_lin.values, x_s.values)

    def test_dimension_check(self):
        with pytest.raises(ValidationError):
            LinearizedSystem(A=np.zeros((2, 2)), x_lin=continuous_state([0.1]))


class TestControllabilityRank:
    def test_driven_scalar(self):
        sys_lin = LinearizedSystem(A=np.array([[0.6]]), x_lin=continuous_state([0.2]))
        assert controllability_rank(sys_lin, DriverSet((0,), 1)) == 1

    def test_chain_fully_controllable_from_source(self):
        A = np.array([[0.5, 0.0], [0.3, 0.5]])  # node 0 drives node 1
        sys_lin = LinearizedSystem(A=A, x_lin=zeros_state(2))
        assert controllability_rank(sys_lin, DriverSet((0,), 2)) == 2

    def test_decoupled_second_node_unreachable(self):
        sys_lin = LinearizedSystem(A=np.diag([0.5, 0.4]), x_lin=zeros_state(2))
        assert controllability_rank(sys_lin, DriverSet((0,), 2)) == 1

    def test_driver_size_check(self):
        sys_lin = LinearizedSystem(A=np.eye(2), x_lin=zeros_state(2))
        with pytest.raises(ValidationError, match="driver set sized for a different network"):
            controllability_rank(sys_lin, DriverSet((0,), 1))

    @pytest.mark.parametrize("seed", range(6))
    def test_invariant_under_relabeling(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        net = random_network(rng, n)
        x_s = continuous_state(interior_state(rng, n))
        driver = DriverSet(tuple(rng.choice(n, size=2, replace=False)), n)
        rank = controllability_rank(linearize(net, x_s), driver)

        perm = rng.permutation(n)
        P = np.eye(n)[perm]  # maps old index i to new position perm^-1...
        E2 = net.E[np.ix_(perm, perm)]
        net2 = build_network(
            [net.names[i] for i in perm],
            net.p_int[perm], net.p_ext[perm], net.p_con[perm], E2,
        )
        x2 = continuous_state(x_s.values[perm])
        inv = np.empty(n, dtype=int)
        inv[perm] = np.arange(n)
        driver2 = DriverSet(tuple(int(inv[i]) for i in driver.indices), n)
        assert controllability_rank(linearize(net2, x2), driver2) == rank
