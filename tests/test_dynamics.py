import re

import numpy as np
import pytest

from risknet.dynamics import (
    controllability_rank,
    find_steady_state,
    linearize,
    step_continuous,
    unclamped_step,
)
from risknet.errors import NoConvergence, SaturatedPoint, ValidationError
from risknet.model import DriverSet, binary_state, build_network, continuous_state
from helpers import (
    chain_saturation_network,
    contractive_network,
    fd_jacobian,
    interior_state,
    random_network,
    reference_steady_state,
)


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
        out, sat = step_continuous(net, continuous_state(np.zeros(4)))
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
        up, sat_up = step_continuous(net, continuous_state([0.5]), np.array([5.0]))
        assert up.values[0] == 1.0 and sat_up[0]
        down, sat_down = step_continuous(net, continuous_state([0.5]), np.array([-5.0]))
        assert down.values[0] == 0.0 and sat_down[0]

    @pytest.mark.parametrize("seed", range(8))
    def test_maps_into_unit_box_for_any_control(self, seed):
        rng = np.random.default_rng(seed)
        net = random_network(rng, 6, weighted=True)
        x = continuous_state(rng.uniform(0, 1, size=6))
        u = rng.uniform(-5, 5, size=6)
        out, _ = step_continuous(net, x, u)
        assert np.all(out.values >= 0.0) and np.all(out.values <= 1.0)

    @pytest.mark.parametrize("x, message, u", [
        (binary_state([1, 0]), "x must be a continuous state of 2 entries", np.zeros(2)),
        (continuous_state([0.1, 0.2, 0.3]), "x must be a continuous state of 2 entries",
         np.zeros(2)),
        (continuous_state([0.1, 0.2]), "control vector has shape (3,), expected (2,)",
         np.zeros(3)),
        (continuous_state([0.1, 0.2]), "control vector has shape (1, 2), expected (2,)",
         [[0.1, 0.2]]),
        # a NaN reached the clamp and was blamed on x
        (continuous_state([0.1, 0.2]), "control vector u has a non-finite entry", [0.0, np.nan]),
        (continuous_state([0.1, 0.2]), "control vector u has a non-finite entry", [np.inf, 0.0]),
    ], ids=["binary_x", "long_x", "long_u", "matrix_u", "nan_u", "inf_u"])
    def test_rejects_state_or_control_of_another_shape(self, x, message, u):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            step_continuous(hand_chain(), x, u)

    @pytest.mark.parametrize("x, shape", [
        ([0.1, 0.2, 0.3], "(3,)"), ([0.1], "(1,)"), ([[0.1, 0.2]], "(1, 2)"),
    ])
    def test_unclamped_step_rejects_x_of_another_shape(self, x, shape):
        # numpy's matmul ValueError named no argument
        message = f"x has shape {shape}, expected (2,)"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            unclamped_step(hand_chain(), x)


class TestSteadyState:
    def test_scalar_closed_form(self):
        x_s = find_steady_state(scalar_net())
        assert abs(x_s.values[0] - 0.25) <= 1e-10

    def test_no_activation_channel(self):
        net = build_network(
            ["a", "b"], [0, 0], [0.5, 0.5], [0.3, 0.3], np.zeros((2, 2))
        )
        assert np.array_equal(find_steady_state(net).values, np.zeros(2))

    def test_residual_below_tol_on_random_networks(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            net = contractive_network(rng, 9)
            x_s = find_steady_state(net, tol=1e-12)
            out, _ = step_continuous(net, x_s)
            assert np.max(np.abs(out.values - x_s.values)) <= 1e-12

    def test_returns_the_clamped_update(self):
        # The iterate that meets tol leaves the last node 3.2e-14 below 1,
        # where the raw map exceeds 1; its clamped update is a fixed point
        # where the map does not saturate.
        net = chain_saturation_network()
        x_s = find_steady_state(net)
        assert x_s.values[54] == 1.0
        out, saturated = step_continuous(net, x_s)
        assert np.array_equal(out.values, x_s.values) and not saturated.any()
        assert linearize(net, x_s).shape == (55, 55)

    def test_one_update_past_the_converged_iterate(self):
        for seed in range(5):
            net = contractive_network(np.random.default_rng(seed), 9)
            out, _ = step_continuous(net, reference_steady_state(net))
            assert np.array_equal(find_steady_state(net).values, out.values)

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

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_non_finite_tol_rejected_before_iterating(self, tol):
        # NaN passes a `tol <= 0` test but no residual ever meets it; inf
        # accepts the first iterate
        with pytest.raises(ValidationError, match=f"^tol must be positive and finite, got {tol}$"):
            find_steady_state(scalar_net(), tol=tol, max_iter=1000)

    @pytest.mark.parametrize("damping", [0.0, -0.5, 1.5])
    def test_damping_outside_unit_interval_rejected(self, damping):
        # 0 never moves the iterate; -0.5 diverges; 1.5 is not an average
        with pytest.raises(ValidationError, match="damping"):
            find_steady_state(scalar_net(), damping=damping, max_iter=100)


class TestJacobian:
    def test_scalar_value(self):
        A = linearize(scalar_net(), continuous_state([0.4]))
        assert A[0, 0] == pytest.approx(0.6)

    def test_decoupled_nodes_diagonal(self):
        net = build_network(
            ["a", "b"], [0.2, 0.1], [0.7, 0.9], [0.5, 0.8], np.zeros((2, 2))
        )
        A = linearize(net, continuous_state([0.3, 0.6]))
        assert A == pytest.approx(np.diag([0.3, 0.7]))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        net = random_network(rng, int(rng.integers(2, 12)), weighted=True)
        x = interior_state(rng, net.n)
        A = linearize(net, continuous_state(x))
        assert np.max(np.abs(A - fd_jacobian(net, x))) < 1e-6

    @pytest.mark.parametrize("seed", range(6))
    def test_c_contiguous_with_the_bits_of_the_transposed_product(self, seed):
        # the Riccati step's ``P @ A`` is fast only with A in C order; the
        # values are the elementwise product over E.T, bit for bit
        rng = np.random.default_rng(seed)
        net = contractive_network(rng, int(rng.integers(1, 41)), weighted=True)
        x = interior_state(rng, net.n)
        A = linearize(net, continuous_state(x))
        want = net.E.T * (net.p_ext * (1.0 - x))[:, None]
        np.fill_diagonal(want, net.p_con - net.p_int - net.p_ext * net.inflow(x))
        assert A.flags.c_contiguous
        assert A.shape == want.shape and A.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_saturated_point_rejected(self):
        E = np.array([[0.0, 1.0], [1.0, 0.0]])
        net = build_network(["a", "b"], [0.9, 0.9], [1.0, 1.0], [0.9, 0.9], E)
        x = continuous_state([0.5, 1.0])
        assert np.any(unclamped_step(net, x.values) > 1.0)
        with pytest.raises(SaturatedPoint):
            linearize(net, x)


class TestLinearize:
    @pytest.mark.parametrize("x", [continuous_state([0.5]), binary_state([1, 0])])
    def test_point_checked(self, x):
        with pytest.raises(ValidationError, match="^x_lin must be a continuous state of 2 entries$"):
            linearize(hand_chain(), x)

    def test_dimension_check(self):
        with pytest.raises(ValidationError, match="A must be a square matrix"):
            controllability_rank(np.zeros((2, 1)), DriverSet((0,), 2))


class TestControllabilityRank:
    def test_driven_scalar(self):
        assert controllability_rank(np.array([[0.6]]), DriverSet((0,), 1)) == 1

    def test_chain_fully_controllable_from_source(self):
        A = np.array([[0.5, 0.0], [0.3, 0.5]])  # node 0 drives node 1
        assert controllability_rank(A, DriverSet((0,), 2)) == 2

    def test_decoupled_second_node_unreachable(self):
        assert controllability_rank(np.diag([0.5, 0.4]), DriverSet((0,), 2)) == 1

    def test_driver_size_check(self):
        with pytest.raises(ValidationError, match="driver set sized for a different network"):
            controllability_rank(np.eye(2), DriverSet((0,), 1))

    @pytest.mark.parametrize("A", [np.array([[0.5, np.inf], [0.0, 0.5]]), np.full((2, 2), np.nan)],
                             ids=["infinite_entry", "all_nan"])
    def test_non_finite_jacobian_rejected(self, A):
        # checked before the first product, where numpy would warn or fail
        with pytest.raises(ValidationError, match="^A has a non-finite entry$"):
            controllability_rank(A, DriverSet((0,), 2))

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
