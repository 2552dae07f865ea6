import re

import numpy as np
import pytest

from risknet.errors import (
    DimensionMismatch,
    ProbabilityOutOfRange,
    SelfLoop,
    ValidationError,
)
from risknet.model import (
    CostMatrices,
    DriverSet,
    RiskNetwork,
    StateVector,
    binary_state,
    build_network,
    continuous_state,
    degree_stats,
    check_integer,
    identity_costs,
    pin_arrays,
)
from helpers import random_network


def two_node_chain():
    return build_network(
        ["a", "b"], [0.1, 0.0], [0.0, 0.5], [0.5, 0.5], [[0, 1], [0, 0]]
    )


class TestBuildNetwork:
    def test_minimal_single_node(self):
        net = build_network(["a"], [0.1], [0.2], [0.5], [[0]])
        assert net.n == 1
        assert net.names == ("a",)
        assert net.p_con[0] == 0.5

    def test_two_node_chain(self):
        net = two_node_chain()
        assert net.E[0, 1] == 1.0 and net.E[1, 0] == 0.0

    def test_probability_out_of_range_names_index(self):
        with pytest.raises(ProbabilityOutOfRange, match=r"p_int\[0\]"):
            build_network(["a"], [1.3], [0.2], [0.5], [[0]])
        with pytest.raises(ProbabilityOutOfRange, match=r"p_ext\[1\]"):
            build_network(["a", "b"], [0, 0], [0, -0.1], [0, 0], np.zeros((2, 2)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_network(["a", "b"], [0.1], [0.2, 0.2], [0.5, 0.5], np.zeros((2, 2)))
        with pytest.raises(DimensionMismatch):
            build_network(["a", "b"], [0.1, 0.1], [0.2, 0.2], [0.5, 0.5], np.zeros((3, 3)))

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            build_network(["a"], [0.1], [0.2], [0.5], [[0.4]])

    def test_no_nodes_rejected(self):
        with pytest.raises(ValidationError, match="^a network needs at least one node$"):
            build_network([], [], [], [], np.zeros((0, 0)))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            build_network(["a", "a"], [0, 0], [0, 0], [0, 0], np.zeros((2, 2)))

    def test_edge_weight_out_of_range(self):
        with pytest.raises(ProbabilityOutOfRange, match=r"E\[0, 1\]"):
            build_network(["a", "b"], [0, 0], [0, 0], [0, 0], [[0, 1.5], [0, 0]])

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        net = random_network(rng, 6, weighted=True)
        again = build_network(net.names, net.p_int, net.p_ext, net.p_con, net.E)
        assert again.names == net.names
        for field in ("p_int", "p_ext", "p_con", "E"):
            assert np.array_equal(getattr(again, field), getattr(net, field))

    def test_arrays_read_only(self):
        net = two_node_chain()
        with pytest.raises(ValueError):
            net.E[0, 1] = 0.0
        with pytest.raises(ValueError):
            net.p_int[0] = 0.9

    def test_is_the_class(self):
        assert build_network is RiskNetwork

    def test_class_rejects_out_of_range_probability(self):
        with pytest.raises(ProbabilityOutOfRange, match=r"^p_int\[0\] = 2.0 is outside \[0, 1\]$"):
            RiskNetwork(("a",), np.array([2.0]), np.array([0.1]), np.array([0.5]), np.zeros((1, 1)))

    def test_class_keeps_read_only_copies(self):
        arrays = [np.array([0.1, 0.0]), np.array([0.0, 0.5]), np.array([0.5, 0.5]),
                  np.array([[0.0, 1.0], [0.0, 0.0]])]
        net = RiskNetwork(["a", "b"], *arrays)
        stored = (net.p_int, net.p_ext, net.p_con, net.E)
        for given, kept in zip(arrays, stored):
            assert kept is not given and not kept.flags.writeable
            given[...] = 0.25
        assert net.names == ("a", "b")
        assert net.p_int.tolist() == [0.1, 0.0] and net.E[0, 1] == 1.0


class TestDegreeStats:
    def test_single_edge_pair(self):
        net = build_network(["a", "b"], [0, 0], [0, 0], [0, 0], [[0, 1], [0, 0]])
        assert degree_stats(net) == (1.0, 0.0)

    def test_three_node_path(self):
        E = np.zeros((3, 3))
        E[0, 1] = E[1, 0] = E[1, 2] = E[2, 1] = 1.0
        net = build_network(list("abc"), [0] * 3, [0] * 3, [0] * 3, E)
        mean, std = degree_stats(net)
        assert mean == pytest.approx(4.0 / 3.0)
        assert std == pytest.approx(np.sqrt(2.0) / 3.0)  # degrees {1,2,1}

    @pytest.mark.parametrize("n", [4, 7])
    def test_regular_network_zero_std(self, n):
        ring = np.zeros((n, n))
        for i in range(n):
            ring[i, (i + 1) % n] = 1.0
        net = build_network([f"n{i}" for i in range(n)], [0] * n, [0] * n, [0] * n, ring)
        mean, std = degree_stats(net)
        assert std == 0.0 and mean == 2.0

    def test_weighted_support_counts_once(self):
        # asymmetric weights, same undirected support as a single edge
        net = build_network(["a", "b"], [0, 0], [0, 0], [0, 0], [[0, 0.3], [0.9, 0]])
        assert degree_stats(net) == (1.0, 0.0)


class TestStateVector:
    def test_binary_accepts_only_bits(self):
        binary_state([0, 1, 0])
        with pytest.raises(ValidationError):
            binary_state([0, 0.5])

    def test_continuous_bounds(self):
        continuous_state([0.0, 0.5, 1.0])
        with pytest.raises(ValidationError):
            continuous_state([0.0, 1.2])

    @pytest.mark.parametrize("values, mode, error, message", [
        ([[0.0, 1.0]], "continuous", DimensionMismatch, "state must be a vector, got shape (1, 2)"),
        (0.5, "binary", DimensionMismatch, "state must be a vector, got shape ()"),
        ([0.0, 1.0], "discrete", ValidationError, "unknown state mode 'discrete'"),
    ])
    def test_shape_and_mode_rejected(self, values, mode, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            StateVector(values, mode)

    def test_values_read_only(self):
        s = continuous_state([0.5])
        with pytest.raises(ValueError):
            s.values[0] = 0.1


class TestDriverSet:
    def test_projection_properties(self):
        d = DriverSet((2, 0), 4)
        assert d.indices == (0, 2)

    def test_selection_and_embed(self):
        d = DriverSet((1, 3), 5)
        S = d.selection
        assert S.shape == (5, 2)
        assert np.array_equal(S.T @ S, np.eye(2))

    def test_validation(self):
        with pytest.raises(ValidationError):
            DriverSet((), 3)
        with pytest.raises(ValidationError):
            DriverSet((3,), 3)
        with pytest.raises(ValidationError):
            DriverSet((-1,), 3)

    def test_non_integer_index_rejected(self):
        with pytest.raises(ValidationError, match="integer"):
            DriverSet((1.5, 2.9), 4)
        assert DriverSet((np.int64(2), 1), 4).indices == (1, 2)

    @pytest.mark.parametrize("indices", [(1, 1, 2), (2, 1, np.int64(1))])
    def test_repeated_index_rejected(self, indices):
        # a set of 3 is not quietly evaluated as a set of 2
        with pytest.raises(ValidationError, match="^driver index 1 is repeated$"):
            DriverSet(indices, 5)


def test_pin_arrays_rejects_non_integer_index():
    with pytest.raises(ValidationError, match="integer"):
        pin_arrays({1.5: 1}, 3)
    idx, val = pin_arrays({np.int64(1): 1}, 3)
    assert idx.tolist() == [1] and val.tolist() == [1.0]


@pytest.mark.parametrize("value", [True, 1.0, "1"])
def test_check_integer_rejects(value):
    with pytest.raises(ValidationError, match="integer"):
        check_integer("x", value)


@pytest.mark.parametrize("value", [1, np.int64(1)])
def test_check_integer_accepts(value):
    check_integer("x", value)


class TestCostMatrices:
    def test_identity(self):
        costs = identity_costs(3)
        assert np.array_equal(costs.Q, np.eye(3))

    def test_asymmetric_rejected(self):
        M = np.eye(2)
        bad = M.copy()
        bad[0, 1] = 1e-6
        with pytest.raises(ValidationError, match="symmetric"):
            CostMatrices(Q_f=bad, Q=M, R=M)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("label", ["Q_f", "Q", "R"])
    def test_non_finite_entry_rejected(self, label, bad):
        matrices = {key: np.eye(2) for key in ("Q_f", "Q", "R")}
        matrices[label][1, 1] = bad
        with pytest.raises(ValidationError, match=f"^{label} has a non-finite entry$"):
            CostMatrices(**matrices)

    def test_indefinite_state_cost_rejected(self):
        M = np.eye(2)
        with pytest.raises(ValidationError, match="semidefinite"):
            CostMatrices(Q_f=np.diag([1.0, -0.5]), Q=M, R=M)

    def test_semidefinite_signal_cost_rejected(self):
        M = np.eye(2)
        with pytest.raises(ValidationError, match="positive definite"):
            CostMatrices(Q_f=M, Q=M, R=np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("matrices, message", [
        ({"Q_f": 1.0}, "Q_f has shape (), expected a nonempty square matrix"),
        ({"Q_f": np.ones(2)}, "Q_f has shape (2,), expected a nonempty square matrix"),
        ({"Q_f": np.ones((2, 3))}, "Q_f has shape (2, 3), expected a nonempty square matrix"),
        ({"Q_f": np.zeros((0, 0)), "Q": np.zeros((0, 0)), "R": np.zeros((0, 0))},
         "Q_f has shape (0, 0), expected a nonempty square matrix"),
        ({"Q": 1.0}, "Q has shape (), expected (2, 2)"),
        ({"R": np.zeros((0, 0))}, "R has shape (0, 0), expected (2, 2)"),
        # the shape is checked before the definiteness of Q_f
        ({"Q_f": np.diag([1.0, -0.5]), "R": np.eye(3)}, "R has shape (3, 3), expected (2, 2)"),
        # numpy raised "setting an array element with a sequence"
        ({"Q_f": [[1, 0], [0]]}, "Q_f has rows of unequal length"),
        ({"R": [[1, 0], [0, 1, 0]]}, "R has rows of unequal length"),
    ], ids=["scalar", "vector", "not_square", "empty", "scalar_Q", "empty_R", "before_eigvals",
            "ragged_Q_f", "ragged_R"])
    def test_not_a_nonempty_square_matrix_rejected(self, matrices, message):
        # a scalar Q_f raised IndexError, an empty set of matrices numpy's
        # "zero-size array to reduction operation maximum" ValueError
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
            CostMatrices(**({key: np.eye(2) for key in ("Q_f", "Q", "R")} | matrices))

    def test_zero_state_costs_allowed(self):
        CostMatrices(Q_f=np.zeros((2, 2)), Q=np.zeros((2, 2)), R=np.eye(2))


def test_inflow_owns_the_transpose():
    net = build_network(["a", "b"], [0.1] * 2, [0.1] * 2, [0.5] * 2, [[0.0, 0.8], [0.0, 0.0]])
    # node 0 influences node 1, so activity at 0 arrives at 1
    assert np.array_equal(net.inflow(np.array([1.0, 0.0])), [0.0, 0.8])
