import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risknet import cascade
from risknet.cascade import (
    _BLOCK_STEPS,
    _SEGMENT_STEPS,
    _thresholds,
    ADDITIVE,
    PRODUCT,
    EventLog,
    SimConfig,
    monte_carlo_mean,
    run_discrete,
)
from risknet.dynamics import step_continuous
from risknet.errors import ValidationError
from risknet.model import binary_state, build_network, continuous_state
from risknet.netio import generate_synthetic
from helpers import (
    random_network,
    reference_activation,
    reference_monte_carlo_mean,
    reference_run_discrete,
)


def chain_forced():
    # node a feeds b; b activates with certainty when a is active
    return build_network(
        ["a", "b"], [0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [[0, 1], [0, 0]]
    )


def test_config_validation():
    with pytest.raises(ValidationError):
        SimConfig(steps=0, seed=1)
    with pytest.raises(ValidationError):
        SimConfig(steps=1, seed=-3)
    with pytest.raises(ValidationError):
        SimConfig(steps=1, seed=0, variant="other")
    with pytest.raises(ValidationError):
        SimConfig(steps=1, seed=0, pinned={0: 2})


@pytest.mark.parametrize("steps, seed", [(2.5, 0), (2, 1.5), ("3", 0), (2, True)])
def test_config_rejects_non_integer(steps, seed):
    with pytest.raises(ValidationError, match="integer"):
        SimConfig(steps=steps, seed=seed)


def test_config_accepts_numpy_integers():
    assert SimConfig(steps=np.int64(3), seed=np.uint32(7)).steps == 3


def test_event_log_validation():
    with pytest.raises(ValidationError):
        EventLog(np.array([[0, 2]]))


def test_all_probabilities_zero_recover():
    net = build_network(["a", "b"], [0, 0], [0, 0], [0, 0], np.zeros((2, 2)))
    log = run_discrete(net, binary_state([1, 1]), SimConfig(steps=1, seed=0))
    assert np.array_equal(log.states[1], [0, 0])


def test_absorbing_identity():
    net = build_network(
        ["a", "b"], [0, 0], [0, 0], [1, 1], np.array([[0, 1], [1, 0]], dtype=float)
    )
    cfg = SimConfig(steps=20, seed=3)
    for init in ([0, 0], [1, 0], [1, 1]):
        log = run_discrete(net, binary_state(init), cfg)
        assert np.array_equal(log.states, np.tile(init, (21, 1)))


def test_chain_forced_activation():
    log = run_discrete(chain_forced(), binary_state([1, 0]), SimConfig(steps=1, seed=7))
    assert np.array_equal(log.states[1], [1, 1])


def test_run_shape_and_first_row():
    net = chain_forced()
    log = run_discrete(net, binary_state([1, 0]), SimConfig(steps=1, seed=9))
    assert log.states.shape == (2, 2)
    assert np.array_equal(log.states[0], [1, 0])
    assert log.steps == 1


def test_run_is_deterministic():
    rng = np.random.default_rng(4)
    net = random_network(rng, 8)
    init = binary_state((rng.random(8) < 0.5).astype(float))
    cfg = SimConfig(steps=200, seed=123)
    a = run_discrete(net, init, cfg)
    b = run_discrete(net, init, cfg)
    assert np.array_equal(a.states, b.states)


def test_pinned_nodes_hold_value():
    rng = np.random.default_rng(5)
    net = random_network(rng, 6)
    cfg = SimConfig(steps=100, seed=11, pinned={2: 1, 4: 0})
    log = run_discrete(net, binary_state(np.zeros(6)), cfg)
    assert np.all(log.states[1:, 2] == 1)
    assert np.all(log.states[1:, 4] == 0)


@pytest.mark.parametrize("init", [continuous_state([0.0, 0.0]), binary_state([0, 0, 1])])
@pytest.mark.parametrize("entry", ["run_discrete", "monte_carlo_mean"])
def test_init_must_be_a_binary_state_of_the_network(entry, init):
    config = SimConfig(steps=1, seed=0)
    call = {
        "run_discrete": lambda: run_discrete(chain_forced(), init, config),
        "monte_carlo_mean": lambda: monte_carlo_mean(chain_forced(), init, config, 2),
    }[entry]
    with pytest.raises(ValidationError, match="init must be a binary state of 2 entries"):
        call()


def test_pinned_index_out_of_range():
    net = chain_forced()
    with pytest.raises(ValidationError):
        run_discrete(
            net, binary_state([0, 0]), SimConfig(steps=1, seed=0, pinned={5: 1})
        )


def test_single_node_stationary_frequency():
    # activation 0.1, recovery 0.3: stationary activity 0.1 / (0.1 + 0.3)
    net = build_network(["a"], [0.1], [0.0], [0.7], [[0]])
    log = run_discrete(net, binary_state([0]), SimConfig(steps=10**5, seed=2024))
    assert log.states.mean() == pytest.approx(0.25, abs=0.01)


def step_thresholds(net, variant, state):
    """The step's thresholds at one 0/1 state: p_con for an active node, the
    activation probability for an inactive one."""
    x = np.array([state], dtype=np.bool_)
    return _thresholds(net, SimConfig(steps=1, seed=0, variant=variant))(x)[0]


def test_variants_coincide_with_single_in_neighbor():
    net = chain_forced()
    for state in ([0, 0], [1, 0], [0, 1], [1, 1]):
        p = step_thresholds(net, PRODUCT, state)
        a = step_thresholds(net, ADDITIVE, state)
        assert p == pytest.approx(a)


def test_variants_differ_by_p_int_p_ext_with_one_active_in_neighbor():
    E = np.zeros((2, 2))
    E[0, 1] = 1.0
    net = build_network(["a", "b"], [0.2, 0.2], [0.5, 0.5], [0, 0], E)
    p = step_thresholds(net, PRODUCT, [1, 0])[1]
    a = step_thresholds(net, ADDITIVE, [1, 0])[1]
    assert p == pytest.approx(0.6)
    assert a == pytest.approx(0.7)
    assert a - p == pytest.approx(0.2 * 0.5)


def test_variants_differ_with_two_active_in_neighbors():
    E = np.zeros((3, 3))
    E[0, 2] = E[1, 2] = 1.0
    net = build_network(["a", "b", "c"], [0] * 3, [0, 0, 0.4], [0] * 3, E)
    p = step_thresholds(net, PRODUCT, [1, 1, 0])[2]
    a = step_thresholds(net, ADDITIVE, [1, 1, 0])[2]
    assert p == pytest.approx(1 - 0.6**2)
    assert a == pytest.approx(0.8)
    assert a > p


def test_additive_probability_clamped_at_one():
    E = np.zeros((3, 3))
    E[0, 2] = E[1, 2] = 1.0
    net = build_network(["a", "b", "c"], [0.5] * 3, [0.9] * 3, [0] * 3, E)
    a = step_thresholds(net, ADDITIVE, [1, 1, 0])
    assert a[2] == 1.0


class TestMonteCarlo:
    def test_single_trial_matches_single_run(self):
        rng = np.random.default_rng(6)
        net = random_network(rng, 5)
        init = binary_state([1, 0, 0, 1, 0])
        cfg = SimConfig(steps=50, seed=77)
        mean = monte_carlo_mean(net, init, cfg, trials=1)
        single = run_discrete(net, init, cfg)
        assert np.array_equal(mean, single.states)

    def test_trial_t_runs_with_seed_plus_t(self):
        rng = np.random.default_rng(8)
        net = random_network(rng, 5)
        init = binary_state([0, 1, 0, 0, 1])
        cfg = SimConfig(steps=30, seed=100)
        mean = monte_carlo_mean(net, init, cfg, trials=3)
        runs = [run_discrete(net, init, SimConfig(steps=30, seed=s)).states
                for s in (100, 101, 102)]
        assert np.array_equal(mean, (runs[0] + runs[1] + runs[2]) / 3)

    def test_deterministic_net_zero_variance(self):
        net = chain_forced()  # all probabilities are 0 or 1
        mean = monte_carlo_mean(
            net, binary_state([1, 0]), SimConfig(steps=3, seed=1), trials=16
        )
        assert np.all((mean == 0.0) | (mean == 1.0))

    def test_one_step_mean_matches_continuous_map(self):
        # two-node chain started deterministically: node updates are
        # independent Bernoullis whose means are the continuous map
        net = build_network(
            ["a", "b"], [0.1, 0.0], [0.0, 0.5], [0.5, 0.5], [[0, 1], [0, 0]]
        )
        init = np.array([1.0, 0.0])
        trials = 10**4
        mean = monte_carlo_mean(
            net,
            binary_state(init),
            SimConfig(steps=1, seed=31, variant=ADDITIVE),
            trials=trials,
        )
        expected, _ = step_continuous(net, continuous_state(init))
        se = np.sqrt(expected.values * (1 - expected.values) / trials)
        assert np.all(np.abs(mean[1] - expected.values) <= 3 * se + 1e-12)

    def test_trials_validated(self):
        net = chain_forced()
        with pytest.raises(ValidationError):
            monte_carlo_mean(net, binary_state([0, 0]), SimConfig(steps=1, seed=0), 0)

    def test_trials_must_be_an_integer(self):
        with pytest.raises(ValidationError, match="trials must be an integer, got 2.5"):
            monte_carlo_mean(
                chain_forced(), binary_state([0, 0]), SimConfig(steps=1, seed=0), 2.5
            )


def weighted_instance(seed, n, variant, pin):
    """A weighted random network, a random 0/1 start and a config that pins
    node 0 (to a random value) when ``pin`` is set."""
    rng = np.random.default_rng(seed)
    net = random_network(rng, n, edge_prob=0.6, weighted=True, ext_scale=0.9)
    init = binary_state((rng.random(n) < 0.5).astype(float))
    pinned = {0: int(rng.integers(2))} if pin else {}
    return net, init, pinned


class TestAgainstReference:
    """The block-drawn kernel against the one-step-at-a-time loop, bit for bit."""

    def test_block_draws_equal_per_step_draws(self):
        rows = np.random.default_rng(8).random((_BLOCK_STEPS + 1, 7))
        rng = np.random.default_rng(8)
        assert np.array_equal(rows, [rng.random(7) for _ in range(_BLOCK_STEPS + 1)])

    @pytest.mark.parametrize("variant", [PRODUCT, ADDITIVE])
    @pytest.mark.parametrize("pin", [False, True])
    @pytest.mark.parametrize(
        "steps",
        [1, 5, _SEGMENT_STEPS - 1, _SEGMENT_STEPS, _SEGMENT_STEPS + 1,
         _BLOCK_STEPS - 1, _BLOCK_STEPS, _BLOCK_STEPS + 1, 2 * _BLOCK_STEPS + 3],
    )
    def test_run_matches_reference(self, variant, pin, steps):
        net, init, pinned = weighted_instance(steps, 7, variant, pin)
        cfg = SimConfig(steps=steps, seed=steps + 11, variant=variant, pinned=pinned)
        log = run_discrete(net, init, cfg)
        assert log.states.dtype == np.uint8
        assert np.array_equal(log.states, reference_run_discrete(net, init, cfg))

    @pytest.mark.parametrize("variant", [PRODUCT, ADDITIVE])
    @pytest.mark.parametrize("network", ["absorbing", "slow_mixing", "rotating"])
    def test_chains_that_meet_late_or_never_match_reference(self, network, variant):
        # absorbing: every state is kept, so chains from different starts
        # never meet (the block's start is the right guess); slow mixing: an
        # active node stays for about 1000 steps, and some blocks fall back
        # to stepping one row at a time; rotating: a ring that passes one
        # active node on, whose segment starts differ from the block's
        # start, so every block falls back
        n = 12
        rng = np.random.default_rng(5)
        E = (rng.random((n, n)) < 0.35) * rng.uniform(0.2, 1.0, (n, n))
        np.fill_diagonal(E, 0.0)
        init = binary_state((rng.random(n) < 0.5).astype(float))
        if network == "absorbing":
            net = build_network(list("abcdefghijkl"), [0] * n, [0] * n, [1] * n, E)
        elif network == "slow_mixing":
            net = build_network(list("abcdefghijkl"), rng.uniform(0, 0.01, n),
                                rng.uniform(0, 0.05, n), [0.999] * n, E)
        else:
            net = build_network(["a", "b", "c"], [0] * 3, [1] * 3, [0] * 3,
                                np.roll(np.eye(3), 1, axis=1))
            init = binary_state([1, 0, 0])
        cfg = SimConfig(steps=2 * _BLOCK_STEPS + 3, seed=9, variant=variant)
        assert np.array_equal(
            run_discrete(net, init, cfg).states, reference_run_discrete(net, init, cfg)
        )

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        steps=st.integers(1, 40),
        variant=st.sampled_from([PRODUCT, ADDITIVE]),
        pin=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_run_equals_successive_steps(self, seed, n, steps, variant, pin):
        net, init, pinned = weighted_instance(seed, n, variant, pin)
        cfg = SimConfig(steps=steps, seed=seed, variant=variant, pinned=pinned)
        assert np.array_equal(
            run_discrete(net, init, cfg).states, reference_run_discrete(net, init, cfg)
        )

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        steps=st.integers(1, 8),
        trials=st.integers(1, 12),
        variant=st.sampled_from([PRODUCT, ADDITIVE]),
        pin=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_monte_carlo_equals_serial_trials(self, seed, n, steps, trials, variant, pin):
        net, init, pinned = weighted_instance(seed, n, variant, pin)
        cfg = SimConfig(steps=steps, seed=seed, variant=variant, pinned=pinned)
        assert np.array_equal(
            monte_carlo_mean(net, init, cfg, trials),
            reference_monte_carlo_mean(net, init, cfg, trials),
        )

    def test_monte_carlo_long_run_matches_serial_trials(self):
        net, init, pinned = weighted_instance(3, 5, PRODUCT, True)
        cfg = SimConfig(steps=_BLOCK_STEPS + 1, seed=40, pinned=pinned)
        assert np.array_equal(
            monte_carlo_mean(net, init, cfg, 3), reference_monte_carlo_mean(net, init, cfg, 3)
        )


class TestThresholds:
    """The step's thresholds: batch-invariant, and within a fixed bound of
    the model formula over the active in-neighbours
    (:func:`helpers.reference_activation`)."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        rows=st.integers(1, 40),
        # sparse; dense with one or two chunks per node; complete
        edge_prob=st.sampled_from([0.35, 0.8, 1.0]),
        variant=st.sampled_from([PRODUCT, ADDITIVE]),
        pin=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_each_stacked_row_equals_the_one_row_step(self, seed, n, rows, edge_prob, variant,
                                                      pin):
        rng = np.random.default_rng(seed)
        net = random_network(rng, n, edge_prob=edge_prob, weighted=True, ext_scale=0.9)
        pinned = {int(rng.integers(n)): int(rng.integers(2))} if pin else {}
        thresholds = _thresholds(net, SimConfig(steps=1, seed=0, variant=variant, pinned=pinned))
        # a strided view, as the lockstep segments pass
        x = (rng.random((rows, 3, n)) < rng.random())[:, 1]
        u = rng.random((rows, n))
        stacked = thresholds(x)
        for r in range(rows):
            one = thresholds(x[r : r + 1].copy())
            assert np.array_equal(stacked[r : r + 1], one)
            assert np.array_equal(u[r : r + 1] < stacked[r : r + 1], u[r : r + 1] < one)

    def test_pins_are_thresholds_of_one_and_zero(self):
        net = random_network(np.random.default_rng(3), 6, edge_prob=1.0, weighted=True)
        for variant in (PRODUCT, ADDITIVE):
            config = SimConfig(steps=1, seed=0, variant=variant, pinned={1: 1, 4: 0})
            th = _thresholds(net, config)(np.random.default_rng(4).random((50, 6)) < 0.5)
            assert np.all(th[:, 1] == 1.0) and np.all(th[:, 4] == 0.0)

    def test_drift_from_the_dense_formula_is_bounded(self):
        # a draw can only come out differently when its uniform falls
        # between the two thresholds
        worst = 0.0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 41))
            net = random_network(rng, n, edge_prob=float(rng.choice([0.3, 1.0])),
                                 weighted=True, ext_scale=0.9)
            x = rng.random((30, n)) < rng.random()
            for variant in (PRODUCT, ADDITIVE):
                th = _thresholds(net, SimConfig(steps=1, seed=0, variant=variant))(x)
                dense = [np.where(r, net.p_con, reference_activation(net, r, variant))
                         for r in x.astype(float)]
                worst = max(worst, float(np.max(np.abs(th - dense))))
        assert worst <= 1e-14

    @pytest.mark.parametrize("variant", [PRODUCT, ADDITIVE])
    def test_memory_grows_with_the_edges_not_the_largest_in_degree(self, variant):
        # a hub with n - 1 in-neighbours needs 50 chunks of 8, the other
        # nodes one each: the step's tables and indices stay within a few
        # (n, n) arrays, the size of the network's own weights
        n = 400
        E = np.zeros((n, n))
        E[1:, 0] = 1.0
        E[0, 1:] = 0.5
        net = build_network([f"n{i}" for i in range(n)], [0.1] * n, [0.3] * n, [0.5] * n, E)
        tracemalloc.start()
        try:
            thresholds = _thresholds(net, SimConfig(steps=1, seed=0, variant=variant))
            thresholds(np.zeros((4, n), dtype=np.bool_))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 8 * n * n


def sparse_weighted_network(seed):
    """A sparse 40-node network with symmetric weights from {0.25, 0.5,
    0.75, 1}, built as the weighted simulate-and-fit round trip builds it."""
    sparse = generate_synthetic(40, 4.0, 1.5, prob_ranges={"p_ext": (0.1, 0.5)}, seed=seed)
    rng = np.random.default_rng([seed, 2])
    upper = np.triu(sparse.E, 1) * rng.choice((0.25, 0.5, 0.75, 1.0), size=sparse.E.shape)
    return build_network(sparse.names, sparse.p_int, sparse.p_ext, sparse.p_con, upper + upper.T)


def test_sparse_network_runs_in_lockstep_segments(monkeypatch):
    # a silent slide to stepping one row at a time would take one step call
    # per row; the segments take about one per 20 rows on this network
    calls = []
    build = cascade._thresholds

    def counted(net, config):
        thresholds = build(net, config)

        def step(x):
            calls.append(len(x))
            return thresholds(x)

        return step

    monkeypatch.setattr(cascade, "_thresholds", counted)
    steps = 4 * _BLOCK_STEPS
    run_discrete(sparse_weighted_network(1), binary_state(np.zeros(40)),
                 SimConfig(steps=steps, seed=1))
    assert len(calls) <= steps // 8


def test_long_run_draws_in_blocks():
    # the uniforms of a long run are drawn a block at a time: the run's peak
    # (the 1-byte log cells, their copy and check in EventLog, one block of
    # draws) stays below half the 8 bytes a cell that drawing every step's
    # uniforms at once would take on its own
    n, steps = 8, 100_000
    net = random_network(np.random.default_rng(12), n)
    tracemalloc.start()
    try:
        run_discrete(net, binary_state(np.zeros(n)), SimConfig(steps=steps, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * steps * n


def test_monte_carlo_draws_at_most_one_block_at_once():
    # 64 trials draw 1024 // 64 rows each at a time: the peak is the counts
    # (divided in place), one block of draws and the generators, not every
    # trial's uniforms at once
    n, steps, trials = 8, 4000, 64
    net = random_network(np.random.default_rng(12), n)
    tracemalloc.start()
    try:
        monte_carlo_mean(net, binary_state(np.zeros(n)), SimConfig(steps=steps, seed=1), trials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (steps + 1) * n + 4 * 8 * _BLOCK_STEPS * n


def test_monte_carlo_beyond_one_block_of_trials_matches_serial_trials():
    net, init, pinned = weighted_instance(4, 3, ADDITIVE, True)
    cfg = SimConfig(steps=2, seed=5, variant=ADDITIVE, pinned=pinned)
    trials = _BLOCK_STEPS + 3
    mean = monte_carlo_mean(net, init, cfg, trials)
    assert np.array_equal(mean, reference_monte_carlo_mean(net, init, cfg, trials))


def test_event_log_check_makes_no_log_sized_temporaries():
    # the run's log, EventLog's one copy of it and at most one block of
    # draws: checking the 0/1 entries adds nothing the size of the log
    n, steps = 8, 30_000
    net = random_network(np.random.default_rng(12), n)
    tracemalloc.start()
    try:
        run_discrete(net, binary_state(np.zeros(n)), SimConfig(steps=steps, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (steps + 1) * n + 8 * _BLOCK_STEPS * n


@pytest.mark.parametrize("states", [
    np.array([[0, 1], [1, 1]], dtype=np.uint8),
    np.array([[0, 1], [1, 0]]),
    np.array([[0.0, 1.0], [-0.0, 1.0]]),
    np.array([[True, False]]),
    np.array([[0, 1]], dtype=object),
    np.zeros((1, 0)),
])
def test_event_log_owns_a_read_only_copy(states):
    log = EventLog(states)
    assert log.states.dtype == np.uint8 and not log.states.flags.writeable
    assert np.array_equal(log.states, states)
    # the caller's array is neither frozen nor shared
    assert states.flags.writeable and not np.shares_memory(log.states, states)


@pytest.mark.parametrize("states", [
    np.array([[0, 2]]),
    np.array([[0, -1]]),
    np.array([[0.5, 1.0]]),
    np.array([[np.nan, 1.0]]),
    np.array([[0.0, np.inf]]),
    np.array([[0, 256]], dtype=np.uint16),
    np.array([[0, 2]], dtype=np.uint8),
    np.array([["0", "1"]]),
])
def test_event_log_rejects_entries_other_than_0_and_1(states):
    with pytest.raises(ValidationError, match="0 or 1"):
        EventLog(states)


@pytest.mark.parametrize("states", [np.zeros(3), np.zeros((1, 2, 2)), 0])
def test_event_log_must_be_2d(states):
    with pytest.raises(ValidationError, match="^event log must be a 2-D array$"):
        EventLog(states)


@pytest.mark.parametrize("states", [np.zeros((0, 3)), np.zeros((0, 0), dtype=np.uint8)])
def test_event_log_needs_the_initial_state_row(states):
    # a zero-row log had steps == -1, and count_transitions failed on it
    # with numpy's "negative dimensions are not allowed"
    with pytest.raises(ValidationError, match="^event log needs at least the initial-state row$"):
        EventLog(states)
