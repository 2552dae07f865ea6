import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risknet.cascade import (
    _BLOCK_STEPS,
    _activation,
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
from helpers import random_network, reference_monte_carlo_mean, reference_run_discrete


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


def test_variants_coincide_with_single_in_neighbor():
    net = chain_forced()
    for state in ([0, 0], [1, 0], [0, 1], [1, 1]):
        x = np.array(state, dtype=float)
        p = _activation(net, PRODUCT)(x)
        a = _activation(net, ADDITIVE)(x)
        assert p == pytest.approx(a)


def test_variants_differ_with_two_active_in_neighbors():
    E = np.zeros((3, 3))
    E[0, 2] = E[1, 2] = 1.0
    net = build_network(["a", "b", "c"], [0] * 3, [0, 0, 0.4], [0] * 3, E)
    x = np.array([1.0, 1.0, 0.0])
    p = _activation(net, PRODUCT)(x)[2]
    a = _activation(net, ADDITIVE)(x)[2]
    assert p == pytest.approx(1 - 0.6**2)
    assert a == pytest.approx(0.8)
    assert a > p


def test_additive_probability_clamped_at_one():
    E = np.zeros((3, 3))
    E[0, 2] = E[1, 2] = 1.0
    net = build_network(["a", "b", "c"], [0.5] * 3, [0.9] * 3, [0] * 3, E)
    a = _activation(net, ADDITIVE)(np.array([1.0, 1.0, 0.0]))
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
        "steps", [1, 5, _BLOCK_STEPS - 1, _BLOCK_STEPS, _BLOCK_STEPS + 1, 2 * _BLOCK_STEPS + 3]
    )
    def test_run_matches_reference(self, variant, pin, steps):
        net, init, pinned = weighted_instance(steps, 7, variant, pin)
        cfg = SimConfig(steps=steps, seed=steps + 11, variant=variant, pinned=pinned)
        log = run_discrete(net, init, cfg)
        assert log.states.dtype == np.uint8
        assert np.array_equal(log.states, reference_run_discrete(net, init, cfg))

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
    np.zeros((0, 3)),
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
