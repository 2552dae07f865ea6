import importlib.util
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    exposure_levels,
    exposure_loglik,
    reference_count_transitions,
    reference_p_ext,
)
from risknet.cascade import EventLog, SimConfig, run_discrete
from risknet.cli import cli_main
from risknet.errors import DimensionMismatch, ProbabilityOutOfRange, ValidationError
from risknet.estimation import _TINY, TransitionCounts, count_transitions, fit_probabilities
from risknet.model import binary_state, build_network
from risknet.netio import generate_synthetic, save_network, write_event_log


def ring_network(n, p_int, p_ext, p_con):
    E = np.zeros((n, n))
    for i in range(n):
        E[i, (i + 1) % n] = 1.0
        E[(i + 1) % n, i] = 1.0
    return build_network(
        [f"r{i}" for i in range(n)], [p_int] * n, [p_ext] * n, [p_con] * n, E
    )


def network_of(E):
    """A network that carries the weights ``E``; counting reads only them."""
    n = len(E)
    return build_network([f"r{i}" for i in range(n)], [0] * n, [0] * n, [0] * n, E)


def empty_counts_node():
    return (np.empty(0), np.empty(0))


def one_node_counts(s, outcome, int_trials=0.0):
    return TransitionCounts(
        int_trials=np.array([int_trials]), int_hits=np.zeros(1),
        con_trials=np.zeros(1), con_hits=np.zeros(1),
        exposures=((np.asarray(s, dtype=float), np.asarray(outcome, dtype=float)),),
    )


def assert_same_counts(got, want):
    """Equal bit for bit: tallies, every node's records in order, dtypes."""
    for label in ("int_trials", "int_hits", "con_trials", "con_hits"):
        a, b = getattr(got, label), getattr(want, label)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), label
    assert len(got.exposures) == len(want.exposures)
    for (s, o), (ref_s, ref_o) in zip(got.exposures, want.exposures):
        assert (s.dtype, o.dtype) == (ref_s.dtype, ref_o.dtype)
        assert s.tobytes() == ref_s.tobytes() and o.tobytes() == ref_o.tobytes()


def random_log(rng, n, steps):
    """A random 0/1 log and a weighted network with non-dyadic weights."""
    E = (rng.random((n, n)) < rng.uniform(0.2, 0.9)) * rng.uniform(0.1, 1.0, size=(n, n))
    np.fill_diagonal(E, 0.0)
    states = rng.random((steps + 1, n)) < rng.uniform(0.1, 0.9, size=n)
    return E, EventLog(states.astype(np.uint8))


def random_exposures(rng, kind):
    """One node's records: none, a single level, a few levels, or more than
    32 distinct levels."""
    if kind == "empty":
        return empty_counts_node()
    distinct = {"single": 1, "few": int(rng.integers(2, 6)), "many": int(rng.integers(33, 90))}[kind]
    pool = rng.uniform(0.05, 3.0, size=distinct)
    s = np.concatenate([pool, rng.choice(pool, size=int(rng.integers(0, 300)))])
    rng.shuffle(s)
    return s, (rng.random(s.size) < rng.uniform(0.05, 0.95)).astype(float)


def load_tracer():
    """The benchmark's span recorder, loaded by path as the benchmark does."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCountTransitions:
    def test_never_active_quiet_node(self):
        log = EventLog(np.zeros((11, 1)))
        c = count_transitions(network_of(np.zeros((1, 1))), log)
        assert c.int_trials[0] == 10 and c.int_hits[0] == 0
        assert c.con_trials[0] == 0
        assert len(c.exposures[0][0]) == 0

    def test_single_node_hand_classification(self):
        log = EventLog(np.array([[0], [1], [1], [0]]))
        c = count_transitions(network_of(np.zeros((1, 1))), log)
        assert (c.int_trials[0], c.int_hits[0]) == (1, 1)
        assert (c.con_trials[0], c.con_hits[0]) == (2, 1)

    def test_exposures_capture_weighted_inflow(self):
        E = np.array([[0.0, 0.7], [0.0, 0.0]])
        # node 1 inactive while node 0 active twice: exposures (0.7, outcome)
        log = EventLog(np.array([[1, 0], [1, 0], [0, 1], [0, 1]]))
        c = count_transitions(network_of(E), log)
        s, o = c.exposures[1]
        assert np.array_equal(s, [0.7, 0.7])
        assert np.array_equal(o, [0.0, 1.0])
        # node 1 is never inactive with quiet in-neighbors in this log
        assert c.int_trials[1] == 0
        assert c.int_trials[0] == 1 and c.con_trials[0] == 2

    def test_pinned_columns_masked_out(self):
        log = EventLog(np.array([[0, 1], [1, 1], [0, 1]]))
        c = count_transitions(network_of(np.zeros((2, 2))), log, pinned={1})
        assert c.int_trials[1] == 0 and c.con_trials[1] == 0
        assert len(c.exposures[1][0]) == 0
        assert c.int_trials[0] == 1 and c.con_trials[0] == 1

    @pytest.mark.parametrize("pinned", [{-1}, {2}, {-1, 7}])
    def test_pinned_index_out_of_range_rejected(self, pinned):
        log = EventLog(np.zeros((3, 2)))
        message = f"pinned index {min(pinned)} out of range for 2 nodes"
        with pytest.raises(ValidationError, match=f"^{message}$"):
            count_transitions(network_of(np.zeros((2, 2))), log, pinned=pinned)

    def test_non_integer_pinned_index_rejected(self):
        log = EventLog(np.zeros((3, 2)))
        for index in (1.5, True):
            message = re.escape(f"pinned index must be an integer, got {index}")
            with pytest.raises(ValidationError, match=f"^{message}$"):
                count_transitions(network_of(np.zeros((2, 2))), log, pinned={index})

    def test_dimension_mismatch(self):
        log = EventLog(np.zeros((3, 2)))
        with pytest.raises(DimensionMismatch, match="^log has 2 columns, expected 3$"):
            count_transitions(network_of(np.zeros((3, 3))), log)

    @pytest.mark.parametrize("weight", [np.nan, -1.0, 2.0])
    def test_weight_outside_unit_interval_never_reaches_the_count(self, weight):
        # counting reads its weights from the network, which rejects these
        with pytest.raises(ProbabilityOutOfRange, match=rf"^E\[0, 1\] = {weight} is outside"):
            network_of([[0.0, weight], [0.0, 0.0]])

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        steps=st.integers(0, 60),
        pin=st.booleans(),
    )
    @example(seed=5, n=4, steps=1, pin=False)
    @settings(max_examples=80, deadline=None)
    def test_equals_column_mask_oracle(self, seed, n, steps, pin):
        rng = np.random.default_rng(seed)
        E, log = random_log(rng, n, steps)
        pinned = None
        if pin:
            pinned = set(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False).tolist())
        assert_same_counts(
            count_transitions(network_of(E), log, pinned),
            reference_count_transitions(E, log, pinned),
        )

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        long=st.booleans(),
        dyadic=st.booleans(),
    )
    @example(seed=339, n=12, long=False, dyadic=False)  # differs from ``prev @ E`` by 1 ulp
    @settings(max_examples=40, deadline=None)
    def test_inflow_matches_matmul(self, seed, n, long, dyadic):
        # the in-order sum against the earlier estimator's ``prev @ E``, on
        # logs of at most 60 and of at least 5,000 steps: bit for bit when
        # every partial sum is exact (weights in quarters), else within
        # 1e-15 relative
        rng = np.random.default_rng(seed)
        E, log = random_log(rng, n, int(rng.integers(5000, 6001) if long else rng.integers(0, 61)))
        if dyadic:
            E = np.ceil(E * 4.0) / 4.0
        got = count_transitions(network_of(E), log)
        want = reference_count_transitions(E, log, inflow=lambda E, prev: prev @ E)
        if dyadic:
            assert_same_counts(got, want)
            return
        for label in ("int_trials", "int_hits", "con_trials", "con_hits"):
            assert getattr(got, label).tobytes() == getattr(want, label).tobytes(), label
        for (s, o), (ref_s, ref_o) in zip(got.exposures, want.exposures, strict=True):
            assert o.tobytes() == ref_o.tobytes()
            np.testing.assert_allclose(s, ref_s, rtol=1e-15, atol=0.0)

    def test_peak_memory_stays_near_the_records(self):
        # a 40-node, 25,000-step log of the benchmark's weighted round trip:
        # counting holds one node-major byte copy of the log and per-node
        # vectors beside the exposure records it returns, not (T, n) floats
        sparse = generate_synthetic(40, 4.0, 1.5, prob_ranges={"p_ext": (0.1, 0.5)}, seed=1)
        rng = np.random.default_rng([1, 2])
        upper = np.triu(sparse.E, 1) * rng.choice([0.25, 0.5, 0.75, 1.0], size=sparse.E.shape)
        E = upper + upper.T
        net = build_network(sparse.names, sparse.p_int, sparse.p_ext, sparse.p_con, E)
        log = run_discrete(net, binary_state(np.zeros(40)), SimConfig(steps=25_000, seed=1))
        count_transitions(net, log)  # the first call's imports are not its working memory
        tracemalloc.start()
        try:
            counts = count_transitions(net, log)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        records = sum(s.nbytes + o.nbytes for s, o in counts.exposures)
        assert records > 4 * log.states.nbytes
        assert peak < 1.5 * records

    def test_tracer_probe_counts_records_and_levels(self):
        # the benchmark's exposure probe reads exposures as per-node
        # (s, outcome) pairs and reports its counters absent otherwise
        tracer_mod = load_tracer()
        tracer = tracer_mod.Tracer()
        probe = tracer_mod._record_exposures(tracer)
        net = ring_network(6, p_int=0.05, p_ext=0.3, p_con=0.6)
        E = net.E * np.array([0.25, 0.5, 0.75, 1.0, 0.5, 0.25])
        log = run_discrete(net, binary_state(np.zeros(6)), SimConfig(steps=3000, seed=4))
        probe(count_transitions(network_of(E), log))
        want = reference_count_transitions(E, log).exposures
        records = tracer.counts["estimation.exposure_records"]
        levels = tracer.counts["estimation.exposure_levels"]
        assert type(records) is int and type(levels) is int
        assert records == sum(len(s) for s, _ in want) > 0
        assert levels == sum(len(set(s.tolist())) for s, _ in want) > 6
        json.dumps(tracer.counts, allow_nan=False)

    def test_counts_validation(self):
        with pytest.raises(ValidationError):
            TransitionCounts(
                int_trials=np.array([1.0]),
                int_hits=np.array([2.0]),
                con_trials=np.array([0.0]),
                con_hits=np.array([0.0]),
                exposures=(empty_counts_node(),),
            )


class TestCountsInputChecks:
    def test_exposure_pair_lengths_must_match(self):
        with pytest.raises(DimensionMismatch):
            one_node_counts([1.0, 2.0], [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_activity_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            one_node_counts([1.0, bad], [0.0, 1.0])

    @pytest.mark.parametrize("bad", [2.0, 0.5, -1.0, np.nan])
    def test_non_binary_outcome_rejected(self, bad):
        with pytest.raises(ValidationError, match="0 or 1"):
            one_node_counts([1.0, 2.0], [1.0, bad])

    @pytest.mark.parametrize("label", ["int_trials", "int_hits", "con_trials", "con_hits"])
    def test_negative_counts_rejected(self, label):
        fields = {k: np.zeros(1) for k in ("int_trials", "int_hits", "con_trials", "con_hits")}
        fields[label] = np.array([-1.0])
        with pytest.raises(ValidationError, match="non-negative"):
            TransitionCounts(**fields, exposures=(empty_counts_node(),))

    @pytest.mark.parametrize("label", ["int_hits", "con_trials", "con_hits", "exposures"])
    def test_tally_or_exposures_of_another_length_rejected(self, label):
        fields = {k: np.zeros(1) for k in ("int_trials", "int_hits", "con_trials", "con_hits")}
        fields["exposures"] = (empty_counts_node(),)
        fields[label] = np.zeros(2) if label != "exposures" else fields[label] * 2
        with pytest.raises(DimensionMismatch, match=f"^{label} length does not match$"):
            TransitionCounts(**fields)

    @pytest.mark.parametrize("smoothing", [np.nan, np.inf])
    def test_non_finite_smoothing_rejected(self, smoothing):
        with pytest.raises(ValidationError, match="smoothing"):
            fit_probabilities(one_node_counts([1.0], [1.0], int_trials=3.0), smoothing=smoothing)

    def test_cli_fit_rejects_nan_smoothing(self, tmp_path, capsys):
        net = ring_network(3, p_int=0.1, p_ext=0.3, p_con=0.5)
        save_network(tmp_path / "net.json", net)
        log = run_discrete(net, binary_state(np.zeros(3)), SimConfig(steps=200, seed=1))
        write_event_log(tmp_path / "events.csv", log, net.names)
        code = cli_main([
            "fit", str(tmp_path / "events.csv"), str(tmp_path / "net.json"),
            "--smoothing", "nan", "--output-dir", str(tmp_path),
        ])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"
        assert not (tmp_path / "fitted_params.json").exists()


class TestFitProbabilities:
    @given(
        seed=st.integers(0, 2**32 - 1),
        kinds=st.lists(st.sampled_from(["empty", "single", "few", "many"]), min_size=1, max_size=8),
        smoothing=st.sampled_from([0.0, 0.5]),
    )
    @example(seed=1, kinds=["many", "many", "single", "empty", "few"], smoothing=0.0)
    @settings(max_examples=60, deadline=None)
    def test_equals_per_node_search(self, seed, kinds, smoothing):
        # internal tallies give p_int NaN (no trials), exactly 1.0 (so the
        # survival is the floor _TINY) or an interior value
        rng = np.random.default_rng(seed)
        n = len(kinds)
        int_trials = rng.choice([0.0, 5.0, 40.0], size=n)
        int_hits = np.where(rng.random(n) < 0.4, int_trials, np.floor(int_trials * rng.random(n)))
        counts = TransitionCounts(
            int_trials=int_trials, int_hits=int_hits,
            con_trials=np.zeros(n), con_hits=np.zeros(n),
            exposures=tuple(random_exposures(rng, kind) for kind in kinds),
        )
        fit = fit_probabilities(counts, smoothing=smoothing)
        assert fit.p_ext.tobytes() == reference_p_ext(counts, fit.p_int, smoothing).tobytes()

    def test_agrees_with_scipy_bounded_minimizer(self):
        # an independent maximizer of the same likelihood
        from scipy.optimize import minimize_scalar

        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(25):
            n = int(rng.integers(1, 6))
            p_int, p_ext = rng.uniform(0.0, 0.4, size=n), rng.uniform(0.05, 0.9, size=n)
            exposures = []
            for i in range(n):
                s = rng.choice(rng.uniform(0.1, 3.0, size=int(rng.integers(1, 40))), size=400)
                act = 1.0 - (1.0 - p_int[i]) * (1.0 - p_ext[i]) ** s
                exposures.append((s, (rng.random(s.size) < act).astype(float)))
            trials = np.full(n, 200.0)
            counts = TransitionCounts(
                int_trials=trials, int_hits=np.round(trials * p_int),
                con_trials=np.zeros(n), con_hits=np.zeros(n), exposures=tuple(exposures),
            )
            fit = fit_probabilities(counts)
            for i, (s, outcome) in enumerate(exposures):
                levels, hits, misses = exposure_levels(s, outcome)
                c = max(1.0 - fit.p_int[i], _TINY)
                best = minimize_scalar(
                    lambda p: -exposure_loglik(p, levels, hits, misses, c),
                    bounds=(0.0, 1.0), method="bounded", options={"xatol": 1e-10},
                )
                worst = max(worst, abs(fit.p_ext[i] - best.x))
        assert worst < 1e-6


    def test_closed_form_ratio(self):
        c = TransitionCounts(
            int_trials=np.array([10.0]),
            int_hits=np.array([2.0]),
            con_trials=np.array([8.0]),
            con_hits=np.array([6.0]),
            exposures=(empty_counts_node(),),
        )
        fit = fit_probabilities(c)
        assert fit.p_int[0] == pytest.approx(0.2)
        assert fit.p_con[0] == pytest.approx(0.75)

    def test_smoothing_prior_with_no_data(self):
        c = TransitionCounts(
            int_trials=np.zeros(2),
            int_hits=np.zeros(2),
            con_trials=np.zeros(2),
            con_hits=np.zeros(2),
            exposures=(empty_counts_node(), empty_counts_node()),
        )
        fit = fit_probabilities(c, smoothing=1.0)
        assert np.allclose(fit.p_int, 0.5)
        assert np.allclose(fit.p_ext, 0.5)
        assert np.allclose(fit.p_con, 0.5)

    def test_unidentifiable_external_flagged_not_guessed(self):
        c = TransitionCounts(
            int_trials=np.array([5.0]),
            int_hits=np.array([1.0]),
            con_trials=np.array([5.0]),
            con_hits=np.array([4.0]),
            exposures=(empty_counts_node(),),
        )
        fit = fit_probabilities(c)
        assert np.isnan(fit.p_ext[0])
        assert not np.isnan(fit.p_int[0])

    def test_negative_smoothing_rejected(self):
        c = TransitionCounts(
            int_trials=np.zeros(1), int_hits=np.zeros(1),
            con_trials=np.zeros(1), con_hits=np.zeros(1),
            exposures=(empty_counts_node(),),
        )
        with pytest.raises(ValidationError):
            fit_probabilities(c, smoothing=-0.5)

    def test_infinite_data_surrogate_exact_recovery(self):
        p_int, p_con = 0.07, 0.62
        trials = 1e9
        c = TransitionCounts(
            int_trials=np.array([trials]),
            int_hits=np.array([trials * p_int]),
            con_trials=np.array([trials]),
            con_hits=np.array([trials * p_con]),
            exposures=(empty_counts_node(),),
        )
        fit = fit_probabilities(c)
        assert fit.p_int[0] == pytest.approx(p_int, abs=1e-12)
        assert fit.p_con[0] == pytest.approx(p_con, abs=1e-12)

    def test_external_mle_on_analytic_exposure_counts(self):
        # expected hit/miss counts at activity levels 1 and 2 for known
        # parameters; the likelihood maximum must sit at the generator
        p_int, p_ext = 0.1, 0.3
        levels = np.array([1.0, 1.0, 2.0, 2.0])
        big = 1e6
        weights = []
        outcomes = []
        for s in (1.0, 2.0):
            p_act = 1 - (1 - p_int) * (1 - p_ext) ** s
            weights += [big * p_act, big * (1 - p_act)]
            outcomes += [1.0, 0.0]
        # expand to per-record arrays via repetition proportional weights:
        # use fractional counts directly through np.repeat on a coarse grid
        s_arr = np.repeat(levels, 1)
        o_arr = np.array(outcomes)
        # fractional weights are not representable as records; emulate by
        # aggregating many duplicated records with integer counts
        reps = np.maximum(1, np.round(np.array(weights) / 1e3).astype(int))
        s_full = np.repeat(s_arr, reps)
        o_full = np.repeat(o_arr, reps)
        c = TransitionCounts(
            int_trials=np.array([1e9]),
            int_hits=np.array([1e8]),  # fixes p_int at 0.1 exactly
            con_trials=np.array([1.0]),
            con_hits=np.array([0.0]),
            exposures=((s_full, o_full),),
        )
        fit = fit_probabilities(c)
        assert fit.p_ext[0] == pytest.approx(p_ext, abs=1e-3)


class TestRoundTrip:
    @pytest.mark.parametrize("pinned", [None, {3}])
    def test_long_simulated_log_equals_the_per_node_oracles(self, pinned):
        net = ring_network(8, p_int=0.05, p_ext=0.3, p_con=0.6)
        E = net.E * np.linspace(0.3, 0.9, 8)
        log = run_discrete(net, binary_state(np.zeros(8)), SimConfig(steps=5000, seed=2))
        counts = count_transitions(network_of(E), log, pinned)
        assert_same_counts(counts, reference_count_transitions(E, log, pinned))
        fit = fit_probabilities(counts)
        assert fit.p_ext.tobytes() == reference_p_ext(counts, fit.p_int).tobytes()

    def test_simulate_then_fit_recovers_parameters(self):
        net = ring_network(6, p_int=0.08, p_ext=0.25, p_con=0.75)
        cfg = SimConfig(steps=3 * 10**4, seed=5, variant="product")
        log = run_discrete(net, binary_state(np.zeros(6)), cfg)
        fit = fit_probabilities(count_transitions(net, log))
        assert np.max(np.abs(fit.p_int - 0.08)) < 0.03
        assert np.max(np.abs(fit.p_ext - 0.25)) < 0.03
        assert np.max(np.abs(fit.p_con - 0.75)) < 0.03

    def test_error_shrinks_with_log_length(self):
        net = ring_network(6, p_int=0.08, p_ext=0.25, p_con=0.75)
        truth = np.array([0.08, 0.25, 0.75])

        def batch_error(steps, seeds):
            errs = []
            for seed in seeds:
                cfg = SimConfig(steps=steps, seed=seed, variant="product")
                log = run_discrete(net, binary_state(np.zeros(6)), cfg)
                fit = fit_probabilities(count_transitions(net, log))
                est = np.array([fit.p_int.mean(), fit.p_ext.mean(), fit.p_con.mean()])
                errs.append(np.abs(est - truth).max())
            return float(np.mean(errs))

        seeds = range(20, 24)
        assert batch_error(10**5, seeds) < batch_error(10**3, seeds)
