import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from risknet import experiments
from risknet.dynamics import find_steady_state
from risknet.errors import SaturatedPoint, StratumInfeasible, ValidationError
from risknet.experiments import (
    ExperimentPlan,
    run_experiment,
    sample_driver_sets,
    top_steady_nodes,
)
from risknet.model import (
    DriverSet,
    binary_state,
    build_network,
    continuous_state,
    identity_costs,
)
from risknet.netio import experiment_rows, generate_synthetic, write_experiment_summary
from helpers import contractive_network, reference_steady_state, saturating_net


def small_net(seed=3):
    return generate_synthetic(
        10, 4.0, 1.0,
        prob_ranges={"p_int": (0.02, 0.2), "p_ext": (0.01, 0.05), "p_con": (0.4, 0.6)},
        seed=seed,
    )


def baseline_counts(net, driver, init):
    """(initially_active, steady_peak) of ``driver`` evaluated as a baseline
    set of a one-step proactive sweep."""
    plan = ExperimentPlan(
        driver_size=driver.size, num_sets=1, seed=0, phase="proactive",
        steps_proactive=1, baseline_sets={"b": driver.indices},
    )
    res = run_experiment(plan, net, init, identity_costs(net.n))
    (ev,) = [ev for ev in res.evaluations if ev.kind == "baseline"]
    return ev.initially_active, ev.steady_peak


class TestClassifyDrivers:
    def test_inactive_init_counts_zero(self):
        rng = np.random.default_rng(0)
        net = contractive_network(rng, 8)
        driver = DriverSet((0, 3, 5), 8)
        active, _ = baseline_counts(net, driver, continuous_state(np.zeros(8)))
        assert active == 0

    def test_top_containment(self):
        rng = np.random.default_rng(1)
        net = contractive_network(rng, 8)
        x_s = find_steady_state(net)
        top = sorted(top_steady_nodes(x_s, 0.25))  # ceil(2) = 2 nodes
        driver = DriverSet(tuple(top), 8)
        _, peak = baseline_counts(net, driver, continuous_state(np.zeros(8)))
        assert peak == len(top)

    def test_hand_ranking_with_ties_by_index(self):
        x_s = continuous_state([0.9, 0.1, 0.2, 0.8])
        classes = experiments._driver_classes(x_s, x_s, top_fraction=0.5)
        assert classes["steady_peak"].tolist() == [True, False, False, True]  # top-2 by value
        assert classes["initially_active"].tolist() == [True, False, False, True]  # init >= 0.5
        tied = continuous_state([0.2, 0.7, 0.2, 0.2])
        assert top_steady_nodes(tied, 0.5) == {1, 0}  # the tie goes to node 0


class TestPlanValidation:
    def test_bad_fields(self):
        with pytest.raises(ValidationError):
            ExperimentPlan(driver_size=0, num_sets=1, seed=0)
        with pytest.raises(ValidationError):
            ExperimentPlan(driver_size=2, num_sets=1, seed=0, stratify_by="bogus")
        with pytest.raises(ValidationError):
            ExperimentPlan(driver_size=2, num_sets=1, seed=0, phase="sideways")
        with pytest.raises(ValidationError):
            ExperimentPlan(
                driver_size=2, num_sets=1, seed=0,
                stratify_by="steady_peak", groups=((3, 10),),
            )
        with pytest.raises(ValidationError):
            ExperimentPlan(driver_size=2, num_sets=1, seed=0, top_fraction=0.0)

    @pytest.mark.parametrize("fields", [
        {"driver_size": 2.0},
        {"num_sets": 1.5},
        {"seed": 1.5},
        {"seed": True},
        {"steps_reactive": 10.5},
        {"steps_proactive": "50"},
        {"stratify_by": "steady_peak", "groups": ((1.5, 2),)},
        {"stratify_by": "steady_peak", "groups": ((1, 2.9),)},
        {"stratify_by": "steady_peak", "groups": (1, 2)},
    ])
    def test_non_integer_setting_rejected(self, fields):
        settings = dict(driver_size=2, num_sets=1, seed=0) | fields
        with pytest.raises(ValidationError, match="integer|pair"):
            ExperimentPlan(**settings)

    @pytest.mark.parametrize("top_fraction", ["0.5", True])
    def test_non_numeric_top_fraction_rejected(self, top_fraction):
        # a string does not compare with 0.0, and True is not a fraction
        message = re.escape(f"top_fraction must be a number in (0, 1], got {top_fraction!r}")
        with pytest.raises(ValidationError, match=f"^{message}$"):
            ExperimentPlan(driver_size=2, num_sets=1, seed=0, top_fraction=top_fraction)

    def test_numpy_integers_accepted(self):
        plan = ExperimentPlan(
            driver_size=np.int64(2), num_sets=np.int32(2), seed=np.uint8(3),
            stratify_by="steady_peak", groups=((np.int64(1), np.int64(2)),),
        )
        assert plan.groups == ((1, 2),) and plan.num_sets == 2
        stored = (plan.driver_size, plan.seed, plan.num_sets, plan.steps_reactive, *plan.groups[0])
        assert all(type(v) is int for v in stored)

    def test_non_integer_baseline_index_rejected(self):
        with pytest.raises(ValidationError, match="integer"):
            ExperimentPlan(driver_size=2, num_sets=1, seed=0, baseline_sets={"b": (0.5, 2.7)})
        plan = ExperimentPlan(
            driver_size=2, num_sets=1, seed=0, baseline_sets={"b": (np.int64(2), 0)}
        )
        assert plan.baseline_sets == {"b": (0, 2)}

    def test_groups_without_strata_rejected(self):
        # the groups of an unstratified plan would never be drawn
        message = "groups apply only to a stratified plan; stratify_by is 'none'"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            ExperimentPlan(driver_size=2, num_sets=1, seed=0, groups=((1, 5),))

    def test_stratified_num_sets_derived_from_groups(self):
        fields = dict(driver_size=3, seed=0, stratify_by="steady_peak", groups=((1, 4), (2, 6)))
        assert ExperimentPlan(**fields).num_sets == 10
        assert ExperimentPlan(num_sets=10, **fields).num_sets == 10
        message = "num_sets 999 differs from the group total 10 of a stratified plan"
        with pytest.raises(ValidationError, match=f"^{message}$"):
            ExperimentPlan(num_sets=999, **fields)

    def test_defaults_filled_by_the_plan(self):
        plan = ExperimentPlan(driver_size=1, seed=0)
        assert (plan.num_sets, plan.steps_reactive, plan.steps_proactive) == (1, 500, None)
        plan = ExperimentPlan(driver_size=1, seed=0, phase="proactive")
        assert (plan.steps_reactive, plan.steps_proactive) == (None, 50)
        plan = ExperimentPlan(driver_size=1, seed=0, phase="both", steps_proactive=7)
        assert (plan.steps_reactive, plan.steps_proactive) == (500, 7)
        plan = ExperimentPlan(driver_size=1, seed=0, stratify_by="steady_peak", groups=((1, 2),))
        assert plan.num_sets == 2

    @pytest.mark.parametrize("fields, message", [
        ({"num_sets": 500, "stratify_by": "steady_peak", "groups": ((1, 2),)},
         "num_sets 500 differs from the group total 2 of a stratified plan"),
        ({"phase": "reactive", "steps_proactive": 50},
         "steps_proactive is set, but the plan runs no proactive phase"),
        ({"phase": "proactive", "steps_reactive": 500},
         "steps_reactive is set, but the plan runs no reactive phase"),
        # one summary entry pooled both groups of stratum 1
        ({"stratify_by": "steady_peak", "groups": ((1, 2), (0, 1), (1, 3))},
         "stratum value 1 is repeated"),
        # the sweep failed with "driver set must be nonempty", naming no set
        ({"baseline_sets": {"a": (0,), "b": ()}}, "baseline set 'b' is empty"),
    ], ids=["num_sets", "steps_proactive", "steps_reactive", "repeated_stratum", "empty_baseline"])
    def test_value_a_sweep_would_drop_or_cannot_honour_rejected(self, fields, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            ExperimentPlan(driver_size=1, seed=0, **fields)

    # a library caller got AttributeError or "'int' object is not iterable"
    @pytest.mark.parametrize("fields, message", [
        ({"baseline_sets": [(0,)]}, "baseline_sets must be a map, got list"),
        ({"stratify_by": "steady_peak", "groups": 3}, "groups must be a list of pairs, got int"),
        # a bare "'int' object is not iterable"
        ({"baseline_sets": {"b": 3}}, "baseline set 'b' must be a list of indices, got int"),
    ], ids=["baseline_sets", "groups", "baseline_set"])
    def test_field_of_another_kind_rejected(self, fields, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            ExperimentPlan(driver_size=1, seed=0, **fields)

    def test_groups_read_once(self):
        # a generator was used up by the pair check: "stratified plans need groups"
        fields = dict(driver_size=1, seed=0, stratify_by="steady_peak")
        plan = ExperimentPlan(groups=((1, 2) for _ in range(1)), **fields)
        assert plan == ExperimentPlan(groups=((1, 2),), **fields)
        assert plan.groups == ((1, 2),) and plan.num_sets == 2

    def test_phases(self):
        assert ExperimentPlan(driver_size=1, num_sets=1, seed=0, phase="both").phases == (
            "reactive", "proactive",
        )


class TestSampling:
    def test_sizes_count_and_pinned_exclusion(self):
        net = small_net()
        x_s = find_steady_state(net)
        plan = ExperimentPlan(
            driver_size=4, num_sets=60, seed=5, pinned={2: 1, 7: 0}
        )
        sets = sample_driver_sets(plan, net, x_s, x_s)
        assert sets.shape == (60, 4)
        for row in sets.tolist():
            assert 2 not in row and 7 not in row

    def test_deterministic_given_seed(self):
        net = small_net()
        x_s = find_steady_state(net)
        plan = ExperimentPlan(driver_size=3, num_sets=25, seed=9)
        a = sample_driver_sets(plan, net, x_s, x_s)
        b = sample_driver_sets(plan, net, x_s, x_s)
        assert a.tolist() == b.tolist()

    def test_full_set_is_unique_choice(self):
        net = small_net()
        x_s = find_steady_state(net)
        plan = ExperimentPlan(driver_size=9, num_sets=1, seed=1, pinned={0: 1})
        (only,) = sample_driver_sets(plan, net, x_s, x_s).tolist()
        assert only == list(range(1, 10))

    def test_driver_size_exceeding_candidates(self):
        net = small_net()
        x_s = find_steady_state(net)
        plan = ExperimentPlan(driver_size=10, num_sets=1, seed=1, pinned={0: 1})
        with pytest.raises(ValidationError):
            sample_driver_sets(plan, net, x_s, x_s)

    def test_stratified_quota_exact(self):
        net = small_net()
        x_s = find_steady_state(net)
        init = continuous_state(np.zeros(net.n))
        plan = ExperimentPlan(
            driver_size=4, seed=3,
            stratify_by="steady_peak", groups=((0, 10), (1, 10), (2, 10)),
            top_fraction=0.3,
        )
        sets = sample_driver_sets(plan, net, init, x_s)
        assert len(sets) == 30
        top = top_steady_nodes(x_s, 0.3)
        for k, row in enumerate(sets.tolist()):
            expected = (0, 1, 2)[k // 10]
            assert len(set(row) & top) == expected

    def test_stratum_infeasible_reported(self):
        net = small_net()
        x_s = find_steady_state(net)
        # nobody is initially active, so requiring one active driver is
        # impossible
        plan = ExperimentPlan(
            driver_size=4, seed=3,
            stratify_by="initially_active", groups=((1, 5),),
        )
        with pytest.raises(StratumInfeasible, match="stratum 1"):
            sample_driver_sets(plan, net, continuous_state(np.zeros(net.n)), x_s)

    @pytest.mark.parametrize("which, state", [
        ("init", continuous_state(np.zeros(14))),
        ("init", continuous_state(np.zeros(5))),
        ("init", binary_state(np.zeros(12))),
        ("x_s", continuous_state(np.zeros(30))),
    ])
    def test_state_of_another_network_rejected(self, which, state):
        net, init, x_s, _ = active_class_net(12, (0, 1, 2))
        states = {"init": init, "x_s": x_s, which: state}
        plan = ExperimentPlan(
            driver_size=3, seed=0,
            stratify_by="initially_active", groups=((1, 4),),
        )
        with pytest.raises(ValidationError, match=f"{which} must be a continuous state of 12 entries"):
            sample_driver_sets(plan, net, states["init"], states["x_s"])


def active_class_net(n, active, pinned=()):
    """An n-node network, its natural steady state, and an init whose
    active nodes are ``active``; the pinned nodes are returned as a plan
    ``pinned`` mapping."""
    net = build_network([f"v{i}" for i in range(n)], [0.1] * n, [0.0] * n,
                        [0.5] * n, np.zeros((n, n)))
    init = np.zeros(n)
    init[list(active)] = 1.0
    return net, continuous_state(init), find_steady_state(net), {i: 0 for i in pinned}


class TestDirectStratifiedDraw:
    def test_unstratified_draws_unchanged(self):
        # The criterion-7 plan keeps its rng.choice draws set for set.
        net = generate_synthetic(40, 18.27, 4.60, seed=1)
        plan = ExperimentPlan(driver_size=7, num_sets=767, seed=2017, pinned={0: 1})
        x = continuous_state(np.zeros(net.n))
        sets = [tuple(row) for row in sample_driver_sets(plan, net, x, x).tolist()]
        assert sets[:2] == [(3, 14, 15, 20, 31, 33, 39), (5, 9, 12, 16, 23, 27, 34)]
        assert sets[-1] == (7, 10, 23, 24, 30, 34, 39)

    def test_stratum_frequencies_match_uniform_enumeration(self):
        # 9 nodes, node 4 pinned: 8 candidates, 3 of them initially active.
        active = (1, 5, 8)
        net, init, x_s, pinned = active_class_net(9, active, pinned=(4,))
        count = 3000
        plan = ExperimentPlan(
            driver_size=3, seed=11, pinned=pinned,
            stratify_by="initially_active", groups=tuple((v, count) for v in range(4)),
        )
        sets = sample_driver_sets(plan, net, init, x_s)
        candidates = [i for i in range(9) if i != 4]
        for k, value in enumerate(range(4)):
            valid = [c for c in itertools.combinations(candidates, 3)
                     if len(set(c) & set(active)) == value]
            drawn = [tuple(row) for row in sets[k * count:(k + 1) * count].tolist()]
            assert set(drawn) <= set(valid)
            freq = [drawn.count(c) for c in valid]
            if len(valid) > 1:
                assert chisquare(freq).pvalue > 1e-3, (value, freq)

    def test_draw_order_as_documented(self):
        # Group by group: one key matrix for the in-class side, then one for
        # the out-of-class side, none for a side that needs no node.
        active = (1, 5, 8)
        net, init, x_s, pinned = active_class_net(9, active, pinned=(4,))
        plan = ExperimentPlan(driver_size=3, seed=7, pinned=pinned,
                              stratify_by="initially_active",
                              groups=((0, 4), (2, 3), (3, 2), (1, 2)))
        rng = np.random.default_rng(7)
        pools = (np.array(active), np.array([0, 2, 3, 6, 7]))
        expected = []
        for value, count in plan.groups:
            sides = [pool[np.argsort(rng.random((count, pool.size)), axis=1)[:, :k]]
                     for pool, k in zip(pools, (value, 3 - value)) if k]
            expected += [tuple(sorted(np.concatenate(row).tolist())) for row in zip(*sides)]
        drawn = sample_driver_sets(plan, net, init, x_s)
        assert [tuple(row) for row in drawn.tolist()] == expected

    @pytest.mark.parametrize("active, value", [((), 0), (range(6), 4)])
    def test_edge_stratum_with_an_empty_side(self, active, value):
        # No in-class candidate (stratum 0) or no out-of-class one
        # (stratum = driver_size): only one side is drawn.
        net, init, x_s, _ = active_class_net(6, active)
        plan = ExperimentPlan(driver_size=4, seed=2,
                              stratify_by="initially_active", groups=((value, 20),))
        sets = sample_driver_sets(plan, net, init, x_s)
        assert sets.shape == (20, 4)
        assert all(len(set(row)) == 4 and len(set(row) & set(active)) == value
                   for row in sets.tolist())

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), stratify_by=st.sampled_from(["none", "initially_active", "steady_peak"]))
    def test_every_set_in_its_stratum(self, data, stratify_by):
        # one sorted index row per set, from the non-pinned nodes, in its
        # stratum; the same matrix for the same seed
        n = data.draw(st.integers(2, 12), label="n")
        pinned = data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1), label="pinned")
        candidates = [i for i in range(n) if i not in pinned]
        active = data.draw(st.sets(st.integers(0, n - 1)), label="active")
        size = data.draw(st.integers(1, len(candidates)), label="driver_size")
        top_fraction = data.draw(st.floats(0.05, 1.0), label="top_fraction")
        seed = data.draw(st.integers(0, 2**32), label="seed")
        net, init, x_s, pins = active_class_net(n, sorted(active), pinned=pinned)
        members = {
            "none": set(),
            "initially_active": active,
            "steady_peak": top_steady_nodes(x_s, top_fraction),
        }[stratify_by]
        if stratify_by == "none":
            groups = [(None, data.draw(st.integers(1, 20), label="num_sets"))]
            plan = ExperimentPlan(driver_size=size, num_sets=groups[0][1], seed=seed,
                                  pinned=pins, top_fraction=top_fraction)
        else:
            n_in = len(set(candidates) & members)
            values = range(max(0, size - (len(candidates) - n_in)), min(size, n_in) + 1)
            groups = data.draw(st.lists(st.tuples(st.sampled_from(values), st.integers(1, 6)),
                                        min_size=1, max_size=4, unique_by=lambda g: g[0]),
                               label="groups")
            plan = ExperimentPlan(driver_size=size, seed=seed, pinned=pins,
                                  stratify_by=stratify_by, groups=tuple(groups),
                                  top_fraction=top_fraction)
        sets = sample_driver_sets(plan, net, init, x_s)
        strata = [value for value, count in groups for _ in range(count)]
        assert sets.dtype.kind == "i" and sets.shape == (len(strata), size)
        for row, value in zip(sets.tolist(), strata):
            assert len(set(row)) == size  # distinct indices
            assert row == sorted(row) and set(row) <= set(candidates)
            assert not set(row) & pinned
            if value is not None:
                assert len(set(row) & members) == value
        again = sample_driver_sets(plan, net, init, x_s)
        assert again.tolist() == sets.tolist()


class TestRunExperiment:
    @pytest.mark.parametrize("index", [-1, 10])
    def test_pinned_index_outside_network_rejected(self, index):
        net = small_net()  # 10 nodes
        plan = ExperimentPlan(driver_size=3, num_sets=2, seed=1, pinned={index: 1},
                              steps_reactive=5)
        with pytest.raises(ValidationError, match="pinned index"):
            run_experiment(plan, net, None, identity_costs(net.n))

    @pytest.mark.parametrize("phase", ["reactive", "proactive", "both"])
    @pytest.mark.parametrize("init", [binary_state(np.ones(10)), continuous_state(np.ones(7))])
    def test_init_of_another_kind_rejected_for_every_phase(self, init, phase):
        net = small_net()  # 10 nodes
        plan = ExperimentPlan(driver_size=3, num_sets=2, seed=1, phase=phase)
        with pytest.raises(ValidationError, match="init must be a continuous state of 10 entries"):
            run_experiment(plan, net, init, identity_costs(net.n))

    def test_set_outside_its_stratum_raises(self, monkeypatch):
        net = small_net()
        top = sorted(top_steady_nodes(find_steady_state(net), 0.3))
        rest = [i for i in range(net.n) if i not in top]
        wrong = np.array([(top[0], *rest[:3])])  # one top node, stratum 0
        monkeypatch.setattr(
            "risknet.experiments.sample_driver_sets", lambda *args: wrong
        )
        plan = ExperimentPlan(
            driver_size=4, seed=3,
            stratify_by="steady_peak", groups=((0, 1),),
            phase="proactive", steps_proactive=5, top_fraction=0.3,
        )
        with pytest.raises(StratumInfeasible, match="sample_0000"):
            run_experiment(plan, net, None, identity_costs(net.n))

    def test_zero_cost_when_nothing_happens(self):
        n = 5
        E = np.zeros((n, n))
        E[0, 1] = E[1, 2] = 1.0
        net = build_network(
            [f"x{i}" for i in range(n)], [0.0] * n, [0.3] * n, [0.5] * n, E
        )
        plan = ExperimentPlan(driver_size=n, num_sets=1, seed=0, phase="reactive",
                              steps_reactive=50)
        res = run_experiment(plan, net, continuous_state(np.zeros(n)), identity_costs(n))
        (ev,) = res.evaluations
        out = ev.outcomes["reactive"]
        assert out.state_cost == 0.0 and out.control_cost == 0.0

    def test_numpy_plan_writes_the_summary_of_the_int_plan(self, tmp_path):
        # numpy counts were kept, and json could not write the summary
        net = small_net()
        for name, count in (("int", int), ("numpy", np.int64)):
            plan = ExperimentPlan(driver_size=count(2), seed=count(0), num_sets=count(3),
                                  phase="proactive")
            result = run_experiment(plan, net, None, identity_costs(net.n))
            write_experiment_summary(tmp_path / f"{name}.json", result)
        assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "int.json").read_bytes()

    def test_deterministic_results(self):
        net = small_net()
        plan = ExperimentPlan(
            driver_size=3, num_sets=8, seed=21, phase="both",
            steps_reactive=30, steps_proactive=10,
            baseline_sets={"picked": (0, 1, 2)},
        )
        costs = identity_costs(net.n)
        rows_a = experiment_rows(run_experiment(plan, net, None, costs), net.names)
        rows_b = experiment_rows(run_experiment(plan, net, None, costs), net.names)
        assert rows_a == rows_b

    def test_baseline_ranked_once_per_phase(self):
        net = small_net()
        plan = ExperimentPlan(
            driver_size=3, num_sets=10, seed=2, phase="both",
            steps_reactive=25, steps_proactive=10,
            baseline_sets={"policy": (1, 4, 6)},
        )
        res = run_experiment(plan, net, None, identity_costs(net.n))
        baselines = [ev for ev in res.evaluations if ev.kind == "baseline"]
        assert len(baselines) == 1
        for phase in ("reactive", "proactive"):
            ranks = sorted(
                ev.outcomes[phase].rank for ev in res.evaluations
            )
            assert ranks == list(range(1, 12))  # 10 samples + 1 baseline

    def test_total_is_state_plus_control_everywhere(self):
        net = small_net()
        plan = ExperimentPlan(driver_size=4, num_sets=6, seed=4, phase="both",
                              steps_reactive=20, steps_proactive=10)
        res = run_experiment(plan, net, None, identity_costs(net.n))
        for ev in res.evaluations:
            for out in ev.outcomes.values():
                assert out.total_cost == out.state_cost + out.control_cost

    def test_stratum_summary_quartiles_present(self):
        net = small_net()
        plan = ExperimentPlan(
            driver_size=4, seed=8,
            stratify_by="steady_peak", groups=((1, 6), (2, 6)),
            phase="proactive", steps_proactive=10, top_fraction=0.3,
        )
        res = run_experiment(plan, net, None, identity_costs(net.n))
        for value in (1, 2):
            summary = res.stratum_summary[("proactive", value)]
            assert summary["control_cost"]["q1"] <= summary["control_cost"]["median"]
            assert summary["control_cost"]["median"] <= summary["control_cost"]["q3"]


def test_quartiles_equal_numpy_percentile_bit_for_bit():
    rng = np.random.default_rng(0)
    for k in range(3000):
        n = int(rng.integers(1, 30))
        values = rng.normal(size=n) * 10.0 ** int(rng.integers(-6, 7))
        if k % 3 == 0:
            values = np.round(values, 1)  # ties
        q1, med, q3 = np.percentile(values, [25.0, 50.0, 75.0])
        assert experiments._quartiles(list(values)) == {"q1": q1, "median": med, "q3": q3}


class TestSaturatedSteadyState:
    def test_sweep_raises_before_evaluating_a_set(self, monkeypatch):
        # A true fixed point never saturates, so the sweep is handed a point
        # where node c's raw update is 1.85: the Jacobian there is undefined,
        # for every set alike.  A proactive plan needs no Jacobian.
        net = saturating_net()
        point = continuous_state(np.array([1.0, 1.0, 1.0, 0.0, 0.0]))
        monkeypatch.setattr(experiments, "find_steady_state", lambda net: point)
        evaluated = []
        block = experiments._evaluate_block
        monkeypatch.setattr(experiments, "_evaluate_block",
                            lambda phase, *args: evaluated.append(phase) or block(phase, *args))

        def sweep(phase):
            plan = ExperimentPlan(
                driver_size=2, num_sets=4, seed=5, phase=phase, pinned={0: 1},
                steps_reactive=None if phase == "proactive" else 20,
                steps_proactive=None if phase == "reactive" else 5,
                baseline_sets={"free": (1, 2), "pinned": (0, 1)},
            )
            return run_experiment(plan, net, None, identity_costs(net.n))

        want = "^update map saturates at node 4 \\(raw value 1.85\\)$"
        for phase in ("both", "reactive"):
            with pytest.raises(SaturatedPoint, match=want):
                sweep(phase)
        assert evaluated == []
        res = sweep("proactive")
        assert np.array_equal(res.steady_state, point.values)
        assert evaluated == ["proactive"]
        assert all(ev.outcomes["proactive"].error == "" for ev in res.evaluations)


class TestSteadyStateDrift:
    def test_criterion_7_costs_within_bound_of_previous_iterate(self, monkeypatch):
        # The reference stops at the iterate whose clamped update met tol,
        # the solver at that update: every criterion-7 cost differs by at
        # most 1e-11 relative (measured 1.1e-12) and no rank changes.
        net = generate_synthetic(40, 18.27, 4.60, seed=1)
        plan = ExperimentPlan(
            driver_size=7, num_sets=767, seed=2017, pinned={0: 1},
            phase="reactive", steps_reactive=500,
            baseline_sets={"policy_mix": (3, 8, 11, 17, 22, 29, 35)},
        )
        costs = identity_costs(net.n)
        new = run_experiment(plan, net, None, costs)
        monkeypatch.setattr(experiments, "find_steady_state", reference_steady_state)
        old = run_experiment(plan, net, None, costs)
        assert 0 < np.max(np.abs(new.steady_state - old.steady_state)) <= 1e-12
        for a, b in zip(new.evaluations, old.evaluations, strict=True):
            assert a.indices == b.indices
            x, y = a.outcomes["reactive"], b.outcomes["reactive"]
            assert not x.error and not y.error
            assert (x.rank, x.saturation_count) == (y.rank, y.saturation_count)
            for field in ("state_cost", "control_cost", "total_cost"):
                assert getattr(x, field) == pytest.approx(getattr(y, field), rel=1e-11)


class TestRanks:
    def test_brute_force_with_ties_and_failures(self, monkeypatch):
        # one-node sets on 9 candidates repeat, so totals tie; the pinned
        # baseline fails the reactive phase, and the sets driving node 1 are
        # made to fail the proactive phase
        net = small_net()
        plan = ExperimentPlan(
            driver_size=1, num_sets=24, seed=4, phase="both", pinned={0: 1},
            steps_reactive=30, steps_proactive=10,
            baseline_sets={"pinned": (0,), "twin": (5,)},
        )
        block = experiments._proactive_block

        def failing(prep, D, steps):
            runs = block(prep, D, steps)
            return [ValidationError("made to fail") if row == [1] else r
                    for row, r in zip(D.tolist(), runs)]

        monkeypatch.setattr(experiments, "_proactive_block", failing)
        result = run_experiment(plan, net, None, identity_costs(net.n))
        for phase in plan.phases:
            outs = [ev.outcomes[phase] for ev in result.evaluations]
            ok = [i for i, out in enumerate(outs) if not out.error]
            totals = [outs[i].total_cost for i in ok]
            assert len(set(totals)) < len(totals) < len(outs)  # ties and failures
            want = {i: r for r, i in enumerate(sorted(ok, key=lambda i: (outs[i].total_cost, i)), 1)}
            assert [out.rank for out in outs] == [want.get(i, 0) for i in range(len(outs))]
