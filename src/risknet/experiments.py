"""Driver-set sampling and evaluation harness.

Samples driver sets of a fixed size (optionally stratified so every group
has an exact count of initially-active drivers, or of drivers among the most
active nodes at the natural steady state), runs the reactive and/or
proactive control phase for each set, and ranks the cost decompositions.
Named baseline sets are evaluated identically and ranked against the sample.

Everything is deterministic given the plan seed.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

import numpy as np

from .control import _prepare, _Prepared, _proactive_block, _reactive_block
from .dynamics import find_steady_state
from .errors import RiskNetError, StratumInfeasible, ValidationError
from .model import (CONTINUOUS, CostMatrices, DriverSet, RiskNetwork, StateVector,
                    _distinct_indices, check_integer, check_pins, check_state, pin_arrays)

STRATIFY_NONE = "none"
STRATIFY_ACTIVE = "initially_active"
STRATIFY_PEAK = "steady_peak"
PHASE_REACTIVE = "reactive"
PHASE_PROACTIVE = "proactive"
PHASE_BOTH = "both"
#: Steps of each phase, for a plan that does not give them.
DEFAULT_STEPS = {PHASE_REACTIVE: 500, PHASE_PROACTIVE: 50}

#: Threshold above which a continuous initial entry counts as active.
ACTIVE_THRESHOLD = 0.5
#: Bytes of states and driven signals a block of lockstep evaluations may
#: hold: the smallest power of two that holds 21 sets of 500 steps on 40
#: nodes with 7 drivers (BENCH_block_bytes.json).
_BLOCK_BYTES = 1 << 22


@dataclass(frozen=True)
class ExperimentPlan:
    """Sampling protocol for driver sets.

    ``groups`` lists (stratum value, set count) pairs, each value once; a
    stratified plan needs them, and its ``num_sets`` is their total (else 1
    by default).  Each phase the plan runs takes its ``DEFAULT_STEPS``
    unless given; a value the plan would drop is rejected.  ``pinned`` nodes
    are excluded from candidacy and held at their value during reactive
    runs.  ``baseline_sets`` maps a label to a nonempty index list or tuple.
    Counts, sizes, steps, the seed and pinned indices must be integers, and
    pinned values the integers 0 or 1; the plan stores its counts, size,
    steps, seed and groups as Python ints.
    """

    driver_size: int
    seed: int
    num_sets: int | None = None
    pinned: dict = field(default_factory=dict)
    stratify_by: str = STRATIFY_NONE
    groups: tuple = ()
    phase: str = PHASE_REACTIVE
    steps_reactive: int | None = None
    steps_proactive: int | None = None
    baseline_sets: dict = field(default_factory=dict)
    top_fraction: float = 0.25

    def __post_init__(self):
        for label in ("num_sets", "steps_reactive", "steps_proactive"):
            if getattr(self, label) is not None:
                check_integer(label, getattr(self, label), 1)
        check_integer("driver_size", self.driver_size, 1)
        check_integer("seed", self.seed, 0)
        if self.stratify_by not in (STRATIFY_NONE, STRATIFY_ACTIVE, STRATIFY_PEAK):
            raise ValidationError(f"unknown stratify_by {self.stratify_by!r}")
        if self.phase not in (PHASE_REACTIVE, PHASE_PROACTIVE, PHASE_BOTH):
            raise ValidationError(f"unknown phase {self.phase!r}")
        top = self.top_fraction
        if isinstance(top, bool) or not isinstance(top, numbers.Real) or not 0.0 < top <= 1.0:
            raise ValidationError(f"top_fraction must be a number in (0, 1], got {top!r}")
        if not isinstance(self.groups, Iterable):
            raise ValidationError(f"groups must be a list of pairs, got {type(self.groups).__name__}")
        groups = tuple(self.groups)  # one pass: a generator is read once
        for pair in groups:
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise ValidationError(f"group {pair!r} must be a (stratum value, count) pair")
            value, count = pair
            check_integer("stratum value", value, 0)
            if value > self.driver_size:
                raise ValidationError(f"stratum value {value} exceeds driver_size {self.driver_size}")
            check_integer("stratum count", count, 1)
        groups = tuple((int(value), int(count)) for value, count in groups)
        object.__setattr__(self, "groups", groups)
        _distinct_indices("stratum value", (value for value, _ in groups))
        if groups and self.stratify_by == STRATIFY_NONE:
            raise ValidationError("groups apply only to a stratified plan; stratify_by is 'none'")
        if not groups and self.stratify_by != STRATIFY_NONE:
            raise ValidationError("stratified plans need groups")
        sets = sum(c for _, c in groups) if groups else 1
        if groups and self.num_sets not in (None, sets):
            raise ValidationError(f"num_sets {self.num_sets} differs from the group total "
                                  f"{sets} of a stratified plan")
        if self.num_sets is None:
            object.__setattr__(self, "num_sets", sets)
        for phase, steps in DEFAULT_STEPS.items():
            label = f"steps_{phase}"
            if phase not in self.phases and getattr(self, label) is not None:
                raise ValidationError(f"{label} is set, but the plan runs no {phase} phase")
            if phase in self.phases and getattr(self, label) is None:
                object.__setattr__(self, label, steps)
        for label in ("driver_size", "seed", "num_sets", "steps_reactive", "steps_proactive"):
            if getattr(self, label) is not None:
                object.__setattr__(self, label, int(getattr(self, label)))
        check_pins(self.pinned)
        if not isinstance(self.baseline_sets, Mapping):
            raise ValidationError("baseline_sets must be a map, got "
                                  + type(self.baseline_sets).__name__)
        baselines = {}
        for name, idx in self.baseline_sets.items():
            if not isinstance(idx, (tuple, list)):
                raise ValidationError(f"baseline set {name!r} must be a list of indices, got "
                                      + type(idx).__name__)
            baselines[str(name)] = _distinct_indices(f"baseline set {name!r} index", idx)
        if empty := [name for name, indices in baselines.items() if not indices]:
            raise ValidationError(f"baseline set {empty[0]!r} is empty")
        object.__setattr__(self, "baseline_sets", baselines)

    @property
    def phases(self) -> tuple:
        if self.phase == PHASE_BOTH:
            return (PHASE_REACTIVE, PHASE_PROACTIVE)
        return (self.phase,)


def top_steady_nodes(x_s: StateVector, top_fraction: float) -> set:
    """Indices of the ceil(top_fraction * n) largest steady-state entries,
    ties broken by node index."""
    n = x_s.n
    k = math.ceil(top_fraction * n)
    order = np.lexsort((np.arange(n), -x_s.values))
    return set(int(i) for i in order[:k])


def _driver_classes(init: StateVector, x_s: StateVector, top_fraction: float) -> dict:
    """The boolean node masks of the classes that strata count, keyed by
    ``stratify_by``: the initially active nodes (entry >= 0.5) and the most
    active nodes at the natural steady state."""
    peak = np.zeros(x_s.n, dtype=bool)
    peak[list(top_steady_nodes(x_s, top_fraction))] = True
    return {STRATIFY_ACTIVE: init.values >= ACTIVE_THRESHOLD, STRATIFY_PEAK: peak}


def _uniform_subsets(rng: np.random.Generator, pool: np.ndarray, size: int, rows: int) -> np.ndarray:
    """rows x size matrix of uniform random size-subsets of ``pool``, from
    one ``rng.random((rows, pool.size))`` key matrix; ``size`` >= 1."""
    keys = rng.random((rows, pool.size))
    return pool[np.argpartition(keys, size - 1, axis=1)[:, :size]]


def _candidates(plan: ExperimentPlan, n: int) -> np.ndarray:
    """The plan's non-pinned nodes of n; ValidationError for a pin the
    network cannot hold or a ``driver_size`` beyond them."""
    candidates = np.delete(np.arange(n), pin_arrays(plan.pinned, n)[0])
    if plan.driver_size > candidates.size:
        raise ValidationError(f"driver_size {plan.driver_size} exceeds the "
                              f"{candidates.size} non-pinned nodes")
    return candidates


def _check_strata(plan: ExperimentPlan, n_in: int, n_out: int) -> None:
    """StratumInfeasible for the first group, in plan order, whose count
    the n_in in-class and n_out out-of-class candidates cannot meet."""
    for value, _ in plan.groups:
        if value > n_in or plan.driver_size - value > n_out:
            raise StratumInfeasible(
                f"stratum {value}: needs {value} of {n_in} in-class and "
                f"{plan.driver_size - value} of {n_out} out-of-class candidates"
            )


def sample_driver_sets(
    plan: ExperimentPlan,
    net: RiskNetwork,
    init: StateVector,
    x_s: StateVector,
) -> np.ndarray:
    """The plan's driver sets as a ``(num_sets, driver_size)`` integer
    matrix, one sorted index row per set; deterministic given the seed.

    Unstratified plans draw ``num_sets`` uniform subsets of the non-pinned
    nodes, one ``rng.choice`` per set.  Stratified plans draw each group
    directly: a uniform set with exactly ``value`` in-class drivers is a
    uniform ``value``-subset of the in-class candidates joined with a
    uniform ``(driver_size - value)``-subset of the out-of-class ones.
    Groups are drawn in plan order from the one plan-seeded generator; each
    consumes one ``(count, n_in)`` key matrix for its in-class side, then
    one ``(count, n_out)`` key matrix for its out-of-class side, skipping a
    side that needs no node.  No set is rejected, so there is no attempt
    cap.

    Raises
    ------
    ValidationError
        An ``init`` or ``x_s`` that is not a continuous state of n entries,
        or a pin the network cannot hold; checked before any set is drawn.
    StratumInfeasible
        A group's class count is impossible for this network/init; checked
        for every group, in plan order, before any set is drawn.
    """
    check_state(init, net.n, CONTINUOUS, "init")
    check_state(x_s, net.n, CONTINUOUS, "x_s")
    candidates = _candidates(plan, net.n)
    rng = np.random.default_rng(plan.seed)

    if plan.stratify_by == STRATIFY_NONE:
        return np.sort([
            rng.choice(candidates, size=plan.driver_size, replace=False)
            for _ in range(plan.num_sets)
        ], axis=1)

    in_class = _driver_classes(init, x_s, plan.top_fraction)[plan.stratify_by][candidates]
    pools = (candidates[in_class], candidates[~in_class])
    _check_strata(plan, *(pool.size for pool in pools))

    return np.sort(np.vstack([
        np.hstack([
            _uniform_subsets(rng, pool, size, count)
            for pool, size in zip(pools, (value, plan.driver_size - value))
            if size
        ])
        for value, count in plan.groups
    ]), axis=1)


@dataclass(frozen=True)
class PhaseOutcome:
    """Cost decomposition of one control run; ``rank`` is the 1-based
    position by total cost among all evaluations of the same phase."""

    state_cost: float
    control_cost: float
    total_cost: float
    saturation_count: int
    rank: int = 0
    error: str = ""


@dataclass(frozen=True)
class DriverEvaluation:
    label: str
    kind: str  # "sample" | "baseline"
    indices: tuple
    stratum: int | None
    initially_active: int
    steady_peak: int
    outcomes: dict


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    plan: ExperimentPlan
    steady_state: np.ndarray
    evaluations: tuple
    stratum_summary: dict


def _blocks(rows: list, steps: int, n: int):
    """Index matrices of runs of consecutive driver index rows of one size
    m, each at most as long as ``_BLOCK_BYTES`` allow for what a block
    stores per set: its ``steps + 1`` states of n nodes and its ``steps``
    signals of m driven nodes (at least one set)."""
    block: list = []
    for row in rows:
        if block and (len(block) == size or len(row) != len(block[0])):
            yield np.array(block)
            block = []
        if not block:
            size = max(1, _BLOCK_BYTES // (8 * ((steps + 1) * n + steps * len(row))))
        block.append(row)
    if block:
        yield np.array(block)


#: A :class:`PhaseOutcome` before its rank.
_Measured = namedtuple("_Measured", "state_cost control_cost total_cost saturation_count error")


def _evaluate_block(
    phase: str, prep: _Prepared, D: np.ndarray, init: StateVector, plan: ExperimentPlan
) -> list:
    """One phase's unranked outcomes for the driver sets in the rows of
    ``D``, on the network as :func:`~risknet.control._prepare` prepared it."""
    if phase == PHASE_REACTIVE:
        runs = _reactive_block(prep, D, init, plan.steps_reactive)
    else:
        runs = _proactive_block(prep, D, plan.steps_proactive)
    return [
        _Measured(math.nan, math.nan, math.nan, 0, f"{type(run).__name__}: {run}")
        if isinstance(run, RiskNetError)
        else _Measured(run.state_cost, run.control_cost, run.total_cost, run.saturation_count, "")
        for run in runs
    ]


def _ranked(measured: list) -> list:
    """Each of one phase's outcomes as a :class:`PhaseOutcome`, ranked 1,
    2, ... by ``(total_cost, position)`` among the ones without an error
    (rank 0)."""
    order = sorted(
        (i for i, m in enumerate(measured) if not m.error),
        key=lambda i: (measured[i].total_cost, i),
    )
    rank = dict(zip(order, range(1, len(order) + 1)))
    return [PhaseOutcome(*m[:4], rank.get(i, 0), m.error) for i, m in enumerate(measured)]


def _quartiles(values: list) -> dict:
    """``np.percentile``'s linear quartiles bit for bit (index (n - 1) q,
    numpy's ``_lerp``), by sorting: its first call imports ``numpy.ma``."""
    v, out = sorted(map(float, values)), {}
    for key, q in (("q1", 0.25), ("median", 0.5), ("q3", 0.75)):
        i, t = divmod((len(v) - 1) * q, 1)
        a, b = v[int(i)], v[min(int(i) + 1, len(v) - 1)]
        out[key] = b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t
    return out


def run_experiment(
    plan: ExperimentPlan,
    net: RiskNetwork,
    init: StateVector | None,
    costs: CostMatrices,
) -> ExperimentResult:
    """Sample, evaluate, and rank driver sets per the plan.

    ``init`` defaults to the natural steady state (ongoing natural
    operation).  The natural steady state, the driver classes and the
    network's preparation for control (the costs, the pins and, for a
    plan with a reactive phase, the Jacobian at the steady state) are
    computed once and shared by every evaluation.

    Each phase evaluates the entries in lockstep blocks: runs of
    consecutive driver sets of one size, as many as a fixed budget of
    ``_BLOCK_BYTES`` (4 MiB) for their states and driven signals allows, at
    least one (22 sets of 500 steps or 219 of 50 on 40 nodes with 7
    drivers).  Every set gets byte for byte the results of evaluating it alone
    (see :mod:`risknet.control`); a block takes its sets' costs at once, and
    only their outcomes are kept, ranked once per phase after its last block.

    A call either raises before its first evaluation or records failures
    per set.  Before the steady state is solved it checks ``init``, the
    costs and the pins (:func:`~risknet.control._prepare`), then the
    ``driver_size`` against the non-pinned nodes, the baseline sets and the
    ``initially_active`` strata of a given ``init``.  The solve may
    raise NoConvergence, sampling StratumInfeasible, and a plan with a
    reactive phase SaturatedPoint.  A pin on a driven node, a
    singular gain equation or a non-finite rollout is recorded on its
    evaluation, with the error text of a one-set run, and leaves the other
    sets of the block unchanged.
    """
    prep = _prepare(net, costs, plan.pinned, init=init)
    candidates = _candidates(plan, net.n)
    baselines = [(name, "baseline", DriverSet(indices, net.n).indices, None)
                 for name, indices in sorted(plan.baseline_sets.items())]
    if init is not None and plan.stratify_by == STRATIFY_ACTIVE:
        n_in = int(np.count_nonzero(init.values[candidates] >= ACTIVE_THRESHOLD))
        _check_strata(plan, n_in, candidates.size - n_in)
    x_s = find_steady_state(net)
    if init is None:
        init = x_s

    sets = sample_driver_sets(plan, net, init, x_s)
    if plan.stratify_by == STRATIFY_NONE:
        strata = [None] * len(sets)
    else:
        strata = [value for value, count in plan.groups for _ in range(count)]
    entries = [
        (f"sample_{k:04d}", "sample", tuple(row), stratum)
        for k, (row, stratum) in enumerate(zip(sets.tolist(), strata, strict=True))
    ] + baselines

    classes = _driver_classes(init, x_s, plan.top_fraction)
    active, peak = classes[STRATIFY_ACTIVE].tolist(), classes[STRATIFY_PEAK].tolist()
    counts = []
    for label, kind, row, stratum in entries:
        a, p = sum(active[i] for i in row), sum(peak[i] for i in row)
        got = a if plan.stratify_by == STRATIFY_ACTIVE else p
        if stratum is not None and got != stratum:
            raise StratumInfeasible(
                f"{label} {row} has {plan.stratify_by} count {got}, "
                f"outside its stratum {stratum}"
            )
        counts.append((a, p))

    if PHASE_REACTIVE in plan.phases:
        prep = prep.linearized(x_s)
    rows = [row for _, _, row, _ in entries]
    outcomes = {}
    for phase in plan.phases:
        steps = plan.steps_reactive if phase == PHASE_REACTIVE else plan.steps_proactive
        outcomes[phase] = _ranked([
            out
            for D in _blocks(rows, steps, net.n)
            for out in _evaluate_block(phase, prep, D, init, plan)
        ])
    evaluations = tuple(
        DriverEvaluation(
            label=label,
            kind=kind,
            indices=row,
            stratum=stratum,
            initially_active=a,
            steady_peak=p,
            outcomes={phase: outcomes[phase][j] for phase in plan.phases},
        )
        for j, ((label, kind, row, stratum), (a, p)) in enumerate(zip(entries, counts))
    )

    summary: dict = {}
    if plan.stratify_by != STRATIFY_NONE:
        for phase in plan.phases:
            for value, _ in plan.groups:
                rows = [
                    ev.outcomes[phase]
                    for ev in evaluations
                    if ev.kind == "sample"
                    and ev.stratum == value
                    and not ev.outcomes[phase].error
                ]
                if rows:
                    summary[(phase, value)] = {
                        "control_cost": _quartiles([r.control_cost for r in rows]),
                        "total_cost": _quartiles([r.total_cost for r in rows]),
                    }
    return ExperimentResult(
        plan=plan,
        steady_state=x_s.values,
        evaluations=evaluations,
        stratum_summary=summary,
    )
