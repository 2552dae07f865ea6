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
from dataclasses import dataclass, field, replace

import numpy as np

from .control import _prepare, _Prepared, _proactive_block, _reactive_block
from .dynamics import find_steady_state
from .errors import RiskNetError, StratumInfeasible, ValidationError
from .model import CostMatrices, DriverSet, RiskNetwork, StateVector, check_integer, pin_arrays

STRATIFY_NONE = "none"
STRATIFY_ACTIVE = "initially_active"
STRATIFY_PEAK = "steady_peak"
PHASE_REACTIVE = "reactive"
PHASE_PROACTIVE = "proactive"
PHASE_BOTH = "both"

#: Threshold above which a continuous initial entry counts as active.
ACTIVE_THRESHOLD = 0.5
#: Rejection-sampling attempt cap per stratum.
STRATUM_ATTEMPT_CAP = 10**6
_BATCH = 4096
#: Bytes of states and signals a block of lockstep evaluations may hold.
_BLOCK_BYTES = 5 << 19


@dataclass(frozen=True)
class ExperimentPlan:
    """Sampling protocol for driver sets.

    ``groups`` lists (stratum value, sets in that stratum) pairs and is
    required when ``stratify_by`` is not "none"; ``num_sets`` then equals
    the group total.  ``pinned`` nodes are excluded from candidacy and held
    at their value during reactive runs.  ``baseline_sets`` maps a label to
    an explicit index tuple.  Counts, sizes, steps and the seed must be
    integers.
    """

    driver_size: int
    num_sets: int
    seed: int
    pinned: dict = field(default_factory=dict)
    stratify_by: str = STRATIFY_NONE
    groups: tuple = ()
    phase: str = PHASE_REACTIVE
    steps_reactive: int = 500
    steps_proactive: int = 50
    baseline_sets: dict = field(default_factory=dict)
    top_fraction: float = 0.25

    def __post_init__(self):
        for label in ("driver_size", "num_sets", "seed", "steps_reactive", "steps_proactive"):
            check_integer(label, getattr(self, label))
        if self.driver_size < 1:
            raise ValidationError("driver_size must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be a nonnegative integer")
        if self.stratify_by not in (STRATIFY_NONE, STRATIFY_ACTIVE, STRATIFY_PEAK):
            raise ValidationError(f"unknown stratify_by {self.stratify_by!r}")
        if self.phase not in (PHASE_REACTIVE, PHASE_PROACTIVE, PHASE_BOTH):
            raise ValidationError(f"unknown phase {self.phase!r}")
        if not 0.0 < self.top_fraction <= 1.0:
            raise ValidationError("top_fraction must be in (0, 1]")
        for pair in self.groups:
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise ValidationError(f"group {pair!r} must be a (stratum value, count) pair")
            check_integer("stratum value", pair[0])
            check_integer("stratum count", pair[1])
        groups = tuple(tuple(pair) for pair in self.groups)
        object.__setattr__(self, "groups", groups)
        if self.stratify_by == STRATIFY_NONE:
            if self.num_sets < 1:
                raise ValidationError("num_sets must be >= 1")
        else:
            if not groups:
                raise ValidationError("stratified plans need groups")
            for value, count in groups:
                if not 0 <= value <= self.driver_size:
                    raise ValidationError(
                        f"stratum value {value} exceeds driver_size {self.driver_size}"
                    )
                if count < 1:
                    raise ValidationError("each stratum needs at least one set")
            object.__setattr__(self, "num_sets", sum(c for _, c in groups))
        if PHASE_REACTIVE in self.phases and self.steps_reactive < 1:
            raise ValidationError("steps_reactive must be >= 1")
        if PHASE_PROACTIVE in self.phases and self.steps_proactive < 1:
            raise ValidationError("steps_proactive must be >= 1")
        for i, v in self.pinned.items():
            if v not in (0, 1):
                raise ValidationError(f"pinned value for node {i} must be 0 or 1")
        baselines = {}
        for name, idx in self.baseline_sets.items():
            for i in idx:
                check_integer(f"baseline set {name!r} index", i)
            baselines[str(name)] = tuple(sorted(int(i) for i in idx))
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
    """The node sets that strata count, keyed by ``stratify_by``: the initially
    active nodes (entry >= 0.5) and the most active nodes at the natural
    steady state."""
    return {
        STRATIFY_ACTIVE: set(int(i) for i in np.flatnonzero(init.values >= ACTIVE_THRESHOLD)),
        STRATIFY_PEAK: top_steady_nodes(x_s, top_fraction),
    }


def _class_counts(driver: DriverSet, classes: dict) -> tuple[int, int]:
    members = set(driver.indices)
    return len(members & classes[STRATIFY_ACTIVE]), len(members & classes[STRATIFY_PEAK])


def classify_drivers(
    driver: DriverSet,
    init: StateVector,
    x_s: StateVector,
    top_fraction: float = ExperimentPlan.top_fraction,
) -> tuple[int, int]:
    """Count the driven nodes that are initially active (entry >= 0.5) and
    those among the most active nodes at the natural steady state."""
    return _class_counts(driver, _driver_classes(init, x_s, top_fraction))


def _uniform_subsets(rng: np.random.Generator, m: int, size: int, rows: int) -> np.ndarray:
    """rows x size matrix of uniform random size-subsets of range(m)."""
    keys = rng.random((rows, m))
    return np.argpartition(keys, size - 1, axis=1)[:, :size]


def sample_driver_sets(
    plan: ExperimentPlan,
    net: RiskNetwork,
    init: StateVector,
    x_s: StateVector,
) -> list[DriverSet]:
    """Draw the plan's driver sets; deterministic given the plan seed.

    Unstratified plans draw ``num_sets`` uniform subsets of the non-pinned
    nodes.  Stratified plans rejection-sample each group until its quota of
    sets with exactly the required class count is met, which keeps the
    within-stratum distribution uniform.

    Raises
    ------
    ValidationError
        A pin the network cannot hold; checked before any set is drawn.
    StratumInfeasible
        A group's class count is impossible for this network/init, or its
        quota was not met within the attempt cap.
    """
    pin_arrays(plan.pinned, net.n)
    candidates = np.array(sorted(set(range(net.n)) - set(plan.pinned)), dtype=int)
    if plan.driver_size > candidates.size:
        raise ValidationError(
            f"driver_size {plan.driver_size} exceeds the {candidates.size} "
            "non-pinned nodes"
        )
    rng = np.random.default_rng(plan.seed)

    if plan.stratify_by == STRATIFY_NONE:
        sets = []
        for _ in range(plan.num_sets):
            chosen = rng.choice(candidates, size=plan.driver_size, replace=False)
            sets.append(DriverSet(tuple(int(i) for i in chosen), net.n))
        return sets

    members = _driver_classes(init, x_s, plan.top_fraction)[plan.stratify_by]
    in_class = np.array([c in members for c in candidates])
    n_in = int(in_class.sum())
    n_out = candidates.size - n_in

    sets = []
    for value, count in plan.groups:
        if value > n_in or plan.driver_size - value > n_out:
            raise StratumInfeasible(
                f"stratum {value}: needs {value} of {n_in} in-class and "
                f"{plan.driver_size - value} of {n_out} out-of-class candidates"
            )
        found = 0
        attempts = 0
        while found < count:
            if attempts >= STRATUM_ATTEMPT_CAP:
                raise StratumInfeasible(
                    f"stratum {value}: quota {count} not met within "
                    f"{STRATUM_ATTEMPT_CAP} attempts"
                )
            rows = min(_BATCH, STRATUM_ATTEMPT_CAP - attempts)
            picks = _uniform_subsets(rng, candidates.size, plan.driver_size, rows)
            attempts += rows
            hits = in_class[picks].sum(axis=1)
            for row in np.flatnonzero(hits == value):
                sets.append(
                    DriverSet(tuple(int(i) for i in candidates[picks[row]]), net.n)
                )
                found += 1
                if found == count:
                    break
    return sets


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
    init: np.ndarray
    evaluations: tuple
    stratum_summary: dict


def _blocks(drivers: list, steps: int, n: int):
    """Runs of consecutive driver sets of one size, each at most as long as
    ``_BLOCK_BYTES`` of ``steps``-step states and signals allow (at least
    one set)."""
    size = max(1, _BLOCK_BYTES // (2 * (steps + 1) * n * 8))
    block: list = []
    for driver in drivers:
        if block and (len(block) == size or driver.size != block[0].size):
            yield block
            block = []
        block.append(driver)
    if block:
        yield block


def _evaluate_block(
    phase: str, prep: _Prepared, drivers: list, init: StateVector, plan: ExperimentPlan
) -> list:
    """One phase's outcomes for a block of driver sets of one size, on the
    network as :func:`~risknet.control._prepare` prepared it."""
    try:
        if phase == PHASE_REACTIVE:
            runs = _reactive_block(prep, drivers, init, plan.steps_reactive)
        else:
            runs = _proactive_block(prep, drivers, plan.steps_proactive)
    except RiskNetError as exc:
        runs = [exc] * len(drivers)
    return [_outcome(run) for run in runs]


def _outcome(run) -> PhaseOutcome:
    if isinstance(run, RiskNetError):
        return PhaseOutcome(
            state_cost=float("nan"),
            control_cost=float("nan"),
            total_cost=float("nan"),
            saturation_count=0,
            error=f"{type(run).__name__}: {run}",
        )
    return PhaseOutcome(
        state_cost=run.state_cost,
        control_cost=run.control_cost,
        total_cost=run.total_cost,
        saturation_count=run.saturation_count,
    )


def _assign_ranks(evaluations: list, phases: tuple) -> tuple:
    """Rank every non-failed outcome per phase by ascending total cost."""
    ranked = [dict(ev.outcomes) for ev in evaluations]
    for phase in phases:
        order = sorted(
            (i for i, out in enumerate(ranked) if phase in out and not out[phase].error),
            key=lambda i: (ranked[i][phase].total_cost, i),
        )
        for rank, i in enumerate(order, start=1):
            ranked[i][phase] = replace(ranked[i][phase], rank=rank)
    return tuple(replace(ev, outcomes=out) for ev, out in zip(evaluations, ranked))


def _quartiles(values: list) -> dict:
    q1, med, q3 = np.percentile(np.asarray(values, dtype=float), [25.0, 50.0, 75.0])
    return {"q1": float(q1), "median": float(med), "q3": float(q3)}


def run_experiment(
    plan: ExperimentPlan,
    net: RiskNetwork,
    init: StateVector | None,
    costs: CostMatrices,
) -> ExperimentResult:
    """Sample, evaluate, and rank driver sets per the plan.

    ``init`` defaults to the natural steady state (ongoing natural
    operation).  The natural steady state, the driver classes and the
    network's preparation for control (the pins and, for a reactive plan,
    the Jacobian at the steady state) are computed once and shared by every
    evaluation.

    Each phase evaluates the entries in lockstep blocks: runs of
    consecutive driver sets of one size, as many as a fixed budget of
    ``_BLOCK_BYTES`` (2.5 MiB) for their states and signals allows, at least
    one.  Every set gets byte for byte the results of evaluating it alone
    (see :mod:`risknet.control`), and only its :class:`PhaseOutcome` is kept.
    Failures of individual control runs are recorded on the evaluation
    rather than aborting the sweep, with the same error text as a one-set
    run, and leave the other sets of the block unchanged; sampling failures
    (StratumInfeasible, also raised for a sampled set outside its stratum)
    propagate before any set is evaluated.
    """
    x_s = find_steady_state(net)
    if init is None:
        init = x_s
    if init.n != net.n:
        raise ValidationError("init length does not match the network")

    sets = sample_driver_sets(plan, net, init, x_s)
    if plan.stratify_by == STRATIFY_NONE:
        strata = [None] * len(sets)
    else:
        strata = [value for value, count in plan.groups for _ in range(count)]
    entries = [
        (f"sample_{k:04d}", "sample", driver, stratum)
        for k, (driver, stratum) in enumerate(zip(sets, strata, strict=True))
    ] + [
        (name, "baseline", DriverSet(indices, net.n), None)
        for name, indices in sorted(plan.baseline_sets.items())
    ]

    classes = _driver_classes(init, x_s, plan.top_fraction)
    counts = []
    for label, kind, driver, stratum in entries:
        a, p = _class_counts(driver, classes)
        got = a if plan.stratify_by == STRATIFY_ACTIVE else p
        if stratum is not None and got != stratum:
            raise StratumInfeasible(
                f"{label} {driver.indices} has {plan.stratify_by} count {got}, "
                f"outside its stratum {stratum}"
            )
        counts.append((a, p))

    prep = _prepare(net, costs, plan.pinned, x_s if PHASE_REACTIVE in plan.phases else None)
    drivers = [driver for _, _, driver, _ in entries]
    outcomes = {}
    for phase in plan.phases:
        steps = plan.steps_reactive if phase == PHASE_REACTIVE else plan.steps_proactive
        outcomes[phase] = [
            out
            for block in _blocks(drivers, steps, net.n)
            for out in _evaluate_block(phase, prep, block, init, plan)
        ]
    evaluations = [
        DriverEvaluation(
            label=label,
            kind=kind,
            indices=driver.indices,
            stratum=stratum,
            initially_active=a,
            steady_peak=p,
            outcomes={phase: outcomes[phase][j] for phase in plan.phases},
        )
        for j, ((label, kind, driver, stratum), (a, p)) in enumerate(zip(entries, counts))
    ]
    evaluations = _assign_ranks(evaluations, plan.phases)

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
        init=init.values,
        evaluations=evaluations,
        stratum_summary=summary,
    )
