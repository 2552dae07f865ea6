"""Discrete stochastic cascade simulation on binary states.

Each step is synchronous: every node's next state is drawn from the current
step's states.  An inactive node activates internally or through active
in-neighbors; an active node persists with its continuation probability or
recovers.  Two activation variants are supported:

* ``product``: each active in-neighbor is an independent activation chance,
  so an inactive node i activates with probability
  ``1 - (1 - p_int_i) * prod_j_active (1 - E[j, i] * p_ext_i)``.
* ``additive``: activation probability ``min(1, p_int_i + p_ext_i * s_i)``
  where ``s_i`` is the weighted active in-neighbor mass.  This is the
  one-step mean of the continuous expected-value map, so it is the variant
  to use when cross-validating against :mod:`risknet.dynamics`.

The default is ``product``.  With at most one active in-neighbor per node
(and binary weights) the two variants coincide exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .model import BINARY, RiskNetwork, StateVector, check_integer, check_state, pin_arrays

PRODUCT = "product"
ADDITIVE = "additive"

# Floor for per-neighbor survival factors so log(0) cannot poison the
# product accumulation; exp(log(1e-300)) underflows cleanly to 0.
_LOG_FLOOR = 1e-300


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings.

    ``pinned`` maps node index -> forced binary value; pinned nodes are
    overridden at every step after the initial state.
    """

    steps: int
    seed: int
    variant: str = PRODUCT
    pinned: dict = field(default_factory=dict)

    def __post_init__(self):
        check_integer("steps", self.steps)
        check_integer("seed", self.seed)
        if self.steps < 1:
            raise ValidationError(f"steps must be >= 1, got {self.steps}")
        if self.seed < 0:
            raise ValidationError("seed must be a nonnegative integer")
        if self.variant not in (PRODUCT, ADDITIVE):
            raise ValidationError(f"unknown variant {self.variant!r}")
        for i, v in self.pinned.items():
            if v not in (0, 1):
                raise ValidationError(f"pinned value for node {i} must be 0 or 1")


@dataclass(frozen=True, eq=False)
class EventLog:
    """Binary state history; row k is the state at step k."""

    states: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.states)
        if s.ndim != 2:
            raise ValidationError("event log must be a 2-D array")
        owned = _binary_copy(s)
        if owned is None:
            raise ValidationError("event log entries must be 0 or 1")
        owned.flags.writeable = False
        object.__setattr__(self, "states", owned)

    @property
    def steps(self) -> int:
        return self.states.shape[0] - 1

    @property
    def n(self) -> int:
        return self.states.shape[1]


def _binary_copy(s: np.ndarray) -> np.ndarray | None:
    """A new ``uint8`` copy of ``s`` if every entry is 0 or 1, else None.

    Numeric input is checked by its extremes (and, for floats, by the
    nonzero count of the copy), so no temporary the size of ``s`` is made
    beside the copy."""
    kind = s.dtype.kind
    if s.size and kind in "bu":
        ok = s.max() <= 1
    elif s.size and kind in "if":
        ok = s.min() >= 0 and s.max() <= 1
    else:  # empty or not numeric
        ok = np.all((s == 0) | (s == 1))
    if not ok:
        return None
    owned = s.astype(np.uint8)
    if kind == "f" and np.count_nonzero(owned) != np.count_nonzero(s):
        return None  # a fraction in (0, 1) truncated to 0
    return owned


def _activation(net: RiskNetwork, variant: str):
    """State array -> per-node activation probabilities, built once per run."""
    if variant == PRODUCT:
        # logs[j, i] = log(1 - E[j, i] * p_ext[i]), floored
        logs = np.log(np.maximum(1.0 - net.E * net.p_ext[None, :], _LOG_FLOOR))
        quiet = 1.0 - net.p_int
        return lambda x: 1.0 - quiet * np.exp(x @ logs)
    return lambda x: np.minimum(1.0, net.p_int + net.p_ext * net.inflow(x))


#: Steps whose uniforms one ``rng.random`` call draws: a run of any length
#: holds at most this many rows of draws at once.
_BLOCK_STEPS = 1024


def _runner(net: RiskNetwork, config: SimConfig):
    """The transition kernel every entry point shares, built once per run.

    ``run(x, rng, out)`` writes the state after transition k + 1 from the
    0/1 float state ``x`` into ``out[k]`` for every row of ``out``.  It draws
    n uniforms per step in step order, ``rng.random((rows, n))`` for a block
    of rows, which gives the same bits as one ``rng.random(n)`` call per step.
    """
    pin_idx, pin_val = pin_arrays(config.pinned, net.n)
    activation = _activation(net, config.variant)
    p_con = net.p_con

    def run(x: np.ndarray, rng: np.random.Generator, out: np.ndarray):
        steps = len(out)
        for start in range(0, steps, _BLOCK_STEPS):
            draws = rng.random((min(_BLOCK_STEPS, steps - start), net.n))
            for k, u in enumerate(draws, start):
                # an active node persists below p_con, an inactive one
                # activates below its activation probability
                x = (u < np.where(x == 1.0, p_con, activation(x))).astype(float)
                if pin_idx.size:
                    x[pin_idx] = pin_val
                out[k] = x

    return run


def run_discrete(net: RiskNetwork, init: StateVector, config: SimConfig) -> EventLog:
    """Simulate ``config.steps`` transitions from ``init``.

    Deterministic given ``config.seed``: the run draws one ``rng.random(n)``
    per step, in step order, from ``rng = default_rng(config.seed)``; entry
    i of step k's draw decides node i's transition from row k to row k + 1.
    Row 0 of the log is ``init`` verbatim; pins apply from row 1 on.
    """
    check_state(init, net.n, BINARY, "init")
    run = _runner(net, config)
    out = np.empty((config.steps + 1, net.n), dtype=np.uint8)
    out[0] = init.values
    run(init.values, np.random.default_rng(config.seed), out[1:])
    return EventLog(out)


def monte_carlo_mean(
    net: RiskNetwork, init: StateVector, config: SimConfig, trials: int
) -> np.ndarray:
    """Per-step empirical mean state over independent seeded trials.

    Returns a (steps+1, n) float array.  Trial t runs with its own
    generator, seeded ``config.seed + t``, so trial 0 replays
    :func:`run_discrete` with the same config and distinct trials get
    independent generator streams.  The trials' states are summed in trial
    order.  The trials are not stacked into one ``(trials, n)`` product: its
    rows can differ from ``x @ logs`` in the last bits.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    check_state(init, net.n, BINARY, "init")
    run = _runner(net, config)
    out = np.empty((config.steps + 1, net.n))
    out[0] = init.values
    total = np.zeros_like(out)
    for t in range(trials):
        run(init.values, np.random.default_rng(config.seed + t), out[1:])
        total += out
    return total / trials
