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

The default is ``product``.  With one active in-neighbor of weight 1,
product gives ``p_int_i + p_ext_i - p_int_i * p_ext_i``: below additive's
cap the two differ by ``p_int_i * p_ext_i``, and coincide only where it is 0.

Every entry point takes its steps through one batch-invariant step
(:func:`_thresholds`): a stack of states gives each row the bits that row
gets on its own.  So :func:`monte_carlo_mean` steps all its trials as one
stack, and :func:`run_discrete` steps a block of draws as lockstep segments
that it splices where they meet the true chain (its docstring states the
rule).  Either way each row is the one the one-step-at-a-time chain gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .model import BINARY, RiskNetwork, StateVector, check_integer, check_pins, check_state, pin_arrays

PRODUCT = "product"
ADDITIVE = "additive"


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
        check_integer("steps", self.steps, 1)
        check_integer("seed", self.seed, 0)
        if self.variant not in (PRODUCT, ADDITIVE):
            raise ValidationError(f"unknown variant {self.variant!r}")
        check_pins(self.pinned)


@dataclass(frozen=True, eq=False)
class EventLog:
    """Binary state history; row k is the state at step k.  Row 0, the
    initial state, is required."""

    states: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.states)
        if s.ndim != 2:
            raise ValidationError("event log must be a 2-D array")
        if not len(s):
            raise ValidationError("event log needs at least the initial-state row")
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


#: Steps whose uniforms one ``rng.random`` call draws: a run of any length
#: holds at most this many rows of draws at once.
_BLOCK_STEPS = 1024

#: In-neighbours per lookup table: each node's in-neighbours are taken in
#: chunks of this many, and a chunk's 0/1 states index its 2**_CHUNK
#: factors.
_CHUNK = 8

#: Multiplier that packs 8 bytes of 0 or 1 (a ``uint64``, byte k at bit 8k)
#: into bits 56 to 63: byte k lands at bit 56 + k.
_PACK = np.uint64(0x0102040810204080)

#: Steps per speculative segment of a block (see :func:`run_discrete`).
_SEGMENT_STEPS = 32


def _thresholds(net: RiskNetwork, config: SimConfig):
    """The per-node transition thresholds, built once per run.

    ``thresholds(x)`` maps a ``(B, n)`` bool array of states to the ``(B, n)``
    thresholds below which each node's uniform makes it active next: p_con
    for an active node, the activation probability for an inactive one, 1.0
    and 0.0 for a node pinned to 1 and to 0.  Row r of the result depends
    only on row r of ``x``, bit for bit, whatever B is:

    * Each node's in-neighbours are taken in chunks of ``_CHUNK``, in index
      order; a node has as many chunks as its in-degree needs, and at least
      one.  A chunk's states are gathered as 8 bytes of 0 or 1, and one
      integer multiply packs them into its code, an integer below 256.
    * The code picks the chunk's factor from a table built once: the
      product of the survival factors ``1 - E[j, i] * p_ext_i`` (product)
      or ``p_ext_i`` times the sum of the weights ``E[j, i]`` (additive)
      over the chunk's active in-neighbours, taken in index order.  Chunk
      0's factor is also multiplied by ``1 - p_int_i`` (product) or added
      to ``p_int_i`` (additive), so with one chunk it is the model formula
      with its terms taken in index order.
    * A node's chunk factors are combined in chunk order, and ``1 - f`` or
      ``min(1, f)`` and the choice of p_con for active nodes are
      elementwise.

    When no node has more than ``_CHUNK - 1`` in-neighbours, the last byte
    of each node's one chunk is its own state, and the table holds the
    finished thresholds, so a step is one lookup with the same bits.  An
    unused slot of a chunk reads node 0 and its bit multiplies by 1.0 or
    adds 0.0, so it changes no entry.  A pinned node gets no
    in-neighbours and parameters whose thresholds are its pinned value, so
    pins cost nothing per step.  Memory and work per row are about 2 KB
    and 8 gathered states per chunk: at most n + e / 8 chunks for e edges.
    """
    n = net.n
    pin_idx, pin_val = pin_arrays(config.pinned, n)
    product = config.variant == PRODUCT
    if product:
        terms, base = 1.0 - net.E * net.p_ext[None, :], 1.0 - net.p_int
    else:
        terms, base = net.E.copy(), net.p_int.copy()
    p_con, slope = net.p_con.copy(), net.p_ext.copy()
    # a pinned node: product 1 - base * 1 is 1 - 0 or 1 - 1, additive
    # min(1, base + 0 * 0) is the pin
    unit = 1.0 if product else 0.0
    terms[:, pin_idx] = unit
    p_con[pin_idx] = pin_val
    base[pin_idx] = 1.0 - pin_val if product else pin_val
    slope[pin_idx] = 0.0

    # entry (j, i) of a live term is in-neighbour number rank[j, i] of node
    # i: byte rank % _CHUNK of the node's chunk rank // _CHUNK.  With the
    # nodes taken in order of falling chunk count, chunk c of the first
    # count[c] of them is numbered after every chunk c - 1, so each chunk
    # c adds to a leading slice of the chunk-0 columns.
    live = terms != unit
    degree = live.sum(axis=0)
    per_node = np.maximum(1, -(-degree // _CHUNK))
    # with fewer than _CHUNK in-neighbours everywhere, a node's own state is
    # the last byte of its one chunk, and the table holds its thresholds
    # (and the order is node order)
    single = degree.max() < _CHUNK
    order = np.argsort(-per_node, kind="stable")
    count = [int(np.count_nonzero(per_node > c)) for c in range(per_node.max())]
    first = np.cumsum([0] + count)
    number = np.zeros((len(count), n), dtype=np.intp)
    for c, m in enumerate(count):
        number[c, order[:m]] = np.arange(first[c], first[c + 1])
    rank = np.cumsum(live, axis=0) - 1
    src, dst = np.nonzero(live)
    slot = number[rank[src, dst] // _CHUNK, dst] * _CHUNK + rank[src, dst] % _CHUNK
    nbr = np.zeros(first[-1] * _CHUNK, dtype=np.intp)
    nbr[slot] = src
    if single:
        nbr[_CHUNK - 1 :: _CHUNK] = order
    factors = np.full(first[-1] * _CHUNK, unit)
    factors[slot] = terms[src, dst]
    factors = factors.reshape(first[-1], _CHUNK)
    combine = np.multiply if product else np.add

    def finish(f):
        """``1 - f`` (product) or ``min(1, f)`` (additive), in place."""
        if product:
            return np.subtract(1.0, f, out=f)
        return np.minimum(f, 1.0, out=f)

    table = np.full((first[-1], 2**_CHUNK), unit)
    for k in range(_CHUNK):
        combine(table[:, : 2**k], factors[:, k : k + 1], out=table[:, 2**k : 2 ** (k + 1)])
    if product:
        table[:n] *= base[order, None]
    else:
        table *= slope[np.concatenate([order[:m] for m in count]), None]
        table[:n] += base[order, None]
    if single:
        half = 2 ** (_CHUNK - 1)
        finish(table[:, :half])
        table[:, half:] = p_con[order, None]
    offset = np.arange(first[-1]) * 2**_CHUNK
    table = table.ravel()
    later = [(m, slice(first[c], first[c + 1])) for c, m in enumerate(count) if c]
    column = np.argsort(order)  # node i's chunk-0 column

    def thresholds(x: np.ndarray) -> np.ndarray:
        # byte k of a chunk's gathered word (bit 8k, little-endian) is bit k
        # of its code: the multiply moves its 0 or 1 to bit 56 + k, with no
        # carries
        code = x.take(nbr, axis=1).view(np.uint64)
        code *= _PACK
        code >>= np.uint64(56)
        idx = code.view(np.int64)
        idx += offset
        f = table.take(idx)
        if single:
            return f
        acc = f[:, :n]
        for m, chunk in later:
            combine(acc[:, :m], f[:, chunk], out=acc[:, :m])
        return np.where(x, p_con, finish(acc).take(column, axis=1))

    return thresholds


def run_discrete(net: RiskNetwork, init: StateVector, config: SimConfig) -> EventLog:
    """Simulate ``config.steps`` transitions from ``init``.

    Deterministic given ``config.seed``: the run draws one ``rng.random(n)``
    per step, in step order, from ``rng = default_rng(config.seed)``; entry
    i of step k's draw decides node i's transition from row k to row k + 1.
    Row 0 of the log is ``init`` verbatim; pins apply from row 1 on.

    The draws are taken ``_BLOCK_STEPS`` steps at a time, as one
    ``rng.random((rows, n))`` call, which gives the same bits as one call
    per step.  A block is stepped as segments of ``_SEGMENT_STEPS`` rows,
    all at once, each from the block's start state: the true state for
    segment 0, a guess for the others.  Two chains driven by the same
    uniforms stay equal once they meet (coupled chains forget their start
    state within a few dozen steps on the networks of the benchmark), so
    each later segment is then re-run, all at once again, from its
    predecessor's last row until its first row that equals the stored one
    bit for bit; the stored rows from there on are the true continuation.
    If a segment reaches its end without meeting, the first such one is
    still true (it re-ran from a true row) and the rows after it are
    stepped one at a time, which gains nothing.  Every row comes from the
    batch-invariant :func:`_thresholds`, so the log is the one the
    one-step-at-a-time chain gives.
    """
    check_state(init, net.n, BINARY, "init")
    thresholds = _thresholds(net, config)
    L = _SEGMENT_STEPS
    log = np.empty((config.steps + 1, net.n), dtype=np.uint8)
    log[0] = init.values
    states = log.view(np.bool_)
    rng = np.random.default_rng(config.seed)
    for start in range(1, len(states), _BLOCK_STEPS):
        out = states[start : start + _BLOCK_STEPS]
        u = rng.random(out.shape)
        segments = len(out) // L
        done = segments * L
        if segments:
            rows = out[:done].reshape(segments, L, -1)
            draws = u[:done].reshape(segments, L, -1)
            y = np.repeat(states[start - 1 : start], segments, axis=0)
            for j in range(L):
                np.less(draws[:, j], thresholds(y), out=rows[:, j])
                y = rows[:, j]
            y = rows[:-1, -1].copy()
            for j in range(L):
                nxt = np.less(draws[1:, j], thresholds(y))
                apart = (nxt != rows[1:, j]).any(axis=1)
                if not apart.any():
                    break
                rows[1:, j] = y = nxt
            else:
                done = (int(np.argmax(apart)) + 2) * L
        # the rest one step at a time, each state's thresholds kept for the
        # block: a chain that does not meet its guess mostly keeps or
        # revisits its states
        known = {}
        x = states[start + done - 1 : start + done]
        for k in range(done, len(out)):
            key = x.tobytes()
            th = known.get(key)
            if th is None:
                th = known[key] = thresholds(x)
            x = out[k : k + 1]
            np.less(u[k : k + 1], th, out=x)
        # free the block's draws and memo before the next block's draws (and
        # before EventLog copies the log)
        u = draws = known = None
    return EventLog(log)


def monte_carlo_mean(
    net: RiskNetwork, init: StateVector, config: SimConfig, trials: int
) -> np.ndarray:
    """Per-step empirical mean state over independent seeded trials.

    Returns a (steps+1, n) float array.  Trial t runs with its own
    generator, seeded ``config.seed + t``, so trial 0 replays
    :func:`run_discrete` with the same config and distinct trials get
    independent generator streams.  Up to ``_BLOCK_STEPS`` trials at a time
    are stepped as one ``(trials, n)`` stack through the batch-invariant
    step, so each trial's states are those of its own run bit for bit, and
    the active counts per step are integers, exact in any order.  A stack's
    trials draw ``_BLOCK_STEPS // trials`` rows at a time each, so their
    draws together take at most one block's bytes, and at most one block of
    trials holds a generator at once.
    """
    check_integer("trials", trials, 1)
    check_state(init, net.n, BINARY, "init")
    thresholds = _thresholds(net, config)
    counts = np.zeros((config.steps + 1, net.n))
    counts[0] = trials * init.values
    for first in range(0, trials, _BLOCK_STEPS):
        rngs = [np.random.default_rng(config.seed + t)
                for t in range(first, min(trials, first + _BLOCK_STEPS))]
        per_block = _BLOCK_STEPS // len(rngs)
        x = np.tile(init.values.astype(np.bool_), (len(rngs), 1))
        for start in range(0, config.steps, per_block):
            draws = np.empty((len(rngs), min(per_block, config.steps - start), net.n))
            for rng, own in zip(rngs, draws):
                rng.random(out=own)
            for k in range(draws.shape[1]):
                x = np.less(draws[:, k], thresholds(x))
                counts[start + k + 1] += x.sum(axis=0)
    counts /= trials
    return counts
