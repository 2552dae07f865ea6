"""Per-node maximum-likelihood estimation of transition probabilities from
binary event logs.

Transitions at each node are classified by the step-k state:

* active -> continuation trial (hit if still active at k+1),
* inactive with no active in-neighbors -> internal trial (hit if activated),
* inactive with active in-neighbors -> exposure record carrying the weighted
  in-neighbor activity and the activation outcome.

Internal and continuation probabilities have the closed form
``(hits + a) / (trials + 2a)`` with additive smoothing ``a``.  The external
probability maximizes the per-neighbor-independence likelihood over the
node's exposure records, with the internal probability held at its
closed-form estimate; the search is golden-section on [0, 1].

Both stages run node by node.  Counting makes one pass per node over a
node-major 0/1 copy of the log, one byte per entry.  Node i's weighted
in-neighbor activity at step k is ``E[j, i]`` times the 0/1 state of j,
added to 0.0 one at a time in ascending j (one multiply-add per edge into a
reused length-T vector), so its bits do not depend on the BLAS.  Beside the
exposure records it returns, counting holds only that byte copy and a few
length-T vectors.  The fit groups each node's records by one sort, one node
at a time, then runs every node's search in lockstep, with one elementwise
pass for the log terms of all levels; but each node keeps its own bracket
updates and its own 1-D dot products, so its estimate is bit for bit a lone
search's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cascade import EventLog
from .errors import DimensionMismatch, ValidationError
from .model import RiskNetwork, pin_arrays

#: Golden-section bracket width at which the search stops.
GOLDEN_TOL = 1e-9

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
_TINY = 1e-12


@dataclass(frozen=True, eq=False)
class TransitionCounts:
    """Sufficient statistics per node.

    Counts are floats so analytically expected counts (an infinite-data
    surrogate) can be fitted too.  ``exposures[i]`` is a pair of 1-D arrays
    of equal length (weighted in-neighbor activity, binary outcome), both
    possibly empty.
    """

    int_trials: np.ndarray
    int_hits: np.ndarray
    con_trials: np.ndarray
    con_hits: np.ndarray
    exposures: tuple

    def __post_init__(self):
        n = self.int_trials.shape[0]
        for label in ("int_hits", "con_trials", "con_hits"):
            if getattr(self, label).shape != (n,):
                raise DimensionMismatch(f"{label} length does not match")
        if len(self.exposures) != n:
            raise DimensionMismatch("exposures length does not match")
        tallies = np.stack([self.int_trials, self.int_hits, self.con_trials, self.con_hits])
        if not np.all(tallies >= 0):
            raise ValidationError("trials and hits must be non-negative")
        if np.any(tallies[1::2] > tallies[::2]):
            raise ValidationError("hits cannot exceed trials")
        for s, o in self.exposures:
            s, o = np.asarray(s, dtype=float), np.asarray(o, dtype=float)
            if s.ndim != 1 or s.shape != o.shape:
                raise DimensionMismatch("each exposure record needs one activity and one outcome")
            if not np.all((s > 0.0) & (s < np.inf)):
                raise ValidationError("exposure records need positive, finite in-neighbor activity")
            if not np.all((o == 0.0) | (o == 1.0)):
                raise ValidationError("exposure outcomes must be 0 or 1")

    @property
    def n(self) -> int:
        return self.int_trials.shape[0]


def count_transitions(net: RiskNetwork, log: EventLog, pinned=None) -> TransitionCounts:
    """Classify every step-k -> step-k+1 transition in ``log`` on the
    weights of ``net``; a log of another width raises DimensionMismatch.

    ``pinned`` is an optional collection of node indices whose columns are
    excluded (their transitions are forced, not sampled), yielding zero
    trials and no exposures for those nodes.  A non-integer index or one
    outside ``range(n)`` raises ValidationError.
    """
    E, n = net.E, net.n
    if log.n != n:
        raise DimensionMismatch(f"log has {log.n} columns, expected {n}")
    skip, _ = pin_arrays(dict.fromkeys(() if pinned is None else pinned, 0), n)
    counted = np.ones(n, dtype=bool)
    counted[skip] = False

    X = np.ascontiguousarray(log.states.T).view(bool)  # node-major, 1 byte per entry
    prev = X[:, :-1]
    s, term = np.empty(log.steps), np.empty(log.steps)
    tallies = np.zeros((4, n))
    exposures = [(np.empty(0), np.empty(0))] * n
    for i in np.flatnonzero(counted):
        # s[k]: node i's in-neighbor weights summed over the active ones at
        # step k, in ascending index order
        s.fill(0.0)
        for j in np.flatnonzero(E[:, i]):
            s += np.multiply(prev[j], E[j, i], out=term)
        active, activated = prev[i], X[i, 1:]
        idle = ~active
        quiet, exposed = idle & (s <= 0.0), idle & (s > 0.0)
        tallies[:, i] = [np.count_nonzero(m) for m in (
            quiet, quiet & activated, active, active & activated)]
        records = np.flatnonzero(exposed)
        exposures[i] = (s.take(records), activated.take(records).astype(float))
    return TransitionCounts(*tallies, exposures=tuple(exposures))


class FitResult(NamedTuple):
    p_int: np.ndarray
    p_ext: np.ndarray
    p_con: np.ndarray


def _smoothed_ratio(hits, trials, a):
    out = np.full(hits.shape, np.nan)
    denom = trials + 2.0 * a
    ok = denom > 0
    out[ok] = (hits[ok] + a) / denom[ok]
    return out


def _levels(exposures):
    """Each node's distinct activity levels, ascending, with their hit and
    miss counts, grouped one node at a time.  A key is the activity's bits
    (positive floats sort as their bits) with the outcome as a new low bit:
    one sort groups a node's records."""
    parts = []
    for s, o in exposures:
        keys = np.asarray(s, dtype=float).view(np.uint64) << 1
        keys |= np.asarray(o) == 1.0
        keys.sort()
        bits = keys >> 1
        first = np.flatnonzero(np.r_[True, bits[1:] != bits[:-1]])
        hits = np.add.reduceat(keys & 1, first).astype(float)
        parts.append((bits[first].view(float), hits, np.diff(first, append=len(keys)) - hits))
    levels, hits, misses = (np.concatenate(column) for column in zip(*parts))
    return levels, hits, misses, np.array([len(part[0]) for part in parts])


def _golden_max_lockstep(levels, hits, misses, per_node, surv):
    """Golden-section maximizer of each node's exposure log-likelihood on
    [0, 1]; ``surv`` is each node's internal survival ``1 - p_int``."""
    bounds = np.cumsum(per_node) - per_node
    parts = [(hits[lo:lo + k], misses[lo:lo + k], lo, lo + k) for lo, k in zip(bounds, per_node)]
    surv = np.repeat(surv, per_node)

    def loglik(p, live):
        miss = np.maximum(surv * np.repeat(1.0 - p, per_node) ** levels, _TINY)
        log_act, log_miss = np.log(np.maximum(1.0 - miss, _TINY)), np.log(miss)
        out = np.full(len(p), np.nan)
        for i in np.flatnonzero(live):
            h, m, lo, hi = parts[i]
            out[i] = h @ log_act[lo:hi] + m @ log_miss[lo:hi]
        return out

    a, b = np.zeros(len(per_node)), np.ones(len(per_node))
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    live = b - a > GOLDEN_TOL
    fc, fd = loglik(c, live), loglik(d, live)
    while live.any():
        left = live & (fc > fd)
        right = live & ~left
        b[left], d[left], fd[left] = d[left], c[left], fc[left]
        c[left] = b[left] - _INVPHI * (b[left] - a[left])
        a[right], c[right], fc[right] = c[right], d[right], fd[right]
        d[right] = a[right] + _INVPHI * (b[right] - a[right])
        f = loglik(np.where(left, c, d), live)
        fc[left], fd[right] = f[left], f[right]
        live = b - a > GOLDEN_TOL
    return 0.5 * (a + b)


def fit_probabilities(counts: TransitionCounts, smoothing: float = 0.0) -> FitResult:
    """Fit (p_int, p_ext, p_con) from transition counts.

    ``smoothing`` adds the usual pseudo-count pair to the closed-form
    ratios; with no data at all and smoothing > 0 every probability falls
    back to the prior value 0.5.  A node with no exposure records has an
    unidentifiable external probability: returned as NaN when smoothing is
    zero rather than guessed.
    """
    if not 0.0 <= smoothing < np.inf:
        raise ValidationError("smoothing must be finite and >= 0")
    p_int = _smoothed_ratio(counts.int_hits, counts.int_trials, smoothing)
    p_con = _smoothed_ratio(counts.con_hits, counts.con_trials, smoothing)

    fitted = np.flatnonzero([len(s) > 0 for s, _ in counts.exposures])
    p_ext = np.full(counts.n, 0.5 if smoothing > 0.0 else np.nan)
    if fitted.size:
        levels = _levels([counts.exposures[i] for i in fitted])
        pin = np.where(np.isfinite(p_int[fitted]), p_int[fitted], 0.0)
        p_ext[fitted] = _golden_max_lockstep(*levels, np.maximum(1.0 - pin, _TINY))
    return FitResult(p_int=p_int, p_ext=p_ext, p_con=p_con)
