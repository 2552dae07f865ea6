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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cascade import EventLog
from .errors import DimensionMismatch, ValidationError
from .model import pin_arrays

#: Golden-section bracket width at which the search stops.
GOLDEN_TOL = 1e-9

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
_TINY = 1e-12


@dataclass(frozen=True, eq=False)
class TransitionCounts:
    """Sufficient statistics per node.

    Counts are floats so analytically expected counts (an infinite-data
    surrogate) can be fitted too.  ``exposures[i]`` is a pair of arrays
    (weighted in-neighbor activity, binary outcome), both possibly empty.
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
        if np.any(self.int_hits > self.int_trials) or np.any(
            self.con_hits > self.con_trials
        ):
            raise ValidationError("hits cannot exceed trials")
        for s, _ in self.exposures:
            if np.any(np.asarray(s) <= 0):
                raise ValidationError("exposure records need positive in-neighbor activity")

    @property
    def n(self) -> int:
        return self.int_trials.shape[0]


def count_transitions(E: np.ndarray, log: EventLog, pinned=None) -> TransitionCounts:
    """Classify every step-k -> step-k+1 transition in ``log``.

    ``pinned`` is an optional collection of node indices whose columns are
    excluded (their transitions are forced, not sampled), yielding zero
    trials and no exposures for those nodes.  A non-integer index or one
    outside ``range(n)`` raises ValidationError.
    """
    E = np.asarray(E, dtype=float)
    X = log.states.astype(float)
    n = X.shape[1]
    if E.shape != (n, n):
        raise DimensionMismatch(f"E has shape {E.shape}, expected ({n}, {n})")

    prev, nxt = X[:-1], X[1:]
    S = prev @ E  # S[k, i] = weighted active in-neighbor mass at node i, step k
    active = prev == 1.0
    activated = nxt == 1.0

    inactive_quiet = ~active & (S <= 0.0)
    con_trials = active.sum(axis=0).astype(float)
    con_hits = (active & activated).sum(axis=0).astype(float)
    int_trials = inactive_quiet.sum(axis=0).astype(float)
    int_hits = (inactive_quiet & activated).sum(axis=0).astype(float)

    exposed = ~active & (S > 0.0)
    skip, _ = pin_arrays(dict.fromkeys(() if pinned is None else pinned, 0), n)
    exposed[:, skip] = False
    con_trials[skip] = con_hits[skip] = int_trials[skip] = int_hits[skip] = 0.0
    exposures = [(S[exposed[:, i], i], nxt[exposed[:, i], i]) for i in range(n)]
    return TransitionCounts(
        int_trials=int_trials,
        int_hits=int_hits,
        con_trials=con_trials,
        con_hits=con_hits,
        exposures=tuple(exposures),
    )


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


def _exposure_loglik(p: float, s: np.ndarray, hits: np.ndarray, misses: np.ndarray, c: float) -> float:
    """Log-likelihood of aggregated exposures at external probability p.

    ``c`` is the survival of the internal channel, ``1 - p_int``.  For each
    distinct activity level s the activation probability is
    ``1 - c * (1 - p)**s``.
    """
    miss_prob = np.maximum(c * (1.0 - p) ** s, _TINY)
    act_prob = np.maximum(1.0 - miss_prob, _TINY)
    return float(hits @ np.log(act_prob) + misses @ np.log(miss_prob))


def _golden_max(f, lo: float, hi: float, tol: float = GOLDEN_TOL) -> float:
    """Golden-section maximizer of a unimodal f on [lo, hi]."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def fit_probabilities(counts: TransitionCounts, smoothing: float = 0.0) -> FitResult:
    """Fit (p_int, p_ext, p_con) from transition counts.

    ``smoothing`` adds the usual pseudo-count pair to the closed-form
    ratios; with no data at all and smoothing > 0 every probability falls
    back to the prior value 0.5.  A node with no exposure records has an
    unidentifiable external probability: returned as NaN when smoothing is
    zero rather than guessed.
    """
    if smoothing < 0:
        raise ValidationError("smoothing must be >= 0")
    p_int = _smoothed_ratio(counts.int_hits, counts.int_trials, smoothing)
    p_con = _smoothed_ratio(counts.con_hits, counts.con_trials, smoothing)

    p_ext = np.full(counts.n, np.nan)
    for i in range(counts.n):
        s, outcome = counts.exposures[i]
        if len(s) == 0:
            if smoothing > 0.0:
                p_ext[i] = 0.5
            continue
        # Aggregate by distinct activity level: the likelihood only sees
        # (level, hit count, miss count) triples.
        levels, inverse = np.unique(np.asarray(s, dtype=float), return_inverse=True)
        hits = np.bincount(inverse, weights=np.asarray(outcome, dtype=float), minlength=len(levels))
        misses = np.bincount(inverse, minlength=len(levels)) - hits
        pin = p_int[i] if np.isfinite(p_int[i]) else 0.0
        c = max(1.0 - pin, _TINY)
        p_ext[i] = _golden_max(
            lambda p: _exposure_loglik(p, levels, hits, misses, c), 0.0, 1.0
        )
    return FitResult(p_int=p_int, p_ext=p_ext, p_con=p_con)
