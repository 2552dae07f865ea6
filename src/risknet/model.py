"""Core domain types: networks, states, driver sets, and cost matrices.

Edge direction convention: ``E[i, j]`` is the influence node ``i`` exerts on
node ``j``.  The weighted activity arriving at each node is therefore
``E.T @ x``.  :meth:`RiskNetwork.inflow` computes it for one state vector
(the additive cascade, the continuous map and the Jacobian).  The lockstep
rollout in :mod:`risknet.control` computes ``E.T @ X[:, :, None]`` for a
block of states instead: one product with an ``(n, 1)`` column per state
has the bits of ``E.T @ x``, where the single product ``X @ E`` would not,
and every set of a block must get the bits of its one-set run.

All types are immutable after construction and safe to share across
concurrent readers.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ProbabilityOutOfRange, SelfLoop, ValidationError

#: Tolerance for symmetry and eigenvalue checks on cost matrices.
SYMMETRY_TOL = 1e-10


def _frozen(a: np.ndarray) -> np.ndarray:
    """Copy an array and mark it read-only."""
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class RiskNetwork:
    """A weighted directed risk network with per-node transition probabilities.

    Attributes
    ----------
    names : tuple of str
        Unique node labels, index order fixed.
    p_int : ndarray
        Probability an inactive node activates spontaneously in one step.
    p_ext : ndarray
        Probability an active neighbor activates an inactive node in one step.
    p_con : ndarray
        Probability an active node stays active (recovery prob is 1 - p_con).
    E : ndarray
        n x n adjacency with entries in [0, 1]; ``E[i, j]`` is the influence
        of node i on node j.  Weight 1 means a certain link, 0 no link.
        The diagonal is zero: self-activation is carried by ``p_int`` alone.
    """

    names: tuple
    p_int: np.ndarray
    p_ext: np.ndarray
    p_con: np.ndarray
    E: np.ndarray

    @property
    def n(self) -> int:
        return len(self.names)

    def inflow(self, x: np.ndarray) -> np.ndarray:
        """Weighted activity each node receives from its in-neighbors: the
        vector with entries ``sum_j E[j, i] * x[j]``, that is ``E.T @ x``."""
        return self.E.T @ x

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValidationError(f"unknown node name {name!r}") from None


def _check_probability_vector(label: str, v: np.ndarray, n: int) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise DimensionMismatch(f"{label} has shape {v.shape}, expected ({n},)")
    bad = np.flatnonzero((v < 0.0) | (v > 1.0) | ~np.isfinite(v))
    if bad.size:
        i = int(bad[0])
        raise ProbabilityOutOfRange(f"{label}[{i}] = {v[i]} is outside [0, 1]")
    return v


def build_network(names, p_int, p_ext, p_con, E) -> RiskNetwork:
    """Validated constructor for :class:`RiskNetwork`.

    Raises
    ------
    DimensionMismatch
        Vector lengths or the adjacency shape disagree.
    ProbabilityOutOfRange
        Any probability or edge weight outside [0, 1]; the message names
        the offending entry.
    SelfLoop
        Nonzero diagonal entry in ``E``.
    ValidationError
        Duplicate node names.
    """
    names = tuple(str(s) for s in names)
    n = len(names)
    if n == 0:
        raise ValidationError("a network needs at least one node")
    if len(set(names)) != n:
        seen = set()
        dup = next(s for s in names if s in seen or seen.add(s))
        raise ValidationError(f"duplicate node name {dup!r}")

    p_int = _check_probability_vector("p_int", p_int, n)
    p_ext = _check_probability_vector("p_ext", p_ext, n)
    p_con = _check_probability_vector("p_con", p_con, n)

    E = np.asarray(E, dtype=float)
    if E.shape != (n, n):
        raise DimensionMismatch(f"E has shape {E.shape}, expected ({n}, {n})")
    if np.any((E < 0.0) | (E > 1.0) | ~np.isfinite(E)):
        i, j = np.argwhere((E < 0.0) | (E > 1.0) | ~np.isfinite(E))[0]
        raise ProbabilityOutOfRange(f"E[{i}, {j}] = {E[i, j]} is outside [0, 1]")
    diag = np.flatnonzero(np.diag(E))
    if diag.size:
        raise SelfLoop(f"E[{diag[0]}, {diag[0]}] must be 0 (no self-loops)")

    return RiskNetwork(
        names=names,
        p_int=_frozen(p_int),
        p_ext=_frozen(p_ext),
        p_con=_frozen(p_con),
        E=_frozen(E),
    )


def degree_stats(net: RiskNetwork) -> tuple:
    """Mean and population std of vertex degrees over the undirected support.

    An edge present in either direction counts once per incident node.
    """
    support = (net.E != 0) | (net.E.T != 0)
    degrees = support.sum(axis=1)
    return float(degrees.mean()), float(degrees.std())


def _is_integer(value) -> bool:
    """Ints and numpy integers pass, booleans do not.  An exact ``int``
    skips the slower ``numbers.Integral`` check."""
    return type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))


def check_integer(label: str, value, minimum: int | None = None) -> None:
    """Reject anything but an integer (see :func:`_is_integer`) of at least
    ``minimum`` with ``ValidationError``."""
    if not _is_integer(value):
        raise ValidationError(f"{label} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{label} must be >= {minimum}, got {value}")


def _distinct_indices(label: str, indices) -> tuple:
    """``indices`` as a sorted tuple of ints; ValidationError for an entry
    that is not an integer (see :func:`check_integer`) or that repeats."""
    seen = set()
    for i in indices:
        check_integer(label, i)
        if i in seen:
            raise ValidationError(f"{label} {i} is repeated")
        seen.add(i)
    return tuple(sorted(int(i) for i in seen))


def check_state(state: StateVector, n: int, mode: str, what: str) -> None:
    """Reject a state that is not of ``mode`` with ``n`` entries."""
    if state.mode != mode or state.n != n:
        raise ValidationError(f"{what} must be a {mode} state of {n} entries")


def check_pins(pinned: dict) -> None:
    """Reject a pin map whose keys are not integers or whose values are not
    the integers 0 and 1 (``True`` and ``1.0`` are refused)."""
    for i, v in pinned.items():
        check_integer("pinned index", i)
        if not (_is_integer(v) and v in (0, 1)):
            raise ValidationError(f"pinned value for node {i} must be 0 or 1")


def pin_arrays(pinned: dict | None, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted indices and float values of a ``{node index: 0 or 1}`` pin map.
    Raises ValidationError for a map that :func:`check_pins` rejects and
    for an index outside ``range(n)``."""
    pinned = pinned or {}
    check_pins(pinned)
    idx = np.array(sorted(pinned), dtype=int)
    bad = idx[(idx < 0) | (idx >= n)]
    if bad.size:
        raise ValidationError(f"pinned index {bad[0]} out of range for {n} nodes")
    return idx, np.array([float(pinned[i]) for i in idx])


BINARY = "binary"
CONTINUOUS = "continuous"


@dataclass(frozen=True, eq=False)
class StateVector:
    """Per-node activity.  Binary for the stochastic cascade, continuous
    (expected values in [0, 1]) for the deterministic dynamics."""

    values: np.ndarray
    mode: str

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise DimensionMismatch(f"state must be a vector, got shape {v.shape}")
        if self.mode == BINARY:
            if not np.all((v == 0.0) | (v == 1.0)):
                raise ValidationError("binary state entries must be 0 or 1")
        elif self.mode == CONTINUOUS:
            if np.any((v < 0.0) | (v > 1.0) | ~np.isfinite(v)):
                raise ValidationError("continuous state entries must lie in [0, 1]")
        else:
            raise ValidationError(f"unknown state mode {self.mode!r}")
        object.__setattr__(self, "values", _frozen(v))

    @property
    def n(self) -> int:
        return self.values.shape[0]


def binary_state(values) -> StateVector:
    return StateVector(np.asarray(values, dtype=float), BINARY)


def continuous_state(values) -> StateVector:
    return StateVector(np.asarray(values, dtype=float), CONTINUOUS)


@dataclass(frozen=True, eq=False)
class DriverSet:
    """The nodes receiving direct control signals.

    ``indices`` is kept sorted; it fixes the column order of the reduced
    input matrix and of gain matrices downstream.
    """

    indices: tuple
    n: int

    def __post_init__(self):
        idx = _distinct_indices("driver index", self.indices)
        if not idx:
            raise ValidationError("driver set must be nonempty")
        if idx[0] < 0 or idx[-1] >= self.n:
            raise ValidationError(
                f"driver indices {idx} out of range for {self.n} nodes"
            )
        object.__setattr__(self, "indices", idx)

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def selection(self) -> np.ndarray:
        """n x m column selection: identity columns of the driven nodes."""
        S = np.zeros((self.n, self.size))
        S[self.indices, np.arange(self.size)] = 1.0
        return S


def _check_symmetric_matrix(label: str, M, n: int) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.shape != (n, n):
        raise DimensionMismatch(f"{label} has shape {M.shape}, expected ({n}, {n})")
    if not np.all(np.isfinite(M)):
        raise ValidationError(f"{label} has a non-finite entry")
    if np.max(np.abs(M - M.T)) > SYMMETRY_TOL:
        raise ValidationError(f"{label} is not symmetric within {SYMMETRY_TOL}")
    return M


@dataclass(frozen=True, eq=False)
class CostMatrices:
    """Quadratic cost weights: ``Q_f`` on the final state, ``Q`` on
    intermediate states, ``R`` on the control signal.

    They must be nonempty square matrices of one size (or DimensionMismatch
    names the first that is not, before any other check), with finite
    entries; ``Q_f`` and ``Q`` positive semidefinite, ``R`` positive definite.
    """

    Q_f: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        for label in ("Q_f", "Q", "R"):
            try:
                np.shape(getattr(self, label))
            except ValueError:  # numpy's error for a ragged nested list
                raise DimensionMismatch(f"{label} has rows of unequal length") from None
        shape = np.shape(self.Q_f)
        if len(shape) != 2 or shape[0] != shape[1] or not shape[0]:
            raise DimensionMismatch(f"Q_f has shape {shape}, expected a nonempty square matrix")
        n = shape[0]
        Q_f = _check_symmetric_matrix("Q_f", self.Q_f, n)
        Q = _check_symmetric_matrix("Q", self.Q, n)
        R = _check_symmetric_matrix("R", self.R, n)
        for label, M in (("Q_f", Q_f), ("Q", Q)):
            if np.linalg.eigvalsh(M).min() < -SYMMETRY_TOL:
                raise ValidationError(f"{label} must be positive semidefinite")
        if np.linalg.eigvalsh(R).min() <= 0.0:
            raise ValidationError("R must be positive definite")
        object.__setattr__(self, "Q_f", _frozen(Q_f))
        object.__setattr__(self, "Q", _frozen(Q))
        object.__setattr__(self, "R", _frozen(R))

    @property
    def n(self) -> int:
        return self.Q.shape[0]


def identity_costs(n: int) -> CostMatrices:
    """Unit weights on every state and signal channel."""
    eye = np.eye(n)
    return CostMatrices(Q_f=eye, Q=eye, R=eye)
