"""Deterministic expected-value dynamics, steady state, and linearization.

The state update splits into an internal part
``F_i = p_int_i * (1 - x_i) + p_con_i * x_i`` and a network part
``G_i = p_ext_i * s_i * (1 - x_i)`` with ``s_i`` the weighted active
in-neighbor mass.  One step is ``clamp_[0,1](F + G + B u)``; clamping is
reported per node so callers can detect boundary operation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, SaturatedPoint, ValidationError
from .model import CONTINUOUS, DriverSet, RiskNetwork, StateVector, continuous_state

#: Default fixed-point settings for the steady-state solver.
STEADY_STATE_TOL = 1e-12
STEADY_STATE_MAX_ITER = 10**6


def _raw_map(net: RiskNetwork, x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``F + G`` at the state ``x`` with inflow ``s = E.T x``; elementwise,
    so ``x`` and ``s`` may also hold one state per row."""
    off = 1.0 - x
    return net.p_int * off + net.p_con * x + net.p_ext * s * off


def unclamped_step(net: RiskNetwork, x: np.ndarray) -> np.ndarray:
    """Raw uncontrolled update ``F + G`` before projection onto [0, 1]."""
    x = np.asarray(x, dtype=float)
    return _raw_map(net, x, net.inflow(x))


def step_continuous(
    net: RiskNetwork,
    x: StateVector,
    u: np.ndarray | None = None,
    driver: DriverSet | None = None,
) -> tuple[StateVector, np.ndarray]:
    """One step of the expected-value map.

    ``u`` may be any real vector (negative entries suppress activity); when
    ``driver`` is given only driven entries of ``u`` act.  Returns the
    clamped next state together with a boolean mask of nodes whose raw
    update left [0, 1].
    """
    if x.mode != CONTINUOUS:
        raise ValidationError("step_continuous needs a continuous state")
    raw = unclamped_step(net, x.values)
    if u is not None:
        u = np.asarray(u, dtype=float)
        if u.shape != (net.n,):
            raise ValidationError(f"control vector has shape {u.shape}, expected ({net.n},)")
        if driver is not None:
            d = list(driver.indices)
            raw[d] += u[d]
        else:
            raw = raw + u
    saturated = (raw < 0.0) | (raw > 1.0)
    return continuous_state(raw.clip(0.0, 1.0)), saturated


def find_steady_state(
    net: RiskNetwork,
    x0: StateVector | None = None,
    tol: float = STEADY_STATE_TOL,
    max_iter: int = STEADY_STATE_MAX_ITER,
    damping: float | None = None,
) -> StateVector:
    """Natural steady state: fixed point of the uncontrolled map.

    Plain fixed-point iteration from ``x0`` (all-zeros by default); the
    returned point satisfies ``max |step(x) - x| <= tol``.  Set ``damping``
    in (0, 1] (e.g. 0.5) to average each update with the current iterate,
    which tames oscillatory dynamics.  No uniqueness is claimed: the result
    is the fixed point reached from ``x0``.

    Raises
    ------
    ValidationError
        ``tol`` <= 0, or ``damping`` outside (0, 1] (0 never moves).
    NoConvergence
        If ``max_iter`` iterations pass without meeting ``tol``; carries the
        last residual.
    """
    if tol <= 0:
        raise ValidationError("tol must be positive")
    if damping is not None and not 0.0 < damping <= 1.0:
        raise ValidationError(f"damping must be in (0, 1], got {damping}")
    x = np.zeros(net.n) if x0 is None else np.asarray(x0.values, dtype=float)
    residual = np.inf
    for _ in range(max_iter):
        fx = unclamped_step(net, x).clip(0.0, 1.0)
        residual = float(np.max(np.abs(fx - x)))
        if residual <= tol:
            return continuous_state(x)
        x = fx if damping is None else (1.0 - damping) * x + damping * fx
    raise NoConvergence(max_iter, residual)


def jacobian(net: RiskNetwork, x: StateVector) -> np.ndarray:
    """Analytic Jacobian of the unclamped map at ``x``.

    ``A[i, j] = d(next x_i)/d(x_j)``:

    * diagonal: ``p_con_i - p_int_i - p_ext_i * s_i``
    * off-diagonal: ``p_ext_i * E[j, i] * (1 - x_i)``

    Raises
    ------
    SaturatedPoint
        The raw map leaves [0, 1] at ``x``, where the clamped dynamics are
        not differentiable by this formula.
    """
    raw = unclamped_step(net, x.values)
    if np.any((raw < 0.0) | (raw > 1.0)):
        i = int(np.argmax((raw < 0.0) | (raw > 1.0)))
        raise SaturatedPoint(f"update map saturates at node {i} (raw value {raw[i]:.6g})")
    s = net.inflow(x.values)
    A = net.E.T * (net.p_ext * (1.0 - x.values))[:, None]
    np.fill_diagonal(A, net.p_con - net.p_int - net.p_ext * s)
    return A


@dataclass(frozen=True, eq=False)
class LinearizedSystem:
    """Local linear model ``dx(k+1) ~ A dx(k) + B du(k)`` about ``x_lin``;
    the driver set that gives B is passed with it where B is needed."""

    A: np.ndarray
    x_lin: StateVector

    def __post_init__(self):
        n = self.x_lin.n
        if self.A.shape != (n, n):
            raise ValidationError(f"A has shape {self.A.shape}, expected ({n}, {n})")

    @property
    def n(self) -> int:
        return self.x_lin.n


def linearize(net: RiskNetwork, x_lin: StateVector) -> LinearizedSystem:
    """The Jacobian at ``x_lin`` (typically the natural steady state), which
    every driver set of the network shares."""
    return LinearizedSystem(A=jacobian(net, x_lin), x_lin=x_lin)


def _check_driver(driver: DriverSet, n: int) -> None:
    if driver.n != n:
        raise ValidationError("driver set sized for a different network")


def controllability_rank(sys: LinearizedSystem, driver: DriverSet) -> int:
    """Rank of the reachability matrix ``[B, AB, ..., A^(n-1) B]`` of the
    driver set.

    Computed by SVD with threshold ``n * max_singular_value * eps`` (eps =
    double-precision machine epsilon).
    """
    _check_driver(driver, sys.n)
    n = sys.n
    blocks = []
    block = driver.selection
    for _ in range(n):
        blocks.append(block)
        block = sys.A @ block
    kalman = np.hstack(blocks)
    svals = np.linalg.svd(kalman, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    tol = n * svals[0] * np.finfo(float).eps
    return int(np.count_nonzero(svals > tol))
