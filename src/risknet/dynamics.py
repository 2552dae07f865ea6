"""Deterministic expected-value dynamics, steady state, and linearization.

The state update splits into an internal part
``F_i = p_int_i * (1 - x_i) + p_con_i * x_i`` and a network part
``G_i = p_ext_i * s_i * (1 - x_i)`` with ``s_i`` the weighted active
in-neighbor mass.  One step is ``clamp_[0,1](F + G + B u)``; clamping is
reported per node so callers can detect boundary operation.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence, SaturatedPoint, ValidationError
from .model import (CONTINUOUS, DriverSet, RiskNetwork, StateVector, check_integer, check_state,
                    continuous_state)

#: Default fixed-point settings for the steady-state solver.
STEADY_STATE_TOL = 1e-12
STEADY_STATE_MAX_ITER = 10**6


def _raw_map(net: RiskNetwork, x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``F + G`` at the state ``x`` with inflow ``s = E.T x``; elementwise,
    so ``x`` and ``s`` may also hold one state per row."""
    off = 1.0 - x
    return net.p_int * off + net.p_con * x + net.p_ext * s * off


def unclamped_step(net: RiskNetwork, x: np.ndarray) -> np.ndarray:
    """Raw uncontrolled update ``F + G`` before projection onto [0, 1];
    ValidationError for an ``x`` of another shape than ``(n,)``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (net.n,):
        raise ValidationError(f"x has shape {x.shape}, expected ({net.n},)")
    return _raw_map(net, x, net.inflow(x))


def step_continuous(
    net: RiskNetwork, x: StateVector, u: np.ndarray | None = None
) -> tuple[StateVector, np.ndarray]:
    """One step of the expected-value map.

    ``u`` may be any real vector of n entries, added to every node
    (negative entries suppress activity).  Returns the clamped next state
    together with a boolean mask of nodes whose raw update left [0, 1].
    Raises ValidationError for an ``x`` that is not a continuous state of n
    entries or a ``u`` of another shape or with a non-finite entry.
    """
    check_state(x, net.n, CONTINUOUS, "x")
    raw = unclamped_step(net, x.values)
    if u is not None:
        u = np.asarray(u, dtype=float)
        if u.shape != (net.n,):
            raise ValidationError(f"control vector has shape {u.shape}, expected ({net.n},)")
        if not np.all(np.isfinite(u)):
            raise ValidationError("control vector u has a non-finite entry")
        raw = raw + u
    saturated = (raw < 0.0) | (raw > 1.0)
    return continuous_state(raw.clip(0.0, 1.0)), saturated


def find_steady_state(
    net: RiskNetwork,
    tol: float = STEADY_STATE_TOL,
    max_iter: int = STEADY_STATE_MAX_ITER,
    damping: float | None = None,
) -> StateVector:
    """Natural steady state: fixed point of the uncontrolled map.

    Plain fixed-point iteration from the all-inactive state.  It stops at
    the first iterate ``x`` whose clamped update ``fx = step(x)`` satisfies
    ``max |fx - x| <= tol`` and returns ``fx``: a point of [0, 1] that the
    clamped map reached from within ``tol`` of it, so its own residual is
    at most ``tol`` times the map's Lipschitz constant in the max norm.
    Set ``damping`` in (0, 1] (e.g. 0.5) to average each update with the
    current iterate, which tames oscillatory dynamics.  No uniqueness is
    claimed.

    Raises
    ------
    ValidationError
        ``tol`` not in (0, inf), ``max_iter`` < 1, or ``damping`` outside (0, 1].
    NoConvergence
        If ``max_iter`` iterations pass without meeting ``tol``; carries the
        last residual.
    """
    if not 0.0 < tol < np.inf:
        raise ValidationError(f"tol must be positive and finite, got {tol}")
    check_integer("max_iter", max_iter, 1)
    if damping is not None and not 0.0 < damping <= 1.0:
        raise ValidationError(f"damping must be in (0, 1], got {damping}")
    x = np.zeros(net.n)
    for _ in range(max_iter):
        fx = _raw_map(net, x, net.inflow(x)).clip(0.0, 1.0)
        residual = float(np.max(np.abs(fx - x)))
        if residual <= tol:
            return continuous_state(fx)
        x = fx if damping is None else (1.0 - damping) * x + damping * fx
    raise NoConvergence(max_iter, residual)


def linearize(net: RiskNetwork, x_lin: StateVector) -> np.ndarray:
    """Analytic Jacobian of the unclamped map at ``x_lin`` (typically the
    natural steady state), which every driver set of the network shares.

    ``A[i, j] = d(next x_i)/d(x_j)``:

    * diagonal: ``p_con_i - p_int_i - p_ext_i * s_i``
    * off-diagonal: ``p_ext_i * E[j, i] * (1 - x_i)``

    A is C-contiguous, so products ``P @ A`` take BLAS's fast layout.

    Raises
    ------
    ValidationError
        ``x_lin`` is not a continuous state of n entries.
    SaturatedPoint
        The raw map leaves [0, 1] at ``x_lin``, where the clamped dynamics
        are not differentiable by this formula.
    """
    check_state(x_lin, net.n, CONTINUOUS, "x_lin")
    x = x_lin.values
    s = net.inflow(x)
    raw = _raw_map(net, x, s)
    if (saturated := (raw < 0.0) | (raw > 1.0)).any():
        i = int(np.argmax(saturated))
        raise SaturatedPoint(f"update map saturates at node {i} (raw value {raw[i]:.6g})")
    A = np.multiply(net.E.T, (net.p_ext * (1.0 - x))[:, None], order="C")
    np.fill_diagonal(A, net.p_con - net.p_int - net.p_ext * s)
    return A


def _check_driver(driver: DriverSet, n: int) -> None:
    if driver.n != n:
        raise ValidationError("driver set sized for a different network")


def _check_system(A: np.ndarray, driver: DriverSet) -> int:
    """The size n of the square Jacobian ``A``, checked against the driver set."""
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValidationError(f"A must be a square matrix, got shape {A.shape}")
    _check_driver(driver, len(A))
    return len(A)


def controllability_rank(A: np.ndarray, driver: DriverSet) -> int:
    """Rank of the reachability matrix ``[B, AB, ..., A^(n-1) B]`` of the
    driver set under the Jacobian ``A``.

    Computed by SVD with threshold ``n * max_singular_value * eps`` (eps =
    double-precision machine epsilon).  An ``A`` with a non-finite entry
    raises ValidationError.
    """
    n = _check_system(A, driver)
    if not np.all(np.isfinite(A)):
        raise ValidationError("A has a non-finite entry")
    blocks = []
    block = driver.selection
    for _ in range(n):
        blocks.append(block)
        block = A @ block
    kalman = np.hstack(blocks)
    svals = np.linalg.svd(kalman, compute_uv=False)
    tol = n * svals[0] * np.finfo(float).eps
    return int(np.count_nonzero(svals > tol))
