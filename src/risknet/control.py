"""Finite-horizon optimal control of the risk dynamics.

The objective charges both risk activity and control effort:

    J = x(tau)' Q_f x(tau) + sum_{k<tau} [ x(k)' Q x(k) + u(k)' R u(k) ]

Gains come from the standard backward value recursion on the linear model
taken at the natural steady state, restricted to the driven coordinates;
the schedule keeps the gains and the value matrix at k = 0, nothing else.
Two control phases are provided:

* reactive: feedback ``u(k) = -K(k) x(k)`` rolled out on the nonlinear map,
  driving ongoing activity toward the all-inactive state;
* proactive: starting at inactivity, each driven node's expected activation
  inflow is cancelled exactly, holding it down while undriven nodes evolve
  freely.

Both phases share one rollout: the nonlinear map is stepped forward while
the driven nodes receive the phase's signal.  The rollout fast-forwards
exactly.  x(k+1) depends only on x(k), the signal map of step k and the
pins.  The rollout is given a period p and a window end W such that the
signal map of step k is the one of step k - p for every p <= k < W: the
feedback phase reads them from gains that repeat as the same arrays, the
proactive signal does not depend on k.  If then x(a) equals x(a + q) bit
for bit, with q a multiple of p and a + q <= W, every later state up to
x(W), and every signal and saturation count before step W, repeats with
period q; the rollout copies them instead of stepping, and steps on from
x(W) as usual.

Costs are always measured on the realized nonlinear trajectory, on absolute
states (deviation from the all-inactive target), not on deviations from the
linearization point: regulating the deviation variable would stabilize the
very steady state the controller is meant to avoid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingularInnerMatrix, ValidationError
from .model import CONTINUOUS, CostMatrices, DriverSet, RiskNetwork, StateVector, pin_arrays
from .dynamics import LinearizedSystem, find_steady_state, jacobian, unclamped_step


@dataclass(frozen=True, eq=False)
class GainSchedule:
    """Time-varying gains K(0..tau-1) (each m x n, rows = driven nodes in
    index order) and the value matrix P0 = P(0), so the optimal linear cost
    from x0 is ``x0 @ P0 @ x0``."""

    K: tuple
    P0: np.ndarray


@dataclass(frozen=True, eq=False)
class ControlRun:
    """A completed rollout: trajectory, signals, and decomposed costs.

    ``signals`` rows are full-length with zeros off the driven nodes;
    ``total_cost = state_cost + control_cost`` exactly by construction.
    ``saturation_count`` totals the node-steps where the raw update left
    [0, 1] and was clamped.
    """

    states: np.ndarray
    signals: np.ndarray
    state_cost: float
    control_cost: float
    total_cost: float
    saturation_count: int


def _solve_gain(inner: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``inner @ K = rhs`` for K, with a definiteness guard."""
    try:
        np.linalg.cholesky(inner)
        return np.linalg.solve(inner, rhs)
    except np.linalg.LinAlgError:
        raise SingularInnerMatrix(
            "signal-cost block plus value quadratic is numerically singular; "
            "check the conditioning of R"
        ) from None


def riccati_schedule(
    sys: LinearizedSystem, costs: CostMatrices, horizon: int
) -> GainSchedule:
    """Backward value recursion for the finite-horizon regulator toward the
    all-inactive state.

    With S the driver column selection, Rd the driver block of R and
    P(tau) = Q_f, for k = tau-1 .. 0:

        K(k) = (Rd + S'P(k+1)S)^-1 S'P(k+1)A
        P(k) = Q + A'P(k+1)A - A'P(k+1)S K(k)

    Only the running value matrix is kept; the schedule holds every gain
    and P(0).  The optimal driven signal is ``u(k) = -K(k) x(k)``.

    Over a long horizon, rounding settles P into a cycle of bitwise-equal
    matrices.  Both K(k) and P(k) are functions of P(k+1) alone, so once
    ``P(k) == P(k + p)`` bit for bit, every earlier step repeats with period
    p: the recursion stops there, runs ``k mod p`` more steps to reach P(0),
    and fills the earlier gains by ``K(j) = K(j + p)``.  The result is
    exactly the full recursion's, with no tolerance.  The cycle is found by
    Brent's method: the running P is compared with one checkpoint, which
    moves to the running P at power-of-two distances.  Earlier gains share
    their arrays with the cycle's, so every gain is read-only.

    Raises
    ------
    ValidationError
        ``horizon < 1``.
    DimensionMismatch
        The costs are sized for a different network.
    """
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    if costs.n != sys.n:
        raise DimensionMismatch("cost matrices sized for a different network")
    A = sys.A
    d = np.array(sys.driver.indices)
    dd = np.ix_(d, d)
    Rd = costs.R[dd]
    Q = costs.Q

    K = [None] * horizon
    Pn = costs.Q_f
    # Brent's checkpoint: the bits of P(mark_k); period stays 0 until P(k)
    # repeats them.
    mark, mark_k, power, period = Pn.tobytes(), horizon, 1, 0
    k = horizon
    while k > 0 and not (period and k % period == 0):
        k -= 1
        inner = Rd + Pn[dd]
        K[k] = _solve_gain(inner, Pn[d, :] @ A)
        K[k].flags.writeable = False
        Pk = Q + A.T @ (Pn @ A) - (A.T @ Pn[:, d]) @ K[k]
        Pn = 0.5 * (Pk + Pk.T)
        if not period:
            bits = Pn.tobytes()
            if bits == mark:
                period = mark_k - k
            elif mark_k - k == power:
                mark, mark_k, power = bits, k, 2 * power
    for j in range(k - 1, -1, -1):
        K[j] = K[j + period]
    return GainSchedule(K=tuple(K), P0=Pn)


def control_energy(signals: np.ndarray) -> float:
    """Sum of squared Euclidean norms of the per-step signals."""
    return float(np.sum(np.asarray(signals, dtype=float) ** 2))


def evaluate_cost(
    run_states: np.ndarray, run_signals: np.ndarray, costs: CostMatrices
) -> tuple[float, float, float]:
    """Decompose a trajectory's cost into (state, control, total).

    ``run_states`` must have exactly one more row than ``run_signals``.
    The final state is charged with Q_f, every earlier state (including the
    initial one) with Q, and every signal row with R.
    """
    X = np.asarray(run_states, dtype=float)
    U = np.asarray(run_signals, dtype=float)
    if X.ndim != 2 or U.ndim != 2 or X.shape[0] != U.shape[0] + 1:
        raise DimensionMismatch(
            f"states {X.shape} must have one more row than signals {U.shape}"
        )
    if X.shape[1] != costs.n or U.shape[1] != costs.n:
        raise DimensionMismatch("state/signal width does not match cost matrices")
    body = X[:-1]
    state_cost = float(X[-1] @ costs.Q_f @ X[-1] + np.sum((body @ costs.Q) * body))
    control_cost = float(np.sum((U @ costs.R) * U))
    return state_cost, control_cost, state_cost + control_cost


def _pin_arrays(driver: DriverSet, pinned: dict | None, n: int):
    """:func:`~risknet.model.pin_arrays`, plus the rule that a pinned node
    cannot be driven."""
    idx, val = pin_arrays(pinned, n)
    overlap = sorted(set(driver.indices) & set(idx.tolist()))
    if overlap:
        raise ValidationError(f"pinned nodes cannot be driven: {overlap}")
    return idx, val


def _rollout(
    net: RiskNetwork,
    driver: DriverSet,
    costs: CostMatrices,
    x0: np.ndarray,
    steps: int,
    signal,
    pinned: dict | None = None,
    period: int = 0,
    cycle_end: int = 0,
) -> ControlRun:
    """Step the nonlinear map ``steps`` times from ``x0``.

    ``signal(k, x)`` returns the driven nodes' signals (in index order) for
    step k at state x.  Pinned nodes are forced to their value at every
    step, including the initial state.

    The caller declares that ``signal(k, .)`` is the map ``signal(k -
    period, .)`` for every ``period <= k < cycle_end`` (``period`` 0: no
    repeat).  At multiples of ``period`` the state is compared with one
    checkpoint, which moves to the current state at power-of-two distances
    (Brent's method).  Once x(k) equals the checkpoint x(k - q) bit for bit,
    everything up to ``cycle_end`` is copied from q steps earlier.
    """
    pin_idx, pin_val = _pin_arrays(driver, pinned, net.n)
    d = np.array(driver.indices)
    states = np.empty((steps + 1, net.n))
    signals = np.zeros((steps, net.n))
    saturation = np.zeros(steps, dtype=np.int64)
    x = np.array(x0, dtype=float)
    x[pin_idx] = pin_val
    states[0] = x
    end = min(cycle_end, steps)
    # Brent's checkpoint: the bits of x(mark_k)
    mark, mark_k, power = x.tobytes(), 0, period
    k = 0
    while k < steps:
        if period and k % period == 0 and 0 < k < end:
            bits = x.tobytes()
            if bits == mark:
                # x(j) = x(j - q) for j <= end: copy by period q
                q = k - mark_k
                back = np.arange(end - k) % q - q
                states[k + 1:end + 1] = states[k + 1 + back]
                signals[k:end] = signals[k + back]
                saturation[k:end] = saturation[k + back]
                k, x, period = end, states[end].copy(), 0
                continue
            if k - mark_k == power:
                mark, mark_k, power = bits, k, 2 * power
        u = signal(k, x)
        signals[k, d] = u
        raw = unclamped_step(net, x)
        raw[d] += u
        saturation[k] = np.count_nonzero((raw < 0.0) | (raw > 1.0))
        x = raw.clip(0.0, 1.0)
        x[pin_idx] = pin_val
        states[k + 1] = x
        k += 1
    if not np.isfinite(states).all():
        raise ValidationError("rollout produced a non-finite state; check the gains")
    state_cost, control_cost, total = evaluate_cost(states, signals, costs)
    return ControlRun(
        states=states,
        signals=signals,
        state_cost=state_cost,
        control_cost=control_cost,
        total_cost=total,
        saturation_count=int(saturation.sum()),
    )


def run_reactive(
    net: RiskNetwork,
    driver: DriverSet,
    costs: CostMatrices,
    init: StateVector,
    steps: int,
    pinned: dict | None = None,
) -> ControlRun:
    """Finite-horizon feedback run from ongoing activity toward inactivity.

    Linearizes at the natural steady state, builds the gain schedule for
    ``steps``, then rolls the nonlinear map forward under
    ``u(k) = -K(k) x(k)`` on the driven nodes, which steers toward the
    all-inactive state.  Pinned nodes (``{index: 0 or 1}``) are forced to
    their value at every step (including the initial state) and must not
    appear in the driver set.
    """
    return _reactive(net, driver, costs, init, steps, pinned)


def _reactive(net, driver, costs, init, steps, pinned, x_s=None, A=None) -> ControlRun:
    """:func:`run_reactive` at the natural steady state ``x_s`` with the
    Jacobian ``A`` there; each is computed here when None.  A sweep passes
    the ones it found already."""
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    if init.mode != CONTINUOUS or init.n != net.n:
        raise ValidationError("init must be a continuous state of matching length")
    _pin_arrays(driver, pinned, net.n)  # reject bad pins before the gain schedule

    if x_s is None:
        x_s = find_steady_state(net)
    if A is None:
        A = jacobian(net, x_s)
    sys = LinearizedSystem(A=A, x_lin=x_s, driver=driver)
    schedule = riccati_schedule(sys, costs, steps)
    return rollout_feedback(net, driver, costs, init, schedule, pinned)


def rollout_feedback(
    net: RiskNetwork,
    driver: DriverSet,
    costs: CostMatrices,
    init: StateVector,
    schedule: GainSchedule,
    pinned: dict | None = None,
) -> ControlRun:
    """Roll the nonlinear map under a precomputed gain schedule.

    Where the gains repeat by identity, ``K[j] is K[j - p]`` (the same
    array, as in :func:`riccati_schedule`'s cycle) for every ``p <= j < W``,
    the rollout stops stepping once the closed-loop state repeats bit for
    bit at a multiple of p, and copies the states, signals and saturation
    counts forward to step W; the gains after it are stepped as usual.
    This is exact: the next state depends only on the current state, the
    gain array of the step and the pins, so equal bits with equal gains
    give equal bits.  The result is byte for byte the one of stepping every
    gain.
    """
    K = schedule.K
    return _rollout(
        net, driver, costs, init.values, len(K), lambda k, x: -K[k] @ x, pinned,
        *_gain_window(K),
    )


def _gain_window(K: tuple) -> tuple[int, int]:
    """``(p, W)``: the first p > 0 with ``K[p] is K[0]`` and the first
    ``W >= p`` with ``K[W] is not K[W - p]`` (or ``len(K)``); ``(0, 0)``
    when no gain is the array of gain 0."""
    p = next((j for j in range(1, len(K)) if K[j] is K[0]), 0)
    if not p:
        return 0, 0
    return p, next((j for j in range(p, len(K)) if K[j] is not K[j - p]), len(K))


def run_proactive(
    net: RiskNetwork,
    driver: DriverSet,
    costs: CostMatrices,
    steps: int,
) -> ControlRun:
    """Hold the network near inactivity by cancelling driven activation.

    Starts at the all-inactive state (the reactive phase's goal).  Each
    step, every driven node i receives
    ``u_i = -(p_int_i + p_ext_i * s_i) * (1 - x_i)``, exactly cancelling its
    expected activation inflow; undriven nodes evolve freely.  The signal
    does not depend on the step, so the rollout may fast-forward with
    period 1 over the whole horizon.
    """
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    d = list(driver.indices)

    def cancel_inflow(k, x):
        s = net.inflow(x)
        return -(net.p_int[d] + net.p_ext[d] * s[d]) * (1.0 - x[d])

    return _rollout(
        net, driver, costs, np.zeros(net.n), steps, cancel_inflow, period=1, cycle_end=steps
    )
