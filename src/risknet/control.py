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

The gain recursion and the rollout both run on a block of driver sets of
one size in lockstep: every array carries a leading set axis, and each set
keeps its own cycle checks, cut-offs and failures.  A stacked ``@``,
``np.linalg.solve`` or ``np.linalg.cholesky`` makes the same BLAS/LAPACK
call for each matrix as the call on that matrix alone, so every set gets the
same bits in any block, provided each operand has the layout of the one-set
call.  Matrix-vector products stay products with an ``(n, 1)`` column (never
``X @ E``: one matrix product, whose bits differ from the rows' products),
and the value matrix's driver columns keep the layout of ``P[:, d]``.  The
kernels read a preparation of the network (``_prepare``: the pins and, for
the reactive phase, the Jacobian at the natural steady state) and a matrix
``D`` of driver indices, one row per set.  A sweep prepares its network
once; the public functions prepare once per call and run blocks of one set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    RiskNetError,
    SaturatedPoint,
    SingularInnerMatrix,
    ValidationError,
)
from .model import CONTINUOUS, CostMatrices, DriverSet, RiskNetwork, StateVector, pin_arrays
from .dynamics import LinearizedSystem, _check_driver, _raw_map, find_steady_state, linearize


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


def _solve_gain(inner: np.ndarray, rhs: np.ndarray, k: int) -> np.ndarray:
    """Solve step k's ``inner @ K = rhs`` for K, with a finiteness and a
    definiteness guard (numpy's Cholesky returns NaN for a non-finite
    matrix instead of raising)."""
    if not (np.isfinite(inner).all() and np.isfinite(rhs).all()):
        raise SingularInnerMatrix(f"gain equation is not finite at step {k}")
    try:
        np.linalg.cholesky(inner)
        return np.linalg.solve(inner, rhs)
    except np.linalg.LinAlgError:
        raise SingularInnerMatrix(
            "signal-cost block plus value quadratic is numerically singular; "
            "check the conditioning of R"
        ) from None


def _one(results: list):
    """The result of a block of one set; raised if it is an error."""
    (result,) = results
    if isinstance(result, RiskNetError):
        raise result
    return result


def _check_costs(costs: CostMatrices, n: int) -> None:
    if costs.n != n:
        raise DimensionMismatch("cost matrices sized for a different network")


def riccati_schedule(
    sys: LinearizedSystem, driver: DriverSet, costs: CostMatrices, horizon: int
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

    This is :func:`_riccati_block` with one set; a sweep runs the same
    recursion on blocks of sets, with the same bits for every set.

    Raises
    ------
    ValidationError
        The driver set is sized for a different network, or ``horizon < 1``.
    DimensionMismatch
        The costs are sized for a different network.
    SingularInnerMatrix
        The gain equation of a step is singular or not finite.
    """
    _check_driver(driver, sys.n)
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    _check_costs(costs, sys.n)
    return _one(_riccati_block(sys.A, np.array([driver.indices]), costs, horizon))


def _riccati_block(A: np.ndarray, D: np.ndarray, costs: CostMatrices, horizon: int) -> list:
    """The recursion of :func:`riccati_schedule` for the driver sets in the
    rows of ``D`` (all of one size), in lockstep.

    Every set starts at the horizon and the sets step together.  Each keeps
    its own Brent check on ``P.tobytes()``, leaves the block at its own
    ``k mod p == 0`` and fills its earlier gains from its cycle.  When a
    gain equation of the stack is not finite, or the stacked Cholesky guard
    or solve raises, the sets are solved one by one by :func:`_solve_gain`
    and the failing ones leave the block.  Returns per set its
    :class:`GainSchedule` or the :class:`SingularInnerMatrix` that stopped
    it.

    Each set's ``P[:, d]`` is gathered as columns, in the layout of the
    one-set ``P[:, d]`` (strides ``(8, 8n)``), and not as the transpose of
    its rows ``P[d, :]``: P is symmetric only to rounding.
    """
    S = D.shape[0]
    Rd = costs.R[D[:, :, None], D[:, None, :]]
    Q, AT = costs.Q, A.T
    out = [None] * S
    K = [[None] * horizon for _ in range(S)]
    # Brent's checkpoints: the bits of P(mark_k) per set; a set's period
    # stays 0 until P(k) repeats them.
    mark = [costs.Q_f.tobytes()] * S
    mark_k, power, period = [horizon] * S, [1] * S, [0] * S
    live = np.arange(S)
    P = np.broadcast_to(costs.Q_f, (S,) + costs.Q_f.shape)
    k = horizon
    while live.size:
        k -= 1
        Dl, r = D[live], np.arange(live.size)[:, None]
        inner = Rd[live] + P[r[:, :, None], Dl[:, :, None], Dl[:, None, :]]
        rhs = P[r, Dl] @ A
        try:
            if not (np.isfinite(inner).all() and np.isfinite(rhs).all()):
                raise np.linalg.LinAlgError
            np.linalg.cholesky(inner)
            G = np.linalg.solve(inner, rhs)
        except np.linalg.LinAlgError:
            G = np.empty_like(rhs)
            ok = []
            for i, s in enumerate(live):
                try:
                    G[i] = _solve_gain(inner[i], rhs[i], k)
                    ok.append(i)
                except SingularInnerMatrix as exc:
                    out[s] = exc
            live, P, G, Dl, r = live[ok], P[ok], G[ok], Dl[ok], r[:len(ok)]
        G.flags.writeable = False
        Pk = Q + AT @ (P @ A) - (AT @ P[r, :, Dl].transpose(0, 2, 1)) @ G
        P = 0.5 * (Pk + Pk.transpose(0, 2, 1))
        done = []
        for i, s in enumerate(live):
            K[s][k] = G[i]
            if not period[s]:
                bits = P[i].tobytes()
                if bits == mark[s]:
                    period[s] = mark_k[s] - k
                elif mark_k[s] - k == power[s]:
                    mark[s], mark_k[s], power[s] = bits, k, 2 * power[s]
            if k == 0 or (period[s] and k % period[s] == 0):
                for j in range(k - 1, -1, -1):
                    K[s][j] = K[s][j + period[s]]
                out[s] = GainSchedule(K=tuple(K[s]), P0=P[i])
                done.append(i)
        if done:
            live, P = np.delete(live, done), np.delete(P, done, 0)
    return out


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


@dataclass(frozen=True, eq=False)
class _Prepared:
    """What the driver sets of one network share: the network, the costs,
    the pin arrays ``(indices, values)`` and, for the reactive phase, the
    linearization or the error that stops every reactive set."""

    net: RiskNetwork
    costs: CostMatrices
    pins: tuple
    linear: LinearizedSystem | RiskNetError | None


def _prepare(
    net: RiskNetwork, costs: CostMatrices, pinned: dict | None, x_s: StateVector | None
) -> _Prepared:
    """Check the pins (raising ValidationError) and, unless ``x_s`` is None,
    linearize at ``x_s``: a saturated ``x_s``, then costs of another size,
    is kept as the error of every reactive set."""
    linear = None
    if x_s is not None:
        try:
            linear = linearize(net, x_s)
            _check_costs(costs, net.n)
        except (SaturatedPoint, DimensionMismatch) as exc:
            linear = exc
    return _Prepared(net, costs, pin_arrays(pinned, net.n), linear)


def _pin_errors(prep: _Prepared, D: np.ndarray) -> list:
    """Per row of ``D``: the error for driving a pinned node, or None."""
    hit = np.isin(D, prep.pins[0])
    return [
        ValidationError(f"pinned nodes cannot be driven: {d[h].tolist()}") if h.any() else None
        for d, h in zip(D, hit)
    ]


def _rollout_block(
    prep: _Prepared,
    D: np.ndarray,
    X0: np.ndarray,
    steps: int,
    signal,
    windows: list,
    pins: tuple,
) -> list:
    """Step the nonlinear map ``steps`` times from each row of ``X0``, for
    the driver sets in the rows of ``D`` (all of one size), in lockstep.

    Each set has its own step counter.  A step takes every set that is not
    done: ``signal(rows, ks, X, inflow)`` returns the driven nodes' signals
    (one row per set, in index order) for the sets ``rows`` at their steps
    ``ks``, states ``X`` and inflows ``inflow = E.T x``, which the raw map
    shares.  The nodes of ``pins = (indices, values)`` are forced to their
    value at every step, including the initial state.

    Set s's ``windows[s] = (period, cycle_end)`` declares that its signal
    map of step k is the one of step ``k - period`` for every ``period <= k
    < cycle_end`` (``period`` 0: no repeat).  At multiples of ``period``
    the set's state is compared with one checkpoint, which moves to the
    current state at power-of-two distances (Brent's method).  Once x(k)
    equals the checkpoint x(k - q) bit for bit, everything up to
    ``cycle_end`` is copied from q steps earlier.

    A set's costs are taken by :func:`evaluate_cost` on its own contiguous
    rows as soon as it is done.  Returns per set a :class:`ControlRun`, or
    the error that stopped it: a non-finite state or costs of another size.
    """
    net, costs = prep.net, prep.costs
    pin_idx, pin_val = pins
    S = D.shape[0]
    states = np.empty((S, steps + 1, net.n))
    signals = np.zeros((S, steps, net.n))
    saturation = np.zeros((S, steps), dtype=np.int64)
    X = np.array(X0, dtype=float, order="C")  # rows of unit stride, as one state
    X[:, pin_idx] = pin_val
    states[:, 0] = X
    k = np.zeros(S, dtype=np.int64)
    period = [p for p, _ in windows]
    end = [min(w, steps) for _, w in windows]
    # Brent's checkpoints: the bits of x(mark_k) per set
    mark, mark_k, power = [x.tobytes() for x in X], [0] * S, list(period)
    runs = [None] * S
    live, a, r, Da = list(range(S)), np.arange(S), np.arange(S)[:, None], D
    while True:
        moved = False
        stepping = []
        for s in live:
            ks, p = int(k[s]), period[s]
            if p and ks % p == 0 and 0 < ks < end[s]:
                bits = states[s, ks].tobytes()
                if bits == mark[s]:
                    # x(j) = x(j - q) for j <= end: copy by period q
                    q, e = ks - mark_k[s], end[s]
                    back = np.arange(e - ks) % q - q
                    states[s, ks + 1:e + 1] = states[s, ks + 1 + back]
                    signals[s, ks:e] = signals[s, ks + back]
                    saturation[s, ks:e] = saturation[s, ks + back]
                    k[s], ks, period[s], moved = e, e, 0, True
                elif ks - mark_k[s] == power[s]:
                    mark[s], mark_k[s], power[s] = bits, ks, 2 * power[s]
            if ks < steps:
                stepping.append(s)
            else:
                runs[s] = _finish(states[s], signals[s], saturation[s], costs)
                moved = True
        if not stepping:
            return runs
        if moved:  # gather the states of the sets still stepping
            live = stepping
            a, r, Da = np.array(live), np.arange(len(live))[:, None], D[live]
            X = states[a, k[a]]
        ka = k[a]
        inflow = (net.E.T @ X[:, :, None])[:, :, 0]
        U = signal(a, ka, X, inflow)
        raw = _raw_map(net, X, inflow)
        raw[r, Da] += U
        saturation[a, ka] = ((raw < 0.0) | (raw > 1.0)).sum(axis=1)
        X = raw.clip(0.0, 1.0)
        X[:, pin_idx] = pin_val
        states[a, ka + 1] = X
        signals[a[:, None], ka[:, None], Da] = U
        k[a] = ka + 1


def _finish(states, signals, saturation, costs) -> ControlRun | RiskNetError:
    """One set's :class:`ControlRun` from its filled arrays."""
    if not np.isfinite(states).all():
        return ValidationError("rollout produced a non-finite state; check the gains")
    try:
        state_cost, control_cost, total = evaluate_cost(states, signals, costs)
    except DimensionMismatch as exc:
        return exc
    return ControlRun(
        states=states,
        signals=signals,
        state_cost=state_cost,
        control_cost=control_cost,
        total_cost=total,
        saturation_count=int(saturation.sum()),
    )


def _feedback_block(prep, D, x0, gains) -> list:
    """Roll out ``u(k) = -K(k) x(k)`` under the pins for the sets in the rows
    of ``D``, set s under the gains ``gains[s]`` from the state ``x0``, each
    with the window :func:`_gain_window` reads from its gains.  A step
    gathers each set's gain and applies them as one ``K @ X[:, :, None]``."""

    def feedback(rows, ks, X, inflow):
        Kg = np.array([gains[r][j] for r, j in zip(rows.tolist(), ks.tolist())])
        return (-Kg @ X[:, :, None])[:, :, 0]

    return _rollout_block(
        prep, D, np.broadcast_to(x0, (len(gains), prep.net.n)), len(gains[0]), feedback,
        [_gain_window(K) for K in gains], prep.pins,
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
    prep = _prepare(net, costs, pinned, find_steady_state(net))
    return _one(_reactive_block(prep, [driver], init, steps))


def _reactive_block(prep: _Prepared, drivers: list, init: StateVector, steps: int) -> list:
    """:func:`run_reactive` for a block of driver sets of one size, in
    lockstep, on a network prepared for the reactive phase.

    Returns per set its :class:`ControlRun` or the error that stopped it,
    checked in the order of a one-set run: a pin on a driven node, a
    saturated ``x_s``, costs of another size, a singular or non-finite gain
    equation, a non-finite rollout.  Errors that hold for every set (bad
    steps or init) are raised.
    """
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    if init.mode != CONTINUOUS or init.n != prep.net.n:
        raise ValidationError("init must be a continuous state of matching length")
    D = np.array([driver.indices for driver in drivers])
    out = _pin_errors(prep, D)
    if isinstance(prep.linear, RiskNetError):
        return [prep.linear if run is None else run for run in out]
    live = [i for i, run in enumerate(out) if run is None]
    for i, schedule in zip(live, _riccati_block(prep.linear.A, D[live], prep.costs, steps)):
        out[i] = schedule
    live = [i for i in live if isinstance(out[i], GainSchedule)]
    if live:
        runs = _feedback_block(prep, D[live], init.values, [out[i].K for i in live])
        for i, run in zip(live, runs):
            out[i] = run
    return out


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
    prep = _prepare(net, costs, pinned, None)
    D = np.array([driver.indices])
    _one(_pin_errors(prep, D))  # raises for a pin on a driven node
    return _one(_feedback_block(prep, D, init.values, [schedule.K]))


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
    return _one(_proactive_block(_prepare(net, costs, None, None), [driver], steps))


def _proactive_block(prep: _Prepared, drivers: list, steps: int) -> list:
    """:func:`run_proactive` for a block of driver sets of one size, in
    lockstep; returns per set its :class:`ControlRun` or its error.  The
    phase holds no pins.  The inflow ``E.T x`` of a step is computed once
    and shared by the signal and the raw map."""
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    net = prep.net
    D = np.array([driver.indices for driver in drivers])
    p_int, p_ext = net.p_int[D], net.p_ext[D]

    def cancel_inflow(rows, ks, X, inflow):
        d = D[rows]
        return -(p_int[rows] + p_ext[rows] * np.take_along_axis(inflow, d, 1)) * (
            1.0 - np.take_along_axis(X, d, 1)
        )

    return _rollout_block(
        prep, D, np.zeros((len(drivers), net.n)), steps, cancel_inflow,
        [(1, steps)] * len(drivers), pin_arrays(None, net.n),
    )
