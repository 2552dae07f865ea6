"""Finite-horizon optimal control of the risk dynamics.

The objective charges both risk activity and control effort:

    J = x(tau)' Q_f x(tau) + sum_{k<tau} [ x(k)' Q x(k) + u(k)' R u(k) ]

Gains come from the standard backward value recursion on the linear model
taken at the natural steady state, restricted to the driven coordinates;
the schedule keeps the gains and the value matrix at k = 0, nothing else.
Two control phases are provided:

* reactive: feedback ``u(k) = -K(k) x(k)`` rolled out on the nonlinear map,
  driving ongoing activity toward the all-inactive state;
* proactive: starting at inactivity, each driven node's own raw update is
  cancelled exactly, holding it at 0 while undriven nodes evolve freely.

Both phases share one rollout: the nonlinear map is stepped forward while
the driven nodes receive the phase's signal, a function of the state and
of the driven nodes' raw update, so the map's formula is written only in
``dynamics``.  The rollout fast-forwards exactly: x(k+1) depends only on
x(k), the signal map of step k and the pins, and the rollout is given a
window (p, W) in which the signal map of step k is the one of step k - p.
The proactive signal does not depend on k; the feedback phase reads the
window from its schedule's gain index (equal indices are the same gain).
If then x(a) equals x(a + q) bit for bit, with q a multiple of p and
a + q <= W, every later state up to x(W), and every signal and saturation
count before step W, repeats with period q; the rollout copies them
instead of stepping, and steps on from x(W) as usual.  It copies from the
first state at a multiple of p that repeats an earlier one: a hash per
checked state finds it, its stored bits confirm it.

Costs are always measured on the realized nonlinear trajectory, on absolute
states (deviation from the all-inactive target), not on deviations from the
linearization point: regulating the deviation variable would stabilize the
very steady state the controller is meant to avoid.

The gain recursion and the rollout both run on a block of driver sets of
one size in lockstep: every array carries a leading set axis, and each set
keeps its own cycle checks, cut-offs and failures.  A stacked ``@``,
``np.linalg.cholesky`` or ``np.linalg.inv`` makes the same BLAS/LAPACK
call for each matrix as the call on that matrix alone, so every set gets the
same bits in any block, provided each operand has the layout of the one-set
call.  Matrix-vector products stay products with an ``(n, 1)`` column (never
``X @ E``: one matrix product, whose bits differ from the rows' products).
The gain equation is solved through its Cholesky factor, which also guards
its definiteness; the value matrix is symmetric bit for bit, so its driver
rows serve for its driver columns.  The kernels read a preparation of the
network (``_prepare``: the checked costs and pins and, for the reactive
phase, the Jacobian at the natural steady state) and a matrix ``D`` of
driver indices, one row per set.  What the whole call shares is checked
before its steady-state solve, so a kernel's failures are those of one set.
A sweep prepares its network once; the public functions prepare once per
call and run blocks of one set.  A block stores each computed gain once,
indexed per set and step, and each set's states and driven signal columns;
a run's full-width ``signals`` are derived on access.  A finished block
takes its sets' costs at once: one stacked pass per chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, RiskNetError, SingularInnerMatrix, ValidationError
from .model import (CONTINUOUS, CostMatrices, DriverSet, RiskNetwork, StateVector, check_integer,
                    check_state, pin_arrays)
from .dynamics import _check_driver, _check_system, _raw_map, find_steady_state, linearize


@dataclass(frozen=True, eq=False)
class GainSchedule:
    """Time-varying gains K(0..tau-1) (each m x n, rows = driven nodes in
    index order) and the value matrix P0 = P(0), so the optimal linear cost
    from x0 is ``x0 @ P0 @ x0``.  K(j) is ``gains[index[j]]``: ``gains``
    holds the computed gains, which a block's schedules share, and equal
    indices are the same gain.  Both arrays are read-only."""

    gains: np.ndarray
    index: np.ndarray
    P0: np.ndarray


@dataclass(frozen=True, eq=False)
class ControlRun:
    """A completed rollout: trajectory, signals, and decomposed costs.

    ``driven`` holds the signals of the driven nodes ``drivers`` (one
    column each, in index order); ``signals`` is derived from them on
    access, full-length rows with zeros off the driven nodes.
    ``total_cost = state_cost + control_cost`` exactly by construction.
    ``saturation_count`` totals the node-steps where the raw update left
    [0, 1] and was clamped.
    """

    states: np.ndarray
    driven: np.ndarray
    drivers: tuple
    state_cost: float
    control_cost: float
    total_cost: float
    saturation_count: int

    @property
    def signals(self) -> np.ndarray:
        """The ``(steps, n)`` signal matrix, built on each access."""
        return _full_width(self.driven[None], np.array([self.drivers]), self.states.shape[1])[0]


def _full_width(driven: np.ndarray, D: np.ndarray, n: int) -> np.ndarray:
    """The ``(k, steps, n)`` signal matrices of a stack of sets: set s's
    ``driven[s]`` ``(steps, m)`` in its columns ``D[s]``, zeros elsewhere."""
    full = np.zeros(driven.shape[:-1] + (n,))
    full[np.arange(len(D))[:, None], :, D] = driven.transpose(0, 2, 1)
    return full


def _same_bits(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per leading index of two float64 stacks of one shape, each with a
    contiguous last axis: whether ``a[i].tobytes() == b[i].tobytes()``.  The bits are compared
    as ``uint64``, so -0.0 differs from 0.0 and a NaN equals only a NaN of
    the same payload."""
    same = a.view(np.uint64) == b.view(np.uint64)
    return np.logical_and.reduce(same.reshape(len(a), math.prod(a.shape[1:])), axis=1)


def _solve_gain(inner: np.ndarray, rhs: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``(K, W)`` for step k's gain equation ``inner @ K = rhs``, on one
    equation or a stack, through the Cholesky factor ``inner = L L'``: with
    ``Li = inv(L)``, ``W = Li @ rhs`` and ``K = Li' @ W``.  Raises
    SingularInnerMatrix for a non-finite equation (numpy's Cholesky returns
    NaN for one instead of raising) or an ``inner`` that is not positive
    definite."""
    if not (np.isfinite(inner).all() and np.isfinite(rhs).all()):
        raise SingularInnerMatrix(f"gain equation is not finite at step {k}")
    try:
        Li = np.linalg.inv(np.linalg.cholesky(inner))
    except np.linalg.LinAlgError:
        raise SingularInnerMatrix(
            "signal-cost block plus value quadratic is numerically singular; "
            "check the conditioning of R"
        ) from None
    W = Li @ rhs
    return Li.swapaxes(-1, -2) @ W, W


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
    A: np.ndarray, driver: DriverSet, costs: CostMatrices, horizon: int
) -> GainSchedule:
    """Backward value recursion for the finite-horizon regulator toward the
    all-inactive state.

    With S the driver column selection, Rd the driver block of R,
    sym(M) = (M + M')/2 and P(tau) = sym(Q_f), for k = tau-1 .. 0:

        L L' = Rd + S'P(k+1)S            (Cholesky; Li = L^-1)
        W = Li S'P(k+1)A
        K(k) = Li'W = (Rd + S'P(k+1)S)^-1 S'P(k+1)A
        P(k) = sym(Q + A'P(k+1)A - W'W)

    which is the textbook update ``Q + A'PA - A'PS K(k)`` with one product
    ``P(k+1)A`` and one factorization per step.  The terminal cost
    ``x'Q_f x`` depends only on sym(Q_f), so the regulator is that of Q_f;
    every P is symmetric bit for bit, and its driver rows are its driver
    columns.  Only the running value matrix is kept; the schedule holds
    each computed gain once and P(0).  The optimal driven signal is
    ``u(k) = -K(k) x(k)``.

    Over a long horizon, rounding settles P into a cycle of bitwise-equal
    matrices.  Both K(k) and P(k) are functions of P(k+1) alone, so once
    ``P(k) == P(k + p)`` bit for bit, every earlier step repeats with period
    p: the recursion stops there, runs ``k mod p`` more steps to reach P(0),
    and points the earlier steps at the cycle's gains by ``K(j) = K(j + p)``.
    The result is exactly the full recursion's, with no tolerance.  The
    cycle is found by Brent's method: the running P is compared with one
    checkpoint, which moves to the running P at power-of-two distances.

    This is :func:`_riccati_block` with one set; a sweep runs the same
    recursion on blocks of sets, with the same bits for every set.

    Raises
    ------
    ValidationError
        ``A`` is not square, the driver set is sized for another network
        than ``A``, or ``horizon < 1``.
    DimensionMismatch
        The costs are sized for a different network.
    SingularInnerMatrix
        The gain equation of a step is singular or not finite.
    """
    n = _check_system(A, driver)
    check_integer("horizon", horizon, 1)
    _check_costs(costs, n)
    return _one(_riccati_block(A, np.array([driver.indices]), costs, horizon))


def _riccati_block(A: np.ndarray, D: np.ndarray, costs: CostMatrices, horizon: int) -> list:
    """The recursion of :func:`riccati_schedule` for the driver sets in the
    rows of ``D`` (all of one size), in lockstep.

    Every set starts at the horizon and the sets step together.  Each keeps
    its own Brent check on the bits of P, leaves the block at its own
    ``k mod p == 0`` and points its earlier steps at its cycle; the checks
    of a step are one :func:`_same_bits` call on the stack.  A step forms
    ``PA = P @ A`` once; the gain equation's right side is its driver rows.
    Its ``(S, n, n)`` arrays go into buffers of the block, each made by the
    operation and operands of a fresh array, so with the same bits.
    The stack's gain equations are solved by one :func:`_solve_gain`
    call; when its guard raises, the sets are solved one by one by the same
    function, and the failing ones leave the block.  Returns
    per set its :class:`GainSchedule` or the :class:`SingularInnerMatrix`
    that stopped it.
    """
    (S, m), n = D.shape, A.shape[0]
    AT = A.T
    out = [None] * S
    # each step's gain stack, once: set s's gain of step k is row index[s, k]
    # of their concatenation, which has ``computed`` rows
    stacks, computed = [np.empty((0, m, n))], 0
    index, P0 = np.empty((S, horizon), dtype=np.intp), np.empty((S, n, n))
    live = np.arange(S)
    P = np.broadcast_to(0.5 * (costs.Q_f + costs.Q_f.T), (S,) + costs.Q_f.shape)
    # Brent's checkpoints P(mark_k), one per live set: the sets step
    # together, so they share the step mark_at at which the checkpoints
    # move to P(k), twice as far away each time.  Per live set: its period,
    # 0 until P(k) repeats its checkpoint, and the step at which it leaves
    # the block; ``last`` is the first such step.
    mark, mark_k, mark_at = P, horizon, horizon - 1
    period, stop, last = np.zeros(S, dtype=np.int64), np.zeros(S, dtype=np.int64), 0
    k = horizon

    def gathers(live):
        """The live sets' driver blocks of R, the flat indices of P's driver
        blocks and the index tuple of its driver rows, kept until a set
        leaves."""
        Dl, r = D[live], np.arange(live.size)[:, None]
        return (
            costs.R[Dl[:, :, None], Dl[:, None, :]],
            (r[:, :, None] * n + Dl[:, :, None]) * n + Dl[:, None, :], (r, Dl),
        )

    Rd, block, rows = gathers(live)
    # the live sets use the leading rows; P(k) alternates between two, and
    # Q is added as a stack, which is faster than broadcasting it
    PAb, Tb, *Pb = np.empty((4, S, n, n))
    Qb = np.tile(costs.Q, (S, 1, 1))
    while live.size:
        k -= 1
        PA = np.matmul(P, A, out=PAb[:live.size])
        inner = Rd + P.take(block)
        rhs = PA[rows]
        try:
            G, W = _solve_gain(inner, rhs, k)
        except SingularInnerMatrix:
            G, W = np.empty_like(rhs), np.empty_like(rhs)
            ok = np.ones(live.size, dtype=bool)
            for i, s in enumerate(live.tolist()):
                try:
                    G[i], W[i] = _solve_gain(inner[i], rhs[i], k)
                except SingularInnerMatrix as exc:
                    out[s], ok[i] = exc, False
            live, PA, G, W, mark, period, stop = (
                x[ok] for x in (live, PA, G, W, mark, period, stop)
            )
            Rd, block, rows = gathers(live)
            last = int(stop.max(initial=0))
        # P(k) = sym(Q + A'PA - W'W), each operation as on fresh arrays
        T = np.matmul(AT, PA, out=Tb[:live.size])
        T += Qb[:live.size]
        T -= np.matmul(W.transpose(0, 2, 1), W, out=PAb[:live.size])  # PA is spent
        P = np.add(T, T.transpose(0, 2, 1), out=Pb[k % 2][:live.size])
        P *= 0.5
        stacks.append(G)
        index[live, k] = computed + np.arange(live.size)
        computed += live.size
        same = _same_bits(P, mark).nonzero()[0]
        if same.size:
            same = same[period[same] == 0]  # a set with a period has stopped looking
            period[same] = mark_k - k
            stop[same] = k - k % period[same]
            last = int(stop.max())
        if k == mark_at:
            mark, mark_k, mark_at = P.copy(), k, k - 2 * (mark_k - k)
        if k == last:
            # K(j) = K(j + p) and p divides k: step j < k takes step k + j mod p's gain
            done = stop == k
            s = live[done]
            index[s, :k] = index[s[:, None], k + np.arange(k) % period[done][:, None]]
            P0[s] = P[done]
            keep = ~done
            live, P, mark, period, stop = (x[keep] for x in (live, P, mark, period, stop))
            Rd, block, rows = gathers(live)
            last = int(stop.max(initial=0))
    gains = np.concatenate(stacks)
    gains.flags.writeable = index.flags.writeable = False
    return [GainSchedule(gains, index[s], P0[s]) if r is None else r for s, r in enumerate(out)]


#: Bytes of a chunk of the stacked cost pass's ``(k, steps, n)`` operands:
#: 16 sets of 50 steps on 40 nodes, one set of 500 (at least one set).
_COST_CHUNK_BYTES = 1 << 18


def evaluate_cost(
    run_states: np.ndarray, run_signals: np.ndarray, costs: CostMatrices
) -> tuple[float, float, float]:
    """Decompose a trajectory's cost into (state, control, total).

    ``run_states`` must have exactly one more row than ``run_signals``.
    The final state is charged with Q_f, every earlier state (including the
    initial one) with Q, and every signal row with R, by :func:`_stacked_costs`.
    """
    X = np.asarray(run_states, dtype=float)
    U = np.asarray(run_signals, dtype=float)
    if X.ndim != 2 or U.ndim != 2 or X.shape[0] != U.shape[0] + 1:
        raise DimensionMismatch(
            f"states {X.shape} must have one more row than signals {U.shape}"
        )
    if X.shape[1] != costs.n or U.shape[1] != costs.n:
        raise DimensionMismatch("state/signal width does not match cost matrices")
    state, control = (float(cost[0]) for cost in _stacked_costs(X[None], U[None], costs))
    return state, control, state + control


def _stacked_costs(X: np.ndarray, U: np.ndarray, costs: CostMatrices) -> tuple:
    """Per set, the state costs and the control costs of the trajectories
    ``X`` ``(k, steps + 1, n)`` under the full-width signals ``U``: each
    product has the operands and layout of the one-set call (``x' Q_f x`` as
    ``(x' Q_f) x``), each sum runs over one set's ``steps * n`` products."""
    k, body, last = len(X), X[:, :-1], X[:, -1]
    final = ((last[:, None, :] @ costs.Q_f) @ last[:, :, None]).reshape(k)
    state = final + ((body @ costs.Q) * body).reshape(k, -1).sum(axis=1)
    return state, ((U @ costs.R) * U).reshape(k, -1).sum(axis=1)


@dataclass(frozen=True, eq=False)
class _Prepared:
    """What the driver sets of one call share: the network, the costs, the
    pin arrays ``(indices, values)`` and the reactive phase's Jacobian ``A``."""

    net: RiskNetwork
    costs: CostMatrices
    pins: tuple
    A: np.ndarray | None = None

    def linearized(self, x_s: StateVector) -> _Prepared:
        """This preparation with the Jacobian at ``x_s``, or SaturatedPoint."""
        return _Prepared(self.net, self.costs, self.pins, linearize(self.net, x_s))


def _prepare(net: RiskNetwork, costs: CostMatrices, pinned: dict | None, driver: DriverSet | None = None,
             steps: int | None = None, init: StateVector | None = None) -> _Prepared:
    """The preparation without a Jacobian, after every check a call makes
    before its steady-state solve, in this order (an argument left None is
    not checked): the driver set against the network, ``steps``, ``init``,
    the size of the costs, the pin map and a pin on a driven node."""
    if driver is not None:
        _check_driver(driver, net.n)
    if steps is not None:
        check_integer("steps", steps, 1)
    if init is not None:
        check_state(init, net.n, CONTINUOUS, "init")
    _check_costs(costs, net.n)
    prep = _Prepared(net, costs, pin_arrays(pinned, net.n))
    if driver is not None:
        _one(_pin_errors(prep, np.array([driver.indices])))
    return prep


def _pin_errors(prep: _Prepared, D: np.ndarray) -> list:
    """Per row of ``D``: the error for driving a pinned node, or None."""
    hit = np.isin(D, prep.pins[0])
    return [
        ValidationError(f"pinned nodes cannot be driven: {d[h].tolist()}") if h.any() else None
        for d, h in zip(D, hit)
    ]


def _rollout_block(
    prep: _Prepared, D: np.ndarray, X0: np.ndarray, steps: int, signal, windows: list, pins: tuple
) -> list:
    """Step the nonlinear map ``steps`` times from each row of ``X0``, for
    the driver sets in the rows of ``D`` (all of one size), in lockstep.

    Each set has its own step counter.  A step takes every set that is not
    done: it computes the raw update of every state first, then
    ``signal(rows, ks, X, driven)`` returns the driven nodes' signals ``U``
    (one row per set, in index order) for the sets ``rows`` at their steps
    ``ks``, states ``X`` and the driven nodes' raw updates ``driven``; the
    driven nodes' update is ``driven + U`` before clamping.  The nodes of
    ``pins = (indices, values)`` are forced to their value at every step,
    including the initial state.  The block stores per set its states and
    only the driven nodes' signal columns.

    Set s's ``windows[s] = (period, cycle_end)`` declares that its signal
    map of step k is the one of step ``k - period`` for every ``period <= k
    < cycle_end`` (``period`` 0: no repeat).  At multiples of ``period``
    the set keeps a :func:`_bits_hash` of its state (``ceil(cycle_end /
    period)`` words at most), and a hash seen before is confirmed against
    the stored state.  At the first x(k) equal to an earlier checked x(k -
    q) bit for bit, everything up to ``cycle_end`` is copied from q steps
    earlier.  Between two checks, or a set's end, the block steps on.

    Returns per set, by :func:`_block_runs`, a :class:`ControlRun` or the
    error of a non-finite state.
    """
    net, costs = prep.net, prep.costs
    pin_idx, pin_val = pins
    S, m = D.shape
    states = np.empty((S, steps + 1, net.n))
    signals = np.zeros((S, steps, m))
    saturation = np.zeros((S, steps), dtype=np.int64)
    X = np.array(X0, dtype=float, order="C")  # rows of unit stride, as one state
    X[:, pin_idx] = pin_val
    states[:, 0] = X
    # Per live set a: its step ka, its window, and the next step ``due`` at
    # which it checks its state (past its window: its last step).  The
    # block steps without bookkeeping up to the first due step; ``top`` is
    # the furthest step of a live set.  hist[j, s] hashes set s's x(j p).
    a, ka, top = np.arange(S), np.zeros(S, dtype=np.int64), 0
    period = np.array([p for p, _ in windows], dtype=np.int64)
    end = np.minimum([w for _, w in windows], steps).astype(np.int64)
    due = np.where((period > 0) & (period < end), period, steps)
    hist = np.zeros((int(((end - 1) // np.maximum(period, 1)).max(initial=0)) + 1, S), np.uint64)
    hist[0] = _bits_hash(X)
    at = a[:, None] * net.n + D  # the driven entries of the rows of X, flat
    ET = net.E.T
    while True:
        run = min((due - ka).tolist())
        for _ in range(run):
            raw = _raw_map(net, X, (ET @ X[:, :, None])[:, :, 0])
            driven = raw.take(at)
            U = signal(a, ka, X, driven)
            raw.put(at, driven + U)
            signals[a, ka] = U
            saturation[a, ka] = np.add.reduce((raw < 0.0) | (raw > 1.0), axis=1)
            X = raw.clip(0.0, 1.0)
            X[:, pin_idx] = pin_val
            ka += 1
            states[a, ka] = X
        top += run
        if top == steps:
            done = ka == steps
            if done.all():
                return _block_runs(states, signals, saturation, D, costs)
            keep = ~done
            a, ka, X, period, end, due = (x[keep] for x in (a, ka, X, period, end, due))
            at = np.arange(a.size)[:, None] * net.n + D[a]
            top = int(ka.max())
        check = (ka == due).nonzero()[0]
        every = check.size == S  # every set checks: slices, not gathers
        sel = slice(None) if every else check
        rows, j = a[check], ka[sel] // period[sel]
        h = _bits_hash(X[sel])
        past = hist[:j.max(initial=0), sel if every else rows]
        seen = (past == h).any(axis=0).nonzero()[0]
        hist[j, rows] = h
        due[sel] += period[sel]
        due[due >= end] = steps
        for i in seen.tolist():
            # earlier checked states differ, so one at most has x's bits
            c, s, ks, x = int(check[i]), int(rows[i]), int(ka[check[i]]), X[check[i]].tobytes()
            past_k = (past[:j[i], i] == h[i]).nonzero()[0] * period[c]
            q = next((ks - int(kj) for kj in past_k if states[s, kj].tobytes() == x), 0)
            if q:
                # x(k) = x(k - q) for k <= end: copy by period q
                e = int(end[c])
                back = np.arange(e - ks) % q - q
                states[s, ks + 1:e + 1] = states[s, ks + 1 + back]
                signals[s, ks:e] = signals[s, ks + back]
                saturation[s, ks:e] = saturation[s, ks + back]
                ka[c], X[c], due[c], top = e, states[s, e], steps, max(top, e)


def _bits_hash(X: np.ndarray) -> np.ndarray:
    """Per float64 row: the wrapping sum of its bits as ``uint64``."""
    return np.einsum("ij->i", X.view(np.uint64))


def _block_runs(states, driven, saturation, D, costs) -> list:
    """Per set of a finished block: its :class:`ControlRun`, or the error
    of a non-finite state.  The costs are one :func:`_stacked_costs` pass
    per chunk of ``_COST_CHUNK_BYTES``, over the chunk's finite sets and
    their full-width signals."""
    S, steps, n = len(states), driven.shape[1], states.shape[2]
    size = max(1, _COST_CHUNK_BYTES // (8 * steps * n))
    finite, cost = np.empty(S, dtype=bool), np.zeros((S, 3))
    for c in range(0, S, size):
        chunk = slice(c, c + size)
        ok = finite[chunk] = np.isfinite(states[chunk]).all(axis=(1, 2))
        sel = chunk if ok.all() else np.arange(c, c + ok.size)[ok]
        if ok.any():
            U = _full_width(driven[sel], D[sel], n)
            cost[sel, 0], cost[sel, 1] = _stacked_costs(states[sel], U, costs)
    cost[:, 2] = cost[:, 0] + cost[:, 1]
    cost, drivers, saturated = cost.tolist(), D.tolist(), saturation.sum(axis=1).tolist()
    return [
        ValidationError("rollout produced a non-finite state; check the gains") if not ok
        else ControlRun(states[s], driven[s], tuple(drivers[s]), *cost[s], saturated[s])
        for s, ok in enumerate(finite.tolist())
    ]


def _feedback_block(prep, D, x0, gains, index) -> list:
    """Roll out ``u(k) = -K(k) x(k)`` under the pins for the sets in the rows
    of ``D`` from the state ``x0``: set s's gain of step k is
    ``gains[index[s, k]]``, gathered for all sets at once, and its window is
    the one :func:`_gain_window` reads from ``index[s]``."""
    return _rollout_block(
        prep, D, np.broadcast_to(x0, (len(index), prep.net.n)), index.shape[1],
        lambda rows, ks, X, driven: (-gains[index[rows, ks]] @ X[:, :, None])[:, :, 0],
        [_gain_window(i) for i in index], prep.pins,
    )


def run_reactive(
    net: RiskNetwork,
    driver: DriverSet,
    costs: CostMatrices,
    init: StateVector | None,
    steps: int,
    pinned: dict | None = None,
) -> ControlRun:
    """Finite-horizon feedback run from ongoing activity toward inactivity.

    Linearizes at the natural steady state, builds the gain schedule for
    ``steps``, then rolls the nonlinear map forward from ``init`` (None:
    that steady state) under ``u(k) = -K(k) x(k)`` on the driven nodes,
    which steers toward the all-inactive state.  Pinned nodes (``{index:
    0 or 1}``) are forced to their value at every step (including the
    initial state) and must not appear in the driver set.  Every argument
    is checked before the steady state is solved.
    """
    prep = _prepare(net, costs, pinned, driver, steps, init)
    x_s = find_steady_state(net)
    D = np.array([driver.indices])
    return _one(_reactive_block(prep.linearized(x_s), D, x_s if init is None else init, steps))


def _reactive_block(prep: _Prepared, D: np.ndarray, init: StateVector, steps: int) -> list:
    """:func:`run_reactive` for the driver sets in the rows of ``D`` (all of
    one size), in lockstep, on a network prepared for the reactive phase.

    Returns per set its :class:`ControlRun` or the error that stopped it,
    checked in the order of a one-set run: a pin on a driven node, a
    singular or non-finite gain equation, a non-finite rollout.  Everything
    the call shares (``steps``, ``init``, the costs, the pins and the
    Jacobian) is trusted: the public entry points check it first.
    """
    out = _pin_errors(prep, D)
    live = [i for i, run in enumerate(out) if run is None]
    for i, schedule in zip(live, _riccati_block(prep.A, D[live], prep.costs, steps)):
        out[i] = schedule
    live = [i for i in live if isinstance(out[i], GainSchedule)]
    if live:
        index = np.array([out[i].index for i in live])  # into the block's one gain array
        runs = _feedback_block(prep, D[live], init.values, out[live[0]].gains, index)
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

    Where the schedule's index repeats, ``index[j] == index[j - p]`` for
    every ``p <= j < W`` (as in :func:`riccati_schedule`'s cycle), the
    rollout copies the states, signals and saturation counts forward to
    step W once the closed-loop state repeats bit for bit at a multiple of
    p.  Equal indices are the same gain, so this is exact: byte for byte
    the result of stepping every gain.  Before the first step it makes the
    checks of :func:`_prepare`, then raises ValidationError for gains of
    another shape or an index that is not a nonempty 1-D integer array of
    rows of ``gains``.
    """
    prep = _prepare(net, costs, pinned, driver, init=init)
    gains, index = schedule.gains, np.asarray(schedule.index)
    if gains.shape[1:] != (driver.size, net.n):
        raise ValidationError(f"gains of shape {gains.shape[1:]} for {driver.size} drivers")
    if not (index.ndim == 1 and index.size and index.dtype.kind in "iu"
            and 0 <= index.min() <= index.max() < len(gains)):
        raise ValidationError(f"index must be a nonempty 1-D integer array in [0, {len(gains)})")
    return _one(_feedback_block(prep, np.array([driver.indices]), init.values, gains, index[None]))


def _gain_window(index: np.ndarray) -> tuple[int, int]:
    """``(p, W)``: the first p > 0 with ``index[p] == index[0]`` and the
    first ``W >= p`` with ``index[W] != index[W - p]`` (or ``len(index)``);
    ``(0, 0)`` when there is no such p.  An appended True ends each scan."""
    p = 1 + int(np.flatnonzero(np.r_[index[1:] == index[0], True])[0])
    if p == len(index):
        return 0, 0
    return p, p + int(np.flatnonzero(np.r_[index[p:] != index[:-p], True])[0])


def run_proactive(
    net: RiskNetwork,
    driver: DriverSet,
    costs: CostMatrices,
    steps: int,
) -> ControlRun:
    """Hold the network near inactivity by cancelling driven activation.

    Starts at the all-inactive state (the reactive phase's goal).  Each
    step, every driven node receives the negative of its own raw update,
    so it stays at exactly 0: from 0 that update is ``p_int_i + p_ext_i *
    s_i``, its expected activation inflow.  Undriven nodes evolve freely.
    The signal does not depend on the step, so the rollout may
    fast-forward with period 1 over the whole horizon.  Every argument is
    checked before the first step.
    """
    prep = _prepare(net, costs, None, driver, steps)
    return _one(_proactive_block(prep, np.array([driver.indices]), steps))


def _proactive_block(prep: _Prepared, D: np.ndarray, steps: int) -> list:
    """:func:`run_proactive` for the driver sets in the rows of ``D`` (all
    of one size), in lockstep; returns per set its :class:`ControlRun` or
    its error.  The phase holds no pins.  The signal is ``-driven``: the
    update ``driven + U`` of a driven node is +0.0, so it stays at +0.0."""
    n = prep.net.n
    return _rollout_block(
        prep, D, np.zeros((len(D), n)), steps, lambda rows, ks, X, driven: -driven,
        [(1, steps)] * len(D), pin_arrays(None, n),
    )
