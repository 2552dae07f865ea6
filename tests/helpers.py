"""Shared test utilities: random instance factories and independent oracles.

The oracles here (finite differences, stacked least-squares, the cascade's
activation from the model formula, the estimator's per-node column masks and
scalar golden-section search) deliberately avoid the code paths they
check.
"""

import csv
import dataclasses

import numpy as np

from risknet.cascade import PRODUCT, EventLog
from risknet.control import _solve_gain, evaluate_cost
from risknet.dynamics import step_continuous, unclamped_step
from risknet.errors import ParseError
from risknet.estimation import _INVPHI, _TINY, GOLDEN_TOL, TransitionCounts
from risknet.model import (
    CostMatrices,
    DriverSet,
    build_network,
    continuous_state,
    pin_arrays,
)
from risknet.netio import _read_csv, write_csv


def random_network(rng, n, edge_prob=0.35, weighted=False, ext_scale=0.5):
    """Random directed network; ``ext_scale`` caps p_ext draws."""
    E = (rng.random((n, n)) < edge_prob).astype(float)
    if weighted:
        E *= rng.uniform(0.2, 1.0, size=(n, n))
    np.fill_diagonal(E, 0.0)
    return build_network(
        [f"n{i}" for i in range(n)],
        rng.uniform(0.0, 0.3, size=n),
        rng.uniform(0.0, ext_scale, size=n),
        rng.uniform(0.0, 0.9, size=n),
        E,
    )


def contractive_network(rng, n, edge_prob=0.35, weighted=False):
    """Random network whose uncontrolled map is comfortably contractive
    (external couplings scaled by 1/n), so fixed-point iteration converges."""
    return random_network(
        rng, n, edge_prob=edge_prob, weighted=weighted, ext_scale=0.4 / n
    )


def interior_state(rng, n):
    return rng.uniform(0.05, 0.95, size=n)


def fd_jacobian(net, x, h=1e-6):
    """Central finite differences of the unclamped update map."""
    n = net.n
    J = np.empty((n, n))
    for j in range(n):
        hi = x.copy()
        lo = x.copy()
        hi[j] += h
        lo[j] -= h
        J[:, j] = (unclamped_step(net, hi) - unclamped_step(net, lo)) / (2 * h)
    return J


def random_linear_instance(rng, n, m=None, tau=None):
    """Random (A, driver, costs, tau, x0) for linear-control oracles."""
    A = rng.uniform(-1.0, 1.0, size=(n, n))
    m = m if m is not None else int(rng.integers(1, n + 1))
    tau = tau if tau is not None else int(rng.integers(1, 4))
    driver = DriverSet(tuple(rng.choice(n, size=m, replace=False)), n)
    Mq = rng.uniform(-1.0, 1.0, size=(n, n))
    Mr = rng.uniform(-1.0, 1.0, size=(n, n))
    costs = CostMatrices(
        Q_f=np.eye(n) * rng.uniform(0.1, 2.0),
        Q=Mq @ Mq.T,
        R=Mr @ Mr.T + np.eye(n) * rng.uniform(0.1, 1.0),
    )
    x0 = rng.uniform(-1.0, 1.0, size=n)
    return A, driver, costs, tau, x0


def reference_schedule(A, driver, costs, horizon):
    """The backward value recursion run over the whole horizon, one step at
    a time with no early stop, from P = sym(Q_f); returns (gains
    K(0..tau-1), P(0))."""
    d = list(driver.indices)
    Rd = costs.R[np.ix_(d, d)]
    K = [None] * horizon
    Pn = 0.5 * (costs.Q_f + costs.Q_f.T)
    for k in range(horizon - 1, -1, -1):
        PA = Pn @ A
        K[k], W = _solve_gain(Rd + Pn[np.ix_(d, d)], PA[d, :], k)
        Pk = costs.Q + A.T @ PA - W.T @ W
        Pn = 0.5 * (Pk + Pk.T)
    return K, Pn


def lu_schedule(A, driver, costs, horizon):
    """The recursion as it was before it reused its Cholesky factor: from
    P = Q_f as given, each gain solved by LU behind a Cholesky guard,
    ``K = solve(Rd + P[d, d], P[d, :] @ A)``, and
    ``P = sym(Q + A'(P A) - (A' P[:, d]) K)``; returns (gains, P(0)).
    The drift oracle for the factor-based recursion."""
    d = list(driver.indices)
    Rd = costs.R[np.ix_(d, d)]
    K = [None] * horizon
    Pn = costs.Q_f
    for k in range(horizon - 1, -1, -1):
        inner = Rd + Pn[np.ix_(d, d)]
        np.linalg.cholesky(inner)
        K[k] = np.linalg.solve(inner, Pn[d, :] @ A)
        Pk = costs.Q + A.T @ (Pn @ A) - (A.T @ Pn[:, d]) @ K[k]
        Pn = 0.5 * (Pk + Pk.T)
    return K, Pn


def gain_stack(schedule):
    """A schedule's ``(tau, m, n)`` stack of gains: K(j) is ``gains[index[j]]``."""
    return schedule.gains[schedule.index]


def index_rows(drivers):
    """The index matrix of driver sets of one size, one row per set."""
    return np.array([driver.indices for driver in drivers])


def driver_sets(rows, n):
    """The driver sets on n nodes of the rows of an index matrix."""
    return [DriverSet(tuple(row), n) for row in np.asarray(rows).tolist()]


def linear_feedback_cost(A, driver, costs, schedule, x0):
    """Roll the linear system under the gain schedule; return the total cost."""
    n = A.shape[0]
    K = gain_stack(schedule)
    tau = len(K)
    S = driver.selection
    d = list(driver.indices)
    states = np.empty((tau + 1, n))
    signals = np.zeros((tau, n))
    x = np.asarray(x0, dtype=float).copy()
    states[0] = x
    for k in range(tau):
        reduced = -K[k] @ x
        signals[k, d] = reduced
        x = A @ x + S @ reduced
        states[k + 1] = x
    return evaluate_cost(states, signals, costs)[2]


def linear_open_loop_cost(A, driver, costs, x0, U):
    """Cost of running explicit reduced signals U (tau, m) on the linear system."""
    n = A.shape[0]
    tau = U.shape[0]
    S = driver.selection
    d = list(driver.indices)
    states = np.empty((tau + 1, n))
    signals = np.zeros((tau, n))
    x = np.asarray(x0, dtype=float).copy()
    states[0] = x
    for k in range(tau):
        signals[k, d] = U[k]
        x = A @ x + S @ U[k]
        states[k + 1] = x
    return evaluate_cost(states, signals, costs)[2]


def brute_force_linear_optimum(A, driver, costs, tau, x0):
    """Optimal finite-horizon cost by direct stacked least squares.

    Writes every state as an affine map of the stacked signal vector and
    minimizes the resulting quadratic in closed form; independent of the
    backward recursion it cross-checks.
    """
    n = A.shape[0]
    m = driver.size
    S = driver.selection
    d = list(driver.indices)
    Rd = costs.R[np.ix_(d, d)]
    x0 = np.asarray(x0, dtype=float)

    Apow = [np.eye(n)]
    for _ in range(tau):
        Apow.append(A @ Apow[-1])

    M = np.kron(np.eye(tau), Rd)
    c = np.zeros(tau * m)
    const = float(x0 @ costs.Q @ x0)
    for k in range(1, tau + 1):
        W = costs.Q_f if k == tau else costs.Q
        G = np.zeros((n, tau * m))
        for j in range(k):
            G[:, j * m:(j + 1) * m] = Apow[k - 1 - j] @ S
        free = Apow[k] @ x0
        M += G.T @ W @ G
        c += G.T @ W @ free
        const += float(free @ W @ free)
    M = 0.5 * (M + M.T)
    U = np.linalg.solve(M, -c)
    J = const + 2.0 * c @ U + U @ M @ U
    return float(J), U.reshape(tau, m)


def reference_rollout(net, driver, x0, steps, signal, pinned=None):
    """Nonlinear rollout one validated ``step_continuous`` call at a time.

    ``signal(k, x)`` gives the driven nodes' signals in index order; pinned
    nodes are forced to their value at every step, including the first.
    Returns (states, full-length signals, saturation count).
    """
    pins = dict(pinned or {})
    d = list(driver.indices)
    states = np.empty((steps + 1, net.n))
    signals = np.zeros((steps, net.n))
    x = np.array(x0, dtype=float)
    for i, v in pins.items():
        x[i] = v
    states[0] = x
    saturation = 0
    for k in range(steps):
        signals[k, d] = signal(k, x)
        nxt, sat = step_continuous(net, continuous_state(x), signals[k])
        saturation += int(sat.sum())
        x = nxt.values.copy()
        for i, v in pins.items():
            x[i] = v
        states[k + 1] = x
    return states, signals, saturation


def saturating_net():
    """Three sources feed node c at weight 1, so c's raw update exceeds 1
    while c is still low; c feeds d."""
    E = np.zeros((5, 5))
    E[0, 4] = E[1, 4] = E[2, 4] = 1.0
    E[4, 3] = 1.0
    return build_network(
        ["a1", "a2", "a3", "d", "c"],
        [0.6, 0.6, 0.6, 0.1, 0.05],
        [0.0, 0.0, 0.0, 0.3, 0.6],
        [0.9, 0.9, 0.9, 0.6, 0.6],
        E,
    )


def reference_activation(net, x, variant):
    """Each node's activation probability at the 0/1 state ``x``, from the
    model formula over the active nodes j: ``1 - (1 - p_int) * prod_j (1 -
    E[j, i] * p_ext_i)`` (product) or ``min(1, p_int + p_ext * sum_j E[j, i])``
    (additive)."""
    E = net.E[x == 1.0]
    if variant == PRODUCT:
        return 1.0 - (1.0 - net.p_int) * np.prod(1.0 - E * net.p_ext, axis=0)
    return np.minimum(1.0, net.p_int + net.p_ext * E.sum(axis=0))


def reference_run_discrete(net, init, config):
    """The cascade one step at a time: one ``rng.random(n)`` call per step
    from ``default_rng(config.seed)``, the two-branch update, then the pins.
    Returns the (steps+1, n) float states."""
    pin_idx, pin_val = pin_arrays(config.pinned, net.n)
    rng = np.random.default_rng(config.seed)
    x = np.array(init.values, dtype=float)
    rows = [x]
    for _ in range(config.steps):
        u = rng.random(net.n)
        act = reference_activation(net, x, config.variant)
        x = np.where(x == 1.0, (u < net.p_con).astype(float), (u < act).astype(float))
        x[pin_idx] = pin_val
        rows.append(x)
    return np.array(rows)


def reference_monte_carlo_mean(net, init, config, trials):
    """The per-trial loop: trial t runs ``reference_run_discrete`` with seed
    ``config.seed + t``; states are summed in trial order."""
    total = np.zeros((config.steps + 1, net.n))
    for t in range(trials):
        cfg = dataclasses.replace(config, seed=config.seed + t)
        total += reference_run_discrete(net, init, cfg)
    return total / trials


def reference_write_event_log(path, log, names):
    """An event log written one ``csv`` cell at a time."""
    write_csv(path, list(names), [[int(v) for v in row] for row in log.states])


def reference_load_event_log(path):
    """An event log read one ``csv`` cell at a time, each cell through ``int``."""
    header, rows = _read_csv(path)
    if not rows:
        raise ParseError(f"{path}: no state rows")
    return header, EventLog(np.array(rows))


def load_matrix_csv(path):
    """A numeric CSV the toolkit wrote, read back as (header, float matrix)."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    matrix = np.array([[float(v) for v in row] for row in rows])
    return header, matrix.reshape(-1, len(header))


def chain_saturation_network():
    """55 nodes whose steady-state iterate stops 3.2e-14 below 1 at the last
    node, where the raw map exceeds 1; one more clamped update reaches a
    fixed point where it does not.

    Node 0 (p_int 1) starts a chain of 50 nodes (p_int 0, p_ext 1), each
    feeding the next; the chain's end feeds three feeders (p_ext 1), which
    feed the last node (p_int 0.45, p_ext 1).  p_con is 1 and every edge
    weight 1.  The last node creeps toward 1 while the chain fills, so the
    feeders switch on only once it is within the tolerance of 1.
    """
    n = 55
    E = np.zeros((n, n))
    for i in range(50):
        E[i, i + 1] = 1.0
    E[50, 51:54] = 1.0
    E[51:54, 54] = 1.0
    p_int = np.zeros(n)
    p_int[0], p_int[54] = 1.0, 0.45
    p_ext = np.ones(n)
    p_ext[0] = 0.0
    return build_network([f"v{i:02d}" for i in range(n)], p_int, p_ext, np.ones(n), E)


def reference_steady_state(net, tol=1e-12, max_iter=10**6):
    """The undamped fixed-point loop from zeros that returns the iterate
    ``x`` whose clamped update met ``tol``, not the update itself."""
    x = np.zeros(net.n)
    for _ in range(max_iter):
        fx = unclamped_step(net, x).clip(0.0, 1.0)
        if np.max(np.abs(fx - x)) <= tol:
            return continuous_state(x)
        x = fx
    raise AssertionError("no convergence")


def in_order_inflow(E, prev):
    """``S[k, i]``: the weights ``E[j, i]`` times the 0/1 states ``prev[k, j]``,
    added to 0.0 one at a time in ascending j, by an explicit double loop
    over (i, j) in which each add is one elementwise add over the steps."""
    steps, n = prev.shape
    S = np.zeros((steps, n))
    for i in range(n):
        for j in range(n):
            S[:, i] += E[j, i] * prev[:, j]
    return S


def reference_count_transitions(E, log, pinned=None, inflow=in_order_inflow):
    """Transition counts built one node column at a time with boolean masks
    over the time-major log: the estimator's earlier, column-mask form.
    ``inflow(E, prev)`` gives the weighted active in-neighbour mass of every
    step and node; ``lambda E, prev: prev @ E`` is the earlier estimator's."""
    E = np.asarray(E, dtype=float)
    X = log.states.astype(float)
    n = X.shape[1]
    prev, nxt = X[:-1], X[1:]
    S = inflow(E, prev)
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
    return TransitionCounts(int_trials, int_hits, con_trials, con_hits, tuple(exposures))


def exposure_loglik(p, s, hits, misses, c):
    """Log-likelihood of aggregated exposures at external probability p.

    ``c`` is the survival of the internal channel, ``1 - p_int``.  For each
    distinct activity level s the activation probability is
    ``1 - c * (1 - p)**s``.
    """
    miss_prob = np.maximum(c * (1.0 - p) ** s, _TINY)
    act_prob = np.maximum(1.0 - miss_prob, _TINY)
    return float(hits @ np.log(act_prob) + misses @ np.log(miss_prob))


def golden_max(f, lo, hi, tol=GOLDEN_TOL):
    """Golden-section maximizer of a unimodal f on [lo, hi], one scalar
    search."""
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


def exposure_levels(s, outcome):
    """Distinct activity levels of one node's records with their hit and
    miss counts, by ``np.unique``."""
    levels, inverse = np.unique(np.asarray(s, dtype=float), return_inverse=True)
    hits = np.bincount(inverse, weights=np.asarray(outcome, dtype=float), minlength=len(levels))
    return levels, hits, np.bincount(inverse, minlength=len(levels)) - hits


def reference_p_ext(counts, p_int, smoothing=0.0):
    """External probabilities by one scalar golden-section search per node,
    on levels aggregated by ``np.unique``."""
    p_ext = np.full(counts.n, np.nan)
    for i, (s, outcome) in enumerate(counts.exposures):
        if len(s) == 0:
            if smoothing > 0.0:
                p_ext[i] = 0.5
            continue
        levels, hits, misses = exposure_levels(s, outcome)
        pin = p_int[i] if np.isfinite(p_int[i]) else 0.0
        c = max(1.0 - pin, _TINY)
        p_ext[i] = golden_max(lambda p: exposure_loglik(p, levels, hits, misses, c), 0.0, 1.0)
    return p_ext
