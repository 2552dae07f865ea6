"""Shared test utilities: random instance factories and independent oracles.

The oracles here (finite differences, stacked least-squares) deliberately
avoid the code paths they check.
"""

import dataclasses

import numpy as np

from risknet.cascade import EventLog, activation_probability, trial_seed
from risknet.control import _solve_gain, evaluate_cost
from risknet.dynamics import step_continuous, unclamped_step
from risknet.errors import ParseError
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


def reference_schedule(sys, driver, costs, horizon):
    """The backward value recursion run over the whole horizon, one step at
    a time with no early stop; returns (gains K(0..tau-1), P(0))."""
    A = sys.A
    d = list(driver.indices)
    Rd = costs.R[np.ix_(d, d)]
    K = [None] * horizon
    Pn = costs.Q_f
    for k in range(horizon - 1, -1, -1):
        K[k] = _solve_gain(Rd + Pn[np.ix_(d, d)], Pn[d, :] @ A, k)
        Pk = costs.Q + A.T @ (Pn @ A) - (A.T @ Pn[:, d]) @ K[k]
        Pn = 0.5 * (Pk + Pk.T)
    return K, Pn


def linear_feedback_cost(A, driver, costs, schedule, x0):
    """Roll the linear system under the gain schedule; return the total cost."""
    n = A.shape[0]
    tau = len(schedule.K)
    S = driver.selection
    d = list(driver.indices)
    states = np.empty((tau + 1, n))
    signals = np.zeros((tau, n))
    x = np.asarray(x0, dtype=float).copy()
    states[0] = x
    for k in range(tau):
        reduced = -schedule.K[k] @ x
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
        nxt, sat = step_continuous(net, continuous_state(x), signals[k], driver)
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
        act = activation_probability(net, x, config.variant)
        x = np.where(x == 1.0, (u < net.p_con).astype(float), (u < act).astype(float))
        x[pin_idx] = pin_val
        rows.append(x)
    return np.array(rows)


def reference_monte_carlo_mean(net, init, config, trials):
    """The per-trial loop: trial t runs ``reference_run_discrete`` with seed
    ``trial_seed(config.seed, t)``; states are summed in trial order."""
    total = np.zeros((config.steps + 1, net.n))
    for t in range(trials):
        cfg = dataclasses.replace(config, seed=trial_seed(config.seed, t))
        total += reference_run_discrete(net, init, cfg)
    return total / trials


def reference_write_event_log(path, log, names):
    """An event log written one ``csv`` cell at a time."""
    write_csv(path, list(names), [[int(v) for v in row] for row in log.states])


def reference_load_event_log(path):
    """An event log read one ``csv`` cell at a time, each cell through ``int``."""
    header, rows = _read_csv(path, int)
    if not rows:
        raise ParseError(f"{path}: no state rows")
    return header, EventLog(np.array(rows))
