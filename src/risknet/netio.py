"""File formats and synthetic network generation.

Networks and experiment plans travel as JSON documents that domain experts
can edit by hand; trajectories, event logs, and experiment tables travel as
CSV with the node-name header fixed to file order.  All writers use
canonical formatting (two-space indented JSON, shortest round-trip float
repr) so identical inputs produce byte-identical files.

Network schema (version 1)::

    {
      "schema_version": 1,
      "nodes": [{"name", "p_int", "p_ext", "p_con"}, ...],
      "edges": [{"from", "to", "weight"}, ...]   # "from" influences "to"
    }

Plan schema (version 1): the :class:`~risknet.experiments.ExperimentPlan`
fields with node names in place of indices, plus a cost specification
``{"kind": "identity"}``, ``{"kind": "diagonal", "q_f": [...], "q": [...],
"r": [...]}`` or ``{"kind": "dense", ...}`` with full matrices.

Every object in both documents, nested ones included, rejects keys outside
its schema (a cost spec, outside its kind's keys), and every value must have
its schema's JSON kind: names are strings; probabilities, weights, settings
and cost entries are numbers, not strings or booleans.  Each rejection is a
``ParseError`` naming the key and its place, e.g. ``nodes[0]``.
"""

from __future__ import annotations

import bisect
import csv
import dataclasses
import itertools
import json
import math
import numbers
import operator
import pathlib
import random

import numpy as np

from .cascade import EventLog
from .control import ControlRun
from .errors import (
    DimensionMismatch,
    ParseError,
    TargetsUnreachable,
    UnknownSchemaVersion,
    ValidationError,
)
from .experiments import ExperimentPlan, ExperimentResult, _candidates
from .model import CostMatrices, RiskNetwork, build_network, check_integer, identity_costs

SCHEMA_VERSION = 1

#: Relative tolerance on degree targets accepted by the generator.
DEGREE_TOLERANCE = 0.10
GENERATOR_MAX_ATTEMPTS = 100

DEFAULT_PROB_RANGES = {
    "p_int": (0.01, 0.10),
    "p_ext": (0.005, 0.05),
    "p_con": (0.20, 0.80),
}


# ---------------------------------------------------------------------------
# canonical serialization helpers

def dump_json(doc) -> str:
    """Canonical JSON text: two-space indent, non-ASCII kept, final newline."""
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def write_json(path, doc):
    """Write ``doc`` to ``path`` as canonical JSON (:func:`dump_json`)."""
    with open(path, "w") as fh:
        fh.write(dump_json(doc))


def write_csv(path, header, rows):
    """Write a header row and data rows of Python values (not numpy
    scalars): ``csv`` writes a float by its shortest exact ``repr`` and
    anything else by ``str``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# network files

def _node_document(names, p_int, p_ext, p_con) -> dict:
    """The schema version and one ``_NODE_KINDS`` record per node; a NaN
    probability is written as null."""
    columns = [[None if math.isnan(v) else float(v) for v in p] for p in (p_int, p_ext, p_con)]
    return {"schema_version": SCHEMA_VERSION,
            "nodes": [dict(zip(_NODE_KINDS, row)) for row in zip(names, *columns)]}


def network_to_dict(net: RiskNetwork) -> dict:
    edges = [
        {"from": net.names[i], "to": net.names[j], "weight": float(net.E[i, j])}
        for i, j in zip(*np.nonzero(net.E))
    ]
    return _node_document(net.names, net.p_int, net.p_ext, net.p_con) | {"edges": edges}


def write_fitted_params(path, names, fit):
    """Write a fit's ``(p_int, p_ext, p_con)`` as a network file without edges."""
    write_json(path, _node_document(names, *fit))


def _load_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from None


#: The JSON kinds the schemas use, as the Python types ``json.load`` yields.
_KINDS = {"an object": (dict,), "a list": (list,), "a string": (str,), "a number": (int, float)}


def _typed(value, kind: str, what: str):
    """``value`` if it has the JSON kind ``kind`` (booleans are not numbers)."""
    if isinstance(value, _KINDS[kind]) and not isinstance(value, bool):
        return value
    found = "a boolean" if isinstance(value, bool) else next(
        (k for k, types in _KINDS.items() if isinstance(value, types)), "null"
    )
    raise ParseError(f"{what} must be {kind}, got {found}")


def _object(value, keys, what: str) -> dict:
    """``value`` as a JSON object with no key outside ``keys``: the key rule
    for documents and every object nested in them."""
    _typed(value, "an object", what)
    for key in value:
        if key not in keys:
            raise ParseError(f"{what}: unknown field {key!r}")
    return value


def _require(doc: dict, key: str, where: str, kind: str | None = None):
    """``doc[key]``, which must be present and, given ``kind``, of that kind."""
    if key not in doc:
        raise ParseError(f"{where}: missing field {key!r}")
    if kind is None:
        return doc[key]
    return _typed(doc[key], kind, f"{where}: {key}")


def _records(values: list, kinds: dict, what: str) -> list:
    """The fields, in ``kinds`` order, of each item of ``values``: a JSON
    object with exactly the keys of ``kinds``, each of its kind.  Only an
    item that fails one condition on its exact types is checked key by key,
    which builds its label ``what[k]`` for the message."""
    keys, fields = kinds.keys(), operator.itemgetter(*kinds)
    valid = set(itertools.product(*(_KINDS[kind] for kind in kinds.values())))
    for k, v in enumerate(values):
        if not (type(v) is dict and v.keys() == keys and tuple(map(type, fields(v))) in valid):
            _object(v, kinds, f"{what}[{k}]")
            for key, kind in kinds.items():
                _require(v, key, f"{what}[{k}]", kind)
    return [fields(v) for v in values]


def _numbers(value, ndim: int, what: str) -> np.ndarray:
    """A list of numbers (``ndim`` 1) or of equal-length such lists (2)."""
    items = _typed(value, "a list", what)
    if ndim == 1:
        return np.array(
            [_typed(v, "a number", f"{what}[{i}]") for i, v in enumerate(items)], dtype=float
        )
    rows = [_numbers(row, 1, f"{what}[{i}]") for i, row in enumerate(items)]
    if len({row.size for row in rows}) > 1:
        raise ParseError(f"{what}: rows differ in length")
    return np.array(rows, dtype=float)


def _check_document(doc, keys, where: str):
    """Check the schema version, then reject any top-level key not in ``keys``."""
    version = _require(_typed(doc, "an object", where), "schema_version", where)
    if version != SCHEMA_VERSION:
        raise UnknownSchemaVersion(f"{where}: schema_version {version!r} not supported")
    _object(doc, keys, where)


_NODE_KINDS = {"name": "a string", "p_int": "a number", "p_ext": "a number", "p_con": "a number"}
_EDGE_KINDS = {"from": "a string", "to": "a string", "weight": "a number"}
_PLAN_FIELDS = tuple(f.name for f in dataclasses.fields(ExperimentPlan))
_PLAN_KEYS = _PLAN_FIELDS + ("schema_version", "costs")
#: Every plan field is a number (integers are checked by ExperimentPlan)
#: except these.
_PLAN_KINDS = dict.fromkeys(_PLAN_FIELDS, "a number") | {
    "pinned": "an object",
    "stratify_by": "a string",
    "groups": "a list",
    "phase": "a string",
    "baseline_sets": "an object",
}


def network_from_dict(doc: dict, where: str = "network") -> RiskNetwork:
    _check_document(doc, ("schema_version", "nodes", "edges"), where)
    rows = _records(_require(doc, "nodes", where, "a list"), _NODE_KINDS, f"{where}: nodes")
    names = [row[0] for row in rows]
    probs = np.array([row[1:] for row in rows], dtype=float).reshape(-1, 3)
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    E = np.zeros((n, n))
    seen = set()
    edges = _typed(doc.get("edges", []), "a list", f"{where}: edges")
    for src, dst, weight in _records(edges, _EDGE_KINDS, f"{where}: edges"):
        if src not in index or dst not in index:
            raise ValidationError(
                f"{where}: edge {src!r} -> {dst!r} references an unknown node"
            )
        if (src, dst) in seen:
            raise ValidationError(f"{where}: duplicate edge {src!r} -> {dst!r}")
        seen.add((src, dst))
        E[index[src], index[dst]] = weight
    return build_network(names, *probs.T, E)


def load_network(path) -> RiskNetwork:
    """Read and validate a network file."""
    return network_from_dict(_load_json(path), where=str(path))


def save_network(path, net: RiskNetwork):
    """Write a network file in canonical formatting (save/load round-trips
    are byte-stable)."""
    write_json(path, network_to_dict(net))


# ---------------------------------------------------------------------------
# event logs

def _event_rows(states: np.ndarray) -> np.ndarray:
    """The canonical event-log body as a byte matrix, one row per line: 0/1
    digits joined by commas, each line ended by ``\r\n``, which are the bytes
    :func:`write_csv` writes for the same rows."""
    steps, n = states.shape
    rows = np.full((steps, max(2 * n + 1, 2)), ord(","), dtype=np.uint8)
    rows[:, 0:2 * n:2] = states + ord("0")
    rows[:, -2:] = (ord("\r"), ord("\n"))
    return rows


def write_event_log(path, log: EventLog, names):
    """Write the node-name header through ``csv`` and the 0/1 rows in the
    canonical form of :func:`_event_rows`."""
    if len(names) != log.n:
        raise ValidationError("header length does not match the log")
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(list(names))
        fh.write(_event_rows(log.states).tobytes().decode("ascii"))


def _read_csv(path) -> tuple[list, list]:
    """Read a header row and data rows, each cell passed through ``int``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        rows = []
        for k, row in enumerate(reader):
            if len(row) != len(header):
                raise ParseError(f"{path}: row {k + 1} has {len(row)} fields")
            try:
                rows.append([int(v) for v in row])
            except ValueError as exc:
                raise ParseError(f"{path}: row {k + 1}: {exc}") from None
    return header, rows


#: Rows of an event-log body checked at once, so the check's temporaries
#: stay small whatever the log's length.
_CHECK_ROWS = 1024


def _canonical_states(body: str, n: int) -> np.ndarray | None:
    """The 0/1 matrix of an event-log body in the canonical form of
    :func:`_event_rows`, or None if ``body`` is empty or not in that form.
    The body is checked ``_CHECK_ROWS`` rows at a time."""
    width = max(2 * n + 1, 2)
    if not body or len(body) % width or not body.isascii():
        return None
    rows = np.frombuffer(body.encode("ascii"), dtype=np.uint8).reshape(-1, width)
    states = rows[:, 0:2 * n:2] - ord("0")
    for lo in range(0, len(rows), _CHECK_ROWS):
        block = states[lo:lo + _CHECK_ROWS]
        if np.any(block > 1) or not np.array_equal(_event_rows(block), rows[lo:lo + _CHECK_ROWS]):
            return None
    return states


def load_event_log(path) -> tuple[list, EventLog]:
    """Read an event log CSV; returns (node names, log).

    A body in the canonical form :func:`write_event_log` writes is read as
    one array; any other file goes through :func:`_read_csv`, which accepts
    what ``csv`` and ``int`` accept and names the first bad row.
    """
    states = None
    try:
        with open(path, newline="") as fh:
            header = next(csv.reader(fh), None)
            if header is not None:
                states = _canonical_states(fh.read(), len(header))
    except (UnicodeDecodeError, csv.Error):
        pass  # _read_csv raises it again, as it always has
    if states is None:
        header, rows = _read_csv(path)
        if not rows:
            raise ParseError(f"{path}: no state rows")
        states = np.array(rows)
    return header, EventLog(states)


# ---------------------------------------------------------------------------
# control runs

def write_control_run(out_dir, run: ControlRun, names):
    """Write control.json (costs) plus the trajectory and signal CSVs."""
    out = pathlib.Path(out_dir)
    write_json(out / "control.json", {
        "state_cost": float(run.state_cost),
        "control_cost": float(run.control_cost),
        "total_cost": float(run.total_cost),
        "saturation_count": int(run.saturation_count),
    })
    write_csv(out / "control_trajectory.csv", list(names), run.states.tolist())
    write_csv(out / "control_signals.csv", list(names), run.signals.tolist())


# ---------------------------------------------------------------------------
# experiment plans and results

#: The keys each cost kind takes.
_COST_KEYS = {
    "identity": ("kind",),
    "diagonal": ("kind", "q_f", "q", "r"),
    "dense": ("kind", "q_f", "q", "r"),
}


def costs_from_spec(spec: dict, n: int) -> CostMatrices:
    where = "costs"
    kind = _require(_typed(spec, "an object", where), "kind", where, "a string")
    if kind not in _COST_KEYS:
        raise ParseError(f"{where}: unknown kind {kind!r}")
    _object(spec, _COST_KEYS[kind], where)
    if kind == "identity":
        return identity_costs(n)
    ndim = 1 if kind == "diagonal" else 2
    q_f, q, r = (_numbers(_require(spec, key, where), ndim, f"{where}: {key}")
                 for key in ("q_f", "q", "r"))
    if kind == "diagonal":
        q_f, q, r = np.diag(q_f), np.diag(q), np.diag(r)
    costs = CostMatrices(Q_f=q_f, Q=q, R=r)
    if costs.n != n:
        raise DimensionMismatch(f"{where}: sized for {costs.n} nodes, the network has {n}")
    return costs


def plan_from_dict(doc: dict, net: RiskNetwork, where: str = "plan"):
    """Resolve a plan document against a network; returns
    (ExperimentPlan, CostMatrices).  This checks the document's schema
    version, keys and JSON kinds and maps node names to indices; the plan
    fills in omitted fields and checks its own values."""
    _check_document(doc, _PLAN_KEYS, where)
    for key in ("driver_size", "seed"):
        _require(doc, key, where)
    fields = {
        key: _require(doc, key, where, kind)
        for key, kind in _PLAN_KINDS.items() if key in doc
    }
    fields["pinned"] = {net.index_of(name): v for name, v in fields.get("pinned", {}).items()}
    baselines = {}
    for label, names in fields.get("baseline_sets", {}).items():
        what = f"{where}: baseline_sets[{label!r}]"
        baselines[label] = tuple(
            net.index_of(_typed(name, "a string", f"{what}[{i}]"))
            for i, name in enumerate(_typed(names, "a list", what))
        )
    fields["baseline_sets"] = baselines
    plan = ExperimentPlan(**fields)
    _candidates(plan, net.n)  # driver_size against the non-pinned nodes
    costs = costs_from_spec(doc.get("costs", {"kind": "identity"}), net.n)
    return plan, costs


def load_plan(path, net: RiskNetwork):
    return plan_from_dict(_load_json(path), net, where=str(path))


EXPERIMENT_HEADER = (
    "label", "kind", "phase", "stratum", "initially_active", "steady_peak",
    "drivers", "state_cost", "control_cost", "total_cost",
    "saturation_count", "rank", "error",
)


def experiment_rows(result: ExperimentResult, names) -> list:
    rows = []
    for ev in result.evaluations:
        drivers = ";".join(names[i] for i in ev.indices)
        for phase in result.plan.phases:
            out = ev.outcomes[phase]
            rows.append([
                ev.label,
                ev.kind,
                phase,
                "" if ev.stratum is None else ev.stratum,
                ev.initially_active,
                ev.steady_peak,
                drivers,
                float(out.state_cost),
                float(out.control_cost),
                float(out.total_cost),
                out.saturation_count,
                "" if out.rank == 0 else out.rank,
                out.error,
            ])
    return rows


def write_experiment_csv(path, result: ExperimentResult, names):
    """One row per (driver set, phase); columns per EXPERIMENT_HEADER."""
    write_csv(path, EXPERIMENT_HEADER, experiment_rows(result, names))


def write_experiment_summary(path, result: ExperimentResult):
    """Write the plan's counts, the stratum quartiles and each baseline's
    total cost and rank of ``of`` ranked sets, per phase."""
    strata: dict = {}
    for (phase, value), quartiles in sorted(result.stratum_summary.items()):
        strata.setdefault(phase, {})[str(value)] = quartiles
    ranked = {phase: sum(not ev.outcomes[phase].error for ev in result.evaluations)
              for phase in result.plan.phases}
    baselines = {
        ev.label: {
            phase: {"total_cost": float(out.total_cost), "rank": out.rank, "of": ranked[phase]}
            for phase, out in ev.outcomes.items()
        }
        for ev in result.evaluations if ev.kind == "baseline"
    }
    write_json(path, {
        "num_sets": result.plan.num_sets,
        "driver_size": result.plan.driver_size,
        "phases": list(result.plan.phases),
        "strata": strata,
        "baselines": baselines,
    })


# ---------------------------------------------------------------------------
# synthetic generation

def _draw_degree_sequence(rng, n, mean, std) -> list:
    d = np.clip(np.rint(rng.normal(mean, std, size=n)), 0, n - 1).astype(int)
    if d.sum() % 2 == 1:
        # fix parity with the smallest adjustment that stays in range
        i = int(np.argmin(d)) if d.min() < n - 1 else int(np.argmax(d))
        d[i] += 1 if d[i] < n - 1 else -1
    return [int(v) for v in d]


def _havel_hakimi(degrees: list) -> list | None:
    """networkx 3.x's ``havel_hakimi_graph`` for entries in [0, n): one
    insertion-ordered neighbour dict per node, node k being the k-th nonzero
    entry.  None for a non-graphical sequence, exactly where it fails."""
    adj, num_degs = [{} for _ in degrees], [[] for _ in degrees]
    nonzero = [d for d in degrees if d > 0]
    for label, d in enumerate(nonzero):
        num_degs[d].append(label)
    n, dmax = len(nonzero), max(nonzero, default=0)
    while n > 0:
        while not num_degs[dmax]:
            dmax -= 1
        if dmax > n - 1:
            return None
        source, stubs, k = num_degs[dmax].pop(), [], dmax
        for _ in range(dmax):
            while not num_degs[k]:
                k -= 1
            target = num_degs[k].pop()
            adj[source][target] = adj[target][source] = None
            if k > 1:
                stubs.append((k - 1, target))
        for k, target in stubs:
            num_degs[k].append(target)
        n -= 1 + dmax - len(stubs)
    return adj


def _double_edge_swap(adj: list, nswap: int, max_tries: int, seed: int) -> bool:
    """networkx 3.x's ``double_edge_swap`` with the same draws, in place, on
    4 or more nodes and 2 or more edges.  Where it raises on reaching
    ``max_tries``, this stops partly swapped and returns False."""
    rng = random.Random(seed)
    cdf = [0.0, *itertools.accumulate((float(len(nbrs)) for nbrs in adj))]
    cdf = [c / cdf[-1] for c in cdf]
    tries = swaps = 0
    while swaps < nswap:
        u, x = (bisect.bisect_left(cdf, r) - 1 for r in (rng.random(), rng.random()))
        if u == x:
            continue
        v, y = rng.choice(list(adj[u])), rng.choice(list(adj[x]))
        if v == y:
            continue
        if x not in adj[u] and y not in adj[v]:
            adj[u][x] = adj[x][u] = adj[v][y] = adj[y][v] = None
            del adj[u][v], adj[v][u], adj[x][y], adj[y][x]
            swaps += 1
        if tries >= max_tries:
            return False
        tries += 1
    return True


def generate_synthetic(
    n: int,
    target_mean_degree: float,
    target_degree_std: float,
    prob_ranges: dict | None = None,
    seed: int = 0,
) -> RiskNetwork:
    """Seeded random network hitting prescribed degree statistics.

    Draws a degree sequence from N(mean, std), realizes it exactly with a
    Havel-Hakimi construction randomized by seeded edge swaps, and accepts
    when the realized mean/std fall within 10% of the targets (up to
    ``GENERATOR_MAX_ATTEMPTS`` redraws).  Graphicality, node labels (node k
    is the k-th nonzero degree) and every swap draw are networkx 3.x's,
    without networkx.  Every undirected edge becomes a symmetric pair of
    weight-1 directed links; node probabilities are drawn uniformly from
    ``prob_ranges`` (keys p_int, p_ext, p_con).

    Raises
    ------
    ValidationError
        A count or target out of range, or a ``prob_ranges`` entry with
        another key or not a ``(lo, hi)`` pair of real numbers (not
        booleans) with ``0 <= lo <= hi <= 1``;
        checked before any draw.
    TargetsUnreachable
        No attempt met both degree targets.
    """
    check_integer("n", n, 2)
    check_integer("seed", seed, 0)
    if not 0 < target_mean_degree < n:
        raise ValidationError("target_mean_degree must be in (0, n)")
    if not 0 <= target_degree_std < np.inf:
        raise ValidationError("target_degree_std must be finite and >= 0")
    ranges = dict(DEFAULT_PROB_RANGES)
    for key, pair in (prob_ranges or {}).items():
        if key not in ranges:
            raise ValidationError(f"unknown prob_ranges key {key!r}; expected p_int, p_ext or p_con")
        try:
            lo, hi = pair
        except (TypeError, ValueError):
            lo = hi = None
        real = all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in (lo, hi))
        if not (real and 0 <= lo <= hi <= 1):
            raise ValidationError(f"{key} range must be a (lo, hi) pair with 0 <= lo <= hi <= 1, "
                                  f"got {pair!r}")
        ranges[key] = (lo, hi)

    rng = np.random.default_rng(seed)
    mean_tol = DEGREE_TOLERANCE * target_mean_degree
    # A zero-std target demands an exactly regular realization.
    std_tol = DEGREE_TOLERANCE * target_degree_std

    last = None
    graph = None
    for _ in range(GENERATOR_MAX_ATTEMPTS):
        d = _draw_degree_sequence(rng, n, target_mean_degree, target_degree_std)
        swap_seed = int(rng.integers(2**32))
        adj = _havel_hakimi(d)
        if adj is None:
            continue
        m = sum(map(len, adj)) // 2
        if m >= 2 and n >= 4:
            # a saturated graph (e.g. complete) runs out of tries, partly swapped
            _double_edge_swap(adj, 4 * m, 40 * m + 100, swap_seed)
        degrees = np.array([len(nbrs) for nbrs in adj], dtype=float)
        last = (float(degrees.mean()), float(degrees.std()))
        if abs(last[0] - target_mean_degree) <= mean_tol and abs(last[1] - target_degree_std) <= std_tol:
            graph = adj
            break
    if graph is None:
        raise TargetsUnreachable(
            f"degree targets (mean {target_mean_degree}, std {target_degree_std}) "
            f"not met in {GENERATOR_MAX_ATTEMPTS} attempts; last realization {last}"
        )

    E = np.zeros((n, n))
    for i, nbrs in enumerate(graph):
        E[i, list(nbrs)] = 1.0
    width = len(str(n - 1))
    names = [f"risk_{i:0{width}d}" for i in range(n)]
    p_int = rng.uniform(*ranges["p_int"], size=n)
    p_ext = rng.uniform(*ranges["p_ext"], size=n)
    p_con = rng.uniform(*ranges["p_con"], size=n)
    return build_network(names, p_int, p_ext, p_con, E)
