"""The public surface: every public top-level function in ``src/risknet`` is
called by other package code, and every public property of a public class
is read by it, or is listed below with its reason; every per-layer span
of the benchmark names a public function; and the package holds no
``assert`` statement.

``__init__.py`` only re-exports, so its imports are not references.  A
function's or property's own body does not count as a reference to it.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

import risknet

SRC = Path(risknet.__file__).resolve().parent

#: Public functions nothing else in the package calls, and why each stays.
UNREFERENCED = {
    "main": "console entry point (pyproject.toml)",
    "cli_main": "entry point the console script and the benchmark call",
    "step_continuous": "oracle of helpers.reference_rollout and acceptance criterion 3",
    "riccati_schedule": "acceptance criterion 2; the one-set schedule the block tests compare with",
    "rollout_feedback": "one-set rollout of a given schedule, used by the fast-forward tests",
    "monte_carlo_mean": "acceptance criterion 4 (mean-field agreement)",
    "evaluate_cost": "cost of a given trajectory; a block takes its sets' costs in one stacked pass",
}

#: Public properties (``Class.name``) no package code reads, and why each stays.
UNREAD_PROPERTIES: dict = {}


def modules():
    return {
        path.name: ast.parse(path.read_text())
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }


def public_functions(trees):
    return {
        (name, node.name): node
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }


def public_properties(trees):
    return {
        (name, f"{cls.name}.{node.name}"): node
        for name, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and any(isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list)
    }


def references(trees):
    """Every (module, line) where a name or attribute is read."""
    refs = {}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append((name, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append((name, node.lineno))
    return refs


def referenced_elsewhere(refs, module, node):
    """Whether ``node``'s name is read outside its own body."""
    return any(
        not (where == module and node.lineno <= line <= node.end_lineno)
        for where, line in refs.get(node.name, ())
    )


def test_every_public_function_is_used_or_listed():
    trees = modules()
    refs = references(trees)
    unused = sorted(
        f"{module}:{fn}"
        for (module, fn), node in public_functions(trees).items()
        if fn not in UNREFERENCED and not referenced_elsewhere(refs, module, node)
    )
    assert not unused, f"public functions no package code calls: {unused}"


def test_listed_functions_exist():
    defined = {fn for _, fn in public_functions(modules())}
    assert set(UNREFERENCED) <= defined


def test_every_public_property_is_read_or_listed():
    trees = modules()
    refs = references(trees)
    unread = sorted(
        f"{module}:{prop}"
        for (module, prop), node in public_properties(trees).items()
        if prop not in UNREAD_PROPERTIES and not referenced_elsewhere(refs, module, node)
    )
    assert not unread, f"public properties no package code reads: {unread}"


def test_listed_properties_exist():
    defined = {prop for _, prop in public_properties(modules())}
    assert set(UNREAD_PROPERTIES) <= defined


#: Per-layer metric suffixes that time or count calls of one function.
SPAN_SUFFIXES = (".calls", ".s", ".self_s", ".ms_p50", ".ms_p90")


def test_benchmark_spans_name_public_functions():
    # the benchmark's tracer wraps ``risknet.<module>.<function>`` by name
    # and drops the metrics of a function that is gone; ``cli`` is the
    # span of ``cli.cli_main``
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    missing = []
    for metric in spec["per_layer"]:
        name = metric["name"]
        suffix = next((s for s in SPAN_SUFFIXES if name.endswith(s)), None)
        if suffix is None:
            continue
        module, _, fn = name[: -len(suffix)].partition(".")
        fn = fn or "cli_main"
        found = getattr(importlib.import_module(f"risknet.{module}"), fn, None)
        if fn.startswith("_") or not inspect.isfunction(found):
            missing.append(name)
    assert not missing, f"per-layer metrics of no public function: {missing}"


def test_no_assert_statement_in_the_package():
    # ``python -O`` strips assert statements, so a check the package relies
    # on must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"
