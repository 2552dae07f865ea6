import collections
import csv
import json
import pathlib
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risknet.cascade import EventLog
from risknet.errors import (
    DimensionMismatch,
    ParseError,
    TargetsUnreachable,
    UnknownSchemaVersion,
    ValidationError,
)
from risknet.experiments import ExperimentPlan
from risknet.model import build_network, degree_stats
from risknet import netio
from risknet.netio import (
    DEGREE_TOLERANCE,
    _double_edge_swap,
    _havel_hakimi,
    generate_synthetic,
    load_event_log,
    load_network,
    load_plan,
    network_to_dict,
    plan_from_dict,
    save_network,
    write_control_run,
    write_csv,
    write_event_log,
    write_fitted_params,
)
from helpers import (
    load_matrix_csv,
    random_network,
    reference_load_event_log,
    reference_write_event_log,
)


MINIMAL = {
    "schema_version": 1,
    "nodes": [{"name": "a", "p_int": 0.1, "p_ext": 0.2, "p_con": 0.5}],
    "edges": [],
}


class TestNetworkFiles:
    def test_minimal_single_node(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(MINIMAL))
        net = load_network(path)
        assert net.n == 1 and net.p_ext[0] == 0.2

    def test_round_trip_is_byte_stable(self, tmp_path):
        rng = np.random.default_rng(8)
        net = random_network(rng, 7, weighted=True)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_network(first, net)
        save_network(second, load_network(first))
        assert first.read_bytes() == second.read_bytes()

    def test_fitted_params_share_the_node_records(self, tmp_path):
        net = build_network(["a", "b"], [0.1, 0.2], [0.3, 0.4], [0.5, 0.6], np.zeros((2, 2)))
        path = tmp_path / "fitted_params.json"
        write_fitted_params(path, net.names, (net.p_int, np.array([np.nan, 0.4]), net.p_con))
        nodes = network_to_dict(net)["nodes"]
        nodes[0]["p_ext"] = None  # an unidentified probability is null
        assert path.read_text() == netio.dump_json({"schema_version": 1, "nodes": nodes})

    def test_edge_to_unknown_node(self, tmp_path):
        doc = dict(MINIMAL)
        doc["edges"] = [{"from": "a", "to": "zzz", "weight": 1.0}]
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="zzz"):
            load_network(path)

    def test_duplicate_edge(self, tmp_path):
        doc = {
            "schema_version": 1,
            "nodes": [
                {"name": "a", "p_int": 0, "p_ext": 0, "p_con": 0},
                {"name": "b", "p_int": 0, "p_ext": 0, "p_con": 0},
            ],
            "edges": [
                {"from": "a", "to": "b", "weight": 0.5},
                {"from": "a", "to": "b", "weight": 0.6},
            ],
        }
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="duplicate"):
            load_network(path)

    def test_unknown_schema_version(self, tmp_path):
        doc = dict(MINIMAL, schema_version=99)
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(UnknownSchemaVersion):
            load_network(path)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text('{"schema_version": 1,\n  broken')
        with pytest.raises(ParseError, match="line 2"):
            load_network(path)

    def test_missing_field_named(self, tmp_path):
        doc = {"schema_version": 1, "nodes": [{"name": "a", "p_int": 0.1}]}
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="p_ext"):
            load_network(path)

    def test_unknown_field_named(self, tmp_path):
        doc = {"schema_version": 1, "nodes": MINIMAL["nodes"], "edge": []}
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="'edge'"):
            load_network(path)

    @pytest.mark.parametrize("place, extra", [
        ("nodes", {"p_cont": 0.9}),
        ("edges", {"w": 0.5}),
    ])
    def test_unknown_nested_field_named(self, tmp_path, place, extra):
        doc = {
            "schema_version": 1,
            "nodes": [dict(MINIMAL["nodes"][0]), dict(MINIMAL["nodes"][0], name="b")],
            "edges": [{"from": "a", "to": "b", "weight": 1.0}],
        }
        doc[place][0].update(extra)
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        key = next(iter(extra))
        with pytest.raises(ParseError, match=rf"{place}\[0\]: unknown field '{key}'"):
            load_network(path)

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d["nodes"].__setitem__(0, 1), r"nodes\[0\] must be an object, got a number"),
        (lambda d: d["nodes"][0].update(p_int="abc"), r"nodes\[0\]: p_int must be a number, got a string"),
        (lambda d: d["nodes"][0].update(p_int="0.05"), r"nodes\[0\]: p_int must be a number"),
        (lambda d: d["nodes"][0].update(p_con=True), r"p_con must be a number, got a boolean"),
        (lambda d: d["nodes"][0].update(name=5), r"nodes\[0\]: name must be a string"),
        (lambda d: d["edges"][0].update(weight="x"), r"edges\[0\]: weight must be a number"),
        (lambda d: d["edges"][0].update(to=["b"]), r"edges\[0\]: to must be a string, got a list"),
        (lambda d: d.update(nodes={"a": {}}), r"nodes must be a list, got an object"),
        (lambda d: d.update(edges=None), r"edges must be a list, got null"),
    ])
    def test_malformed_value_rejected(self, tmp_path, mutate, message):
        doc = {
            "schema_version": 1,
            "nodes": [dict(MINIMAL["nodes"][0]), dict(MINIMAL["nodes"][0], name="b")],
            "edges": [{"from": "a", "to": "b", "weight": 1.0}],
        }
        mutate(doc)
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=message):
            load_network(path)

    def test_document_must_be_an_object(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps([MINIMAL]))
        with pytest.raises(ParseError, match="must be an object, got a list"):
            load_network(path)

    def test_edge_direction_convention(self, tmp_path):
        doc = {
            "schema_version": 1,
            "nodes": [
                {"name": "src", "p_int": 0, "p_ext": 0, "p_con": 0},
                {"name": "dst", "p_int": 0, "p_ext": 0, "p_con": 0},
            ],
            "edges": [{"from": "src", "to": "dst", "weight": 0.8}],
        }
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        net = load_network(path)
        assert net.E[0, 1] == 0.8 and net.E[1, 0] == 0.0


class TestEventLogFiles:
    def test_round_trip(self, tmp_path):
        log = EventLog(np.array([[0, 1], [1, 1], [0, 0]]))
        path = tmp_path / "events.csv"
        write_event_log(path, log, ["a", "b"])
        names, loaded = load_event_log(path)
        assert names == ["a", "b"]
        assert np.array_equal(loaded.states, log.states)

    @pytest.mark.parametrize("names", [["a"], ["a", "b", "c"]])
    def test_header_of_another_length_rejected(self, tmp_path, names):
        log = EventLog(np.array([[0, 1], [1, 1]]))
        with pytest.raises(ValidationError, match="^header length does not match the log$"):
            write_event_log(tmp_path / "events.csv", log, names)
        assert not (tmp_path / "events.csv").exists()

    def test_bad_row_width(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("a,b\n0,1\n0\n")
        with pytest.raises(ParseError, match="row 2"):
            load_event_log(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_event_log(path)


def load_outcome(load, path):
    """What ``load`` makes of ``path``: ("ok", names, states) or the error's
    type name and text, with the path written as PATH."""
    try:
        names, log = load(path)
    except Exception as exc:
        return type(exc).__name__, str(exc).replace(str(path), "PATH")
    return "ok", names, log.states.tolist()


#: Files that are not in the canonical form, and what the reader makes of
#: each: the cell-by-cell reader's result or error text, unchanged.
NON_CANONICAL = {
    "lf_only": (b"a,b\n0,1\n1,0\n", ("ok", ["a", "b"], [[0, 1], [1, 0]])),
    "cr_only": (b"a,b\r0,1\r1,0\r", ("ok", ["a", "b"], [[0, 1], [1, 0]])),
    "trailing_blank_line": (
        b"a,b\r\n0,1\r\n\r\n", ("ParseError", "PATH: row 2 has 0 fields")),
    "ragged_row": (b"a,b\r\n0,1\r\n0\r\n", ("ParseError", "PATH: row 2 has 1 fields")),
    "wide_rows_of_canonical_length": (
        b"a,b\r\n" + b"0,1,0\r\n" * 5, ("ParseError", "PATH: row 1 has 3 fields")),
    "two": (b"a,b\r\n0,2\r\n", ("ValidationError", "event log entries must be 0 or 1")),
    "plus_one": (b"a,b\r\n+1,0\r\n", ("ok", ["a", "b"], [[1, 0]])),
    "space_one": (b"a,b\r\n 1,0\r\n", ("ok", ["a", "b"], [[1, 0]])),
    "quoted_cell": (b'a,b\r\n"0",1\r\n', ("ok", ["a", "b"], [[0, 1]])),
    "not_a_number": (
        b"a,b\r\n0,x\r\n",
        ("ParseError", "PATH: row 1: invalid literal for int() with base 10: 'x'"),
    ),
    "nul_byte": (
        b"a,b\r\n0,\x001\r\n",
        ("ParseError", "PATH: row 1: invalid literal for int() with base 10: '\\x001'"),
    ),
    "empty_file": (b"", ("ParseError", "PATH: empty file")),
    "header_only": (b"a,b\r\n", ("ParseError", "PATH: no state rows")),
    "blank_header_only": (b"\r\n", ("ParseError", "PATH: no state rows")),
    "missing_final_newline": (b"a,b\r\n0,1\r\n1,0", ("ok", ["a", "b"], [[0, 1], [1, 0]])),
    "not_utf8": (
        b"a,b\r\n0,\xff\r\n",
        ("UnicodeDecodeError",
         "'utf-8' codec can't decode byte 0xff in position 7: invalid start byte"),
    ),
    "header_over_field_limit": (
        b"a" * 200_000 + b",b\r\n0,1\r\n",
        ("ParseError", "PATH: header: field larger than field limit (131072)"),
    ),
    "row_over_field_limit": (
        b"a,b\r\n0,1\r\n0," + b"1" * 200_000 + b"\r\n",
        ("ParseError", "PATH: row 2: field larger than field limit (131072)"),
    ),
}

#: Canonical bodies under headers that ``csv`` quotes.
CANONICAL = {
    "quoted_header": (b'"a,x","b""y"\r\n0,1\r\n1,1\r\n',
                      ("ok", ["a,x", 'b"y'], [[0, 1], [1, 1]])),
    "header_with_line_break": (b'"a\r\nb",c\r\n0,1\r\n', ("ok", ["a\r\nb", "c"], [[0, 1]])),
}

#: Node names, including ones ``csv`` must quote.
NAME = st.text(alphabet='ab,"\r\n é', max_size=4)


class TestEventLogBytes:
    """The whole-array writer and reader against the cell-by-cell ones."""

    @pytest.mark.parametrize("names", [
        ["a", "b", "c"],
        ["only"],
        ["x,y", 'q"r', "p\nq", "", "é"],
        [],
    ])
    def test_writer_bytes_match_reference(self, tmp_path, names):
        states = (np.random.default_rng(len(names)).random((9, len(names))) < 0.5)
        log = EventLog(states.astype(int))
        write_event_log(tmp_path / "new.csv", log, names)
        reference_write_event_log(tmp_path / "old.csv", log, names)
        data = (tmp_path / "new.csv").read_bytes()
        assert data == (tmp_path / "old.csv").read_bytes()
        assert load_outcome(load_event_log, tmp_path / "new.csv") == (
            "ok", names, log.states.tolist())

    @given(
        names=st.lists(NAME, min_size=1, max_size=5),
        steps=st.integers(0, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, names, steps, seed):
        states = np.random.default_rng(seed).random((steps + 1, len(names))) < 0.5
        log = EventLog(states.astype(int))
        with tempfile.TemporaryDirectory() as tmp:
            new, old = pathlib.Path(tmp, "new.csv"), pathlib.Path(tmp, "old.csv")
            write_event_log(new, log, names)
            reference_write_event_log(old, log, names)
            assert new.read_bytes() == old.read_bytes()
            assert load_outcome(load_event_log, new) == ("ok", names, log.states.tolist())

    @pytest.mark.parametrize("case", sorted(NON_CANONICAL | CANONICAL))
    def test_reader_outcome(self, tmp_path, case):
        data, expected = (NON_CANONICAL | CANONICAL)[case]
        path = tmp_path / "events.csv"
        path.write_bytes(data)
        assert load_outcome(load_event_log, path) == expected
        assert load_outcome(reference_load_event_log, path) == expected

    def test_reader_errors_past_the_first_buffer(self, tmp_path):
        # a bad byte deep in the file, or a field over csv's size limit in a
        # row or the header, gives the cell-by-cell reader's error
        body = b"0,1\r\n" * 5000
        big = b"1" * 140_000
        cases = [b"a,b\r\n" + body + b"0,\xff\r\n", b"a,b\r\n" + body + b"0," + big + b"\r\n",
                 big + b",b\r\n" + body]
        for k, data in enumerate(cases):
            path = tmp_path / f"events{k}.csv"
            path.write_bytes(data)
            outcome = load_outcome(load_event_log, path)
            assert outcome[0] != "ok"
            assert outcome == load_outcome(reference_load_event_log, path)

    @given(
        n=st.integers(1, 4),
        steps=st.integers(0, 6),
        seed=st.integers(0, 2**32 - 1),
        edits=st.lists(
            st.tuples(st.integers(0, 10**6), st.sampled_from([*b'01 2+,"x\r\n', None])),
            min_size=1, max_size=3,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_edited_files_read_as_reference(self, n, steps, seed, edits):
        names = [f"n{i}" for i in range(n)]
        states = np.random.default_rng(seed).random((steps + 1, n)) < 0.5
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp, "events.csv")
            write_event_log(path, EventLog(states.astype(int)), names)
            data = bytearray(path.read_bytes())
            for where, byte in edits:  # replace one byte, or delete it
                data[where % len(data):where % len(data) + 1] = [] if byte is None else [byte]
            path.write_bytes(bytes(data))
            assert load_outcome(load_event_log, path) == load_outcome(
                reference_load_event_log, path)


def old_rule_bytes(tmp_path, header, rows):
    """The bytes of ``csv`` rows of pre-formatted cells: a float by ``repr``
    and anything else by ``str``."""
    path = tmp_path / "reference.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else str(v) for v in row])
    return path.read_bytes()


cells = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 5e-324, 1e22, float("nan"), 0.1]),
    st.integers(-10**20, 10**20),
    st.text(alphabet="ab;, \"\n0.", max_size=6),
)


class TestWriteCsv:
    """``write_csv`` passes plain rows to ``csv``, which writes a float by
    its shortest ``repr`` and anything else by ``str``."""

    def test_pinned_bytes(self, tmp_path):
        row = [-0.0, 5e-324, 1e22, float("nan"), 0.1, 3, -7, "", "a;b", "x;y;z"]
        write_csv(tmp_path / "rows.csv", ["h1", "h2"], [row])
        data = (tmp_path / "rows.csv").read_bytes()
        assert data == b"h1,h2\r\n-0.0,5e-324,1e+22,nan,0.1,3,-7,,a;b,x;y;z\r\n"
        assert data == old_rule_bytes(tmp_path, ["h1", "h2"], [row])

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.lists(cells, min_size=1, max_size=5), max_size=4))
    def test_random_rows_as_the_old_rule(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            tmp_path = pathlib.Path(tmp)
            write_csv(tmp_path / "rows.csv", ["h"], rows)
            assert (tmp_path / "rows.csv").read_bytes() == old_rule_bytes(tmp_path, ["h"], rows)


def test_write_json_that_cannot_serialize_leaves_the_file(tmp_path):
    # the file was opened for writing first, so a failed call emptied it
    path = tmp_path / "doc.json"
    netio.write_json(path, {"a": 1})
    before = path.read_bytes()
    with pytest.raises(TypeError, match="not JSON serializable"):
        netio.write_json(path, {"a": np.int64(1)})
    assert path.read_bytes() == before


class TestEmittedCsvsSelfRoundTrip:
    def test_control_run_csvs_reparse_exactly(self, tmp_path):
        from risknet.control import run_reactive
        from risknet.dynamics import find_steady_state
        from risknet.model import DriverSet, identity_costs

        net = build_network(
            ["a", "b"], [0.1, 0.05], [0.05, 0.1], [0.5, 0.6], [[0, 1], [1, 0]]
        )
        run = run_reactive(
            net, DriverSet((0,), 2), identity_costs(2), find_steady_state(net), 25
        )
        write_control_run(tmp_path, run, net.names)
        header, states = load_matrix_csv(tmp_path / "control_trajectory.csv")
        assert header == list(net.names)
        assert np.array_equal(states, run.states)  # repr formatting is exact
        _, signals = load_matrix_csv(tmp_path / "control_signals.csv")
        assert np.array_equal(signals, run.signals)


class TestPlanFiles:
    def base_doc(self):
        return {
            "schema_version": 1,
            "driver_size": 2,
            "num_sets": 5,
            "seed": 11,
            "pinned": {"a": 1},
            "phase": "both",
            "steps_reactive": 40,
            "steps_proactive": 10,
            "baseline_sets": {"pick": ["b", "c"]},
            "costs": {"kind": "identity"},
        }

    def net4(self):
        return build_network(
            ["a", "b", "c", "d"], [0.1] * 4, [0.1] * 4, [0.5] * 4, np.zeros((4, 4))
        )

    def test_identity_costs_and_name_resolution(self):
        plan, costs = plan_from_dict(self.base_doc(), self.net4())
        assert plan.pinned == {0: 1}
        assert plan.baseline_sets == {"pick": (1, 2)}
        assert np.array_equal(costs.Q, np.eye(4))

    def test_diagonal_costs(self):
        doc = self.base_doc()
        doc["costs"] = {
            "kind": "diagonal",
            "q_f": [1, 2, 3, 4],
            "q": [1, 1, 1, 1],
            "r": [2, 2, 2, 2],
        }
        _, costs = plan_from_dict(doc, self.net4())
        assert costs.Q_f[3, 3] == 4.0 and costs.R[0, 0] == 2.0

    def test_dense_costs(self):
        doc = self.base_doc()
        M = (0.1 * np.eye(4) + 0.05).tolist()
        doc["costs"] = {"kind": "dense", "q_f": M, "q": M, "r": np.eye(4).tolist()}
        _, costs = plan_from_dict(doc, self.net4())
        assert costs.Q[0, 1] == pytest.approx(0.05)

    def test_unknown_cost_kind(self):
        doc = self.base_doc()
        doc["costs"] = {"kind": "sparse"}
        with pytest.raises(ParseError, match="kind"):
            plan_from_dict(doc, self.net4())

    def test_driver_size_against_pinned_budget(self):
        doc = self.base_doc()
        doc["driver_size"] = 4  # only 3 nodes left after the pin
        with pytest.raises(ValidationError):
            plan_from_dict(doc, self.net4())

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(self.base_doc()))
        plan, _ = load_plan(path, self.net4())
        assert plan.num_sets == 5

    def test_unknown_field_named(self):
        doc = self.base_doc()
        doc["steps_reactve"] = 100
        with pytest.raises(ParseError, match="steps_reactve"):
            plan_from_dict(doc, self.net4())

    def test_omitted_fields_take_the_plan_defaults(self):
        doc = {"schema_version": 1, "driver_size": 2, "seed": 11}
        plan, costs = plan_from_dict(doc, self.net4())
        assert plan == ExperimentPlan(driver_size=2, seed=11)
        assert np.array_equal(costs.R, np.eye(4))

    def test_fractional_pin_value_rejected(self):
        doc = self.base_doc()
        doc["pinned"] = {"a": 0.5}
        with pytest.raises(ValidationError, match="0 or 1"):
            plan_from_dict(doc, self.net4())

    @pytest.mark.parametrize("costs, key", [
        ({"kind": "identity", "q": [5, 5, 5, 5]}, "q"),
        ({"kind": "diagonal", "q_f": [1] * 4, "q": [1] * 4, "r": [1] * 4, "Q": [1] * 4}, "Q"),
    ])
    def test_unknown_costs_field_named(self, costs, key):
        doc = self.base_doc()
        doc["costs"] = costs
        with pytest.raises(ParseError, match=f"costs: unknown field '{key}'"):
            plan_from_dict(doc, self.net4())

    @pytest.mark.parametrize("field, value, message", [
        ("pinned", ["a"], "pinned must be an object, got a list"),
        ("driver_size", "2", "driver_size must be a number, got a string"),
        ("seed", True, "seed must be a number, got a boolean"),
        ("top_fraction", "0.5", "top_fraction must be a number"),
        ("groups", {"1": 2}, "groups must be a list, got an object"),
        ("baseline_sets", {"pick": "b"}, r"baseline_sets\['pick'\] must be a list, got a string"),
        ("baseline_sets", {"pick": ["b", 2]}, r"baseline_sets\['pick'\]\[1\] must be a string"),
        ("costs", ["identity"], "costs must be an object, got a list"),
        ("costs", {"kind": 1}, "kind must be a string"),
        ("costs", {"kind": "diagonal", "q_f": ["1", 1, 1, 1], "q": [1] * 4, "r": [1] * 4},
         r"q_f\[0\] must be a number, got a string"),
        ("costs", {"kind": "diagonal", "q_f": [1] * 4, "q": [1] * 4, "r": [True] * 4},
         r"r\[0\] must be a number, got a boolean"),
        ("costs", {"kind": "dense", "q_f": [[1, 0], [0]], "q": [[1]], "r": [[1]]},
         "q_f: rows differ in length"),
    ])
    def test_malformed_value_rejected(self, field, value, message):
        doc = self.base_doc()
        doc[field] = value
        with pytest.raises(ParseError, match=message):
            plan_from_dict(doc, self.net4())

    @pytest.mark.parametrize("field, value", [
        ("seed", 1.5),
        ("steps_reactive", 10.5),
        ("num_sets", 5.0),
        ("groups", [[1.5, 2]]),
        ("groups", [[1, 2.9]]),
        ("groups", [[1, 2, 3]]),
    ])
    def test_non_integer_setting_rejected(self, field, value):
        doc = dict(self.base_doc(), stratify_by="steady_peak", groups=[[1, 2]])
        doc[field] = value
        with pytest.raises(ValidationError, match="integer|pair"):
            plan_from_dict(doc, self.net4())

    def test_costs_sized_for_another_network_rejected(self):
        doc = self.base_doc()
        doc["costs"] = {"kind": "diagonal", "q_f": [1] * 3, "q": [1] * 3, "r": [1] * 3}
        with pytest.raises(DimensionMismatch, match="3 nodes, the network has 4"):
            plan_from_dict(doc, self.net4())

    @pytest.mark.parametrize("num_sets", [None, 3])
    def test_stratified_num_sets_omitted_or_group_total_loads(self, num_sets):
        doc = dict(self.base_doc(), stratify_by="steady_peak", groups=[[1, 2], [2, 1]])
        del doc["num_sets"]
        if num_sets is not None:
            doc["num_sets"] = num_sets
        plan, _ = plan_from_dict(doc, self.net4())
        assert plan.num_sets == 3

    def test_stratified_num_sets_other_than_group_total_rejected(self):
        # the file's 500 silently became the group total, 3
        doc = dict(self.base_doc(), num_sets=500, stratify_by="steady_peak",
                   groups=[[1, 2], [2, 1]])
        with pytest.raises(ValidationError, match="^num_sets 500 differs from the "
                                                  "group total 3 of a stratified plan$"):
            plan_from_dict(doc, self.net4())

    @pytest.mark.parametrize("phase, key", [
        ("reactive", "steps_proactive"), ("proactive", "steps_reactive"),
    ])
    def test_steps_for_a_phase_not_run_rejected(self, phase, key):
        doc = dict(self.base_doc(), phase=phase)
        with pytest.raises(ValidationError, match=f"^{key} is set, but the plan runs "
                                                  f"no {key[6:]} phase$"):
            plan_from_dict(doc, self.net4())
        del doc[key]
        plan, _ = plan_from_dict(doc, self.net4())
        assert plan.phases == (phase,)

    def test_plan_checks_come_first(self):
        # a given count fails its own rule before it is compared with the
        # phases or the group total
        doc = dict(self.base_doc(), phase="reactive", steps_proactive=2.5)
        with pytest.raises(ValidationError, match="^steps_proactive must be an integer"):
            plan_from_dict(doc, self.net4())
        doc = dict(self.base_doc(), num_sets=0, stratify_by="steady_peak", groups=[[1, 0]])
        with pytest.raises(ValidationError, match="^num_sets must be >= 1"):
            plan_from_dict(doc, self.net4())

    def test_readme_plan_loads(self):
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"\*\*Plan\*\*.*?```json\n(.*?)```", readme, re.S).group(1)
        net = generate_synthetic(40, 18.27, 4.60, seed=1)
        plan, costs = plan_from_dict(json.loads(block), net)
        assert plan.num_sets == 767 and plan.phases == ("reactive", "proactive")
        assert costs.n == 40

    def test_unknown_pinned_name(self):
        doc = self.base_doc()
        doc["pinned"] = {"nope": 1}
        with pytest.raises(ValidationError, match="nope"):
            plan_from_dict(doc, self.net4())

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(),
           phase=st.sampled_from(["reactive", "proactive", "both"]),
           stratify_by=st.sampled_from(["none", "initially_active", "steady_peak"]))
    def test_plan_file_and_library_plan_agree(self, data, phase, stratify_by):
        # The file reads names and JSON kinds; every value rule is the plan's.
        # Each draw that breaks a rule is made rarely, so valid plans are common.
        net = self.net4()

        def rarely():
            return data.draw(st.integers(0, 3)) == 0

        size = data.draw(st.integers(1, 3))
        doc = {"schema_version": 1, "driver_size": size, "seed": 0, "phase": phase,
               "stratify_by": stratify_by}
        values = data.draw(st.lists(st.integers(0, size + rarely()), unique=True,
                                    min_size=1 - rarely(), max_size=3))
        groups = [[value, data.draw(st.integers(1, 4))] for value in values]
        if groups and rarely():
            groups.append(groups[0])  # a repeated stratum value
        if (groups and stratify_by != "none") or rarely():
            doc["groups"] = groups
        num_sets = data.draw(st.sampled_from(["omitted", "omitted", "total", "other"]))
        if num_sets == "total":
            doc["num_sets"] = sum(count for _, count in groups)
        elif num_sets == "other":
            doc["num_sets"] = data.draw(st.integers(0, 12))
        for steps_phase in ("reactive", "proactive"):
            if (phase in (steps_phase, "both") or rarely()) and data.draw(st.booleans()):
                doc[f"steps_{steps_phase}"] = data.draw(st.integers(0, 60))
        doc["baseline_sets"] = data.draw(st.dictionaries(
            st.sampled_from(["p", "q"]), st.lists(st.sampled_from(net.names), unique=True)
        ))
        fields = {key: value for key, value in doc.items() if key != "schema_version"}
        fields["baseline_sets"] = {label: tuple(map(net.index_of, names))
                                   for label, names in doc["baseline_sets"].items()}
        try:
            want = ExperimentPlan(**fields)
        except ValidationError as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                plan_from_dict(doc, net)
        else:
            assert plan_from_dict(doc, net)[0] == want


class TestGenerateSynthetic:
    def test_hits_degree_targets(self):
        net = generate_synthetic(40, 18.27, 4.60, seed=1)
        mean, std = degree_stats(net)
        assert abs(mean - 18.27) <= DEGREE_TOLERANCE * 18.27
        assert abs(std - 4.60) <= DEGREE_TOLERANCE * 4.60

    def test_regular_target_forces_complete_graph(self):
        net = generate_synthetic(5, 4, 0, seed=2)
        assert np.array_equal(net.E, 1.0 - np.eye(5))

    def test_deterministic(self):
        a = generate_synthetic(12, 5, 1.0, seed=33)
        b = generate_synthetic(12, 5, 1.0, seed=33)
        assert a.names == b.names
        assert np.array_equal(a.E, b.E)
        assert np.array_equal(a.p_con, b.p_con)

    def test_probability_ranges_respected(self):
        net = generate_synthetic(
            15, 6, 1.0, prob_ranges={"p_int": (0.4, 0.41)}, seed=4
        )
        assert np.all(net.p_int >= 0.4) and np.all(net.p_int <= 0.41)

    @pytest.mark.parametrize("ranges, message", [
        ({"p_cont": (0.1, 0.2)}, "unknown prob_ranges key 'p_cont'; expected p_int, p_ext or p_con"),
        ({"p_int": (-0.1, 0.1)},
         "p_int range must be a (lo, hi) pair with 0 <= lo <= hi <= 1, got (-0.1, 0.1)"),
        # these three raised a bare TypeError
        ({"p_int": 5}, "p_int range must be a (lo, hi) pair with 0 <= lo <= hi <= 1, got 5"),
        ({"p_ext": None},
         "p_ext range must be a (lo, hi) pair with 0 <= lo <= hi <= 1, got None"),
        ({"p_con": ("a", "b")},
         "p_con range must be a (lo, hi) pair with 0 <= lo <= hi <= 1, got ('a', 'b')"),
        ({"p_con": (False, True)},
         "p_con range must be a (lo, hi) pair with 0 <= lo <= hi <= 1, got (False, True)"),
    ], ids=["unknown_key", "below_0", "scalar", "none", "strings", "booleans"])
    def test_probability_ranges_checked_before_drawing(self, ranges, message):
        # an unknown key was ignored, and a range outside [0, 1] failed or
        # passed by seed
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            generate_synthetic(12, 5, 1.0, prob_ranges=ranges, seed=0)

    def test_unreachable_targets(self):
        # mean 4 on 5 nodes forces regularity; std 3 is impossible
        with pytest.raises(TargetsUnreachable):
            generate_synthetic(5, 4, 3.0, seed=5)

    def test_target_validation(self):
        with pytest.raises(ValidationError):
            generate_synthetic(5, 6.0, 1.0, seed=0)


def degree_sequences(count, seed=0):
    """Seeded degree sequences of n = 1..12 entries in [0, n), in turn the
    degrees of a random graph of density 0.05..0.95 (graphical, with zero
    degrees when sparse), uniform draws (an odd sum in one of two) and
    near-complete ones."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(1, 13))
        if k % 3 == 0:
            upper = np.triu(rng.random((n, n)) < rng.uniform(0.05, 0.95), 1)
            d = (upper | upper.T).sum(axis=0)
        elif k % 3 == 1:
            d = rng.integers(0, n, size=n)
            if k % 2 and d.sum() % 2:
                d[int(np.argmax(d))] -= 1
        else:
            d = np.maximum(0, n - 1 - rng.integers(0, 2, size=n))
        yield [int(v) for v in d]


def neighbours(G):
    return [list(G[u]) for u in G]


class TestGeneratorMatchesNetworkx:
    """netio's Havel-Hakimi construction and double-edge swaps against
    networkx 3.x, the oracle they reproduce."""

    def test_graphicality_neighbour_order_and_exhaustion(self):
        nx = pytest.importorskip("networkx")
        seen = collections.Counter()
        for k, d in enumerate(degree_sequences(2400)):
            seen["zero degree"] += 0 in d
            adj = _havel_hakimi(d)
            assert (adj is not None) == nx.is_graphical(d)
            if adj is None:
                seen["not graphical"] += 1
                continue
            G = nx.havel_hakimi_graph(d)
            assert neighbours(G) == [list(nbrs) for nbrs in adj]
            m = G.number_of_edges()
            if len(d) < 4 and m >= 2:
                # the generator skips the swaps networkx refuses
                with pytest.raises(nx.NetworkXError, match="fewer than four"):
                    nx.double_edge_swap(G, 4 * m, 40 * m + 100, seed=k)
                seen["n < 4"] += 1
            if len(d) < 4 or m < 2:
                continue
            # the generator's caps, or m tries for m swaps (which exhaust sooner)
            nswap, tries = (4 * m, 40 * m + 100) if k % 2 else (m, m)
            try:
                nx.double_edge_swap(G, nswap, tries, seed=k)
                exhausted = False
            except nx.NetworkXAlgorithmError:
                exhausted = True
            assert _double_edge_swap(adj, nswap, tries, k) is not exhausted
            assert neighbours(G) == [list(nbrs) for nbrs in adj]
            seen["exhausted" if exhausted else "swapped"] += 1
        assert min(seen.values()) >= 50, seen

    def test_generator_equals_its_networkx_construction(self, monkeypatch):
        nx = pytest.importorskip("networkx")
        cases = [(40, 18.27, 4.60, s) for s in range(3)] + [
            (40, 4.0, 1.5, 0), (40, 2.0, 2.0, 1), (3, 2.0, 0.0, 0), (4, 2.0, 1.0, 3),
            (5, 4, 0, 2), (5, 4, 3.0, 5), (12, 5.0, 1.0, 3), (30, 28.0, 1.0, 4),
        ]

        def outcome(case):
            n, mean, std, seed = case
            try:
                return network_to_dict(generate_synthetic(n, mean, std, seed=seed))
            except TargetsUnreachable as err:
                return str(err)

        ours = [outcome(case) for case in cases]
        graphs = {}

        def havel_hakimi(d):
            if not nx.is_graphical(d):
                return None
            G = nx.havel_hakimi_graph(d)
            adj = [G[u] for u in G]  # live views: the swaps below show through
            graphs[id(adj)] = G
            return adj

        def double_edge_swap(adj, nswap, max_tries, seed):
            try:
                nx.double_edge_swap(graphs[id(adj)], nswap, max_tries, seed=seed)
            except nx.NetworkXAlgorithmError:
                return False
            return True

        monkeypatch.setattr(netio, "_havel_hakimi", havel_hakimi)
        monkeypatch.setattr(netio, "_double_edge_swap", double_edge_swap)
        assert [outcome(case) for case in cases] == ours
