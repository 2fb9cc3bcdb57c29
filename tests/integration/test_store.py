"""The JSON result store and its drift comparator."""

from __future__ import annotations

import dataclasses
import enum
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import BernoulliEstimate
from repro.experiments.store import (
    compare_results,
    load_results,
    save_jsonl,
    save_results,
    to_jsonable,
)


class TestToJsonable:
    def test_dataclass_roundtrip(self):
        estimate = BernoulliEstimate(successes=3, trials=10)
        data = to_jsonable(estimate)
        assert data == {"successes": 3, "trials": 10, "z": 1.96}

    def test_nested_experiment_rows(self):
        from repro.experiments.table1 import Table1Row

        row = Table1Row(
            protocol="mmr", n=10, f=3, trials=2, terminated=2, agreed=2,
            mean_words=12.5, mean_duration=4.0, mean_rounds=float("nan"),
        )
        data = to_jsonable([row])
        assert data[0]["protocol"] == "mmr"
        assert data[0]["mean_rounds"] is None  # NaN -> null

    def test_tuples_and_sets(self):
        assert to_jsonable((1, 2)) == [1, 2]
        assert to_jsonable({"a": frozenset({2, 1})}) == {"a": [1, 2]}

    def test_infinities_become_null(self):
        assert to_jsonable(math.inf) is None

    def test_opaque_objects_repr(self):
        data = to_jsonable(object())
        assert isinstance(data, str) and "object" in data


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        payload = {"rows": [{"n": 10, "words": 123.5}]}
        path = save_results("demo", payload, tmp_path)
        assert path.exists()
        assert load_results("demo", tmp_path) == payload

    def test_experiment_end_to_end(self, tmp_path):
        from repro.experiments import coin_success

        points = coin_success.run(n=10, f_values=(0,), seeds=range(3))
        save_results("e1", points, tmp_path)
        loaded = load_results("e1", tmp_path)
        assert loaded[0]["n"] == 10
        assert loaded[0]["estimate"]["trials"] == 3


class TestCompare:
    def test_identical_is_clean(self):
        data = {"a": [1, 2.0, "x"], "b": {"c": True}}
        assert compare_results(data, data) == []

    def test_within_tolerance_is_clean(self):
        assert compare_results({"v": 100.0}, {"v": 105.0}, rel_tol=0.1) == []

    def test_beyond_tolerance_reports(self):
        drifts = compare_results({"v": 100.0}, {"v": 150.0}, rel_tol=0.1)
        assert len(drifts) == 1
        assert "$.v" in drifts[0]

    def test_structure_changes_report(self):
        assert compare_results({"a": 1}, {"b": 1})
        assert compare_results([1, 2], [1, 2, 3])
        assert compare_results({"a": True}, {"a": False})

    def test_strings_compare_exactly(self):
        assert compare_results({"s": "yes"}, {"s": "no"})

    def test_bool_not_treated_as_number(self):
        # True == 1 numerically; the store must still flag it.
        assert compare_results({"a": True}, {"a": 1})

    def test_null_vs_number_reports(self):
        assert compare_results({"a": None}, {"a": 1.0})

    def test_golden_baseline_workflow(self, tmp_path):
        from repro.experiments import coin_success

        points = coin_success.run(n=10, f_values=(0,), seeds=range(3))
        save_results("golden", points, tmp_path)
        rerun = coin_success.run(n=10, f_values=(0,), seeds=range(3))
        drifts = compare_results(
            load_results("golden", tmp_path), to_jsonable(rerun)
        )
        assert drifts == []  # deterministic seeds -> no drift


# -- writer equivalence ----------------------------------------------------------
#
# The recording writer's fast paths (exact-type checks in to_jsonable, one
# reused encoder in save_jsonl, cached field names in event_to_record) must
# not change a byte.  The oracles below are the generic versions they
# replaced, kept verbatim.


def oracle_to_jsonable(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: oracle_to_jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(key): oracle_to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        return [oracle_to_jsonable(item) for item in items]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return repr(value)


def oracle_event_to_record(event):
    record = {"k": event.kind}
    for spec in dataclasses.fields(event):
        value = getattr(event, spec.name)
        if spec.name == "payload":
            continue
        if spec.name == "summary":
            record["payload_words"] = value.words
            record["payload_text"] = value.text
            continue
        record[spec.name] = value
    return record


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 2


class Label(str):
    """A str subclass whose repr differs from a plain str's."""

    def __repr__(self):
        return f"Label({str.__repr__(self)})"


@dataclasses.dataclass
class Pair:
    left: object
    right: object


@dataclasses.dataclass(frozen=True)
class DictLike(dict):
    """A dataclass that is also a dict: the dataclass view must win."""

    tag: int = 0


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=5),
    st.binary(max_size=5),
    st.sampled_from(Colour),
    st.text(max_size=5).map(Label),
    st.just(Pair),
)
hashables = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=5),
    st.sampled_from(Colour), st.text(max_size=5).map(Label),
)
keys = st.one_of(
    st.booleans(), st.integers(), st.text(max_size=5),
    st.sampled_from(Colour), st.text(max_size=5).map(Label),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(keys, inner, max_size=4),
        st.sets(hashables, max_size=4),
        st.frozensets(st.frozensets(st.integers(), max_size=3), max_size=3),
        st.builds(Pair, inner, inner),
        st.integers().map(lambda tag: DictLike(tag=tag)),
    ),
    max_leaves=20,
)


class TestWriterEquivalence:
    @settings(max_examples=400, deadline=None)
    @given(values)
    def test_to_jsonable_matches_oracle(self, value):
        # repr, not ==: True == 1 and [1] != (1,) would hide type changes.
        assert repr(to_jsonable(value)) == repr(oracle_to_jsonable(value))

    def test_save_jsonl_matches_json_dumps(self, tmp_path):
        records = [{"b": [1, (2, 3)], "a": float("nan"), "é": "ü"}, {"k": True}]
        path = save_jsonl(tmp_path / "r.jsonl", records)
        assert path.read_text().splitlines() == [
            json.dumps(oracle_to_jsonable(record), sort_keys=True)
            for record in records
        ]

    def test_recording_matches_oracle_writer(self, tmp_path, monkeypatch):
        """A default, profile-on record_run, written both ways.

        The oracle writes the same recorder and result the old way, so
        every line must match -- phase timings included, since both
        writers see one run.
        """
        from repro.experiments import report, store
        from repro.sim import flightrecorder
        from repro.sim.events import DeliverEvent

        oracle_path = tmp_path / "oracle.jsonl"
        written_records = []

        def capture(path, records):
            written_records[:] = records
            return save_jsonl(path, records)

        def save_both(path, recorder, result, protocol=None):
            written = flightrecorder.save_recording(path, recorder, result, protocol)
            events = [
                dataclasses.replace(event, payload=None)
                if type(event) is DeliverEvent
                else event
                for event in recorder.events
            ]
            header, summary = written_records[0], written_records[-1]
            records = [header, *map(oracle_event_to_record, events), summary]
            oracle_path.write_text("".join(
                json.dumps(oracle_to_jsonable(record), sort_keys=True) + "\n"
                for record in records
            ))
            return written

        monkeypatch.setattr(store, "save_jsonl", capture)
        monkeypatch.setattr(report, "save_recording", save_both)
        path, result = report.record_run(tmp_path / "flight.jsonl", n=16, seed=3)
        assert result.metrics.phase_timings  # profile on: timings present
        lines = path.read_text().splitlines()
        assert len(lines) > result.deliveries
        assert lines == oracle_path.read_text().splitlines()
