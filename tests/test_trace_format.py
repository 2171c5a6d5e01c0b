"""Tests for repro.trace — records, writer/reader round trips, merge, stats."""

import io

import pytest

from repro.errors import TraceFormatError
from repro.trace.merge import merge_traces
from repro.trace.pcf import EventDictionary
from repro.trace.reader import load_trace_text, read_trace, salvage_trace_text
from repro.trace.records import (
    InstrumentationRecord,
    SampleRecord,
    StateKind,
    StateRecord,
    Trace,
)
from repro.trace.stats import compute_stats
from repro.trace.writer import dump_trace_text, write_trace


def tiny_trace() -> Trace:
    trace = Trace(n_ranks=2, app_name="tiny app", metadata={"k": "v with space"})
    trace.add_state(StateRecord(0, 0.0, 1.0, StateKind.COMPUTE))
    trace.add_state(StateRecord(0, 1.0, 1.5, StateKind.COMM, label="MPI_Allreduce"))
    trace.add_instrumentation(
        InstrumentationRecord(0, 1.0, "comm_enter", "MPI_Allreduce", {"PAPI_TOT_INS": 123.0})
    )
    trace.add_instrumentation(
        InstrumentationRecord(0, 1.5, "comm_exit", "MPI_Allreduce", {"PAPI_TOT_INS": 130.0})
    )
    trace.add_sample(
        SampleRecord(
            1,
            0.25,
            {"PAPI_TOT_INS": 55.5},
            frames=(("main", "a.f90", 10), ("kern", "a.f90", 120)),
        )
    )
    trace.add_sample(SampleRecord(1, 1.25, {"PAPI_TOT_INS": 60.0}, frames=()))
    return trace


class TestRecords:
    def test_state_duration(self):
        assert StateRecord(0, 1.0, 3.0, StateKind.COMPUTE).duration == 2.0

    def test_state_inverted(self):
        with pytest.raises(TraceFormatError):
            StateRecord(0, 3.0, 1.0, StateKind.COMPUTE)

    def test_bad_marker(self):
        with pytest.raises(TraceFormatError):
            InstrumentationRecord(0, 0.0, "probe", "MPI_Send", {})

    def test_negative_counter(self):
        with pytest.raises(TraceFormatError):
            SampleRecord(0, 0.0, {"PAPI_TOT_INS": -1.0})

    def test_sample_leaf_and_in_mpi(self):
        sample = SampleRecord(0, 0.0, {}, frames=(("m", "f", 1),))
        assert sample.leaf_frame == ("m", "f", 1)
        assert not sample.in_mpi
        assert SampleRecord(0, 0.0, {}).in_mpi

    def test_trace_rank_range_enforced(self):
        trace = Trace(n_ranks=1)
        with pytest.raises(TraceFormatError):
            trace.add_state(StateRecord(5, 0.0, 1.0, StateKind.COMPUTE))

    def test_counter_names_order(self):
        trace = tiny_trace()
        assert trace.counter_names() == ["PAPI_TOT_INS"]

    def test_duration(self):
        assert tiny_trace().duration == pytest.approx(1.5)

    def test_sort(self):
        trace = tiny_trace()
        trace.sort()
        times = [s.time for s in trace.samples]
        assert times == sorted(times)


class TestEventDictionary:
    def test_allocation_stable(self):
        d = EventDictionary()
        a = d.counter_id("PAPI_TOT_INS")
        b = d.counter_id("PAPI_TOT_CYC")
        assert d.counter_id("PAPI_TOT_INS") == a
        assert b == a + 1

    def test_reverse_lookup(self):
        d = EventDictionary()
        cid = d.counter_id("PAPI_X")
        assert d.counter_name(cid) == "PAPI_X"
        with pytest.raises(TraceFormatError):
            d.counter_name(999)

    def test_lines_round_trip(self):
        d = EventDictionary()
        d.counter_id("PAPI_A")
        d.state_id("compute")
        d2 = EventDictionary.from_lines(d.to_lines())
        assert d2.counter_ids == d.counter_ids
        assert d2.state_ids == d.state_ids

    def test_malformed_lines(self):
        with pytest.raises(TraceFormatError):
            EventDictionary.from_lines(["[counters]", "notanint name"])
        with pytest.raises(TraceFormatError):
            EventDictionary.from_lines(["5 orphan"])


def _first_match(ids, ident):
    """The linear reverse scan the O(1) maps replace."""
    for name, known in ids.items():
        if known == ident:
            return name
    return None


class TestEventDictionaryReverseMaps:
    """Reverse lookups are dict lookups but keep first-match semantics."""

    DICT = [
        "[counters]",
        "42000000 PAPI_A",
        "42000001 PAPI_B",
        "42000000 PAPI_DUP",  # duplicate id: PAPI_A still wins
        "42000005 PAPI_B",  # PAPI_B redefined: 42000001 becomes unknown
        "[states]",
        "1 compute",
        "1 shadow",
        "2 comm",
    ]

    def _assert_matches_scan(self, d):
        for ident in set(d.counter_ids.values()) | {42000001, 7}:
            want = _first_match(d.counter_ids, ident)
            if want is None:
                with pytest.raises(TraceFormatError, match="not in event dictionary"):
                    d.counter_name(ident)
            else:
                assert d.counter_name(ident) == want
        for ident in set(d.state_ids.values()) | {99}:
            want = _first_match(d.state_ids, ident)
            if want is None:
                with pytest.raises(TraceFormatError):
                    d.state_name(ident)
            else:
                assert d.state_name(ident) == want

    def test_duplicate_ids_and_redefinition(self):
        d = EventDictionary.from_lines(self.DICT)
        assert d.counter_name(42000000) == "PAPI_A"
        assert d.counter_name(42000005) == "PAPI_B"
        assert d.state_name(1) == "compute"
        self._assert_matches_scan(d)

    def test_allocation_after_lookup_is_visible(self):
        d = EventDictionary.from_lines(self.DICT)
        assert d.counter_name(42000000) == "PAPI_A"
        fresh = d.counter_id("PAPI_NEW")
        assert d.counter_name(fresh) == "PAPI_NEW"
        sid = d.state_id("idle")
        assert d.state_name(sid) == "idle"
        self._assert_matches_scan(d)

    def test_reverse_maps_do_not_affect_equality(self):
        a = EventDictionary.from_lines(self.DICT)
        b = EventDictionary.from_lines(self.DICT)
        a.counter_name(42000000)
        assert a == b

    def _trace_text(self, dict_lines, records):
        return "\n".join(
            ["#REPRO-TRACE v1", "app t", "ranks 1", "[dict]", *dict_lines,
             "[records]", *records]
        ) + "\n"

    def test_salvage_dictionary_path(self):
        # A malformed dictionary line is dropped; the rest (duplicate id
        # and redefinition included) resolves exactly as the scan would.
        text = self._trace_text(
            self.DICT[:3] + ["garbage"] + self.DICT[3:],
            [
                "P 0 0.5 42000000=1.0,42000005=2.0 -",
                "P 0 0.6 42000001=3.0 -",
                "S 0 0.0 1.0 1 -",
            ],
        )
        trace, report = salvage_trace_text(text)
        d = EventDictionary.from_lines(self.DICT)
        assert [dict(s.counters) for s in trace.samples] == [
            {_first_match(d.counter_ids, 42000000): 1.0,
             _first_match(d.counter_ids, 42000005): 2.0}
        ]
        assert [s.kind.value for s in trace.states] == ["compute"]
        assert report.reasons == {"dictionary": 1, "unknown-id": 1}

    def test_unknown_id_strict_raises_with_reason(self):
        text = self._trace_text(self.DICT, ["P 0 0.6 42000001=3.0 -"])
        with pytest.raises(TraceFormatError, match="not in event dictionary") as info:
            load_trace_text(text)
        assert info.value.reason == "unknown-id"
        text = self._trace_text(self.DICT, ["S 0 0.0 1.0 9 -"])
        with pytest.raises(TraceFormatError) as info:
            load_trace_text(text)
        assert info.value.reason == "unknown-id"


class TestRoundTrip:
    def test_exact_round_trip(self):
        trace = tiny_trace()
        text = dump_trace_text(trace)
        back = load_trace_text(text)
        assert back.app_name == trace.app_name
        assert back.n_ranks == trace.n_ranks
        assert back.metadata == trace.metadata
        assert back.states == trace.states
        assert back.instrumentation == trace.instrumentation
        assert back.samples == trace.samples

    def test_file_round_trip(self, tmp_path):
        trace = tiny_trace()
        path = str(tmp_path / "trace.rpt")
        write_trace(trace, path)
        back = read_trace(path)
        assert back.samples == trace.samples

    def test_stream_round_trip(self):
        trace = tiny_trace()
        buffer = io.StringIO()
        write_trace(trace, buffer)
        buffer.seek(0)
        assert read_trace(buffer).states == trace.states

    def test_real_trace_round_trip(self, multiphase_trace):
        text = dump_trace_text(multiphase_trace)
        back = load_trace_text(text)
        assert back.states == multiphase_trace.states
        assert back.instrumentation == multiphase_trace.instrumentation
        assert back.samples == multiphase_trace.samples

    def test_missing_header(self):
        with pytest.raises(TraceFormatError, match="header"):
            load_trace_text("not a trace\n")

    def test_empty_file(self):
        with pytest.raises(TraceFormatError):
            load_trace_text("")

    def test_missing_ranks(self):
        with pytest.raises(TraceFormatError, match="ranks"):
            load_trace_text("#REPRO-TRACE v1\napp x\n[dict]\n[records]\n")

    def test_unknown_record_tag(self):
        text = "#REPRO-TRACE v1\nranks 1\n[dict]\n[records]\nZ 0 1 2\n"
        with pytest.raises(TraceFormatError):
            load_trace_text(text)

    def test_malformed_counter_item(self):
        text = (
            "#REPRO-TRACE v1\nranks 1\n[dict]\n[counters]\n42000000 PAPI_X\n"
            "[records]\nP 0 0.5 brokenitem -\n"
        )
        with pytest.raises(TraceFormatError):
            load_trace_text(text)

    def test_unknown_counter_id(self):
        text = (
            "#REPRO-TRACE v1\nranks 1\n[dict]\n[records]\nP 0 0.5 99=1.0 -\n"
        )
        with pytest.raises(TraceFormatError):
            load_trace_text(text)


class TestMerge:
    def test_merge_rebases_ranks(self):
        a, b = tiny_trace(), tiny_trace()
        merged = merge_traces([a, b])
        assert merged.n_ranks == 4
        ranks = {s.rank for s in merged.samples}
        assert ranks == {1, 3}

    def test_merge_vocabulary_mismatch(self):
        a = tiny_trace()
        b = Trace(n_ranks=1)
        b.add_sample(SampleRecord(0, 0.0, {"PAPI_OTHER": 1.0}))
        with pytest.raises(TraceFormatError, match="vocabulary"):
            merge_traces([a, b])

    def test_merge_empty_list(self):
        with pytest.raises(TraceFormatError):
            merge_traces([])

    def test_merge_sorted(self):
        merged = merge_traces([tiny_trace(), tiny_trace()])
        times = [s.time for s in merged.samples]
        assert times == sorted(times)


class TestStats:
    def test_stats_of_real_trace(self, multiphase_trace):
        stats = compute_stats(multiphase_trace)
        assert stats.n_ranks == multiphase_trace.n_ranks
        assert 0.5 < stats.compute_fraction < 1.0
        assert stats.mean_sample_period == pytest.approx(0.02, rel=0.15)
        assert 0.9 < stats.parallel_efficiency <= 1.0
        assert 0 <= stats.samples_in_mpi_fraction < 0.2

    def test_empty_trace_rejected(self):
        with pytest.raises(TraceFormatError):
            compute_stats(Trace(n_ranks=1))

    def test_compute_fraction_zero_when_no_states(self):
        trace = Trace(n_ranks=1)
        trace.add_sample(SampleRecord(0, 0.0, {"PAPI_TOT_INS": 1.0}))
        stats = compute_stats(trace)
        assert stats.compute_fraction == 0.0
