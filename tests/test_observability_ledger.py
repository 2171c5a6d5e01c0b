"""Run ledger: fsynced appends, torn-tail tolerance, record schema."""

from __future__ import annotations

import json

import numpy
import scipy

from repro.observability import (
    LEDGER_FORMAT,
    Observability,
    RunLedger,
    host_info,
    span,
    stage_table,
)


def _make_ledger(tmp_path) -> RunLedger:
    return RunLedger(str(tmp_path / "store"))


class TestAppendAndRead:
    def test_roundtrip(self, tmp_path):
        ledger = _make_ledger(tmp_path)
        record = ledger.build_record(
            kind="batch", wall_s=1.5,
            stages={"fold": {"calls": 2, "wall_s": 1.0,
                             "self_wall_s": 1.0, "cpu_s": 0.9}},
            metrics={"store.hits": 1},
            config_fingerprint="ab" * 32,
            n_jobs=3,
        )
        ledger.append(record)
        ledger.append(ledger.build_record(
            kind="analyze", wall_s=0.5, stages={}, metrics={},
        ))
        records = ledger.records()
        assert len(records) == len(ledger) == 2
        assert records[0]["kind"] == "batch"
        assert records[0]["n_jobs"] == 3
        assert records[0]["stages"]["fold"]["wall_s"] == 1.0
        assert records[1]["kind"] == "analyze"

    def test_missing_file_is_empty_history(self, tmp_path):
        assert _make_ledger(tmp_path).records() == []

    def test_torn_tail_skipped(self, tmp_path):
        ledger = _make_ledger(tmp_path)
        ledger.append(ledger.build_record("batch", 1.0, {}, {}))
        with open(ledger.path, "a") as fh:
            fh.write('{"format": "repro-telemetry/1", "kind": "bat')
        assert len(ledger.records()) == 1

    def test_garbage_and_foreign_lines_skipped(self, tmp_path):
        ledger = _make_ledger(tmp_path)
        ledger.append(ledger.build_record("batch", 1.0, {}, {}))
        with open(ledger.path, "a") as fh:
            fh.write("not json at all\n")
            fh.write(json.dumps({"format": "other-tool/9"}) + "\n")
            fh.write("[1, 2, 3]\n")
        ledger.append(ledger.build_record("batch", 2.0, {}, {}))
        walls = [r["wall_s"] for r in ledger.records()]
        assert walls == [1.0, 2.0]

    def test_each_line_is_one_json_object(self, tmp_path):
        ledger = _make_ledger(tmp_path)
        for i in range(3):
            ledger.append(ledger.build_record("batch", float(i), {}, {}))
        with open(ledger.path) as fh:
            for line in fh:
                assert json.loads(line)["format"] == LEDGER_FORMAT


class TestRecordSchema:
    def test_required_fields(self, tmp_path):
        record = _make_ledger(tmp_path).build_record(
            "analyze", 0.25, {}, {"pwlr.fits": 2.0},
            config_fingerprint="cd" * 32,
        )
        for key in ("format", "kind", "ts", "host", "config_fingerprint",
                    "wall_s", "stages", "metrics"):
            assert key in record
        assert record["format"] == LEDGER_FORMAT
        assert record["ts"] > 0

    def test_extra_keys_cannot_shadow_schema(self, tmp_path):
        record = _make_ledger(tmp_path).build_record(
            "batch", 1.0, {}, {}, kind_override=False, format="evil",
        )
        assert record["format"] == LEDGER_FORMAT
        assert record["kind_override"] is False

    def test_host_info_shape(self):
        info = host_info()
        assert set(info) == {
            "node", "platform", "python", "pid", "numpy", "scipy", "blas",
            "blas_threads",
        }
        assert isinstance(info["pid"], int)
        assert info["numpy"] == numpy.__version__
        assert info["scipy"] == scipy.__version__
        assert isinstance(info["blas"], str) and info["blas"]
        assert set(info["blas_threads"]) == {
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
        }

    def test_host_info_without_scipy(self, monkeypatch):
        """scipy is read from the package metadata and is optional."""
        from importlib import metadata

        real_version = metadata.version

        def version(name):
            if name == "scipy":
                raise metadata.PackageNotFoundError(name)
            return real_version(name)

        monkeypatch.setattr(metadata, "version", version)
        assert host_info()["scipy"] is None


class TestStageTable:
    def test_none_profile_is_empty(self):
        assert stage_table(None) == {}

    def test_from_live_spans(self):
        obs = Observability()
        with obs.activate():
            with span("outer"):
                with span("inner"):
                    pass
        table = stage_table(obs.profile())
        assert set(table) == {"outer", "inner"}
        assert table["outer"]["calls"] == 1
        assert table["outer"]["wall_s"] >= table["inner"]["wall_s"]
        for row in table.values():
            assert set(row) == {"calls", "wall_s", "self_wall_s", "cpu_s"}
