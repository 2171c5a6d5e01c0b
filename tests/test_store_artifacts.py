"""Fingerprinting and the on-disk result store."""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis.pipeline import AnalyzerConfig
from repro.errors import AnalysisError
from repro.observability import Observability
from repro.store import (
    ResultStore,
    analyze_cached,
    fingerprint_trace_file,
    fingerprint_trace_text,
)

FP_A = "a" * 64
FP_B = "b" * 64


class TestFingerprint:
    def test_deterministic(self, multiphase_trace_file):
        config = AnalyzerConfig()
        assert fingerprint_trace_file(
            multiphase_trace_file, config
        ) == fingerprint_trace_file(multiphase_trace_file, config)

    def test_semantic_config_changes_fingerprint(self, multiphase_trace_file):
        base = fingerprint_trace_file(multiphase_trace_file, AnalyzerConfig())
        changed = fingerprint_trace_file(
            multiphase_trace_file, AnalyzerConfig(min_pts=5)
        )
        assert base != changed

    def test_non_semantic_config_ignored(self, multiphase_trace_file):
        base = fingerprint_trace_file(multiphase_trace_file, AnalyzerConfig())
        for variant in (
            AnalyzerConfig(n_jobs=8),
            AnalyzerConfig(profile=False),
            AnalyzerConfig(progress_every=50),
        ):
            assert fingerprint_trace_file(multiphase_trace_file, variant) == base

    def test_salvage_changes_fingerprint(self, multiphase_trace_file):
        config = AnalyzerConfig()
        assert fingerprint_trace_file(
            multiphase_trace_file, config, salvage=True
        ) != fingerprint_trace_file(multiphase_trace_file, config, salvage=False)

    def test_trace_content_changes_fingerprint(self):
        config = AnalyzerConfig()
        assert fingerprint_trace_text("a\n", config) != fingerprint_trace_text(
            "b\n", config
        )

    def test_file_and_text_agree(self, tmp_path):
        path = tmp_path / "t.rpt"
        path.write_text("some trace text\n")
        config = AnalyzerConfig()
        assert fingerprint_trace_file(str(path), config) == fingerprint_trace_text(
            "some trace text\n", config
        )


class TestResultStore:
    def test_put_get_roundtrip(self, tmp_path, multiphase_artifacts):
        store = ResultStore(str(tmp_path / "store"))
        assert not store.has(FP_A)
        path = store.put(FP_A, multiphase_artifacts.result)
        assert os.path.exists(path)
        assert store.has(FP_A)
        restored = store.get(FP_A)
        assert restored.app_name == multiphase_artifacts.result.app_name
        assert len(store) == 1

    def test_meta_listing(self, tmp_path, multiphase_artifacts):
        store = ResultStore(str(tmp_path / "store"))
        store.put(FP_A, multiphase_artifacts.result, meta={"trace_path": "x.rpt"})
        meta = store.get_meta(FP_A)
        assert meta["trace_path"] == "x.rpt"
        assert meta["n_clusters"] == multiphase_artifacts.result.n_clusters_analyzed
        entries = list(store.entries())
        assert len(entries) == 1
        assert entries[0].fingerprint == FP_A
        assert entries[0].short == FP_A[:12]

    def test_malformed_fingerprint_rejected(self, tmp_path):
        store = ResultStore(str(tmp_path))
        with pytest.raises(AnalysisError, match="malformed fingerprint"):
            store.has("nothex")
        with pytest.raises(AnalysisError, match="malformed fingerprint"):
            store.has("Z" * 64)

    def test_get_missing_raises(self, tmp_path):
        store = ResultStore(str(tmp_path))
        with pytest.raises(AnalysisError, match="no stored result"):
            store.get(FP_A)

    def test_corrupt_artifact_raises_but_listing_skips(
        self, tmp_path, multiphase_artifacts
    ):
        store = ResultStore(str(tmp_path / "store"))
        store.put(FP_A, multiphase_artifacts.result)
        bad = os.path.join(str(tmp_path / "store"), "objects", "bb", f"{FP_B}.json")
        os.makedirs(os.path.dirname(bad), exist_ok=True)
        with open(bad, "w") as fh:
            json.dump({"format": "something-else"}, fh)
        with pytest.raises(AnalysisError, match="not a repro-store/1"):
            store.get(FP_B)
        assert [e.fingerprint for e in store.entries()] == [FP_A]

    def test_resolve_prefix(self, tmp_path, multiphase_artifacts):
        store = ResultStore(str(tmp_path / "store"))
        store.put(FP_A, multiphase_artifacts.result)
        store.put(FP_B, multiphase_artifacts.result)
        assert store.resolve("aaaa") == FP_A
        assert store.resolve(FP_B) == FP_B
        with pytest.raises(AnalysisError, match="no stored result matches"):
            store.resolve("cccc")
        with pytest.raises(AnalysisError, match="empty"):
            store.resolve("")

    def test_resolve_ambiguous(self, tmp_path, multiphase_artifacts):
        store = ResultStore(str(tmp_path / "store"))
        store.put("a" * 64, multiphase_artifacts.result)
        store.put("a" * 63 + "b", multiphase_artifacts.result)
        with pytest.raises(AnalysisError, match="ambiguous"):
            store.resolve("aaa")

    def test_put_is_idempotent_bytes(self, tmp_path, multiphase_artifacts):
        store = ResultStore(str(tmp_path / "store"))
        path = store.put(FP_A, multiphase_artifacts.result)
        with open(path) as fh:
            first = json.load(fh)
        store.put(FP_A, multiphase_artifacts.result)
        with open(path) as fh:
            second = json.load(fh)
        assert first["result"] == second["result"]


class TestAnalyzeCached:
    def test_miss_then_hit(self, tmp_path, multiphase_trace_file):
        store = ResultStore(str(tmp_path / "store"))
        obs = Observability()
        with obs.activate():
            cold = analyze_cached(multiphase_trace_file, store)
            warm = analyze_cached(multiphase_trace_file, store)
        assert not cold.cache_hit
        assert warm.cache_hit
        assert warm.fingerprint == cold.fingerprint
        snapshot = obs.metrics.snapshot()
        assert snapshot["store.misses"] == 1
        assert snapshot["store.hits"] == 1
        assert snapshot["store.puts"] == 1

    def test_hit_report_matches_cold_report(self, tmp_path, multiphase_trace_file):
        from repro.analysis.hints import generate_hints
        from repro.analysis.report import render_report

        store = ResultStore(str(tmp_path / "store"))
        cold = analyze_cached(multiphase_trace_file, store)
        warm = analyze_cached(multiphase_trace_file, store)
        assert render_report(
            cold.result, generate_hints(cold.result)
        ) == render_report(warm.result, generate_hints(warm.result))

    def test_previous_format_store_is_not_served(
        self, tmp_path, multiphase_trace_file, monkeypatch
    ):
        """Results stored under ``repro-fp/2`` were fit by the tall scipy
        NNLS; the small-system fit moves their bits, so they miss."""
        import repro.store.fingerprint as fingerprint

        assert fingerprint.FINGERPRINT_FORMAT == "repro-fp/3"
        store = ResultStore(str(tmp_path / "store"))
        with monkeypatch.context() as patch:
            patch.setattr(fingerprint, "FINGERPRINT_FORMAT", "repro-fp/2")
            old = analyze_cached(multiphase_trace_file, store)
        fresh = analyze_cached(multiphase_trace_file, store)
        assert not fresh.cache_hit
        assert fresh.fingerprint != old.fingerprint
        assert len(store) == 2

    def test_config_change_misses(self, tmp_path, multiphase_trace_file):
        store = ResultStore(str(tmp_path / "store"))
        analyze_cached(multiphase_trace_file, store)
        other = analyze_cached(
            multiphase_trace_file, store, config=AnalyzerConfig(min_pts=5)
        )
        assert not other.cache_hit
        assert len(store) == 2
