"""BLAS thread pinning on ``import repro``.

repro parallelises with processes, so importing the package sets the
BLAS/OpenMP thread variables to 1 unless the user already set them.  The
pin only works before numpy loads, so every check runs in a fresh
interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro
from repro import BLAS_THREAD_VARS
from repro.runtime.engine import ExecutionEngine
from repro.runtime.tracer import Tracer, TracerConfig
from repro.store import ResultStore, result_to_json
from repro.trace.writer import write_trace

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _env(**overrides):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(overrides)
    return env


def _threads_after_import(**overrides):
    code = (
        "import json, os, repro; "
        "print(json.dumps({v: os.environ.get(v) for v in repro.BLAS_THREAD_VARS}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=_env(**overrides),
        capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


class TestPin:
    def test_unset_variables_become_one(self):
        assert _threads_after_import() == {v: "1" for v in BLAS_THREAD_VARS}

    def test_user_value_is_kept(self):
        seen = _threads_after_import(OPENBLAS_NUM_THREADS="3", OMP_NUM_THREADS="2")
        assert seen == {
            "OPENBLAS_NUM_THREADS": "3",
            "OMP_NUM_THREADS": "2",
            "MKL_NUM_THREADS": "1",
        }


@pytest.fixture(scope="module")
def cgpop_trace_path(tmp_path_factory, core, small_cgpop_app):
    """A two-kernel trace, so ``--jobs 2`` really uses the worker pool."""
    timeline = ExecutionEngine(core, seed=31).run(small_cgpop_app)
    trace = Tracer(TracerConfig(seed=5)).trace(timeline)
    path = tmp_path_factory.mktemp("blas") / "cgpop.rpt"
    write_trace(trace, str(path))
    return str(path)


class TestCliJobs:
    def _analyze(self, trace_path, store_dir, jobs):
        subprocess.run(
            [sys.executable, "-m", "repro", "-q", "analyze", trace_path,
             "--jobs", str(jobs), "--store", store_dir],
            env=_env(), capture_output=True, text=True, check=True,
        )
        store = ResultStore(store_dir)
        (fingerprint,) = store.fingerprints()
        with open(os.path.join(store_dir, "telemetry", "runs.jsonl")) as handle:
            (record,) = [json.loads(line) for line in handle if line.strip()]
        # --store runs with observability on; the profile holds wall times
        result = json.loads(result_to_json(store.get(fingerprint)))
        assert result.pop("profile") is not None
        return json.dumps(result, sort_keys=True), record

    def test_jobs_2_result_json_equals_jobs_1(self, cgpop_trace_path, tmp_path):
        serial, serial_record = self._analyze(cgpop_trace_path, str(tmp_path / "s1"), 1)
        parallel, _ = self._analyze(cgpop_trace_path, str(tmp_path / "s2"), 2)
        assert parallel == serial
        # the ledger records the pinned setting the run actually had
        assert serial_record["host"]["blas_threads"] == {
            v: "1" for v in BLAS_THREAD_VARS
        }
