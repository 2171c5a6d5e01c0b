"""Tests for repro.verify — the differential self-verification harness.

The harness is itself code, so it gets its own tests: the fast suites
must pass end to end, divergences must carry a usable repro command, the
runner must reject unknown suites, and the CLI must expose the whole
thing with correct exit codes.  A deliberately-broken comparison proves
the machinery actually reports (rather than swallows) disagreements.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.cli import main
from repro.errors import VerificationError
from repro.verify import available_suites, run_selftest
from repro.verify.differential import Divergence, _compare_arrays

FAST_SUITES = ["bic", "match", "predict", "eps", "filter"]


class TestRunner:
    def test_fast_suites_pass(self):
        report = run_selftest(seed=0, suites=FAST_SUITES)
        assert report.ok
        assert {s.name for s in report.suites} == set(FAST_SUITES)
        assert all(s.n_cases > 0 for s in report.suites)
        assert report.divergences == []

    def test_unknown_suite_rejected(self):
        with pytest.raises(VerificationError, match="unknown suite"):
            run_selftest(suites=["not_a_suite"])

    def test_all_registered_suites_listed(self):
        names = available_suites()
        # the oracle equivalence suites the issue mandates
        for required in (
            "fold",
            "filter",
            "pwlr_lstsq",
            "predict",
            "bic",
            "match",
            "dbscan_backends",
            "dbscan_oracle",
            "eps",
        ):
            assert required in names
        # metamorphic suites register on package import
        assert any(n.startswith("meta_") for n in names)

    def test_report_serializes(self):
        report = run_selftest(seed=3, suites=["bic"])
        data = report.to_dict()
        assert data["format"] == "repro-selftest/1"
        assert data["seed"] == 3
        json.dumps(data)  # must be plain-JSON serializable
        assert "bic" in report.render()


class TestDivergenceReporting:
    def test_comparison_reports_disagreement(self):
        got = np.array([1.0, 2.0, 3.0])
        want = np.array([1.0, 2.5, 3.0])
        d = _compare_arrays("demo", "case", 7, "values", got, want)
        assert d is not None
        assert d.max_abs_delta == pytest.approx(0.5)
        assert "--suite demo" in d.repro and "--seed 7" in d.repro
        assert "demo" in d.render() and "case" in d.render()

    def test_bit_exact_mode_flags_single_ulp(self):
        want = np.array([1.0])
        got = np.nextafter(want, 2.0)
        d = _compare_arrays("demo", "case", 0, "values", got, want)
        assert d is not None
        assert d.max_ulp_delta == pytest.approx(1.0)

    def test_nan_pairs_agree_in_bit_exact_mode(self):
        arr = np.array([math.nan, 1.0])
        assert _compare_arrays("demo", "case", 0, "v", arr, arr.copy()) is None

    def test_divergence_round_trips_to_dict(self):
        d = Divergence("s", "c", 1, "boom", max_abs_delta=0.25)
        data = d.to_dict()
        assert data["suite"] == "s" and data["max_abs_delta"] == 0.25
        json.dumps(data)


class TestCli:
    def test_selftest_suite_subset_exit_zero(self, capsys):
        assert main(["selftest", "--suite", "bic", "--suite", "match"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_selftest_list(self, capsys):
        assert main(["selftest", "--list"]) == 0
        out = capsys.readouterr().out
        for name in available_suites():
            assert name in out

    def test_selftest_report_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code = main(["selftest", "--suite", "bic", "--report", str(path)])
        assert code == 0
        data = json.loads(path.read_text())
        assert data["format"] == "repro-selftest/1"
        assert data["mode"] == "quick"

    def test_selftest_unknown_suite_fails(self):
        with pytest.raises(VerificationError, match="unknown suite"):
            main(["selftest", "--suite", "nope"])


class TestOracleSpotChecks:
    """The oracles themselves need sanity anchors independent of the
    optimized paths, otherwise a shared misconception passes silently."""

    def test_oracle_predict_known_curve(self):
        from repro.fitting.pwlr import PiecewiseLinearModel
        from repro.verify.oracles import oracle_predict, oracle_slope_at

        model = PiecewiseLinearModel(
            breakpoints=np.array([0.5]),
            slopes=np.array([2.0, 0.0]),
            intercept=0.0,
            sse=0.0,
            n_points=10,
        )
        assert oracle_predict(model, 0.25) == pytest.approx(0.5)
        assert oracle_predict(model, 0.75) == pytest.approx(1.0)
        assert oracle_slope_at(model, 0.75) == 0.0

    def test_oracle_match_known_answer(self):
        from repro.verify.oracles import oracle_match_boundaries

        n, total = oracle_match_boundaries(
            [0.510, 0.530], [0.505, 0.512], 0.02
        )
        assert n == 2
        assert total == pytest.approx(0.005 + 0.018)

    def test_oracle_dbscan_two_blobs(self):
        from repro.verify.oracles import oracle_dbscan

        rng = np.random.default_rng(0)
        pts = np.vstack(
            [rng.normal(0, 0.05, (20, 2)), rng.normal(5, 0.05, (20, 2))]
        )
        labels = oracle_dbscan([list(map(float, p)) for p in pts], 0.5, 4)
        assert sorted(set(labels)) == [0, 1]

    def test_oracle_eps_floor(self):
        from repro.verify.oracles import oracle_estimate_eps

        pts = [[1.0, 2.0]] * 30
        assert oracle_estimate_eps(pts, k=4) == 1e-9
