"""Moments scoring: property tests, the refinement probe, degenerate
geometries, parity with a dense least-squares ranking, the legacy
``search_kernel`` config key and the batched multi-counter refit."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FittingError
from repro.fitting.moments import MomentProfile
from repro.fitting.pwlr import (
    PWLRConfig,
    _SearchScorer,
    _best_addition,
    _fit_pwlr_impl,
    fit_pwlr,
    refit_slopes,
    refit_slopes_many,
)
from repro.observability.context import Observability
from repro.verify.oracles import oracle_grid_sse


# ----------------------------------------------------------------------
# reference implementation: dense weighted least squares
# ----------------------------------------------------------------------
def dense_reference(x, y, w, breaks, anchor, anchor_weight=0.25):
    """Unconstrained anchored weighted PWL fit the long way; returns the
    weighted *data* SSE (anchors excluded)."""
    n = x.size
    breaks = np.asarray(sorted(breaks), dtype=float)
    if anchor:
        wa = anchor_weight * n
        x_fit = np.concatenate([x, [0.0, 1.0]])
        y_fit = np.concatenate([y, [0.0, 1.0]])
        w_fit = np.concatenate([w, [wa, wa]])
    else:
        x_fit, y_fit, w_fit = x, y, w
    knots = np.concatenate([[0.0], breaks, [1.0]])

    def basis(xs):
        return np.clip(xs[:, None], knots[:-1][None, :], knots[1:][None, :]) - knots[
            :-1
        ][None, :]

    design = np.column_stack([np.ones_like(x_fit), basis(x_fit)])
    sw = np.sqrt(w_fit)
    coeffs, *_ = np.linalg.lstsq(design * sw[:, None], y_fit * sw, rcond=None)
    pred = coeffs[0] + basis(x) @ coeffs[1:]
    return coeffs, float(np.sum(w * (y - pred) ** 2))


@st.composite
def moment_cases(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    n = draw(st.integers(min_value=16, max_value=400))
    k = draw(st.integers(min_value=0, max_value=5))
    anchor = draw(st.booleans())
    weighted = draw(st.booleans())
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 1.0, n))
    y = np.cumsum(rng.uniform(0.0, 0.02, n)) + rng.normal(0.0, 0.05, n)
    w = rng.uniform(0.5, 2.0, n) if weighted else np.ones(n)
    # Well-posed geometries only: every segment must hold at least one
    # sample, otherwise its basis column is constant over the data and
    # the system is legitimately singular (the kernel escapes to exact,
    # which the degenerate-geometry tests below cover).
    breaks = []
    prev = 0.0
    for p in sorted(rng.uniform(0.05, 0.95, k)):
        if (
            p - prev >= 0.05
            and np.any((x >= prev) & (x < p))
            and np.any(x >= p)
        ):
            breaks.append(float(p))
            prev = p
    return x, y, w, breaks, anchor, weighted


class TestMomentProfileMath:
    @given(moment_cases())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_sse_matches_dense_lstsq(self, case):
        """Moments-kernel SSE == dense weighted-lstsq SSE (rtol=1e-9)."""
        x, y, w, breaks, anchor, weighted = case
        profile = MomentProfile(
            x, y, weights=w if weighted else None, anchor=anchor
        )
        coeffs, sse, ok = profile.evaluate_one(breaks)
        ref_coeffs, ref_sse = dense_reference(x, y, w, breaks, anchor)
        assert ok
        assert sse == pytest.approx(ref_sse, rel=1e-9, abs=1e-12)
        assert np.allclose(coeffs, ref_coeffs, rtol=1e-6, atol=1e-8)

    def test_unsorted_input_matches_sorted(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 1.0, 200)
        y = x**2 + rng.normal(0.0, 0.01, 200)
        order = np.argsort(x, kind="stable")
        a = MomentProfile(x, y).evaluate_one([0.4, 0.7])
        b = MomentProfile(x[order], y[order]).evaluate_one([0.4, 0.7])
        assert a[1] == b[1]
        assert np.array_equal(a[0], b[0])

    @given(moment_cases(), st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_probe_matches_full_evaluation(self, case, fraction):
        """Moving one breakpoint through the probe gives bit-for-bit the
        full evaluation of the moved configuration."""
        x, y, w, breaks, anchor, weighted = case
        if not breaks:
            breaks = [0.5]
        profile = MomentProfile(x, y, weights=w if weighted else None, anchor=anchor)
        knots = [0.0] + breaks + [1.0]
        for i in range(len(breaks)):
            at = profile.probe(breaks, i)
            for position in (knots[i] + fraction * (knots[i + 2] - knots[i]), breaks[i]):
                moved = breaks[:i] + [position] + breaks[i + 1 :]
                _, want_sse, want_ok = profile.evaluate_one(moved)
                got_sse, got_ok = at(position)
                assert got_ok == want_ok
                assert np.array_equal(got_sse, want_sse, equal_nan=True)

    def test_near_interpolating_fit_is_flagged_not_ok(self):
        """Noiseless PWL data at its true breakpoints: the quadratic form
        is pure cancellation noise, so the row must escape to exact."""
        x = np.linspace(0.0, 1.0, 240)
        knots = np.array([0.0, 0.4, 1.0])
        slopes = np.array([0.5, 2.0])
        vals = np.concatenate([[0.0], np.cumsum(slopes * np.diff(knots))])
        idx = np.clip(np.searchsorted(knots, x, side="right") - 1, 0, 1)
        y = (vals[idx] + slopes[idx] * (x - knots[idx])) / vals[-1]
        _, sse, ok = MomentProfile(x, y).evaluate_one([0.4])
        assert not ok

    def test_singular_system_is_flagged_not_ok(self):
        """A segment holding no samples (and a shared near-zero span)
        makes the normal equations singular — NaN row, ok False."""
        x = np.concatenate([np.linspace(0.0, 0.4, 100), np.linspace(0.6, 1.0, 100)])
        y = x.copy()
        profile = MomentProfile(x, y, anchor=False)
        _, _, ok = profile.evaluate_many(
            np.array([[0.45, 0.45000000001, 0.55]])
        )
        assert not ok[0]

    def test_input_validation(self):
        with pytest.raises(FittingError):
            MomentProfile(np.array([0.5]), np.array([0.5]))
        with pytest.raises(FittingError):
            MomentProfile(np.linspace(0, 1, 10), np.zeros(9))
        with pytest.raises(FittingError):
            MomentProfile(
                np.linspace(0, 1, 10), np.zeros(10), weights=np.ones(4)
            )


def _dense_fit(x, y, cfg=None):
    """The search with its grid ranked by the dense oracle scorer."""
    cfg = cfg or PWLRConfig()
    dense = functools.partial(
        oracle_grid_sse, x, y, anchor=cfg.anchor, anchor_weight=cfg.anchor_weight
    )
    return _fit_pwlr_impl(x, y, cfg, grid_scorer=dense)


def _assert_same_model(a, b):
    assert np.array_equal(a.breakpoints, b.breakpoints)
    assert np.array_equal(a.slopes, b.slopes)
    assert a.intercept == b.intercept
    assert a.sse == b.sse


class TestKernelSelection:
    def test_config_rejects_unknown_kernel(self):
        """The ranking is not configurable: there is one scoring path."""
        with pytest.raises(TypeError):
            PWLRConfig(search_kernel="fast")


class TestKernelEquivalence:
    @pytest.mark.parametrize("n", [200, 1500])
    def test_kernels_select_identical_models(self, n):
        """Moments ranking and dense per-candidate ranking select the
        same model, below and above the size the removed "auto" kernel
        switched at."""
        rng = np.random.default_rng(7)
        x = np.sort(rng.uniform(0.0, 1.0, n))
        knots = np.array([0.0, 0.3, 0.7, 1.0])
        slopes = np.array([0.5, 2.0, 0.8])
        vals = np.concatenate([[0.0], np.cumsum(slopes * np.diff(knots))])
        idx = np.clip(np.searchsorted(knots, x, side="right") - 1, 0, 2)
        y = vals[idx] + slopes[idx] * (x - knots[idx]) + rng.normal(0, 0.01, n)
        want, _ = _dense_fit(x, y)
        _assert_same_model(fit_pwlr(x, y), want)

    def test_candidate_evaluations_kernel_independent(self):
        rng = np.random.default_rng(11)
        x = np.sort(rng.uniform(0.0, 1.0, 900))
        y = np.minimum(x * 2.0, 0.6 + 0.5 * x) + rng.normal(0, 0.02, 900)
        obs = Observability(collect_rss=False)
        with obs.activate():
            fit_pwlr(x, y)
        _, dense_scorer = _dense_fit(x, y)
        published = obs.metrics.snapshot()["pwlr.candidate_evaluations"]
        assert published == dense_scorer.n_evals > 0

    def test_duplicate_x_matches_dense_ranking(self):
        """Only 30 distinct abscissae for up to 13 parameters: the
        geometry "auto" used to keep off the moments path selects the
        same model as the dense ranking."""
        rng = np.random.default_rng(1)
        x = np.repeat(np.linspace(0.0, 1.0, 30), 20)
        y = x + rng.normal(0, 0.01, x.size)
        want, _ = _dense_fit(x, y)
        _assert_same_model(fit_pwlr(x, y), want)

    def test_nonfinite_input_matches_dense_ranking(self):
        """A NaN sample makes every moments row unreliable: each escapes
        to the dense fit, no breakpoint is selected under either ranking,
        and the final fit rejects the input the same way."""
        x = np.sort(np.random.default_rng(2).uniform(0, 1, 600))
        y = x.copy()
        y[5] = np.nan
        cfg = PWLRConfig()
        grid = np.linspace(cfg.min_separation, 1 - cfg.min_separation, cfg.n_candidates)
        moments_sse = _SearchScorer(x, y, cfg).grid(grid[:, None])
        dense_sse = oracle_grid_sse(x, y, grid[:, None])
        assert np.isnan(moments_sse).all() and np.isnan(dense_sse).all()
        assert _best_addition(lambda c: dense_sse, [], grid, cfg.min_separation) is None
        assert (
            _best_addition(lambda c: moments_sse, [], grid, cfg.min_separation)
            is None
        )
        with pytest.raises(ValueError, match="infs or NaNs"):
            fit_pwlr(x, y)
        with pytest.raises(ValueError, match="infs or NaNs"):
            _dense_fit(x, y)


class TestFingerprintInvariance:
    def test_search_kernel_excluded_from_fingerprint(self):
        """A stored config carrying the legacy key fingerprints like the
        default config."""
        from repro.analysis.pipeline import AnalyzerConfig
        from repro.store.fingerprint import (
            config_fingerprint_dict,
            config_from_dict,
            config_to_dict,
            fingerprint_config,
        )

        for kernel in ("auto", "moments", "exact"):
            data = config_to_dict(AnalyzerConfig())
            data["pwlr"]["search_kernel"] = kernel
            loaded = config_from_dict(data)
            assert fingerprint_config(loaded) == fingerprint_config(AnalyzerConfig())
            assert "search_kernel" not in config_fingerprint_dict(loaded)["pwlr"]

    def test_stored_config_drops_legacy_search_kernel(self, tmp_path):
        """``search_kernel`` in a stored config and in a stream checkpoint
        is accepted and dropped; other unknown PWLR keys still fail."""
        from repro.analysis.pipeline import AnalyzerConfig
        from repro.errors import ConfigurationError
        from repro.store.fingerprint import config_from_dict, config_to_dict
        from repro.stream.checkpoint import resume_engine, save_checkpoint
        from repro.stream.engine import StreamConfig, StreamEngine
        from repro.stream.source import TraceTailSource

        data = config_to_dict(AnalyzerConfig())
        data["pwlr"]["search_kernel"] = "exact"
        assert config_from_dict(data) == AnalyzerConfig()
        data["pwlr"]["not_a_knob"] = 1
        with pytest.raises(ConfigurationError, match="not_a_knob"):
            config_from_dict(data)

        trace = tmp_path / "empty.rpt"
        trace.write_text("")
        engine = StreamEngine(StreamConfig())
        state = engine.state_to_dict()
        state["config"]["analyzer"]["pwlr"]["search_kernel"] = "exact"
        engine.state_to_dict = lambda: state
        source = TraceTailSource(str(trace))
        checkpoint = str(tmp_path / "legacy.ckpt")
        save_checkpoint(checkpoint, engine, source)
        source.close()
        resumed, source = resume_engine(
            checkpoint, str(trace), expected_config=StreamConfig()
        )
        source.close()
        assert resumed.config == StreamConfig()


class TestRefitSlopesMany:
    def _make(self, n=300, n_counters=4, seed=5):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(0.0, 1.0, n))
        ys = [
            np.cumsum(rng.uniform(0.0, 0.02, n)) + rng.normal(0, 0.02, n)
            for _ in range(n_counters)
        ]
        model = fit_pwlr(x, ys[0])
        return x, ys, model

    def test_monotone_batch_bit_identical_to_loop(self):
        x, ys, model = self._make()
        batched = refit_slopes_many(x, ys, model)
        for yy, got in zip(ys, batched):
            want = refit_slopes(x, yy, model)
            assert np.array_equal(got.breakpoints, want.breakpoints)
            assert np.array_equal(got.slopes, want.slopes)
            assert got.intercept == want.intercept
            assert got.sse == want.sse

    def test_unconstrained_batch_matches_loop(self):
        """Both branches solve each counter through the same small
        system, so the unconstrained batch is bit-identical too."""
        x, ys, model = self._make()
        batched = refit_slopes_many(x, ys, model, monotone=False)
        for yy, got in zip(ys, batched):
            want = refit_slopes(x, yy, model, monotone=False)
            assert np.array_equal(got.slopes, want.slopes)
            assert got.intercept == want.intercept
            assert got.sse == want.sse

    def test_counts_one_refit_per_counter(self):
        x, ys, model = self._make(n_counters=3)
        obs = Observability(collect_rss=False)
        with obs.activate():
            refit_slopes_many(x, ys, model)
        snap = obs.metrics.snapshot()
        assert snap["pwlr.refits"] == 3
        assert snap["pwlr.refit_batches"] == 1

    def test_empty_batch_and_validation(self):
        x, ys, model = self._make()
        assert refit_slopes_many(x, [], model) == []
        with pytest.raises(FittingError):
            refit_slopes_many(x, [ys[0][:-1]], model)
