"""Tests for repro.fitting.pwlr — the piece-wise linear regression."""

import numpy as np
import pytest

from repro.errors import FittingError
from repro.fitting.pwlr import (
    PiecewiseLinearModel,
    PWLRConfig,
    _bounded_brent,
    fit_fixed_breakpoints,
    fit_pwlr,
    nnls,
    refit_slopes,
)
from repro.observability.context import Observability


def pwl_curve(x, breakpoints, slopes, intercept=0.0):
    """Evaluate a continuous PWL curve (reference implementation)."""
    knots = np.concatenate([[0.0], breakpoints, [1.0]])
    y = np.full_like(x, intercept, dtype=float)
    for i, slope in enumerate(slopes):
        lo, hi = knots[i], knots[i + 1]
        y += slope * np.clip(x, lo, hi) - slope * lo
    return y


def normalized_pwl(x, breakpoints, raw_slopes):
    """A PWL curve rescaled to pass through (0,0)-(1,1)."""
    y = pwl_curve(x, np.asarray(breakpoints), np.asarray(raw_slopes))
    end = pwl_curve(np.array([1.0]), np.asarray(breakpoints), np.asarray(raw_slopes))[0]
    return y / end


class TestPiecewiseLinearModel:
    def _model(self):
        return PiecewiseLinearModel(
            breakpoints=np.array([0.25, 0.75]),
            slopes=np.array([2.0, 0.5, 1.0]),
            intercept=0.0,
            sse=0.0,
            n_points=10,
        )

    def test_knots_and_segments(self):
        model = self._model()
        assert np.allclose(model.knots, [0.0, 0.25, 0.75, 1.0])
        assert model.n_segments == 3
        assert model.segments()[1] == (0.25, 0.75, 0.5)

    def test_predict_continuity(self):
        model = self._model()
        eps = 1e-9
        for b in model.breakpoints:
            assert model.predict(b - eps) == pytest.approx(
                model.predict(b + eps), abs=1e-6
            )

    def test_predict_values(self):
        model = self._model()
        assert model.predict(0.0) == pytest.approx(0.0)
        assert model.predict(0.25) == pytest.approx(0.5)
        assert model.predict(0.75) == pytest.approx(0.75)
        assert model.predict(1.0) == pytest.approx(1.0)

    def test_slope_at(self):
        model = self._model()
        assert model.slope_at(0.1) == 2.0
        assert model.slope_at(0.5) == 0.5
        assert model.slope_at(0.9) == 1.0
        assert np.allclose(model.slope_at(np.array([0.1, 0.9])), [2.0, 1.0])

    def test_validation(self):
        with pytest.raises(FittingError):
            PiecewiseLinearModel(
                breakpoints=np.array([0.5, 0.25]),
                slopes=np.ones(3),
                intercept=0.0,
                sse=0.0,
                n_points=1,
            )
        with pytest.raises(FittingError):
            PiecewiseLinearModel(
                breakpoints=np.array([0.5]),
                slopes=np.ones(3),
                intercept=0.0,
                sse=0.0,
                n_points=1,
            )
        with pytest.raises(FittingError):
            PiecewiseLinearModel(
                breakpoints=np.array([1.5]),
                slopes=np.ones(2),
                intercept=0.0,
                sse=0.0,
                n_points=1,
            )


class TestFitFixedBreakpoints:
    def test_exact_recovery_noiseless(self):
        rng = np.random.default_rng(0)
        x = np.sort(rng.uniform(0, 1, 400))
        true_breaks = [0.3, 0.7]
        y = normalized_pwl(x, true_breaks, [3.0, 0.5, 1.5])
        model = fit_fixed_breakpoints(x, y, true_breaks)
        assert model.sse < 1e-12
        assert np.allclose(model.predict(x), y, atol=1e-6)

    def test_monotone_constraint(self):
        rng = np.random.default_rng(1)
        x = np.sort(rng.uniform(0, 1, 300))
        y = normalized_pwl(x, [0.5], [1.0, 0.2]) + rng.normal(0, 0.02, x.size)
        model = fit_fixed_breakpoints(x, y, [0.5], monotone=True)
        assert np.all(model.slopes >= -1e-12)

    def test_anchor_pins_endpoints(self):
        rng = np.random.default_rng(2)
        x = np.sort(rng.uniform(0.2, 0.8, 200))  # no data near the edges
        y = x.copy()
        model = fit_fixed_breakpoints(x, y, [], anchor=True, anchor_weight=10.0)
        assert model.predict(0.0) == pytest.approx(0.0, abs=1e-3)
        assert model.predict(1.0) == pytest.approx(1.0, abs=1e-3)

    def test_no_breakpoints_is_line(self):
        x = np.linspace(0, 1, 50)
        y = 0.3 + 0.4 * x
        model = fit_fixed_breakpoints(x, y, [], anchor=False, monotone=False)
        assert model.n_segments == 1
        assert model.intercept == pytest.approx(0.3, abs=1e-9)
        assert model.slopes[0] == pytest.approx(0.4, abs=1e-9)

    def test_input_validation(self):
        with pytest.raises(FittingError):
            fit_fixed_breakpoints(np.array([0.1]), np.array([0.1]), [])
        with pytest.raises(FittingError):
            fit_fixed_breakpoints(np.linspace(0, 1, 10), np.zeros(9), [])
        with pytest.raises(FittingError):
            fit_fixed_breakpoints(np.linspace(0, 1, 10), np.zeros(10), [1.5])


class TestMonotoneSolver:
    """The small active-set NNLS behind every monotone fit."""

    @staticmethod
    def _active_set_solves(x, y, breaks):
        obs = Observability(collect_rss=False)
        with obs.activate():
            model = fit_fixed_breakpoints(x, y, breaks, monotone=True)
        return model, obs.metrics.snapshot().get("pwlr.nnls_active_set", 0)

    def test_active_set_counts_only_infeasible_solves(self):
        rng = np.random.default_rng(4)
        x = np.sort(rng.uniform(0, 1, 400))
        rising = normalized_pwl(x, [0.4, 0.6], [1.5, 0.3, 1.2])
        model, solves = self._active_set_solves(x, rising, [0.4, 0.6])
        assert solves == 0 and np.all(model.slopes > 0)

        falling = np.interp(x, [0.0, 0.4, 0.6, 1.0], [0.0, 0.6, 0.35, 1.0])
        free = fit_fixed_breakpoints(x, falling, [0.4, 0.6], monotone=False)
        assert free.slopes[1] < 0
        model, solves = self._active_set_solves(x, falling, [0.4, 0.6])
        assert solves == 1
        assert model.slopes[1] == 0.0 and np.all(model.slopes >= 0)
        assert model.sse > free.sse

    def test_matches_scipy_nnls(self):
        from scipy.optimize import nnls as scipy_nnls

        rng = np.random.default_rng(8)
        for _ in range(200):
            k = int(rng.integers(1, 9))
            a = np.triu(rng.normal(size=(k, k))) + np.diag(rng.uniform(0.5, 2, k))
            b = rng.normal(size=k)
            got = nnls(a, b)
            want, want_norm = scipy_nnls(a, b)
            assert np.all(got >= 0)
            assert np.allclose(got, want, rtol=1e-9, atol=1e-12)
            got_norm = np.linalg.norm(a @ got - b)
            assert got_norm == pytest.approx(want_norm, rel=1e-9, abs=1e-12)

    def test_rejects_nonfinite_input(self):
        with pytest.raises(ValueError, match="infs or NaNs"):
            nnls(np.eye(2), np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="infs or NaNs"):
            nnls(np.array([[1.0, np.inf], [0.0, 1.0]]), np.ones(2))


class TestBoundedBrent:
    def test_matches_scipy_bit_for_bit(self):
        """Same ``x``, ``fun`` and evaluation count as scipy's bounded
        method on smooth, multimodal, flat, NaN-returning and
        boundary-minimum objectives."""
        from scipy.optimize import minimize_scalar

        rng = np.random.default_rng(3)
        shapes = [
            lambda c: (lambda v: (v - c) ** 2),
            lambda c: (lambda v: np.sin(9.0 * v + c) + 0.2 * v),
            lambda c: (lambda v: 1.0),
            lambda c: (lambda v: float("nan") if v > c else (v - c) ** 2),
            lambda c: (lambda v: float("nan")),
            lambda c: (lambda v: c * v),
            lambda c: (lambda v: abs(v - c) ** 0.5),
            lambda c: (lambda v: round(v * 7.0) / 7.0 - c),
        ]
        cases = 0
        for draw in range(30):
            lo = float(rng.uniform(-1.0, 0.9))
            hi = lo + float(10.0 ** rng.uniform(-6, 0.5))
            for make in shapes:
                objective = make(float(rng.uniform(lo - 0.5, hi + 0.5)))
                calls = []

                def counted(v, objective=objective, calls=calls):
                    calls.append(v)
                    return objective(v)

                want = minimize_scalar(
                    objective, bounds=(lo, hi), method="bounded",
                    options={"xatol": 1e-5},
                )
                got_x, got_fun = _bounded_brent(counted, lo, hi, xatol=1e-5)
                assert np.float64(got_x).tobytes() == np.float64(want.x).tobytes()
                assert np.float64(got_fun).tobytes() == np.float64(want.fun).tobytes()
                assert len(calls) == want.nfev
                cases += 1
        assert cases >= 200


class TestFitPwlrAuto:
    def test_recovers_breakpoints_noiseless(self):
        rng = np.random.default_rng(3)
        x = np.sort(rng.uniform(0, 1, 800))
        true_breaks = [0.3, 0.7]
        y = normalized_pwl(x, true_breaks, [3.0, 0.5, 1.5])
        model = fit_pwlr(x, y)
        assert model.breakpoints.size == 2
        assert np.allclose(model.breakpoints, true_breaks, atol=0.02)

    def test_recovers_with_noise(self):
        rng = np.random.default_rng(4)
        x = np.sort(rng.uniform(0, 1, 1500))
        true_breaks = [0.2, 0.55, 0.8]
        y = normalized_pwl(x, true_breaks, [2.0, 0.3, 1.2, 3.0])
        y = y + rng.normal(0, 0.005, x.size)
        model = fit_pwlr(x, y)
        assert model.breakpoints.size == 3
        assert np.allclose(np.sort(model.breakpoints), true_breaks, atol=0.03)

    def test_straight_line_gets_no_breakpoints(self):
        rng = np.random.default_rng(5)
        x = np.sort(rng.uniform(0, 1, 600))
        y = x + rng.normal(0, 0.004, x.size)
        model = fit_pwlr(x, y)
        assert model.breakpoints.size == 0

    def test_fine_phase_detected(self):
        # a 4%-wide flat phase in the middle — the "very fine granularity"
        # selling point of the paper
        rng = np.random.default_rng(6)
        x = np.sort(rng.uniform(0, 1, 3000))
        true_breaks = [0.48, 0.52]
        y = normalized_pwl(x, true_breaks, [1.0, 0.02, 1.0])
        y = y + rng.normal(0, 0.002, x.size)
        config = PWLRConfig(min_separation=0.01, min_phase_span=0.01)
        model = fit_pwlr(x, y, config=config)
        assert model.breakpoints.size == 2
        assert np.allclose(np.sort(model.breakpoints), true_breaks, atol=0.015)

    def test_max_breakpoints_respected(self):
        rng = np.random.default_rng(7)
        x = np.sort(rng.uniform(0, 1, 500))
        y = normalized_pwl(x, [0.2, 0.4, 0.6, 0.8], [1, 3, 0.5, 2, 0.8])
        config = PWLRConfig(max_breakpoints=2)
        model = fit_pwlr(x, y, config=config)
        assert model.breakpoints.size <= 2

    def test_too_few_points(self):
        with pytest.raises(FittingError):
            fit_pwlr(np.linspace(0, 1, 4), np.linspace(0, 1, 4))

    def test_config_validation(self):
        with pytest.raises(FittingError):
            PWLRConfig(max_breakpoints=-1)
        with pytest.raises(FittingError):
            PWLRConfig(min_separation=0.6)
        with pytest.raises(FittingError):
            PWLRConfig(anchor_weight=0.0)
        with pytest.raises(FittingError):
            PWLRConfig(min_phase_span=0.7)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        x = np.sort(rng.uniform(0, 1, 400))
        y = normalized_pwl(x, [0.5], [2.0, 0.5]) + rng.normal(0, 0.01, x.size)
        a = fit_pwlr(x, y)
        b = fit_pwlr(x, y)
        assert np.array_equal(a.breakpoints, b.breakpoints)
        assert np.array_equal(a.slopes, b.slopes)


class TestRefitSlopes:
    def test_other_counter_at_shared_breaks(self):
        rng = np.random.default_rng(9)
        x = np.sort(rng.uniform(0, 1, 600))
        pivot_y = normalized_pwl(x, [0.4], [2.0, 0.5])
        other_y = normalized_pwl(x, [0.4], [0.2, 3.0])
        pivot_model = fit_pwlr(x, pivot_y)
        other_model = refit_slopes(x, other_y, pivot_model)
        assert np.array_equal(other_model.breakpoints, pivot_model.breakpoints)
        # slope ordering reversed vs pivot
        assert other_model.slopes[0] < other_model.slopes[1]
