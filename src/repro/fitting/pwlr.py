"""Continuous piece-wise linear regression with breakpoint search.

The model on normalized time x in [0, 1] is::

    y(x) = a + s_1 * len(seg_1 ∩ [0,x]) + ... + s_m * len(seg_m ∩ [0,x])

i.e. continuous, linear within each segment, with per-segment slopes
``s_j`` and interior breakpoints ``b_1 < ... < b_{m-1}``.  Because folded
accumulated counters are non-decreasing and pinned to (0,0)-(1,1), the fit
supports two physically-motivated options used by the default pipeline (and
switched off by the ablation bench):

* **anchoring** — heavy pseudo-observations at (0,0) and (1,1);
* **monotonicity** — slopes constrained >= 0 via NNLS.

Breakpoint *positions* are searched greedily over a candidate grid with
local refinement, and the breakpoint *count* is selected by BIC (see
:mod:`repro.fitting.model_selection`), followed by a merge pass that
removes boundaries between segments with statistically indistinguishable
slopes.

The search ranks thousands of candidate configurations per fit, by SSE
alone: grid candidates in batches through the prefix-moment normal
equations of :mod:`repro.fitting.moments` (O(k^3) per candidate,
independent of the sample count), off-grid refinement through that
profile's one-breakpoint probe.  Configurations whose moment solve is
unreliable are re-scored by the dense unconstrained fit.  Only the
selected breakpoints are fit as a model, through the exact (optionally
NNLS-constrained, anchored) path; the ``pwlr_kernel`` selftest suite
checks the search selects the same models when a dense per-candidate
least-squares scorer ranks the grid instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import FittingError
from repro.fitting import model_selection
from repro.fitting.moments import MomentProfile
from repro.observability.context import counter as _metric_counter
from repro.observability.context import histogram as _metric_histogram
from repro.observability.context import span as _span

__all__ = [
    "PiecewiseLinearModel",
    "PWLRConfig",
    "fit_fixed_breakpoints",
    "fit_pwlr",
    "refit_slopes",
    "refit_slopes_many",
]


def _evaluate_pwl(
    knots: np.ndarray, slopes: np.ndarray, intercept: float, xs: np.ndarray
) -> np.ndarray:
    """Evaluate a continuous PWL curve at ``xs``.

    Single source of the evaluation arithmetic shared by
    :meth:`PiecewiseLinearModel.predict` and the post-fit residual pass
    in :func:`_fit_at_breakpoints` — both must produce bit-identical
    values for the reported data SSE to match a later re-prediction.
    """
    values = intercept + np.concatenate([[0.0], np.cumsum(slopes * np.diff(knots))])
    idx = np.clip(np.searchsorted(knots, xs, side="right") - 1, 0, slopes.size - 1)
    return values[idx] + slopes[idx] * (xs - knots[idx])


@dataclass(frozen=True)
class PiecewiseLinearModel:
    """A fitted continuous piece-wise linear curve on [0, 1].

    ``breakpoints`` are the interior boundaries; ``slopes`` has one entry
    per segment (``len(breakpoints) + 1``).  ``sse``/``n_points`` describe
    the fit on the data it was estimated from.
    """

    breakpoints: np.ndarray
    slopes: np.ndarray
    intercept: float
    sse: float
    n_points: int

    def __post_init__(self) -> None:
        bp = np.asarray(self.breakpoints, dtype=float)
        sl = np.asarray(self.slopes, dtype=float)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "slopes", sl)
        if bp.size and (np.any(bp <= 0.0) or np.any(bp >= 1.0)):
            raise FittingError(f"interior breakpoints must lie in (0,1): {bp}")
        if bp.size > 1 and np.any(np.diff(bp) <= 0):
            raise FittingError(f"breakpoints must be strictly increasing: {bp}")
        if sl.size != bp.size + 1:
            raise FittingError(
                f"{sl.size} slopes for {bp.size} breakpoints (need {bp.size + 1})"
            )
        if self.n_points < 0:
            raise FittingError(f"negative n_points: {self.n_points}")

    # ------------------------------------------------------------------
    @property
    def knots(self) -> np.ndarray:
        """All segment boundaries including 0 and 1."""
        return np.concatenate([[0.0], self.breakpoints, [1.0]])

    @property
    def n_segments(self) -> int:
        """Number of linear segments."""
        return int(self.slopes.size)

    @property
    def segment_lengths(self) -> np.ndarray:
        """Length of each segment on the normalized axis."""
        return np.diff(self.knots)

    def knot_values(self) -> np.ndarray:
        """Model value at each knot (continuity makes this well defined)."""
        return self.intercept + np.concatenate(
            [[0.0], np.cumsum(self.slopes * self.segment_lengths)]
        )

    def predict(self, x) -> np.ndarray:
        """Evaluate the curve at ``x`` (vectorized).

        Evaluation contract (pinned by ``tests/test_property_pwlr.py``
        and the selftest ``predict`` oracle suite):

        - The curve is **continuous everywhere**, including at interior
          breakpoints: segments join at the shared knot value.
        - Segment selection is **right-continuous** — exactly at an
          interior breakpoint ``b_i`` the point belongs to the segment
          *starting* there, so an infinitesimal step to the right stays
          on the same segment (``slope_at`` agrees).
        - Outside ``[0, 1]`` the curve is **extended linearly**, not
          clamped: ``x < 0`` extrapolates the first segment's line and
          ``x > 1`` the last segment's.  ``x == 1.0`` lies on the last
          segment (there is no knot beyond it to switch to).
        - Scalar input returns a Python ``float``; array input returns
          an array of the broadcast shape.
        """
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = _evaluate_pwl(self.knots, self.slopes, self.intercept, xs)
        return out if np.ndim(x) else float(out[0])

    def slope_at(self, x) -> np.ndarray:
        """Segment slope at ``x`` (vectorized).

        Follows the same segment-selection contract as :meth:`predict`:
        **right-continuous** at interior breakpoints (``slope_at(b_i)``
        is the slope of the segment starting at ``b_i``), and clamped to
        the edge segments outside ``[0, 1]`` — ``x <= 0`` reports the
        first slope, ``x >= 1`` the last — matching the linear extension
        :meth:`predict` applies there.  Scalar in, ``float`` out.
        """
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        idx = np.clip(
            np.searchsorted(self.knots, xs, side="right") - 1, 0, self.n_segments - 1
        )
        out = self.slopes[idx]
        return out if np.ndim(x) else float(out[0])

    def segments(self) -> List[Tuple[float, float, float]]:
        """List of ``(x_start, x_end, slope)`` triples."""
        knots = self.knots
        return [
            (float(knots[i]), float(knots[i + 1]), float(self.slopes[i]))
            for i in range(self.n_segments)
        ]


@dataclass(frozen=True)
class PWLRConfig:
    """Knobs of the automatic fit.

    Attributes
    ----------
    max_breakpoints:
        Upper bound on interior breakpoints (phases - 1).
    n_candidates:
        Size of the uniform candidate grid the search works on.
    min_separation:
        Minimum distance between breakpoints (and to the edges); phases
        finer than this are not representable.
    anchor:
        Pin the curve to (0,0) and (1,1) with heavy pseudo-points.
    anchor_weight:
        Weight of each pseudo-point relative to the whole sample.
    monotone:
        Constrain slopes to be >= 0 (accumulated counters cannot shrink).
    bic_patience:
        Keep adding breakpoints this many steps past a BIC worsening
        before giving up (escapes single-step local minima).
    merge_slope_tol:
        After selection, merge adjacent segments whose slopes differ by
        less than this fraction of the mean absolute slope.
    refine_passes:
        Local-refinement sweeps over breakpoint positions per added point.
    min_phase_span:
        Phases narrower than this are considered boundary-blur artifacts
        (instance-to-instance jitter smears each true boundary into a
        knee, which a PWL fit splits with two nearby breakpoints) and are
        merged into their weaker-boundary neighbor by the phase-detection
        stage.
    """

    max_breakpoints: int = 11
    n_candidates: int = 96
    min_separation: float = 0.01
    anchor: bool = True
    anchor_weight: float = 0.25
    monotone: bool = True
    bic_patience: int = 2
    merge_slope_tol: float = 0.12
    refine_passes: int = 2
    min_phase_span: float = 0.02

    def __post_init__(self) -> None:
        if self.max_breakpoints < 0:
            raise FittingError(f"max_breakpoints must be >= 0: {self.max_breakpoints}")
        if self.n_candidates < 2:
            raise FittingError(f"n_candidates must be >= 2: {self.n_candidates}")
        if not 0.0 < self.min_separation < 0.5:
            raise FittingError(f"min_separation must be in (0, 0.5): {self.min_separation}")
        if self.anchor_weight <= 0:
            raise FittingError(f"anchor_weight must be > 0: {self.anchor_weight}")
        if self.bic_patience < 0:
            raise FittingError(f"bic_patience must be >= 0: {self.bic_patience}")
        if self.merge_slope_tol < 0:
            raise FittingError(f"merge_slope_tol must be >= 0: {self.merge_slope_tol}")
        if self.refine_passes < 0:
            raise FittingError(f"refine_passes must be >= 0: {self.refine_passes}")
        if not 0.0 <= self.min_phase_span < 0.5:
            raise FittingError(
                f"min_phase_span must be in [0, 0.5): {self.min_phase_span}"
            )


# ----------------------------------------------------------------------
# fixed-breakpoint fit
# ----------------------------------------------------------------------
def nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``argmin ||a x - b||`` subject to ``x >= 0``, for the small square
    systems of the anchored fit: the unconstrained least-squares solution
    when it is feasible, else the Lawson–Hanson active set (counted by
    ``pwlr.nnls_active_set``).  Non-finite input raises ``ValueError``.
    """
    a = np.asarray_chkfinite(a, dtype=float)
    b = np.asarray_chkfinite(b, dtype=float)
    x = np.linalg.lstsq(a, b, rcond=None)[0]
    if np.all(x >= 0.0):
        return x
    _metric_counter("pwlr.nnls_active_set").inc()
    n = a.shape[1]
    tol = 10.0 * max(a.shape) * np.finfo(float).eps * np.abs(a).max() * np.abs(b).max()
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    for _ in range(3 * n):
        gradient = a.T @ (b - a @ x)
        gradient[passive] = -np.inf
        entering = int(np.argmax(gradient))
        if gradient[entering] <= tol:
            return x
        passive[entering] = True
        while True:
            z = np.zeros(n)
            z[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            blocking = passive & (z <= 0.0)
            if not blocking.any():
                x = z
                break
            # Step from x towards z until the first blocking coefficient
            # reaches zero, and move it to the active set.
            idx = np.flatnonzero(blocking)
            ratios = x[idx] / np.maximum(x[idx] - z[idx], np.finfo(float).tiny)
            stop = idx[np.argmin(ratios)]
            x = x + ratios.min() * (z - x)
            x[stop] = 0.0
            passive &= x > 0.0
            x[~passive] = 0.0
    raise FittingError(f"active-set NNLS did not converge in {3 * n} iterations")


def _fit_at_breakpoints(
    x: np.ndarray,
    ys: Sequence[np.ndarray],
    breakpoints: Sequence[float],
    anchor: bool,
    anchor_weight: float,
    monotone: bool,
) -> List[PiecewiseLinearModel]:
    """Anchored continuous PWL fit of each of ``ys`` at shared breakpoints.

    One thin QR of the sqrt-weighted ``[1 | segment basis]`` design turns
    each target into the (k+2)-square system ``(R, Qᵀy)``: slopes from its
    trailing block (through :func:`nnls` when ``monotone``), the free
    intercept from its first row.  Targets are solved one at a time, so
    none depends on which others share its batch.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise FittingError(f"x must be a 1-D array: {x.shape}")
    targets = [np.asarray(yy, dtype=float) for yy in ys]
    for yy in targets:
        if yy.shape != x.shape:
            raise FittingError(
                f"x/y must be equal-length 1-D arrays: {x.shape} vs {yy.shape}"
            )
    if x.size < 2:
        raise FittingError(f"need at least 2 points to fit, got {x.size}")
    bp = np.sort(np.asarray(breakpoints, dtype=float))
    if bp.size and (bp[0] <= 0.0 or bp[-1] >= 1.0):
        raise FittingError(f"breakpoints must be interior to (0,1): {bp}")

    n = x.size
    if anchor:
        w_anchor = anchor_weight * n
        x_fit = np.concatenate([x, [0.0, 1.0]])
        sqrt_w = np.sqrt(np.concatenate([np.ones(n), [w_anchor, w_anchor]]))
    else:
        x_fit, sqrt_w = x, np.ones(n)
    knots = np.concatenate([[0.0], bp, [1.0]])
    # Column j + 1 is the length of segment j inside [0, x]: its
    # coefficient is that segment's slope, so monotone means slopes >= 0.
    basis = np.clip(x_fit[:, None], knots[:-1], knots[1:]) - knots[:-1]
    design = np.column_stack([np.ones_like(x_fit), basis])
    q, r = np.linalg.qr(design * sqrt_w[:, None])

    out: List[PiecewiseLinearModel] = []
    for yy in targets:
        y_fit = np.concatenate([yy, [0.0, 1.0]]) if anchor else yy
        qty = q.T @ (y_fit * sqrt_w)
        if monotone:
            slopes = nnls(r[1:, 1:], qty[1:])
        else:  # minimum-norm when a segment without samples makes r singular
            slopes = np.linalg.lstsq(r[1:, 1:], qty[1:], rcond=None)[0]
        intercept = float((qty[0] - r[0, 1:] @ slopes) / r[0, 0])
        # The *data* SSE (anchors excluded), so BIC compares models on
        # the same likelihood.
        residuals = yy - _evaluate_pwl(knots, slopes, intercept, x)
        sse = float(residuals @ residuals)
        out.append(PiecewiseLinearModel(bp, slopes, intercept, sse, int(x.size)))
    return out


def fit_fixed_breakpoints(
    x: np.ndarray,
    y: np.ndarray,
    breakpoints: Sequence[float],
    anchor: bool = True,
    anchor_weight: float = 0.25,
    monotone: bool = True,
) -> PiecewiseLinearModel:
    """Least-squares continuous PWL fit with known breakpoints.

    ``anchor_weight`` is the fraction of the total sample weight assigned
    to *each* of the two pseudo-points (0,0) and (1,1).
    """
    return _fit_at_breakpoints(x, [y], breakpoints, anchor, anchor_weight, monotone)[0]


# ----------------------------------------------------------------------
# search scorer
# ----------------------------------------------------------------------

#: Scores a ``(C, m)`` array of sorted breakpoint rows: data SSE per row.
_GridScorer = Callable[[np.ndarray], np.ndarray]


class _SearchScorer:
    """SSE scoring behind the breakpoint search, from one moment profile.

    :meth:`grid` scores candidate batches, :meth:`probe` gives the
    continuous refinement its one-breakpoint objective.  Both re-score
    any configuration the profile flags unreliable (SSE at or below its
    cancellation floor, or non-finite) through the dense unconstrained
    fit, so cancellation noise never decides a comparison.  Evaluation
    and escape counts accumulate here and are flushed once per fit.
    ``grid_scorer`` replaces the grid ranking (the selftests inject a
    dense reference scorer through it).
    """

    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        cfg: "PWLRConfig",
        grid_scorer: Optional[_GridScorer] = None,
    ) -> None:
        self.x = x
        self.y = y
        self.cfg = cfg
        self.n_evals = 0
        self.n_exact_escapes = 0
        self._profile = MomentProfile(
            x, y, anchor=cfg.anchor, anchor_weight=cfg.anchor_weight
        )
        self._grid = grid_scorer or self._moments_sse

    def grid(self, configs: np.ndarray) -> np.ndarray:
        """Data SSE of each ``(C, m)`` configuration row."""
        self.n_evals += len(configs)
        return self._grid(configs)

    def probe(self, breaks: Sequence[float], index: int) -> Callable[[float], float]:
        """Data SSE of ``breaks`` as a function of ``breaks[index]``."""
        at = self._profile.probe(breaks, index)
        others = list(breaks[:index]) + list(breaks[index + 1 :])

        def objective(position: float) -> float:
            self.n_evals += 1
            sse, ok = at(position)
            if ok:
                return sse
            return self._exact_sse(sorted(others + [float(position)]))

        return objective

    def _moments_sse(self, configs: np.ndarray) -> np.ndarray:
        _, sse, ok = self._profile.evaluate_many(configs)
        for row in np.flatnonzero(~ok):
            sse[row] = self._exact_sse(configs[row])
        return sse

    def _exact_sse(self, breaks) -> float:
        self.n_exact_escapes += 1
        return fit_fixed_breakpoints(
            self.x,
            self.y,
            breaks,
            anchor=self.cfg.anchor,
            anchor_weight=self.cfg.anchor_weight,
            monotone=False,
        ).sse


# ----------------------------------------------------------------------
# automatic breakpoint search
# ----------------------------------------------------------------------
def fit_pwlr(
    x: np.ndarray,
    y: np.ndarray,
    config: Optional[PWLRConfig] = None,
) -> PiecewiseLinearModel:
    """Automatic continuous PWL fit: greedy breakpoint insertion + BIC.

    Algorithm:

    1. start from the single-segment fit;
    2. repeatedly add the candidate breakpoint that minimizes SSE, then
       locally refine every breakpoint on the candidate grid;
    3. keep the BIC-best model seen, stopping ``bic_patience`` steps after
       BIC stops improving or at ``max_breakpoints``;
    4. merge adjacent segments with indistinguishable slopes and refit.
    """
    cfg = config or PWLRConfig()
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 8:
        raise FittingError(f"need at least 8 points for the search, got {x.size}")
    with _span("fit_pwlr", n_points=int(x.size)) as rec:
        model, scorer = _fit_pwlr_impl(x, y, cfg)
    _metric_counter("pwlr.fits").inc()
    _metric_counter("pwlr.candidate_evaluations").inc(scorer.n_evals)
    if scorer.n_exact_escapes:
        _metric_counter("pwlr.search_exact_escapes").inc(scorer.n_exact_escapes)
    if rec is not None:
        _metric_histogram("pwlr.fit_seconds").observe(rec.wall_s)
    return model


def _fit_pwlr_impl(
    x: np.ndarray,
    y: np.ndarray,
    cfg: "PWLRConfig",
    grid_scorer: Optional[_GridScorer] = None,
) -> Tuple[PiecewiseLinearModel, _SearchScorer]:
    grid = np.linspace(cfg.min_separation, 1.0 - cfg.min_separation, cfg.n_candidates)
    scorer = _SearchScorer(x, y, cfg, grid_scorer)

    def final_fit(breaks: Sequence[float]) -> PiecewiseLinearModel:
        return fit_fixed_breakpoints(
            x,
            y,
            breaks,
            anchor=cfg.anchor,
            anchor_weight=cfg.anchor_weight,
            monotone=cfg.monotone,
        )

    current: List[float] = []
    sse = float(scorer.grid(np.empty((1, 0)))[0])
    best_breaks: List[float] = []
    best_bic = model_selection.bic(sse, x.size, _n_params(0))
    worsening = 0

    while len(current) < cfg.max_breakpoints:
        addition = _best_addition(scorer.grid, current, grid, cfg.min_separation)
        if addition is None:
            break
        current, sse = addition
        for _ in range(cfg.refine_passes):
            current, sse = _refine_positions(
                scorer.grid, current, sse, grid, cfg.min_separation
            )
        # Refine positions off-grid before judging this k: BIC must compare
        # each breakpoint count at its best achievable positions, not at
        # grid-quantized ones (a sharp knee between grid points otherwise
        # makes k+2 staircases look better than the true k).
        current, refined_sse = _continuous_refine(
            scorer.probe, current, cfg.min_separation, passes=1
        )
        if refined_sse is not None:
            sse = refined_sse
        candidate_bic = model_selection.bic(sse, x.size, _n_params(len(current)))
        if candidate_bic < best_bic:
            best_bic = candidate_bic
            best_breaks = list(current)
            worsening = 0
        else:
            worsening += 1
            if worsening > cfg.bic_patience:
                break

    # Continuous position refinement: the grid quantizes breakpoints, and
    # with sharp knees that quantization splits one true boundary into two
    # neighboring grid points.  A bounded 1-D minimization per breakpoint
    # recovers the exact position (exact on noiseless data).
    best_breaks, _ = _continuous_refine(
        scorer.probe, best_breaks, cfg.min_separation
    )

    best_model = final_fit(best_breaks)
    while True:
        before = best_model.breakpoints.size
        if cfg.merge_slope_tol > 0 and best_model.breakpoints.size:
            merged_breaks = model_selection.merge_insignificant(
                best_model, tol=cfg.merge_slope_tol
            )
            if merged_breaks.size < best_model.breakpoints.size:
                best_model = final_fit(list(merged_breaks))
        if cfg.min_phase_span > 0 and best_model.breakpoints.size:
            cleaned = _drop_narrowest_sliver(best_model, cfg.min_phase_span)
            if cleaned is not None:
                best_model = final_fit(cleaned)
        if best_model.breakpoints.size == before:
            break
    return best_model, scorer


def _n_params(n_breakpoints: int) -> int:
    """Free parameters: intercept + slopes + breakpoint positions."""
    return 1 + (n_breakpoints + 1) + n_breakpoints


def _trial_matrix(others: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """One sorted configuration row per position: ``others`` plus it."""
    rows = np.empty((positions.size, others.size + 1), dtype=float)
    rows[:, :-1] = others
    rows[:, -1] = positions
    rows.sort(axis=1)
    return rows


def _allowed(positions: np.ndarray, others: np.ndarray, min_sep: float) -> np.ndarray:
    """Positions at least ``min_sep`` away from every one of ``others``."""
    close = np.abs(positions[:, None] - others[None, :]) < min_sep
    return positions[~close.any(axis=1)]


def _first_min(sse: np.ndarray) -> Optional[int]:
    """Index of the smallest finite SSE (first wins on ties), or None."""
    ranked = np.where(np.isnan(sse), np.inf, sse)
    best = int(np.argmin(ranked))
    return best if ranked[best] < np.inf else None


def _best_addition(
    score: _GridScorer, current: List[float], grid: np.ndarray, min_sep: float
) -> Optional[Tuple[List[float], float]]:
    """Score every candidate insertion in one batch; return the
    ``(breaks, sse)`` of the best one (first wins on ties)."""
    others = np.asarray(current, dtype=float)
    positions = _allowed(grid, others, min_sep)
    if not positions.size:
        return None
    trials = _trial_matrix(others, positions)
    sse = score(trials)
    best = _first_min(sse)
    if best is None:
        return None
    return trials[best].tolist(), float(sse[best])


def _refine_positions(
    score: _GridScorer,
    current: List[float],
    sse: float,
    grid: np.ndarray,
    min_sep: float,
    window: int = 5,
) -> Tuple[List[float], float]:
    """Coordinate descent on breakpoint positions, ``window`` grid steps
    wide; each breakpoint's window is scored as one batch and its best
    position replaces the incumbent only when it lowers the SSE by more
    than 1e-15."""
    breaks = list(current)
    for i in range(len(breaks)):
        others = np.asarray(breaks[:i] + breaks[i + 1 :], dtype=float)
        anchor_idx = int(np.argmin(np.abs(grid - breaks[i])))
        lo = max(0, anchor_idx - window)
        hi = min(grid.size, anchor_idx + window + 1)
        positions = _allowed(grid[lo:hi], others, min_sep)
        if positions.size:
            trial_sse = score(_trial_matrix(others, positions))
            best = _first_min(trial_sse)
            if best is not None and trial_sse[best] < sse - 1e-15:
                breaks[i] = float(positions[best])
                sse = float(trial_sse[best])
        breaks.sort()
    return breaks, sse


def _continuous_refine(
    probe: Callable[[List[float], int], Callable[[float], float]],
    breaks: List[float],
    min_sep: float,
    passes: int = 2,
    xatol: float = 1e-5,
) -> Tuple[List[float], Optional[float]]:
    """Coordinate descent with continuous (off-grid) breakpoint positions.

    ``probe(breaks, i)`` is the SSE of the whole configuration as a
    function of ``breaks[i]``; at the incumbent position it is the same
    value for every ``i``, so it is computed once up front and carried
    across accepted moves.  Returns the refined breakpoints and their
    SSE (``None`` when no breakpoint had room to move).
    """
    breaks = sorted(float(b) for b in breaks)
    current_sse: Optional[float] = None
    for _ in range(passes):
        for i in range(len(breaks)):
            lo = (breaks[i - 1] + min_sep) if i > 0 else min_sep
            hi = (breaks[i + 1] - min_sep) if i < len(breaks) - 1 else 1.0 - min_sep
            if hi <= lo:
                continue
            objective = probe(breaks, i)
            if current_sse is None:
                current_sse = objective(breaks[i])
            x_best, sse_best = _bounded_brent(objective, lo, hi, xatol=xatol)
            if sse_best <= current_sse:
                breaks[i] = float(x_best)
                current_sse = float(sse_best)
        breaks.sort()
    return breaks, current_sse


def _bounded_brent(
    func: Callable[[float], float],
    lo: float,
    hi: float,
    xatol: float = 1e-5,
    maxiter: int = 500,
) -> Tuple[float, float]:
    """Brent's bounded minimization of ``func`` on ``[lo, hi]``; returns
    ``(x, func(x))``.  A port of scipy's ``minimize_scalar(method=
    "bounded")`` with the same arithmetic and evaluated points, so the
    same result bit for bit (``TestBoundedBrent`` compares the two)."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        parabolic = False
        if abs(e) > tol1:  # try a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                parabolic = True
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (np.sign(xm - xf) + (xm - xf == 0))
        if not parabolic:  # golden-section step
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e

        x = xf + (np.sign(rat) + (rat == 0)) * max(abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            break
    return xf, fx


def _drop_narrowest_sliver(
    model: PiecewiseLinearModel, min_phase_span: float
) -> Optional[List[float]]:
    """Breakpoints after removing the weaker boundary of the narrowest
    too-narrow segment; ``None`` when no segment is below the span floor."""
    breaks = [float(b) for b in model.breakpoints]
    spans = model.segment_lengths
    narrow = np.flatnonzero(spans < min_phase_span)
    if narrow.size == 0:
        return None
    segment = int(narrow[np.argmin(spans[narrow])])
    adjacent = [b for b in (segment - 1, segment) if 0 <= b < len(breaks)]
    scale = float(np.mean(np.abs(model.slopes))) or 1.0

    def strength(boundary_index: int) -> float:
        return abs(
            float(model.slopes[boundary_index + 1] - model.slopes[boundary_index])
        ) / scale

    weakest = min(adjacent, key=strength)
    breaks.pop(weakest)
    return breaks


def refit_slopes(
    x: np.ndarray,
    y: np.ndarray,
    model: PiecewiseLinearModel,
    anchor: bool = True,
    anchor_weight: float = 0.25,
    monotone: bool = True,
) -> PiecewiseLinearModel:
    """Fit a *different counter*'s slopes at ``model``'s breakpoints.

    The pipeline finds breakpoints once on the pivot counter (instructions)
    and re-estimates per-segment slopes for every other counter at those
    shared boundaries, so all metrics describe the same phases.  When
    several counters share the same abscissa, prefer
    :func:`refit_slopes_many`, which builds the design matrix once.
    """
    _metric_counter("pwlr.refits").inc()
    return fit_fixed_breakpoints(
        x,
        y,
        model.breakpoints,
        anchor=anchor,
        anchor_weight=anchor_weight,
        monotone=monotone,
    )


def refit_slopes_many(
    x: np.ndarray,
    ys: Sequence[np.ndarray],
    model: PiecewiseLinearModel,
    anchor: bool = True,
    anchor_weight: float = 0.25,
    monotone: bool = True,
) -> List[PiecewiseLinearModel]:
    """Batched :func:`refit_slopes`: many counters sharing one abscissa.

    The phase pipeline re-estimates *every* counter's slopes at the same
    shared boundaries.  The design (segment basis + anchor rows + weight
    scaling) and its QR factor are built once per batch; each counter is
    then solved on its own through the same small system as
    :func:`refit_slopes`, so the batch is **bit-identical** to the
    per-counter path in both the monotone and the unconstrained case.

    Returns one fitted model per entry of ``ys``, in order.
    """
    models = _fit_at_breakpoints(
        x, ys, model.breakpoints, anchor, anchor_weight, monotone
    )
    if models:
        _metric_counter("pwlr.refits").inc(len(models))
        _metric_counter("pwlr.refit_batches").inc()
    return models
