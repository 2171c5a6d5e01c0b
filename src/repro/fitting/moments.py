"""Prefix-moment scoring kernel for the PWLR breakpoint search.

The search in :mod:`repro.fitting.pwlr` ranks thousands of candidate
breakpoint configurations per fit.  Evaluating one candidate the direct
way builds an ``n x (k+2)`` design matrix and runs a dense least squares
— O(n * k^2) per candidate.  This module removes the ``n`` from that
cost: the segment-overlap basis column

    B_j(x) = clip(x, lo_j, hi_j) - lo_j

is piece-wise linear in ``x``, so every entry of the normal equations
``(G c = b)`` is a closed form in six weighted moments of the data —
``sum(w)``, ``sum(w*x)``, ``sum(w*x^2)``, ``sum(w*y)``, ``sum(w*x*y)``,
``sum(w*y^2)``.  Prefix sums of those moments over ``x`` sorted
ascending are computed **once** per series; any candidate configuration
then assembles its ``(k+2) x (k+2)`` Gram matrix from O(k) prefix
lookups and solves a tiny system: O(k^3) per candidate, independent of
``n``.  Whole candidate batches are assembled and solved in one
vectorized pass (see :meth:`MomentProfile.evaluate_many`), and a
one-breakpoint move re-derives only the two segments it touches (see
:meth:`MomentProfile.probe`).

Closed forms (segment ``j`` with bounds ``lo < hi``, length ``L``):
``B_j`` is 0 below ``lo``, ``x - lo`` on ``[lo, hi)`` and ``L`` from
``hi`` on, so with mid-range moment sums ``S*`` over ``lo <= x < hi``
and tail sums ``T*`` over ``x >= hi``:

    sum(w B_j)     = (S1 - lo*S0) + L*T0
    sum(w B_j^2)   = (S2 - 2*lo*S1 + lo^2*S0) + L^2*T0
    sum(w B_j y)   = (Sxy - lo*Sy) + L*Ty
    sum(w B_j B_l) = L_j * sum(w B_l)          for j < l

The last line holds because ``B_l > 0`` only where ``x > lo_l >= hi_j``,
where ``B_j`` has saturated to ``L_j``.  The (0,0)/(1,1) anchor
pseudo-points of the pipeline's fit are handled analytically — ``B_j(0)
= 0`` and ``B_j(1) = L_j`` — so the anchored system never materializes
pseudo-rows either.

The data SSE (anchors excluded, exactly what the search ranks by) is the
quadratic form ``Syy - 2 c.b + c.G c``.  That expression suffers
catastrophic cancellation when the fit is nearly interpolating, so
results with ``sse <= sse_floor`` (a small multiple of ``Syy``) or a
failed/non-finite solve are flagged not-OK: the caller re-evaluates
those few configurations with the exact dense path, so wherever the
profile's precision could bend a comparison, the exact evaluator
decides.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import FittingError

__all__ = ["MomentProfile"]

#: Relative (to ``Syy``) floor under which a moments SSE is considered
#: cancellation noise rather than signal.  Roundoff in the quadratic
#: form is a few ULP of ``Syy`` (~1e-16 relative); 1e-9 leaves seven
#: orders of margin while only escaping fits that are essentially
#: interpolating — exactly the regime where exact re-evaluation is cheap
#: to amortize and ranking precision matters most.
_SSE_REL_FLOOR = 1e-9

#: Absolute floor so an identically-zero series (``Syy == 0``) also
#: escapes to the exact path instead of ranking on pure noise.
_SSE_ABS_FLOOR = 1e-300


@functools.lru_cache(maxsize=None)
def _pair_index(n_seg: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays of the slope block: ``min(j, l)`` and ``max(j, l)``
    per entry, and the Gram positions of its diagonal."""
    seg = np.arange(n_seg)
    out = (np.minimum.outer(seg, seg), np.maximum.outer(seg, seg), seg + 1)
    for array in out:
        array.flags.writeable = False
    return out


def _prefix(values: np.ndarray) -> np.ndarray:
    """Length ``n+1`` prefix sums: ``out[i] = sum(values[:i])``."""
    out = np.empty(values.size + 1, dtype=float)
    out[0] = 0.0
    np.cumsum(values, out=out[1:])
    return out


class MomentProfile:
    """Per-series prefix moments + batched normal-equation evaluation.

    Build once per ``(x, y, weights)`` series, then call
    :meth:`evaluate_many` (or :meth:`evaluate_one`) for any number of
    candidate breakpoint configurations.  Input order is irrelevant —
    the constructor sorts by ``x`` (SSE is permutation invariant).

    The solved problem matches ``fit_fixed_breakpoints(..., monotone=
    False)``: unconstrained continuous PWL least squares with optional
    (0,0)/(1,1) anchor pseudo-points of weight ``anchor_weight * n``
    each; the returned SSE is the *data* SSE (anchors excluded).
    """

    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        weights: Optional[np.ndarray] = None,
        anchor: bool = True,
        anchor_weight: float = 0.25,
    ) -> None:
        x = np.asarray(x, dtype=float).ravel()
        y = np.asarray(y, dtype=float).ravel()
        if x.shape != y.shape:
            raise FittingError(
                f"x/y must be equal-length 1-D arrays: {x.shape} vs {y.shape}"
            )
        if x.size < 2:
            raise FittingError(f"need at least 2 points to fit, got {x.size}")
        if weights is None:
            w = np.ones(x.size)
        else:
            w = np.asarray(weights, dtype=float).ravel()
            if w.shape != x.shape:
                raise FittingError(
                    f"weights must match x: {w.shape} vs {x.shape}"
                )
        if x.size > 1 and np.any(np.diff(x) < 0.0):
            order = np.argsort(x, kind="stable")
            x, y, w = x[order], y[order], w[order]

        self.n = int(x.size)
        self.x = x
        wx = w * x
        # Columns: sum(w), sum(w x), sum(w x^2), sum(w y), sum(w x y);
        # one row per prefix length, so a segment's five sums are one
        # row difference.
        self._prefix = np.stack(
            [_prefix(w), _prefix(wx), _prefix(wx * x), _prefix(w * y), _prefix(wx * y)],
            axis=1,
        )
        self._total_w = float(self._prefix[-1, 0])
        self._total_wy = float(self._prefix[-1, 3])
        self.syy = float(np.dot(w * y, y))
        self.anchor_w = float(anchor_weight) * self.n if anchor else 0.0
        self.sse_floor = _SSE_REL_FLOOR * abs(self.syy) + _SSE_ABS_FLOOR

    # ------------------------------------------------------------------
    def evaluate_many(
        self, breakpoints: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Solve every configuration in one batched pass.

        ``breakpoints`` is a ``(C, m)`` array (``m`` may be 0): each row
        holds one candidate's interior breakpoints, sorted ascending and
        strictly inside (0, 1).  Returns ``(coeffs, sse, ok)`` where
        ``coeffs`` is ``(C, m+2)`` — ``coeffs[:, 0]`` the intercepts,
        ``coeffs[:, 1:]`` the per-segment slopes — ``sse`` is the data
        SSE per candidate, and ``ok`` marks rows whose solve is reliable
        (finite, SSE above the cancellation floor).  Rows with ``ok``
        False must be re-evaluated by the exact dense path; their
        ``coeffs``/``sse`` are noise.
        """
        bp = np.asarray(breakpoints, dtype=float)
        if bp.ndim == 1:
            bp = bp.reshape(1, -1)
        n_configs, m = bp.shape
        knots = np.empty((n_configs, m + 2), dtype=float)
        knots[:, 0] = 0.0
        knots[:, -1] = 1.0
        if m:
            knots[:, 1:-1] = bp
        return self._solve_columns(*self._columns(knots))

    def evaluate_one(self, breakpoints) -> Tuple[np.ndarray, float, bool]:
        """Single-configuration convenience wrapper over
        :meth:`evaluate_many`."""
        bp = np.asarray(list(breakpoints), dtype=float).reshape(1, -1)
        coeffs, sse, ok = self.evaluate_many(bp)
        return coeffs[0], float(sse[0]), bool(ok[0])

    def probe(
        self, breakpoints: Sequence[float], index: int
    ) -> Callable[[float], Tuple[float, bool]]:
        """``(sse, ok)`` of ``breakpoints`` as a function of the position
        of ``breakpoints[index]``, the others held fixed.

        Moving one breakpoint changes only the two segments that meet
        there, so each call recomputes those two segments' closed-form
        sums from the prefix arrays (two ``searchsorted`` lookups) and
        re-solves the system through the same assembly as
        :meth:`evaluate_many` — the values are those of a full
        evaluation at the moved configuration.  The position must stay
        strictly between its neighbours (0 and 1 at the ends).
        """
        bp = np.asarray(list(breakpoints), dtype=float)
        knots = np.concatenate([[0.0], bp, [1.0]]).reshape(1, -1)
        columns = self._columns(knots)
        window = knots[:, index : index + 3].copy()
        pair = slice(index, index + 2)

        def at(position: float) -> Tuple[float, bool]:
            window[0, 1] = position
            for full, part in zip(columns, self._columns(window)):
                full[:, pair] = part
            _, sse, ok = self._solve_columns(*columns)
            return float(sse[0]), bool(ok[0])

        return at

    # ------------------------------------------------------------------
    def _columns(
        self, knots: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-segment ingredients of the normal equations for knot rows
        ``(C, m+2)``: segment lengths and the closed-form sums
        ``sum(w B_j)``, ``sum(w B_j^2)`` and ``sum(w B_j y)``, each
        ``(C, m+1)``.  Segment ``j`` depends only on its own two knots."""
        lo = knots[:, :-1]
        seg_len = knots[:, 1:] - lo
        at_knot = self._prefix[np.searchsorted(self.x, knots, side="left")]
        mid = at_knot[:, 1:] - at_knot[:, :-1]
        tail = self._prefix[-1] - at_knot[:, 1:]
        s0, s1, s2, sy, sxy = mid[..., 0], mid[..., 1], mid[..., 2], mid[..., 3], mid[..., 4]
        t0, ty = tail[..., 0], tail[..., 3]
        col_sum = (s1 - lo * s0) + seg_len * t0
        col_sq = (s2 - 2.0 * lo * s1 + lo * lo * s0) + seg_len * seg_len * t0
        col_y = (sxy - lo * sy) + seg_len * ty
        return seg_len, col_sum, col_sq, col_y

    def _solve_columns(
        self,
        seg_len: np.ndarray,
        col_sum: np.ndarray,
        col_sq: np.ndarray,
        col_y: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Assemble the Gram systems from :meth:`_columns` output, solve
        them, and return ``(coeffs, sse, ok)`` as :meth:`evaluate_many`
        documents."""
        n_configs, n_seg = seg_len.shape
        # Data Gram over params [intercept, slope_1 .. slope_{m+1}]; the
        # slope block's (j, l) entry is L_min(j,l) * sum(w B_max(j,l)).
        first, last, diag = _pair_index(n_seg)
        gram = np.empty((n_configs, n_seg + 1, n_seg + 1), dtype=float)
        gram[:, 0, 0] = self._total_w
        gram[:, 0, 1:] = col_sum
        gram[:, 1:, 0] = col_sum
        gram[:, 1:, 1:] = seg_len[:, first] * col_sum[:, last]
        gram[:, diag, diag] = col_sq
        rhs = np.empty((n_configs, n_seg + 1), dtype=float)
        rhs[:, 0] = self._total_wy
        rhs[:, 1:] = col_y

        if self.anchor_w > 0.0:
            # The (1, 1) anchor row is [1, L_1 .. L_{m+1}]; the (0, 0) row
            # only adds to the intercept.
            anchor_row = np.empty((n_configs, n_seg + 1), dtype=float)
            anchor_row[:, 0] = 1.0
            anchor_row[:, 1:] = seg_len
            outer = anchor_row[:, :, None] * anchor_row[:, None, :]
            outer[:, 0, 0] = 2.0
            system = gram + self.anchor_w * outer
            target = rhs + self.anchor_w * anchor_row
        else:
            system, target = gram, rhs

        coeffs = self._solve(system, target)
        gram_c = np.einsum("cij,cj->ci", gram, coeffs)
        sse = self.syy - 2.0 * np.einsum("ci,ci->c", coeffs, rhs) + np.einsum(
            "ci,ci->c", coeffs, gram_c
        )
        ok = np.isfinite(coeffs).all(axis=1) & np.isfinite(sse) & (sse > self.sse_floor)
        return coeffs, sse, ok

    # ------------------------------------------------------------------
    @staticmethod
    def _solve(system: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Batched symmetric solve; singular members degrade to NaN rows
        (flagged not-OK by the caller) instead of failing the batch."""
        try:
            return np.linalg.solve(system, target[..., None])[..., 0]
        except np.linalg.LinAlgError:
            pass
        out = np.empty_like(target)
        for i in range(system.shape[0]):
            try:
                out[i] = np.linalg.solve(system[i], target[i])
            except np.linalg.LinAlgError:
                out[i] = np.nan
        return out
