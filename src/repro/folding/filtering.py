"""Physical-invariant filters on folded samples.

Two invariants hold for exact data and are only violated by measurement
imperfections (counter quantization, clock skew between the sample and the
probes):

1. **Range** — folded coordinates lie in [0, 1].
2. **Per-instance monotonicity** — within one instance, accumulated
   counters are non-decreasing, so folded ``y`` must be non-decreasing in
   ``x`` among samples of the same instance.

Filtering enforces both, reporting what was dropped — the ablation bench
(TAB-5) shows fit quality with these filters disabled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import FoldingError
from repro.folding.fold import FoldedCounter

__all__ = ["FilterReport", "clip_to_unit_range", "enforce_instance_monotonicity"]


@dataclass(frozen=True)
class FilterReport:
    """Outcome of one filter application."""

    filter_name: str
    n_before: int
    n_dropped: int

    @property
    def n_after(self) -> int:
        """Points remaining after the filter."""
        return self.n_before - self.n_dropped

    @property
    def drop_fraction(self) -> float:
        """Fraction of points dropped."""
        return self.n_dropped / self.n_before if self.n_before else 0.0


def clip_to_unit_range(
    folded: FoldedCounter, tolerance: float = 0.02
) -> "tuple[FoldedCounter, FilterReport]":
    """Drop samples outside [0,1] beyond ``tolerance``; clamp the rest.

    Quantization can push a sample a hair outside the unit square; samples
    *far* outside indicate a mismatched instance (e.g. clustering error)
    and are discarded.
    """
    if tolerance < 0:
        raise FoldingError(f"tolerance must be >= 0, got {tolerance}")
    ok = (
        (folded.x >= -tolerance)
        & (folded.x <= 1.0 + tolerance)
        & (folded.y >= -tolerance)
        & (folded.y <= 1.0 + tolerance)
    )
    report = FilterReport(
        filter_name="unit_range",
        n_before=folded.n_points,
        n_dropped=int(np.sum(~ok)),
    )
    kept = folded.replaced(ok)
    np.clip(kept.x, 0.0, 1.0, out=kept.x)
    np.clip(kept.y, 0.0, 1.0, out=kept.y)
    return kept, report


def enforce_instance_monotonicity(
    folded: FoldedCounter, tolerance: float = 1e-9
) -> "tuple[FoldedCounter, FilterReport]":
    """Drop samples breaking within-instance monotonicity.

    For each instance, samples are scanned in ``x`` order keeping a running
    maximum of ``y``; a sample whose ``y`` falls more than ``tolerance``
    below the running maximum is dropped.

    A dropped sample lies below the running maximum, so it never raises
    it: the running maximum at a sample is simply the maximum of *all*
    earlier samples of its instance (NaN ignored, as ``np.fmax`` does).
    That makes the scan one sort plus one segmented cumulative maximum —
    O(n log n) with no per-instance loop.  The scalar scan survives as
    :func:`repro.verify.oracles.oracle_instance_monotonicity`, the
    reference the ``filter`` selftest suite compares against.
    """
    if tolerance < 0:
        raise FoldingError(f"tolerance must be >= 0, got {tolerance}")
    keep = ~_below_running_max(folded.y, folded.instance_ids, tolerance)
    report = FilterReport(
        filter_name="instance_monotonicity",
        n_before=folded.n_points,
        n_dropped=int(np.sum(~keep)),
    )
    return folded.replaced(keep), report


def _below_running_max(
    y: np.ndarray, instance_ids: np.ndarray, tolerance: float
) -> np.ndarray:
    """Mask of samples more than ``tolerance`` below the exclusive running
    maximum of earlier samples (array order) of the same instance."""
    n = y.size
    # Group by instance; the stable sort keeps array (x) order in a group.
    order = np.argsort(instance_ids, kind="stable")
    ids = instance_ids[order]
    ys = y[order]
    group = np.zeros(n, dtype=np.int64)
    np.cumsum(ids[1:] != ids[:-1], out=group[1:])
    # Segmented running max over value ranks: rank 0 is NaN (ignored),
    # 1..n the values ascending.  Offsetting each group by group*(n+1)
    # lets one global cumulative max restart at every group boundary.
    by_value = np.argsort(ys, kind="stable")  # NaNs sort last
    rank = np.empty(n, dtype=np.int64)
    rank[by_value] = np.arange(1, n + 1)
    rank[np.isnan(ys)] = 0
    offset = group * (n + 1)
    best = np.maximum.accumulate(offset + rank) - offset
    # Exclusive: the running max *before* each sample (rank 0 -> -inf).
    before = np.zeros(n, dtype=np.int64)
    same = group[1:] == group[:-1]
    before[1:][same] = best[:-1][same]
    running = np.concatenate(([-np.inf], ys[by_value]))[before]
    below = np.zeros(n, dtype=bool)
    below[order] = ys < running - tolerance
    return below
