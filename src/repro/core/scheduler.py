"""Dynamic band-coverage scheduler (Sec. IV of the paper).

The goal: cover the search band ``[omega_min, omega_max]`` of the imaginary
axis with the union of certified convergence disks, processing each shift
with an independent single-shift iteration so that many shifts can run
concurrently on different threads.

State machine (paper notation in parentheses):

* **tentative** segments, each carrying one tentative shift
  (``theta-tilde``, eq. 11/17) — work nobody has claimed yet;
* **processing** segments (``theta-hat``, eq. 12/19) — claimed by a worker;
* **done** records (``theta``, eq. 29) — completed disks.

Rules implemented:

* initialization into ``N = kappa * T`` equal intervals with tentative
  shifts at interval midpoints, except the extreme intervals whose shifts
  sit exactly on the band edges (Sec. IV.A);
* startup ordering: the band extrema are processed first, then interior
  shifts in index order (eq. 13-15, Fig. 3);
* claim rule: a worker receives a *free* tentative segment — one whose
  interval contains no other tentative or processing shift (eq. 20,
  Fig. 4; guaranteed by construction since segments are disjoint and each
  holds exactly one shift);
* completion with a large radius (disk covers the segment): the segment is
  retired and any tentative shifts inside the disk are **eliminated**
  (eq. 24) — the source of superlinear parallel speedup;
* completion with a small radius: the uncovered remainders of the segment
  become new tentative segments with midpoint shifts (eq. 25-28, Fig. 5);
* termination: no tentative and no processing segments left (eq. 29).

Coverage soundness — one deliberate strengthening of the paper: eq. (24)
deletes any tentative shift *covered by* a completed disk, but a disk can
cover a neighbour's shift while leaving part of the neighbour's interval
exposed.  Deleting the shift verbatim would leave that sliver unswept.
This implementation therefore *trims* partially covered tentative segments
to their uncovered remainder (repositioning the shift to the remainder's
midpoint) and deletes them only when fully covered.  The invariant
maintained at every instant is::

    union(done disks) + union(tentative segments) + union(processing
    segments)  >=  [omega_min, omega_max]

so termination certifies full band coverage.

The classical bisection of Fig. 2 is a second shift-placement policy
with the same worker interface, :class:`BisectionPolicy`, so one loop
drives both.

Neither class is thread-safe: the sweep loop of :mod:`repro.core.sweep`
calls them only under the one lock its slots share (the OpenMP
critical-section analogue).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.obs.metrics import get_registry as _metrics
from repro.utils.logging import get_logger
from repro.utils.validation import (
    ensure_nonnegative_float,
    ensure_positive_float,
    ensure_positive_int,
)

__all__ = ["Segment", "DoneDisk", "BandScheduler", "BisectionPolicy"]

_LOG = get_logger("scheduler")


@dataclass
class Segment:
    """One scheduling unit: an interval of the band plus its shift.

    Attributes
    ----------
    index:
        Unique id, increasing in creation order.
    lo, hi:
        Interval bounds ``[I_L, I_U]``.
    center:
        Tentative shift position (``omega``; the complex shift is
        ``j * center``).
    status:
        ``"tentative"``, ``"processing"``, ``"done"``, or ``"eliminated"``.
    """

    index: int
    lo: float
    hi: float
    center: float
    status: str = "tentative"

    @property
    def width(self) -> float:
        """Interval width ``I_U - I_L``."""
        return self.hi - self.lo

    def contains(self, point: float) -> bool:
        """True when ``point`` lies inside the closed interval."""
        return self.lo <= point <= self.hi


@dataclass(frozen=True)
class DoneDisk:
    """A completed convergence disk restricted to the frequency axis."""

    center: float
    radius: float
    segment_index: int


class BandScheduler:
    """Work-queue scheduler implementing the rules of Sec. IV.

    Parameters
    ----------
    omega_min, omega_max:
        Search band (``0 <= omega_min < omega_max``).
    num_threads:
        Expected number of concurrent workers ``T``.
    kappa:
        Initial intervals per worker; ``N = kappa * T`` (>= 2 per paper).
    alpha:
        Initial-radius overlap factor of eq. (23).
    dynamic:
        When ``False`` the cross-segment rules (tentative-shift
        elimination/trimming, eq. 24) are disabled: every initially
        scheduled shift is processed even if an earlier disk already
        covers it, and only each segment's *own* disk shrinks its
        remainder.  This models the static pre-distributed grid the paper
        rejects, and exists for the scheduler ablation benchmark.
    min_width_rel:
        Segments narrower than ``min_width_rel * band_width`` are dropped
        instead of re-scheduled (guard against infinite subdivision).

    Raises
    ------
    ValueError
        On an empty or negative band.
    """

    def __init__(
        self,
        omega_min: float,
        omega_max: float,
        num_threads: int,
        *,
        kappa: int = 2,
        alpha: float = 1.05,
        dynamic: bool = True,
        min_width_rel: float = 1e-12,
    ) -> None:
        omega_min = ensure_nonnegative_float(omega_min, "omega_min")
        omega_max = ensure_positive_float(omega_max, "omega_max")
        num_threads = ensure_positive_int(num_threads, "num_threads")
        kappa = ensure_positive_int(kappa, "kappa")
        if omega_max <= omega_min:
            raise ValueError(
                f"empty band: omega_max ({omega_max}) <= omega_min ({omega_min})"
            )
        if alpha < 1.0:
            raise ValueError(f"alpha must be >= 1, got {alpha}")
        self.omega_min = omega_min
        self.omega_max = omega_max
        self.alpha = float(alpha)
        self.dynamic = bool(dynamic)
        self._min_width = min_width_rel * (omega_max - omega_min)

        self._segments: Dict[int, Segment] = {}
        self._queue: Deque[int] = deque()
        self._done: List[DoneDisk] = []
        self._covered: List[Tuple[float, float]] = []
        self._next_index = 0
        self.eliminated = 0
        self.trimmed = 0

        num_intervals = max(kappa * num_threads, 2)
        width = (omega_max - omega_min) / num_intervals
        indices = []
        for nu in range(num_intervals):
            lo = omega_min + nu * width
            hi = omega_min + (nu + 1) * width
            if nu == 0:
                center = lo
            elif nu == num_intervals - 1:
                center = hi
            else:
                center = 0.5 * (lo + hi)
            indices.append(self._new_segment(lo, hi, center))
        # Startup ordering (eq. 13-15): extrema first, then interior.
        order = [indices[0], indices[-1]] + indices[1:-1]
        self._queue.extend(order)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def band(self) -> Tuple[float, float]:
        """The search band ``[omega_min, omega_max]``."""
        return (self.omega_min, self.omega_max)

    @property
    def done_disks(self) -> List[DoneDisk]:
        """Completed disks, in completion order."""
        return list(self._done)

    def tentative_count(self) -> int:
        """Number of unclaimed tentative segments."""
        return sum(
            1
            for i in self._queue
            if i in self._segments and self._segments[i].status == "tentative"
        )

    def processing_count(self) -> int:
        """Number of segments currently claimed by workers."""
        return sum(1 for s in self._segments.values() if s.status == "processing")

    def is_finished(self) -> bool:
        """Termination test of eq. (29): nothing tentative, nothing running."""
        return self.tentative_count() == 0 and self.processing_count() == 0

    def covered_union(self) -> List[Tuple[float, float]]:
        """Disjoint sorted union of completed disks clipped to the band."""
        return list(self._covered)

    @property
    def min_width(self) -> float:
        """Absolute width below which segments/gaps are considered dust."""
        return self._min_width

    def uncovered(self, *, ignore_dust: bool = False) -> List[Tuple[float, float]]:
        """Portions of the band not yet covered by completed disks.

        With ``ignore_dust=True`` gaps narrower than :attr:`min_width` are
        suppressed (they are below the subdivision guard and cannot be
        scheduled; round-off in the interval arithmetic produces them).
        """
        gaps = self._subtract_covered(self.omega_min, self.omega_max)
        if ignore_dust:
            gaps = [g for g in gaps if g[1] - g[0] > self._min_width]
        return gaps

    # ------------------------------------------------------------------
    # Worker interface
    # ------------------------------------------------------------------
    def next_task(self) -> Optional[Segment]:
        """Claim the next free tentative segment (None when queue empty).

        The returned segment is promoted to the processing state; the
        caller must eventually call :meth:`complete` for it.
        """
        while self._queue:
            index = self._queue.popleft()
            segment = self._segments.get(index)
            if segment is None or segment.status != "tentative":
                continue  # eliminated while queued
            segment.status = "processing"
            _metrics().count("eigensweep.segments_claimed")
            _LOG.debug(
                "claim segment %d [%g, %g] shift %g",
                index,
                segment.lo,
                segment.hi,
                segment.center,
            )
            return segment
        return None

    def initial_radius(self, segment: Segment) -> float:
        """Initial disk radius guess of eq. (23): ``alpha * width / 2``."""
        return self.alpha * 0.5 * max(segment.width, self._min_width)

    def complete(self, segment: Segment, center: float, radius: float) -> None:
        """Record a finished single-shift iteration and update the queues.

        Parameters
        ----------
        segment:
            The segment returned by :meth:`next_task`.
        center:
            Actual shift position used (may carry a tiny nudge relative to
            the segment's tentative center).
        radius:
            Certified disk radius (> 0).
        """
        if segment.status != "processing":
            raise ValueError(
                f"segment {segment.index} is {segment.status!r}, not processing"
            )
        if radius <= 0.0:
            raise ValueError(f"radius must be positive, got {radius}")
        segment.status = "done"
        _metrics().count("eigensweep.segments_completed")
        self._done.append(
            DoneDisk(center=center, radius=radius, segment_index=segment.index)
        )
        lo_cov = center - radius
        hi_cov = center + radius
        self._add_covered(lo_cov, hi_cov)

        # Remainder of the completed segment (eq. 25-28 when the radius
        # shrank; empty when the disk covers the whole interval).
        for piece_lo, piece_hi in self._clip_remainder(segment, lo_cov, hi_cov):
            self._schedule_piece(piece_lo, piece_hi)

        if self.dynamic:
            self._prune_tentative()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _new_segment(self, lo: float, hi: float, center: float) -> int:
        index = self._next_index
        self._next_index += 1
        self._segments[index] = Segment(index=index, lo=lo, hi=hi, center=center)
        return index

    def _schedule_piece(self, lo: float, hi: float) -> None:
        """Queue a new tentative segment with a midpoint shift (eq. 26-27)."""
        if hi - lo <= self._min_width:
            return
        if self.dynamic:
            pieces = self._subtract_covered(lo, hi)
        else:
            pieces = [(lo, hi)]
        for plo, phi in pieces:
            if phi - plo <= self._min_width:
                continue
            index = self._new_segment(plo, phi, 0.5 * (plo + phi))
            self._queue.append(index)
            _LOG.debug("schedule segment %d [%g, %g]", index, plo, phi)

    def _clip_remainder(
        self, segment: Segment, lo_cov: float, hi_cov: float
    ) -> List[Tuple[float, float]]:
        """Parts of ``segment`` outside the disk ``[lo_cov, hi_cov]``."""
        pieces = []
        if lo_cov > segment.lo:
            pieces.append((segment.lo, min(segment.hi, lo_cov)))
        if hi_cov < segment.hi:
            pieces.append((max(segment.lo, hi_cov), segment.hi))
        return pieces

    def _prune_tentative(self) -> None:
        """Eliminate or trim tentative segments overlapped by done disks.

        Implements eq. (24) plus the coverage-preserving trim described in
        the module docstring.
        """
        for index in list(self._queue):
            segment = self._segments.get(index)
            if segment is None or segment.status != "tentative":
                continue
            pieces = self._subtract_covered(segment.lo, segment.hi)
            if len(pieces) == 1 and pieces[0] == (segment.lo, segment.hi):
                continue  # untouched
            # Remove the old segment from play.
            segment.status = "eliminated"
            del self._segments[index]
            kept_any = False
            for plo, phi in pieces:
                if phi - plo <= self._min_width:
                    continue
                new_index = self._new_segment(plo, phi, 0.5 * (plo + phi))
                self._queue.append(new_index)
                kept_any = True
            if kept_any:
                self.trimmed += 1
                _metrics().count("eigensweep.segments_trimmed")
                _LOG.debug("trim segment %d", index)
            else:
                self.eliminated += 1
                _metrics().count("eigensweep.shifts_eliminated")
                _LOG.debug("eliminate segment %d (covered)", index)
        # Compact the queue: drop ids that no longer exist.
        self._queue = deque(
            i
            for i in self._queue
            if i in self._segments and self._segments[i].status == "tentative"
        )

    def _add_covered(self, lo: float, hi: float) -> None:
        """Merge ``[lo, hi]`` (clipped to the band) into the covered union."""
        lo = max(lo, self.omega_min)
        hi = min(hi, self.omega_max)
        if hi <= lo:
            return
        merged: List[Tuple[float, float]] = []
        inserted = False
        for seg_lo, seg_hi in self._covered:
            if seg_hi < lo:
                merged.append((seg_lo, seg_hi))
            elif seg_lo > hi:
                if not inserted:
                    merged.append((lo, hi))
                    inserted = True
                merged.append((seg_lo, seg_hi))
            else:
                lo = min(lo, seg_lo)
                hi = max(hi, seg_hi)
        if not inserted:
            merged.append((lo, hi))
        merged.sort()
        self._covered = merged

    def _subtract_covered(self, lo: float, hi: float) -> List[Tuple[float, float]]:
        """Return the parts of ``[lo, hi]`` not in the covered union."""
        pieces: List[Tuple[float, float]] = []
        cursor = lo
        for seg_lo, seg_hi in self._covered:
            if seg_hi <= cursor:
                continue
            if seg_lo >= hi:
                break
            if seg_lo > cursor:
                pieces.append((cursor, seg_lo))
            cursor = max(cursor, seg_hi)
            if cursor >= hi:
                break
        if cursor < hi:
            pieces.append((cursor, hi))
        return pieces

    def __repr__(self) -> str:
        return (
            f"BandScheduler(band=[{self.omega_min:.4g}, {self.omega_max:.4g}],"
            f" tentative={self.tentative_count()},"
            f" processing={self.processing_count()}, done={len(self._done)},"
            f" eliminated={self.eliminated}, dynamic={self.dynamic})"
        )


#: First segment index of :class:`BisectionPolicy`; its per-segment random
#: streams are keyed by these indices.
BISECTION_FIRST_INDEX = 10_000_000


class BisectionPolicy(BandScheduler):
    """Classical sequential bisection (ref. [9], Fig. 2) as a placement policy.

    The band edges are processed first; afterwards each shift sits at the
    midpoint of the widest uncovered gap (eq. 10), until the completed
    disks cover the band.  Every placement needs the radii of all earlier
    disks, so at most one shift is out at a time.  This is the ``tau_1``
    reference of Table I.

    The inherited scheduler serves only as the coverage tracker: its
    startup queue is discarded, and completed disks shrink no segment.
    """

    def __init__(
        self,
        omega_min: float,
        omega_max: float,
        *,
        kappa: int = 2,
        alpha: float = 1.05,
        min_width_rel: float = 1e-12,
    ) -> None:
        super().__init__(
            omega_min,
            omega_max,
            num_threads=1,
            kappa=kappa,
            alpha=alpha,
            min_width_rel=min_width_rel,
        )
        self._segments.clear()
        self._queue.clear()
        self._next_index = BISECTION_FIRST_INDEX
        # Edge shifts with a radius guess matching the startup grid.
        width = (self.omega_max - self.omega_min) / max(2, 2 * kappa)
        self._pending = [
            (self.omega_min, self.omega_min, self.omega_min + width),
            (self.omega_max, self.omega_max - width, self.omega_max),
        ]
        self._running = False

    def next_task(self) -> Optional[Segment]:
        """The next bisection shift, or None while one runs or when done."""
        if self._running:
            return None
        if not self._pending:
            gaps = self.uncovered(ignore_dust=True)
            if not gaps:
                return None
            lo, hi = max(gaps, key=lambda gap: gap[1] - gap[0])
            self._pending.append((0.5 * (lo + hi), lo, hi))
        center, lo, hi = self._pending.pop(0)
        segment = Segment(self._next_index, lo, hi, center, status="processing")
        self._next_index += 1
        self._running = True
        return segment

    def complete(self, segment: Segment, center: float, radius: float) -> None:
        """Record the finished disk; the next gap is placed on demand."""
        if radius <= 0.0:
            raise ValueError(f"radius must be positive, got {radius}")
        segment.status = "done"
        self._running = False
        self._done.append(
            DoneDisk(center=center, radius=radius, segment_index=segment.index)
        )
        self._add_covered(center - radius, center + radius)

    def is_finished(self) -> bool:
        """Nothing running, no edge pending, no gap wider than the dust."""
        return (
            not self._running
            and not self._pending
            and not self.uncovered(ignore_dust=True)
        )
