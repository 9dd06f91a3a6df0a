"""Turn discrete scan profiles into continuous processed profiles.

Scans arrive sporadically, so a published profile cannot be matched at
arbitrary times as-is. Two constructions close the gap:

* the with-app path pairs consecutive scans into per-AP RSSI ranges, one
  segment per scan pair, each valid until the next scan plus the virus
  lifespan for that slot;
* the infected-area path aggregates a whole survey walk into a single
  min/max range vector valid for the case's stay plus the lifespan.

Their range builders turn a scan batch into the ``_Columns`` the kernel
scores: ``_case_columns`` pairs all rows at once, ``_area_columns`` takes
extremes. The public builders take their segments through ``segments()``.
"""

from __future__ import annotations

import logging
from itertools import compress

import numpy as np

from .model import (
    RSSI_FLOOR,
    InsufficientDataError,
    LifespanSchedule,
    ProcessedProfile,
    ProcessedVector,
    SignalProfile,
    SignalVector,
)
from .similarity import _UNHEARD, _Columns, _ScanBatch

logger = logging.getLogger(__name__)

DEFAULT_MAX_GAP = 600  # seconds between scans above which no segment is built


def build_processed_vector(a: SignalVector, b: SignalVector) -> ProcessedVector:
    """Range vector over the union of two scans' ids.

    Ids seen in both scans get (min, max) of the two readings; ids seen in
    only one get a range opening at the weak-signal floor. Symmetric in its
    arguments.
    """
    ranges: dict = {}
    for sid, rssi in a.readings.items():
        other = b.readings.get(sid)
        if other is None:
            ranges[sid] = (RSSI_FLOOR, rssi)
        else:
            ranges[sid] = (min(rssi, other), max(rssi, other))
    for sid, rssi in b.readings.items():
        if sid not in ranges:
            ranges[sid] = (RSSI_FLOOR, rssi)
    return ProcessedVector(ranges)


def build_case_profile(
    walk: SignalProfile,
    lifespans: LifespanSchedule,
    max_gap: int = DEFAULT_MAX_GAP,
    case_label: str = "",
) -> ProcessedProfile:
    """Processed profile for a confirmed case with the app installed.

    Consecutive scans (A_i at t_i, A_{i+1} at t_{i+1}) form segment i with
    window [t_i, t_{i+1} + lifespan_i]. Pairs further apart than ``max_gap``
    seconds are skipped (device off or carried far away) with a logged note;
    skipping never raises.

    Raises:
        InsufficientDataError: fewer than two scans.
        ValueError: per-segment lifespan list of the wrong length.
    """
    cols = _case_columns(_ScanBatch.from_vectors(walk.vectors), lifespans,
                         max_gap)
    return ProcessedProfile(cols.segments(), case_label)


def _case_columns(scans: _ScanBatch, lifespans: LifespanSchedule,
                  max_gap: int) -> _Columns:
    """build_case_profile's segments over a batch. Per kept pair of rows,
    an id is held when either row heard it; lo is the smaller reading where
    both heard it, else the floor, and hi the larger heard reading."""
    n = len(scans)
    if n < 2:
        raise InsufficientDataError(
            f"need at least 2 scans to build a case profile, got {n}")
    if lifespans.per_segment is not None and len(lifespans.per_segment) != n - 1:
        raise ValueError(
            f"per-segment lifespan list has {len(lifespans.per_segment)} entries, "
            f"profile with {n} scans needs {n - 1}")
    times = scans.times.tolist()  # Python ints: exact gaps at any size
    kept = []
    for i, (t0, t1) in enumerate(zip(times, times[1:])):
        if t1 - t0 > max_gap:
            logger.info("skipping scan pair %d: gap %ds exceeds max_gap %ds",
                        i, t1 - t0, max_gap)
        else:
            kept.append(i)
    rows = np.array(kept, dtype=np.intp)
    # _UNHEARD tops every reading: a pair's min is heard if either is, max if both
    low = np.minimum(scans.rssi[rows], scans.rssi[rows + 1])
    high = np.maximum(scans.rssi[rows], scans.rssi[rows + 1])
    held, both = low != _UNHEARD, high != _UNHEARD
    # the vocabulary's ids that some segment holds, renumbered in order
    used = held.any(axis=0)
    col = (np.cumsum(used, dtype=np.intp) - 1)[np.nonzero(held)[1]]
    return _Columns(list(compress(scans.ids, used)), col,
                    np.where(both, low, RSSI_FLOOR)[held],
                    np.where(both, high, low)[held], held.sum(axis=1),
                    [times[i] for i in kept],
                    [times[i + 1] + lifespans.lifespan_for(i) for i in kept])


def build_area_profile(
    survey: SignalProfile,
    stay_start: int,
    stay_end: int,
    lifespan: int,
    case_label: str = "",
) -> ProcessedProfile:
    """Processed profile for an infected area from a survey walk.

    Every id scanned anywhere in the walk gets the (min, max) of its observed
    RSSIs; ids absent from some scans are not padded with the floor value.
    The single segment is valid from the case's arrival until departure plus
    the lifespan.

    Raises:
        InsufficientDataError: empty survey walk.
        ValueError: stay_start not before stay_end, or negative lifespan.
    """
    if len(survey.vectors) == 0:
        raise InsufficientDataError("survey profile has no scans")
    if stay_start >= stay_end:
        raise ValueError(f"stay window [{stay_start}, {stay_end}] is empty")
    if lifespan < 0:
        raise ValueError("lifespan must be >= 0")
    cols = _area_columns(_ScanBatch.from_vectors(survey.vectors), stay_start,
                         stay_end + lifespan)
    return ProcessedProfile(cols.segments(), case_label)


def _area_columns(scans: _ScanBatch, t_start: int, t_end: int) -> _Columns:
    """build_area_profile's one segment over a batch: every id of the
    vocabulary with the least and the greatest of its readings."""
    # _UNHEARD tops every reading, so a column's min is heard
    lo = scans.rssi.min(axis=0)
    hi = np.where(scans.rssi != _UNHEARD, scans.rssi, RSSI_FLOOR).max(axis=0)
    return _Columns(scans.ids, np.arange(len(scans.ids), dtype=np.intp), lo,
                    hi, [len(scans.ids)], [t_start], [t_end])
