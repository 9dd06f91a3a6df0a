"""Signal similarity metrics.

The contact-decision statistic compares one scan against one processed range
vector: the id overlap ratio O (shared ids over the smaller id set) divided by
one plus the mean out-of-range RSSI distance D of the shared ids. It lands in
[0, 1]; 1 means every shared RSSI sits inside its range and the smaller id set
is fully covered.

Jaccard, average Manhattan distance (AMD) and average Euclidean distance (AED)
are the scan-to-scan baselines used for comparison; AMD/AED fill ids missing
on one side with the -100 dBm floor and divide by the union's size. They
score one pair, the reference for ``evaluation._baseline_scores``.

signal_similarity() scores one pair and is the reference arithmetic;
_score_columns(), the one kernel, scores many scans against many segments at
once with numpy, in bit-identical floats, each scan only against the
segments whose validity window contains its time, and applies detection's
first-match rule. It owns both of its input formats: scans as one
``_ScanBatch`` (times and a dense scan x id RSSI block), the package's one
inner scan form, and segments as one ``_Columns``, the one segment form
that modules pass each other. Both convert both ways (``from_vectors`` and
``vectors()``, ``from_segments`` and ``segments()``). It maps the segment ids
to the batch's columns once, one lookup per id, and reads each pair from the
batch's own block. The studies hand it simulated batches and case and area
segments built from one; detection builds a batch from the one time slice
of dict scans a window may contain, and ``evaluation.record_score`` from
its one dict scan.
"""

from __future__ import annotations

import functools
import math
from itertools import chain, count, islice, repeat
from typing import Iterable, Sequence

import numpy as np

from .model import (RSSI_FLOOR, ProcessedVector, ProfileSegment, SignalId,
                    SignalVector)

_CELLS = 1 << 16  # bound on the cells of each _score_columns() temporary

_UNHEARD = 1  # no clamped RSSI is positive, so this marks an id not in the scan


def overlap_ratio(a: SignalVector, p: ProcessedVector) -> float:
    """|shared ids| / min(|a.ids|, |p.ids|); 0 if either side is empty."""
    if not a.readings or not p.ranges:
        return 0.0
    shared = a.ids & p.ids
    return len(shared) / min(len(a.readings), len(p.ranges))


def rssi_difference(a: SignalVector, p: ProcessedVector) -> float | None:
    """Mean out-of-range distance of shared ids' RSSIs.

    A reading inside its range contributes 0; below the range it contributes
    (min - rssi); above, (rssi - max). Returns None when no ids are shared
    (callers map that to zero similarity).
    """
    shared = a.ids & p.ids
    if not shared:
        return None
    total = 0
    for sid in shared:
        rssi = a.readings[sid]
        lo, hi = p.ranges[sid]
        if rssi < lo:
            total += lo - rssi
        elif rssi > hi:
            total += rssi - hi
    return total / len(shared)


def signal_similarity(a: SignalVector, p: ProcessedVector) -> float:
    """Contact-decision similarity O / (D + 1) in [0, 1]; 0 for disjoint ids."""
    d = rssi_difference(a, p)
    if d is None:
        return 0.0
    return overlap_ratio(a, p) / (d + 1.0)


def _times(values: Iterable[int]) -> np.ndarray:
    """Times as int64, or as Python ints when one does not fit int64 (a
    profile file may carry any integer), so comparisons stay exact."""
    values = list(values)
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


class _ScanBatch:
    """Scans in columns: ``times`` (one per scan, see _times), ``ids`` (the
    sorted vocabulary: exactly the ids the scans hold) and ``rssi``, a dense
    int16 (scan x id) block with _UNHEARD where a scan lacks the id."""

    __slots__ = ("times", "ids", "rssi")

    def __init__(self, times: np.ndarray, ids: list[bytes], rssi: np.ndarray):
        self.times, self.ids, self.rssi = times, ids, rssi

    def __len__(self) -> int:
        return len(self.times)

    @classmethod
    def from_vectors(cls, vectors: Sequence[SignalVector]) -> "_ScanBatch":
        """The scans of ``vectors``, in their order."""
        readings = [vec.readings for vec in vectors]
        ids = sorted(set().union(*readings))
        column = dict(zip(ids, count()))
        cols = list(map(column.__getitem__, chain.from_iterable(readings)))
        rssi = np.full((len(readings), len(ids)), _UNHEARD, dtype=np.int16)
        rows = np.repeat(np.arange(len(readings)), list(map(len, readings)))
        rssi[rows, cols] = np.fromiter(
            chain.from_iterable(r.values() for r in readings), dtype=np.int16,
            count=len(cols))
        return cls(_times(vec.timestamp for vec in vectors), ids, rssi)

    def vectors(self) -> list[SignalVector]:
        """Each scan as a SignalVector, its ids in id order."""
        heard = self.rssi != _UNHEARD
        # row-major: scan by scan, each scan's ids in column order
        ids = np.array(self.ids, dtype=object)[np.nonzero(heard)[1]]
        readings = zip(ids.tolist(), self.rssi[heard].tolist())
        return [SignalVector._trusted(dict(islice(readings, n)), t)
                for n, t in zip(heard.sum(axis=1).tolist(), self.times.tolist())]


@functools.cache
def _range_pair(lo: int, hi: int) -> tuple[int, int]:
    """(lo, hi) as the one tuple that every segment built from columns
    shares; the RSSI range bounds the cache to a few thousand tuples."""
    return lo, hi


class _Columns:
    """A batch of segments in columnar form. Ids are interned to dense
    column numbers for this batch only, in id order; segment g's entries
    (column, lo, hi) sit at [ptr[g], ptr[g] + length[g]). Ranges fit int16,
    since they are validated into [-100, 0].

    Built from the batch's ids in order (exactly those its entries hold),
    each entry's column, lo and hi as arrays, and each segment's entry count
    and window: by ``profileio._read_processed`` from record bytes, by
    ``processing._case_columns`` and ``_area_columns`` from a scan batch,
    and by :meth:`from_segments`, whose inverse is :meth:`segments`.
    """

    def __init__(self, ids: Sequence[bytes], col: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray, lengths: Sequence[int], t_start: list[int],
                 t_end: list[int]):
        self.index: dict[bytes, int] = dict(zip(ids, count()))
        self.col, self.lo, self.hi = col, lo, hi
        self.length = np.array(lengths, dtype=np.intp)
        self.ptr = np.cumsum(self.length) - self.length
        self.t_start = _times(t_start)
        self.t_end = _times(t_end)

    @classmethod
    def from_segments(cls, segments: Sequence[ProfileSegment]) -> "_Columns":
        ranges = [seg.vector.ranges for seg in segments]
        ids = sorted(set().union(*ranges))
        column = dict(zip(ids, count()))
        entries = list(chain.from_iterable(ranges))
        lo_hi = np.fromiter(
            chain.from_iterable(chain.from_iterable(r.values() for r in ranges)),
            dtype=np.int16, count=2 * len(entries))
        return cls(ids, np.fromiter(map(column.__getitem__, entries),
                                    dtype=np.intp, count=len(entries)),
                   lo_hi[0::2], lo_hi[1::2], list(map(len, ranges)),
                   [seg.t_start for seg in segments],
                   [seg.t_end for seg in segments])

    def segments(self) -> list[ProfileSegment]:
        """The segments, in order. Equal ids share one SignalId, and equal
        ranges one tuple across every segment built here."""
        ids = list(map(SignalId, self.index))
        _, first, pair = np.unique(self.lo.astype(np.int64) * 65536 + self.hi,
                                   return_index=True, return_inverse=True)
        pairs = list(map(_range_pair, self.lo[first].tolist(),
                         self.hi[first].tolist()))
        entries = zip(map(ids.__getitem__, self.col.tolist()),
                      map(pairs.__getitem__, pair.ravel().tolist()))
        return [ProfileSegment(ProcessedVector(dict(islice(entries, n))),
                               start, end)
                for n, start, end in zip(self.length.tolist(),
                                         self.t_start.tolist(),
                                         self.t_end.tolist())]

    def shared_terms(self, block: np.ndarray, row: np.ndarray, seg: np.ndarray,
                     entry_col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Shared-id count and summed out-of-range distance of each pair
        (block[row[i]], segment seg[i]), where a segment's entry e reads
        column entry_col[e] of block; every segment must be non-empty."""
        lens = self.length[seg]
        ends = np.cumsum(lens)
        starts = ends - lens
        entry = (np.arange(int(ends[-1]))
                 - np.repeat(starts - self.ptr[seg], lens))
        rssi = block.ravel().take(np.repeat(row * block.shape[1], lens)
                                  + entry_col.take(entry))
        heard = rssi != _UNHEARD
        dist = np.maximum(np.maximum(self.lo.take(entry) - rssi,
                                     rssi - self.hi.take(entry)), 0) * heard
        return (np.add.reduceat(heard, starts, dtype=np.int64),
                np.add.reduceat(dist, starts, dtype=np.int64))


def _score_columns(
    scans: _ScanBatch,
    cols: _Columns,
    alpha: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Score a batch of scans against a batch of segments, both already in
    columns, with the first-match rule; segment indices are positions in
    ``cols``. A segment is a candidate for a scan when its validity window
    contains the scan time; scans need not be ordered.

    Each candidate pair scores ``signal_similarity(scan, segment.vector)``,
    bit for bit: the shared-id count, the smaller id count and the summed
    out-of-range distance are exact integers, then O = count / smaller,
    D = total / count and O / (D + 1.0) are float64 divisions in that order.

    Returns two arrays with one entry per scan, ``(score, segment)``. When
    ``alpha`` is given and some candidate scores >= alpha, they hold the
    first such candidate's score and index in input order. Otherwise the
    segment is -1 and the score is the best candidate score, 0.0 with none.
    """
    n, m = len(scans), len(cols.length)
    score = np.zeros(n)
    matched = np.full(n, -1, dtype=np.intp)
    if not n or not m:
        return score, matched
    # each segment entry's batch column; ids no scan holds read an extra one
    width = len(scans.ids)
    batch_col = dict(zip(scans.ids, range(width)))
    entry_col = np.fromiter(map(batch_col.get, cols.index, repeat(width)),
                            dtype=np.intp, count=len(cols.index)).take(cols.col)
    # an empty segment shares no id, and shared_terms needs entries per pair
    nonempty = cols.length > 0
    step = max(1, _CELLS // max(1, int(cols.length.max())))

    # chunks of scans keep the cover matrix and the RSSI block small
    rows = max(1, _CELLS // max(m, width + 1))
    for first in range(0, n, rows):
        t = scans.times[first:first + rows, None]
        cover = (cols.t_start <= t) & (t <= cols.t_end) & nonempty
        block = np.full((len(t), width + 1), _UNHEARD, dtype=np.int16)
        block[:, :width] = scans.rssi[first:first + rows]

        # candidate pairs, scan-major with segments in input order; at most
        # _CELLS (pair, segment id) entries at a time
        row, seg = np.nonzero(cover)
        count = np.empty(len(row), dtype=np.int64)
        total = np.empty(len(row), dtype=np.int64)
        for a in range(0, len(row), step):
            count[a:a + step], total[a:a + step] = cols.shared_terms(
                block, row[a:a + step], seg[a:a + step], entry_col)

        keep = count > 0  # a pair without shared ids scores 0
        if not keep.any():
            continue
        row, seg, count, total = row[keep], seg[keep], count[keep], total[keep]
        scan = first + row
        sizes = np.count_nonzero(block != _UNHEARD, axis=1)
        smaller = np.minimum(sizes[row], cols.length[seg])
        pair_score = (count / smaller) / (total / count + 1.0)
        heads = np.flatnonzero(np.r_[True, scan[1:] != scan[:-1]])
        score[scan[heads]] = np.maximum.reduceat(pair_score, heads)
        if alpha is not None:
            hits = np.flatnonzero(pair_score >= alpha)
            if len(hits):
                # the first hit of each scan: pairs are scan-major
                hits = hits[np.r_[True, scan[hits][1:] != scan[hits][:-1]]]
                score[scan[hits]] = pair_score[hits]
                matched[scan[hits]] = seg[hits]
    return score, matched


def jaccard(a: SignalVector, b: SignalVector) -> float:
    """|a.ids & b.ids| / |a.ids | b.ids|; 0 when both are empty."""
    union = a.ids | b.ids
    if not union:
        return 0.0
    return len(a.ids & b.ids) / len(union)


def _filled_diffs(a: SignalVector, b: SignalVector) -> list[int]:
    union = a.ids | b.ids
    if not union:
        raise ValueError("both vectors are empty, distance undefined")
    return [
        a.readings.get(sid, RSSI_FLOOR) - b.readings.get(sid, RSSI_FLOOR)
        for sid in union
    ]


def amd(a: SignalVector, b: SignalVector) -> float:
    """Average Manhattan distance with -100 fill for ids missing on one side,
    over every id in the union (after filling, all of them overlap)."""
    diffs = _filled_diffs(a, b)
    return sum(abs(d) for d in diffs) / len(diffs)


def aed(a: SignalVector, b: SignalVector) -> float:
    """Average Euclidean distance; the same fill and union as amd()."""
    diffs = _filled_diffs(a, b)
    return math.sqrt(sum(d * d for d in diffs)) / len(diffs)
