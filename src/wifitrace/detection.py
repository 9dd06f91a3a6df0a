"""Contact detection against published processed profiles.

Per-timestamp matching: a user's scan at time t is checked against every
published segment whose validity window contains t; the first segment whose
similarity reaches the threshold flags the timestamp as a contact and is the
one recorded. The user's scans are in time order, so the ones that some
segment's window may contain form one slice, from the earliest window start
to the latest window end. Only that slice is built into a scan batch and
scored by similarity's kernel, which applies the first-match rule; every
scan outside it gets a false flag with score 0. The core takes the scans
in one form: their times, and a maker of the batch of any slice.
``detect_contacts`` and ``client_sync`` make that batch from dict scans;
``wifitrace sync`` makes it straight from the signal reader's columns
(``profileio._signal_scans``) and builds no ``SignalVector``. The threshold
and the window settings come from DetectionConfig, which ``wifitrace sync``
builds from its flags.

Close-contact aggregation: a sliding time window of configurable length is
passed over the flags; wherever the true flags inside some window placement
amount to at least the minimum exposure (true-flag count times the sampling
period), those flags join an episode, and overlapping qualifying windows merge
into maximal episodes.
"""

from __future__ import annotations

import math
import urllib.parse
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import ProcessedProfile, SignalProfile, SignalVector
from .similarity import _Columns, _ScanBatch, _score_columns


@dataclass(frozen=True)
class DetectionConfig:
    """Thresholds and timing for detection and aggregation.

    alpha is the similarity threshold in (0, 1]. The defaults implement the
    5-of-10-minutes close-contact rule at a 1-minute scan cadence.
    """

    alpha: float = 0.2
    window_length: int = 600
    min_exposure: int = 300
    sampling_period: int = 60

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        for name in ("window_length", "min_exposure", "sampling_period"):
            # nan or inf would pass a plain > 0 and break min_true_flags
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if self.min_exposure > self.window_length:
            raise ValueError("min_exposure cannot exceed window_length")

    @property
    def min_true_flags(self) -> int:
        """True flags needed inside one window to qualify."""
        return math.ceil(self.min_exposure / self.sampling_period)


@dataclass(frozen=True)
class ContactFlag:
    """Detection outcome for one user scan."""

    timestamp: int
    in_contact: bool
    best_score: float
    matched_segment: int | None = None
    matched_case: str | None = None


@dataclass(frozen=True)
class ContactEpisode:
    """A maximal close-contact stretch satisfying the sliding-window rule."""

    start: int
    end: int
    case_label: str
    contact_minutes: float


@dataclass(frozen=True)
class ContactReport:
    flags: Sequence[ContactFlag]
    episodes: Sequence[ContactEpisode]

    def __post_init__(self) -> None:
        object.__setattr__(self, "flags", tuple(self.flags))
        object.__setattr__(self, "episodes", tuple(self.episodes))

    def summary(self) -> dict:
        return {
            "flags": len(self.flags),
            "contacts": sum(1 for f in self.flags if f.in_contact),
            "episodes": len(self.episodes),
            "exposure_minutes": sum(e.contact_minutes for e in self.episodes),
        }


def detect_contacts(
    user: SignalProfile,
    published: Sequence[ProcessedProfile],
    cfg: DetectionConfig,
) -> list[ContactFlag]:
    """Flag each user scan against every published profile.

    For a scan at t, segments are tried in input order (profiles first, then
    their segments); only segments whose window contains t are scored. The
    first score >= alpha produces a true flag recording that score, segment
    index and case label. Otherwise the flag is false and carries the best
    score seen (0 if no window contained t).

    Output has exactly one flag per user scan, in timestamp order.
    """
    segments = [seg for profile in published for seg in profile.segments]
    return _detect_columns(*_vector_scans(user.vectors),
                           _Columns.from_segments(segments),
                           [profile.case_label for profile in published],
                           [len(profile.segments) for profile in published],
                           cfg)


def _vector_scans(
    vectors: Sequence[SignalVector],
) -> tuple[list[int], Callable[[int, int], _ScanBatch]]:
    """Dict scans as _detect_columns takes them: their times, and the maker
    of the batch of scans lo..hi-1."""
    return ([vec.timestamp for vec in vectors],
            lambda lo, hi: _ScanBatch.from_vectors(vectors[lo:hi]))


def _detect_columns(
    times: Sequence[int],
    rows: Callable[[int, int], _ScanBatch],
    cols: _Columns,
    labels: Sequence[str],
    counts: Sequence[int],
    cfg: DetectionConfig,
) -> list[ContactFlag]:
    """detect_contacts over records already in one batch of columns, given
    each record's case label and segment count in input order, and the
    user's scans as their times, in order, and ``rows(lo, hi)``, which
    returns the batch of scans lo..hi-1. Only the slice of scans that some
    segment's window may contain is built."""
    scores, matched = np.zeros(len(times)), np.full(len(times), -1)
    if len(cols.length):
        # the scans are in time order, so those inside some segment's window
        # are within one slice: build just that
        lo = bisect_left(times, int(cols.t_start.min()))
        hi = bisect_right(times, int(cols.t_end.max()))
        scores[lo:hi], matched[lo:hi] = _score_columns(rows(lo, hi), cols,
                                                       cfg.alpha)
    # each matched segment's record, and its index within that record
    hits = matched[matched >= 0]
    ends = np.cumsum(counts, dtype=np.intp)
    record = np.searchsorted(ends, hits, "right")
    owners = zip(map(labels.__getitem__, record.tolist()),
                 (hits - ends[record] + np.take(counts, record)).tolist())
    flags: list[ContactFlag] = []
    for t, score, g in zip(times, scores.tolist(), matched.tolist()):
        if g < 0:
            flags.append(ContactFlag(t, False, score))
        else:
            label, seg_idx = next(owners)
            flags.append(ContactFlag(t, True, score, seg_idx, label))
    return flags


def aggregate_episodes(
    flags: Sequence[ContactFlag], cfg: DetectionConfig
) -> ContactReport:
    """Apply the sliding-window close-contact rule to timestamped flags.

    A window placement [w, w + window_length] qualifies when it contains at
    least min_exposure / sampling_period true flags; every true flag inside a
    qualifying placement joins an episode, and placements whose windows
    overlap in time merge into one maximal episode. Episode duration is
    counted as true flags times the sampling period (exact at the fixed scan
    cadence and well defined under missing samples).
    """
    for prev, cur in zip(flags, flags[1:]):
        if cur.timestamp <= prev.timestamp:
            raise ValueError("flags must be ordered by timestamp")
    trues = [f for f in flags if f.in_contact]
    times = [f.timestamp for f in trues]
    m = cfg.min_true_flags
    length = cfg.window_length

    # Each run of m consecutive true flags spanning <= window_length admits
    # the qualifying placements [t_last - L, t_first]; such windows cover the
    # time interval [t_last - L, t_first + L]. Both ends ascend from run to
    # run, so overlapping covers merge in the order they come.
    spans: list[tuple[int, int]] = []
    for first, last in zip(times, times[m - 1:]):
        if last - first > length:
            continue
        if spans and last - length <= spans[-1][1]:
            spans[-1] = (spans[-1][0], first + length)
        else:
            spans.append((last - length, first + length))

    episodes: list[ContactEpisode] = []
    for lo, hi in spans:
        members = trues[bisect_left(times, lo):bisect_right(times, hi)]
        episodes.append(
            ContactEpisode(
                start=members[0].timestamp,
                end=members[-1].timestamp,
                case_label=members[0].matched_case or "",
                contact_minutes=len(members) * cfg.sampling_period / 60.0,
            )
        )
    return ContactReport(flags=flags, episodes=episodes)


def match_and_notify(
    user: SignalProfile,
    published: Sequence[ProcessedProfile],
    cfg: DetectionConfig,
) -> ContactReport:
    """Full pipeline: per-timestamp detection, then episode aggregation."""
    return aggregate_episodes(detect_contacts(user, published, cfg), cfg)


def _quote(label: str | None) -> str:
    if label is None or label == "":
        return "-"
    return urllib.parse.quote(label, safe="")


def serialize_report(report: ContactReport) -> bytes:
    """Line-oriented report: one flag line per timestamp, one episode line
    per episode, one trailing summary line."""
    lines = ["vcontact-report/1"]
    for f in report.flags:
        seg = f.matched_segment if f.matched_segment is not None else "-"
        lines.append(
            f"flag t={f.timestamp} contact={int(f.in_contact)} "
            f"score={f.best_score!r} segment={seg} case={_quote(f.matched_case)}"
        )
    for e in report.episodes:
        lines.append(
            f"episode start={e.start} end={e.end} "
            f"minutes={e.contact_minutes!r} case={_quote(e.case_label)}"
        )
    s = report.summary()
    lines.append(
        f"summary flags={s['flags']} contacts={s['contacts']} "
        f"episodes={s['episodes']} exposure_minutes={s['exposure_minutes']!r}"
    )
    return ("\n".join(lines) + "\n").encode("utf-8")
