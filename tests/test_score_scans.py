"""The batched scorer against ``oracles.match_brute``, the first-match rule
as the spec states it.

Every comparison is exact: the kernel, the matcher and the studies' scores
must give the oracle's floats and segments, not merely close ones.
"""

import hashlib
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wifitrace import similarity
from wifitrace.detection import ContactFlag, DetectionConfig, detect_contacts
from wifitrace.evaluation import ProximityData, record_score, sweep_scores
from wifitrace.model import (
    ProcessedProfile,
    ProcessedVector,
    ProfileSegment,
    SignalId,
    SignalProfile,
    SignalVector,
)
from wifitrace.similarity import _Columns, _ScanBatch, signal_similarity
from wifitrace.simulator import _drop_batch_ids

from conftest import (ID_POOL, brute_columns, brute_flags, make_processed,
                      make_vector)
from oracles import prf_brute

POOL = ID_POOL[:10]  # small, so scans and segments share ids often

rssi = st.integers(-100, 0)
readings = st.dictionaries(st.sampled_from(POOL), rssi, max_size=len(POOL))


@st.composite
def id_ranges(draw):
    ids = draw(st.lists(st.sampled_from(POOL), unique=True, max_size=len(POOL)))
    ranges = {}
    for sid in ids:
        a, b = draw(rssi), draw(rssi)
        ranges[sid] = (min(a, b), max(a, b))
    return ProcessedVector(ranges)


@st.composite
def profiles(draw, label="case"):
    # t_start from a coarse grid so that equal starts and overlapping
    # lifespan windows are common
    starts = sorted(draw(st.lists(st.integers(0, 6), max_size=4)))
    segments = [
        ProfileSegment(draw(id_ranges()), 10 * s, 10 * s + draw(st.integers(1, 40)))
        for s in starts
    ]
    return ProcessedProfile(segments, case_label=label)


@st.composite
def published(draw):
    n = draw(st.integers(0, 3))
    return [draw(profiles(label=f"case-{i}")) for i in range(n)]


# scans from before the first window to after the last one
times = st.integers(-10, 110)
unordered_scans = st.lists(st.builds(SignalVector, readings, times), max_size=12)


@st.composite
def user_profiles(draw):
    ts = sorted(draw(st.lists(times, unique=True, max_size=12)))
    return SignalProfile([SignalVector(draw(readings), t) for t in ts])


@pytest.fixture(params=[similarity._CELLS, 3], ids=["cells-default", "cells-3"])
def cells(request, monkeypatch):
    """Also run with tiny chunks, so every chunk boundary is crossed."""
    monkeypatch.setattr(similarity, "_CELLS", request.param)


# the cells fixture holds for every example of a test, as it should
examples = settings(deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

alphas = st.sampled_from([0.05, 0.2, 0.4, 0.5, 1.0])


@settings(examples, max_examples=150)
@given(user=user_profiles(), profiles=published(), alpha=alphas)
def test_detect_contacts_matches_per_pair_loop(cells, user, profiles, alpha):
    got = detect_contacts(user, profiles, DetectionConfig(alpha=alpha))
    assert got == brute_flags(user.vectors, profiles, alpha)
    assert all(type(f.best_score) is float for f in got)


@settings(examples, max_examples=150)
@given(scans=unordered_scans, profile=profiles(),
       proximity=st.sampled_from([0.5, 1.0, 2.5, 10.0]))
def test_record_score_and_dataset_scores_match(cells, scans, profile,
                                               proximity):
    expected, _ = brute_columns(scans, profile.segments)
    assert [record_score(vec, profile) for vec in scans] == expected
    distances = [float(i % 10 + 1) for i in range(len(scans))]
    data = ProximityData(similarity._Columns.from_segments(profile.segments),
                         _ScanBatch.from_vectors(scans), np.array(distances))
    got = data.scores()
    assert got.dtype == np.float64 and got.tolist() == expected
    truth = data.truth(proximity)
    assert truth.dtype == bool
    assert truth.tolist() == [d <= proximity for d in distances]


@settings(examples, max_examples=150)
@given(inside=unordered_scans, outside=unordered_scans, area=profiles(),
       alpha=st.sampled_from([0.0, 0.1, 0.3, 0.5]))
def test_inout_study_matches_per_pair_loop(cells, inside, outside, area, alpha):
    scans = inside + outside
    truth = set(range(len(inside)))
    best, _ = brute_columns(scans, area.segments)
    detected = {i for i, score in enumerate(best) if score >= alpha}
    # run_inout_suite's scoring and evaluation of its spot batch
    scores, _ = similarity._score_columns(_ScanBatch.from_vectors(scans),
                                          _Columns.from_segments(area.segments))
    assert scores.tolist() == best
    (point,) = sweep_scores(scores, np.arange(len(scans)) < len(inside),
                            [alpha])
    assert (point.precision, point.recall) == prf_brute(truth, detected)[:2]


# scans may also hold ids that no segment holds
wide_readings = st.dictionaries(st.sampled_from(ID_POOL[:14]), rssi,
                                max_size=14)
wide_scans = st.lists(st.builds(SignalVector, wide_readings, times),
                      max_size=12)


@settings(examples, max_examples=150)
@given(scans=wide_scans, profile=profiles(),
       rate=st.sampled_from([None, 0.0, 1.0]))
def test_batch_scores_are_the_dict_scores(cells, scans, profile, rate):
    batch = _ScanBatch.from_vectors(scans)
    assert batch.ids == sorted({sid for vec in scans for sid in vec.readings})
    assert batch.vectors() == scans
    if rate is not None:
        # rate 0 keeps every id, rate 1 leaves every scan empty
        batch = _drop_batch_ids(batch, rate, seed=5)
        scans = [SignalVector({} if rate else vec.readings, vec.timestamp)
                 for vec in scans]
    got, matched = similarity._score_columns(
        batch, similarity._Columns.from_segments(profile.segments))
    assert got.tolist() == brute_columns(scans, profile.segments)[0]
    assert (matched == -1).all()


@pytest.mark.parametrize("big", [2**63, 2**70, -2**63 - 1])
def test_times_beyond_int64_compare_exactly(big):
    sid = ID_POOL[0]
    vector = ProcessedVector({sid: (-60, -40)})
    user = SignalProfile([SignalVector({sid: -50}, t)
                          for t in sorted({0, 5, big, big + 1})])
    profiles = [ProcessedProfile([ProfileSegment(vector, *sorted((0, big)))]),
                ProcessedProfile([ProfileSegment(vector, big, big + 1)])]
    assert (detect_contacts(user, profiles, DetectionConfig())
            == brute_flags(user.vectors, profiles, 0.2))


# The interval join's shapes: scans and windows over three days (a day is
# 1000 here), scans unordered and up to ten at one time, windows that nest,
# that start or end exactly on a scan, that hold no scan or lie beyond
# int64, segments without ids, and segments shuffled across days.
BEYOND = [2**63, 2**63 + 3, 2**70, -2**63 - 1, -2**63 - 4]
day_times = st.one_of(st.builds(lambda day, t: 1000 * day + t,
                                st.integers(0, 2), st.integers(0, 60)),
                      st.sampled_from(BEYOND))


@st.composite
def join_cases(draw):
    """(scans, segments): scans in any order, segments in any order."""
    times = draw(st.lists(day_times, max_size=8))
    repeat = draw(st.integers(1, 10))
    times = draw(st.permutations([t for t in times for _ in range(repeat)]))
    edges = st.one_of(day_times, st.sampled_from(times)) if times else day_times
    segments = []
    for _ in range(draw(st.integers(0, 8))):
        start = draw(edges)
        # an end that may land on a scan; the window holds at least one unit
        end = draw(st.one_of(edges, st.integers(1, 80).map(start.__add__)))
        if end <= start:
            start, end = end, start + (end == start)
        segments.append(ProfileSegment(draw(id_ranges()), start, end))
    scans = [SignalVector(draw(readings), t) for t in times]
    return scans, draw(st.permutations(segments))


@settings(deadline=None, max_examples=300)
@given(case=join_cases())
def test_covering_pairs_are_the_brute_force_pairs(case):
    scans, segments = case
    times = [vec.timestamp for vec in scans]
    want = sorted(((i, g) for i, t in enumerate(times)
                   for g, seg in enumerate(segments)
                   if seg.vector.ranges and seg.covers(t)),
                  key=lambda pair: (pair[1], times[pair[0]], pair[0]))
    scan, seg = _Columns.from_segments(segments).covering(
        similarity._times(times))
    assert list(zip(scan.tolist(), seg.tolist())) == want


@settings(examples, max_examples=150)
@given(case=join_cases(), alpha=st.one_of(st.none(), alphas))
def test_kernel_over_join_shapes_matches_per_pair_loop(cells, case, alpha):
    scans, segments = case
    got, matched = similarity._score_columns(
        _ScanBatch.from_vectors(scans), _Columns.from_segments(segments),
        alpha)
    assert (got.tolist(), matched.tolist()) == brute_columns(
        scans, segments, alpha)


def test_one_scan_may_hold_more_pairs_than_a_chunk(cells):
    """Ten scans at one time, each inside five nested windows: with a
    chunk of 3 pairs, every scan's pairs span two chunks."""
    rng = random.Random(3)
    pool = ID_POOL[:12]
    scans = [make_vector(rng, 6, 30, pool) for _ in range(10)]
    segments = [ProfileSegment(make_processed(rng, 4 + g, pool), 30 - g, 31 + g)
                for g in range(5)]
    for alpha in (None, 0.05, 0.3):
        got, matched = similarity._score_columns(
            _ScanBatch.from_vectors(scans), _Columns.from_segments(segments),
            alpha)
        assert (got.tolist(), matched.tolist()) == brute_columns(
            scans, segments, alpha)


def counted_pairs(monkeypatch):
    """A list that collects the number of pairs each shared_terms call
    receives."""
    sizes = []
    shared_terms = _Columns.shared_terms

    def counting(self, block, row, seg, entry_col):
        sizes.append(len(seg))
        return shared_terms(self, block, row, seg, entry_col)

    monkeypatch.setattr(_Columns, "shared_terms", counting)
    return sizes


def test_pruning_skips_the_pairs_of_matched_scans(cells, monkeypatch):
    """Segment 0 matches each of the n scans with score 1; segments 1-9
    cover them too. Once a scan is matched its later pairs go unscored, so
    besides segment 0's n pairs at most one chunk's pairs reach
    shared_terms. Without alpha all 10 n pairs are scored."""
    rng = random.Random(11)
    ids = ID_POOL[:4]
    n = 12
    scans = [SignalVector({sid: -50 for sid in ids}, t) for t in range(n)]
    segments = [ProfileSegment(ProcessedVector({sid: (-60, -40) for sid in ids}),
                               0, n)]
    segments += [ProfileSegment(make_processed(rng, 4, ids), 0, n)
                 for _ in range(9)]
    per_chunk = max(1, similarity._CELLS // len(ids))
    sizes = counted_pairs(monkeypatch)
    for alpha in (0.2, None):
        sizes.clear()
        got, matched = similarity._score_columns(
            _ScanBatch.from_vectors(scans), _Columns.from_segments(segments),
            alpha)
        assert (got.tolist(), matched.tolist()) == brute_columns(
            scans, segments, alpha)
        if alpha is None:
            assert sum(sizes) == 10 * n
        else:
            assert matched.tolist() == [0] * n
            assert sum(sizes) < n + per_chunk


@pytest.mark.parametrize("chunks", [1, 2])
def test_a_later_higher_score_keeps_the_first_match(chunks, monkeypatch):
    """Segment 0 scores 0.3 (3 of 10 ids shared, all in range) and segment
    1 scores 1.0, at alpha 0.2: the flag keeps segment 0 and 0.3, whether
    both pairs share a chunk or each has its own."""
    monkeypatch.setattr(similarity, "_CELLS", 20 if chunks == 1 else 1)
    sizes = counted_pairs(monkeypatch)
    scan = SignalVector({sid: -50 for sid in ID_POOL[:10]}, 30)
    first = {sid: (-60, -40) for sid in ID_POOL[:3] + ID_POOL[10:17]}
    later = {sid: (-60, -40) for sid in ID_POOL[:10]}
    profile = ProcessedProfile([ProfileSegment(ProcessedVector(first), 0, 60),
                                ProfileSegment(ProcessedVector(later), 0, 60)],
                               case_label="first")
    # the best score is segment 1's; the first match is segment 0's
    assert brute_columns([scan], profile.segments) == ([1.0], [-1])
    assert brute_columns([scan], profile.segments, 0.2) == ([0.3], [0])
    (flag,) = detect_contacts(SignalProfile([scan]), [profile],
                              DetectionConfig(alpha=0.2))
    assert flag == ContactFlag(30, True, 0.3, 0, "first")
    # one chunk scores both pairs; with two, the second is never scored
    assert sizes == ([2] if chunks == 1 else [1])


def tie_case():
    """6 of 10 ids shared, summed out-of-range distance 3: exactly 0.4 in
    rationals, 0.39999999999999997 in floats."""
    scan = SignalVector({sid: -50 for sid in ID_POOL[:10]}, 30)
    ranges = {sid: (-50, -50) for sid in ID_POOL[4:14]}
    ranges[ID_POOL[4]] = (-47, -40)  # 3 dB above the scan's -50
    segment = ProfileSegment(ProcessedVector(ranges), 0, 60)
    return scan, ProcessedProfile([segment], case_label="tie")


def test_tie_with_alpha_keeps_float_rounding():
    scan, profile = tie_case()
    tie = 0.39999999999999997
    assert signal_similarity(scan, profile.segments[0].vector) == tie
    assert record_score(scan, profile) == tie
    (flag,) = detect_contacts(SignalProfile([scan]), [profile],
                              DetectionConfig(alpha=0.4))
    assert flag == ContactFlag(30, False, tie)


def test_kernel_temporaries_do_not_grow_with_the_batch():
    """500 scans x 400 segments of 20 ids, every window covering every scan:
    200 000 candidate pairs, 4 million (pair, segment id) entries. Scored in
    one piece they take about 100 MB; in chunks of _CELLS cells the peak
    stays a few MB."""
    rng = random.Random(5)
    pool = [SignalId(hashlib.sha256(bytes([i, 1])).digest()) for i in range(100)]
    scans = _ScanBatch.from_vectors([make_vector(rng, 100, t, pool)
                                     for t in range(500)])
    cols = _Columns.from_segments([
        ProfileSegment(make_processed(rng, 20, pool), 0, 499)
        for _ in range(400)])
    tracemalloc.start()
    try:
        similarity._score_columns(scans, cols, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
