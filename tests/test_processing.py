import re
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wifitrace.model import (
    InsufficientDataError,
    LifespanSchedule,
    SignalProfile,
    SignalVector,
)
from wifitrace.processing import (
    build_area_profile,
    build_case_profile,
    build_processed_vector,
)

from conftest import ID_POOL, make_profile
from oracles import area_profile_brute, case_profile_brute, eq_processed_vector

X, Y, Z = ID_POOL[0], ID_POOL[1], ID_POOL[2]

ids = st.sampled_from(ID_POOL[:12])
readings = st.dictionaries(ids, st.integers(-100, 0), max_size=10)

MAX_GAP = 60
# readings often at the floor, so an id one scan of a pair hears at -100
# meets ids both scans hear and ids only the other scan hears
floor_readings = st.dictionaries(
    st.sampled_from(ID_POOL[:6]), st.one_of(st.just(-100), st.integers(-100, 0)),
    max_size=6)


@st.composite
def case_walks(draw):
    """A walk of 2 to 8 scans, maybe with times beyond int64, gaps at, just
    above and under MAX_GAP, and one lifespan per pair or none."""
    n = draw(st.integers(2, 8))
    start = draw(st.one_of(st.integers(0, 1000),
                           st.integers(2**63 - 300, 2**63 + 300),
                           st.integers(-2**64, -2**63 - 300)))
    gaps = draw(st.lists(st.one_of(st.sampled_from([MAX_GAP, MAX_GAP + 1]),
                                   st.integers(1, 3 * MAX_GAP)),
                         min_size=n - 1, max_size=n - 1))
    walk = SignalProfile([SignalVector(draw(floor_readings), t)
                          for t in accumulate([start, *gaps])])
    lifespans = draw(st.none() | st.lists(st.integers(0, 2000),
                                           min_size=n - 1, max_size=n - 1))
    return walk, lifespans


class TestBuildProcessedVector:
    def test_mixed_membership(self):
        a = SignalVector({X: -50, Y: -60}, 0)
        b = SignalVector({X: -55, Z: -70}, 5)
        pv = build_processed_vector(a, b)
        assert dict(pv.ranges) == {X: (-55, -50), Y: (-100, -60), Z: (-100, -70)}

    def test_identical_inputs_collapse(self):
        a = SignalVector({X: -40}, 0)
        assert dict(build_processed_vector(a, a).ranges) == {X: (-40, -40)}

    def test_one_sided(self):
        a = SignalVector({}, 0)
        b = SignalVector({X: -70}, 5)
        assert dict(build_processed_vector(a, b).ranges) == {X: (-100, -70)}

    def test_entry_count_is_union_size(self):
        a = SignalVector({X: -50, Y: -60}, 0)
        b = SignalVector({X: -55, Z: -70}, 5)
        assert len(build_processed_vector(a, b)) == 3

    @given(readings, readings)
    @settings(max_examples=200)
    def test_symmetric_and_matches_oracle(self, ra, rb):
        a, b = SignalVector(ra, 0), SignalVector(rb, 1)
        pv = build_processed_vector(a, b)
        assert pv == build_processed_vector(b, a)
        expected = eq_processed_vector(dict(a.readings), dict(b.readings))
        assert dict(pv.ranges) == expected

    @given(readings, readings)
    @settings(max_examples=100)
    def test_point_values_inside_ranges(self, ra, rb):
        a, b = SignalVector(ra, 0), SignalVector(rb, 1)
        pv = build_processed_vector(a, b)
        for sid in a.ids & b.ids:
            lo, hi = pv.ranges[sid]
            assert lo <= a.readings[sid] <= hi
            assert lo <= b.readings[sid] <= hi


class TestBuildCaseProfile:
    def test_single_pair_window(self):
        walk = SignalProfile([SignalVector({X: -50}, 0), SignalVector({X: -55}, 60)])
        profile = build_case_profile(walk, LifespanSchedule(default=1800))
        assert len(profile) == 1
        seg = profile.segments[0]
        assert (seg.t_start, seg.t_end) == (0, 1860)

    def test_four_vectors_three_segments(self):
        times = [0, 60, 120, 180]
        walk = SignalProfile([SignalVector({X: -50 - i}, t)
                              for i, t in enumerate(times)])
        profile = build_case_profile(walk, LifespanSchedule(default=300))
        assert len(profile) == 3
        for i, seg in enumerate(profile.segments):
            assert seg.t_start == times[i]
            assert seg.t_end == times[i + 1] + 300

    def test_zero_lifespan_degeneracy(self):
        walk = SignalProfile([SignalVector({X: -50}, 0),
                              SignalVector({X: -51}, 60),
                              SignalVector({X: -52}, 120)])
        profile = build_case_profile(walk, LifespanSchedule(default=0))
        windows = [(s.t_start, s.t_end) for s in profile.segments]
        assert windows == [(0, 60), (60, 120)]

    def test_insufficient_data(self):
        walk = SignalProfile([SignalVector({X: -50}, 0)])
        with pytest.raises(InsufficientDataError):
            build_case_profile(walk, LifespanSchedule())

    def test_gap_above_max_is_skipped_not_fatal(self, caplog):
        walk = SignalProfile([SignalVector({X: -50}, 0),
                              SignalVector({X: -51}, 10_000),
                              SignalVector({X: -52}, 10_060)])
        profile = build_case_profile(walk, LifespanSchedule(default=0))
        assert [(s.t_start, s.t_end) for s in profile.segments] == [(10_000, 10_060)]

    def test_per_segment_lifespans(self):
        walk = SignalProfile([SignalVector({X: -50}, 0),
                              SignalVector({X: -51}, 60),
                              SignalVector({X: -52}, 120)])
        profile = build_case_profile(
            walk, LifespanSchedule(per_segment=[100, 200]))
        assert [s.t_end for s in profile.segments] == [160, 320]

    def test_per_segment_length_mismatch(self):
        walk = SignalProfile([SignalVector({X: -50}, 0),
                              SignalVector({X: -51}, 60)])
        with pytest.raises(ValueError, match="entries"):
            build_case_profile(walk, LifespanSchedule(per_segment=[1, 2]))

    @pytest.mark.parametrize("max_gap", [float("nan"), float("inf"), -1, 1.5])
    def test_max_gap_must_be_whole_seconds(self, max_gap):
        # a pair 9 940 s apart, which no whole max_gap under 9 940 keeps
        walk = SignalProfile([SignalVector({X: -50}, 0),
                              SignalVector({X: -51}, 9_940)])
        with pytest.raises(ValueError, match="^max_gap must be a whole number "
                           rf"of seconds >= 0, got {re.escape(repr(max_gap))}$"):
            build_case_profile(walk, LifespanSchedule(), max_gap=max_gap)

    def test_whole_float_max_gap_is_its_int(self):
        walk = SignalProfile([SignalVector({X: -50}, 0),
                              SignalVector({X: -51}, 60),
                              SignalVector({X: -52}, 200)])
        assert build_case_profile(walk, LifespanSchedule(), max_gap=60.0) == \
            build_case_profile(walk, LifespanSchedule(), max_gap=60)

    def test_segment_ids_are_pair_unions(self, rng):
        walk = make_profile(rng, n_vectors=6, max_ids=6)
        profile = build_case_profile(walk, LifespanSchedule(default=60),
                                     max_gap=10_000)
        for i, seg in enumerate(profile.segments):
            union = walk.vectors[i].ids | walk.vectors[i + 1].ids
            assert seg.vector.ids == union

    def test_matches_brute_force(self, rng):
        for _ in range(100):
            walk = make_profile(rng, n_vectors=rng.randint(2, 8), max_ids=6,
                                spacing=(5, 900))
            lifespans = [rng.randint(0, 2000) for _ in range(len(walk) - 1)]
            got = build_case_profile(walk, LifespanSchedule(per_segment=lifespans))
            expected = case_profile_brute(
                [(v.timestamp, dict(v.readings)) for v in walk.vectors],
                lifespans, max_gap=600)
            assert len(got) == len(expected)
            for seg, (ranges, t0, t1) in zip(got.segments, expected):
                assert dict(seg.vector.ranges) == ranges
                assert (seg.t_start, seg.t_end) == (t0, t1)


    @given(case_walks())
    # a pair exactly MAX_GAP apart is kept, one id heard at -100 in one scan
    @example((SignalProfile([SignalVector({X: -100, Y: -50}, 0),
                             SignalVector({Y: -60, Z: -100}, MAX_GAP)]), None))
    # every pair skipped
    @example((SignalProfile([SignalVector({X: -40}, 0),
                             SignalVector({X: -45}, MAX_GAP + 1),
                             SignalVector({}, 2**64)]), [5, 7]))
    @settings(max_examples=300)
    def test_equals_the_brute_force_oracle(self, drawn):
        walk, per_segment = drawn
        scans = [(v.timestamp, dict(v.readings)) for v in walk.vectors]
        default = 90
        got = build_case_profile(
            walk, LifespanSchedule(default, per_segment), max_gap=MAX_GAP)
        expected = case_profile_brute(
            scans, per_segment or [default] * (len(scans) - 1), MAX_GAP)
        assert [(dict(seg.vector.ranges), seg.t_start, seg.t_end)
                for seg in got.segments] == expected
        # each segment is its pair's single-pair ranges
        kept = [i for i in range(len(scans) - 1)
                if scans[i + 1][0] - scans[i][0] <= MAX_GAP]
        assert [seg.vector for seg in got.segments] == [
            build_processed_vector(walk.vectors[i], walk.vectors[i + 1])
            for i in kept]


class TestBuildAreaProfile:
    def test_min_max_aggregation(self):
        walk = SignalProfile([SignalVector({X: -50}, 0),
                              SignalVector({Y: -70}, 60),
                              SignalVector({X: -62}, 120)])
        profile = build_area_profile(walk, 0, 600, 0)
        assert dict(profile.segments[0].vector.ranges) == {
            X: (-62, -50), Y: (-70, -70)}

    def test_singleton_survey(self):
        walk = SignalProfile([SignalVector({X: -40}, 0)])
        profile = build_area_profile(walk, 100, 400, 1800)
        seg = profile.segments[0]
        assert dict(seg.vector.ranges) == {X: (-40, -40)}
        assert (seg.t_start, seg.t_end) == (100, 2200)

    def test_no_floor_padding_for_sporadic_ids(self):
        vectors = [SignalVector({X: -50, Y: -60}, 0)] + [
            SignalVector({X: -50 - i}, 60 * i) for i in range(1, 4)]
        profile = build_area_profile(SignalProfile(vectors), 0, 600, 0)
        assert profile.segments[0].vector.ranges[Y] == (-60, -60)

    def test_survey_of_empty_scans_is_one_segment_without_ranges(self):
        walk = SignalProfile([SignalVector({}, 0), SignalVector({}, 60)])
        (seg,) = build_area_profile(walk, 0, 600, 30).segments
        assert dict(seg.vector.ranges) == {}
        assert (seg.t_start, seg.t_end) == (0, 630)

    def test_id_heard_once_at_the_floor(self):
        walk = SignalProfile([SignalVector({X: -100, Y: -50}, 0),
                              SignalVector({Y: -40}, 60)])
        profile = build_area_profile(walk, 0, 600, 0)
        assert dict(profile.segments[0].vector.ranges) == {
            X: (-100, -100), Y: (-50, -40)}

    def test_empty_survey_rejected(self):
        with pytest.raises(InsufficientDataError):
            build_area_profile(SignalProfile([]), 0, 600, 0)

    @pytest.mark.parametrize("name, value", [
        ("lifespan", 1.5), ("lifespan", float("nan")),
        ("lifespan", float("inf")), ("lifespan", -1),
        ("stay_start", 0.5), ("stay_start", float("nan")),
        ("stay_end", 60.7), ("stay_end", float("inf"))])
    def test_times_must_be_whole_seconds(self, name, value):
        walk = SignalProfile([SignalVector({X: -40}, 0)])
        times = {**dict(stay_start=0, stay_end=60, lifespan=0), name: value}
        floor = " >= 0" if name == "lifespan" else ""
        with pytest.raises(ValueError, match=f"^{name} must be a whole number "
                           f"of seconds{floor}, got {re.escape(repr(value))}$"):
            build_area_profile(walk, **times)

    def test_whole_times_kept_as_ints_and_stays_may_be_negative(self):
        walk = SignalProfile([SignalVector({X: -40}, 0)])
        (seg,) = build_area_profile(walk, -60.0, 0.0, 30.0).segments
        assert (seg.t_start, seg.t_end) == (-60, 30)
        assert build_area_profile(walk, -60.0, 0.0, 30.0) == \
            build_area_profile(walk, -60, 0, 30)

    def test_backwards_stay_rejected(self):
        walk = SignalProfile([SignalVector({X: -40}, 0)])
        with pytest.raises(ValueError, match="stay"):
            build_area_profile(walk, 600, 600, 0)

    def test_matches_brute_force(self, rng):
        for _ in range(100):
            walk = make_profile(rng, n_vectors=rng.randint(1, 8), max_ids=8)
            got = build_area_profile(walk, 0, 900, 1800)
            ranges, t0, t1 = area_profile_brute(
                [(v.timestamp, dict(v.readings)) for v in walk.vectors],
                0, 900, 1800)
            assert dict(got.segments[0].vector.ranges) == ranges
            assert (got.segments[0].t_start, got.segments[0].t_end) == (t0, t1)

    def test_every_observation_inside_its_range(self, rng):
        walk = make_profile(rng, n_vectors=6, max_ids=8)
        profile = build_area_profile(walk, 0, 600, 0)
        ranges = profile.segments[0].vector.ranges
        seen = set()
        for vec in walk.vectors:
            for sid, rssi in vec.readings.items():
                seen.add(sid)
                lo, hi = ranges[sid]
                assert lo <= rssi <= hi
        assert seen == set(ranges)
