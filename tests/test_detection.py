import math

import pytest
from hypothesis import given, settings, strategies as st

from wifitrace.detection import (
    ContactFlag,
    DetectionConfig,
    aggregate_episodes,
    detect_contacts,
    match_and_notify,
    serialize_report,
)
from wifitrace.model import (
    ProcessedProfile,
    ProcessedVector,
    ProfileSegment,
    SignalProfile,
    SignalVector,
)

from conftest import ID_POOL, brute_flags, make_processed_profile, make_profile
from oracles import episodes_brute

X, Y = ID_POOL[0], ID_POOL[1]
CFG = DetectionConfig()


def point_profile(readings: dict, t_start: int, t_end: int,
                  label: str = "") -> ProcessedProfile:
    pv = ProcessedVector({sid: (rssi, rssi) for sid, rssi in readings.items()})
    return ProcessedProfile([ProfileSegment(pv, t_start, t_end)], case_label=label)


class TestDetectionConfig:
    def test_defaults_encode_five_of_ten_rule(self):
        assert (CFG.window_length, CFG.min_exposure, CFG.sampling_period) == (
            600, 300, 60)
        assert CFG.min_true_flags == 5

    @pytest.mark.parametrize("kwargs", [
        dict(alpha=0.0), dict(alpha=1.2), dict(window_length=0),
        dict(min_exposure=0), dict(sampling_period=-5),
        dict(min_exposure=700, window_length=600),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DetectionConfig(**kwargs)

    @pytest.mark.parametrize("name", ["window_length", "min_exposure",
                                      "sampling_period"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_timing_rejected(self, name, value):
        # inf sampling gave min_true_flags 0; nan exposure failed only
        # later, inside aggregate_episodes
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            DetectionConfig(**{name: value})


class TestDetectContacts:
    def test_time_gate(self):
        user = SignalProfile([SignalVector({X: -50}, 5000)])
        published = [point_profile({X: -50}, 0, 600)]
        (flag,) = detect_contacts(user, published, CFG)
        assert not flag.in_contact and flag.best_score == 0.0
        assert flag.matched_segment is None and flag.matched_case is None

    def test_exact_match_flags_true(self):
        user = SignalProfile([SignalVector({X: -50, Y: -60}, 100)])
        published = [point_profile({X: -50, Y: -60}, 0, 600, label="c")]
        (flag,) = detect_contacts(user, published, CFG)
        assert flag.in_contact and flag.best_score == 1.0
        assert flag.matched_segment == 0 and flag.matched_case == "c"

    def test_empty_published_all_false(self):
        user = SignalProfile([SignalVector({X: -50}, t) for t in (0, 60)])
        flags = detect_contacts(user, [], CFG)
        assert [f.in_contact for f in flags] == [False, False]

    def test_flag_count_and_order(self, rng):
        user = make_profile(rng, n_vectors=10)
        published = [make_processed_profile(rng) for _ in range(3)]
        flags = detect_contacts(user, published, CFG)
        assert len(flags) == 10
        assert [f.timestamp for f in flags] == [v.timestamp for v in user.vectors]

    def test_first_match_wins(self):
        user = SignalProfile([SignalVector({X: -50}, 100)])
        first = point_profile({X: -50}, 0, 600, label="first")
        second = point_profile({X: -50}, 0, 600, label="second")
        (flag,) = detect_contacts(user, [first, second], CFG)
        assert flag.matched_case == "first"

    def test_false_flag_keeps_best_score(self):
        user = SignalProfile([SignalVector({X: -50, Y: -60}, 100)])
        published = [point_profile({X: -30, Y: -90}, 0, 600)]
        (flag,) = detect_contacts(user, published, DetectionConfig(alpha=0.9))
        assert not flag.in_contact and 0.0 < flag.best_score < 0.9

    def test_matches_brute_force(self, rng):
        for _ in range(150):
            user = make_profile(rng, n_vectors=rng.randint(1, 12),
                                start=rng.randint(0, 400))
            published = [make_processed_profile(rng, rng.randint(1, 4))
                         for _ in range(rng.randint(0, 3))]
            alpha = rng.choice([0.05, 0.2, 0.5, 0.9])
            cfg = DetectionConfig(alpha=alpha)
            assert (detect_contacts(user, published, cfg)
                    == brute_flags(user.vectors, published, alpha))

    def test_monotone_in_alpha(self, rng):
        user = make_profile(rng, n_vectors=20)
        published = [make_processed_profile(rng, 3) for _ in range(2)]
        flagged = None
        for alpha in (0.05, 0.2, 0.5, 0.9):
            now = {f.timestamp for f in
                   detect_contacts(user, published, DetectionConfig(alpha=alpha))
                   if f.in_contact}
            if flagged is not None:
                assert now <= flagged
            flagged = now

    def test_longer_lifespan_never_removes_contacts(self, rng):
        for _ in range(30):
            user = make_profile(rng, n_vectors=8)
            base = make_processed_profile(rng, 3)
            extended = ProcessedProfile(
                [ProfileSegment(s.vector, s.t_start, s.t_end + 900)
                 for s in base.segments], base.case_label)
            cfg = DetectionConfig(alpha=0.3)
            before = {f.timestamp for f in detect_contacts(user, [base], cfg)
                      if f.in_contact}
            after = {f.timestamp for f in detect_contacts(user, [extended], cfg)
                     if f.in_contact}
            assert before <= after


class TestScoredSlice:
    """Only the scans from the earliest start to the latest end of a
    non-empty segment's window are scored; both ends are inclusive, as a
    window's own ends are."""

    CASE = ProcessedProfile([
        ProfileSegment(ProcessedVector({X: (-50, -50)}), 100, 200),
        ProfileSegment(ProcessedVector({X: (-50, -50)}), 300, 400),
    ], case_label="c")
    USER = SignalProfile([SignalVector({X: -50}, t)
                          for t in (50, 100, 250, 400, 900)])

    def test_scan_at_the_earliest_start_is_scored(self):
        flags = detect_contacts(self.USER, [self.CASE], CFG)
        assert flags[1] == ContactFlag(100, True, 1.0, 0, "c")

    def test_scan_at_the_latest_end_is_scored(self):
        flags = detect_contacts(self.USER, [self.CASE], CFG)
        assert flags[3] == ContactFlag(400, True, 1.0, 1, "c")

    def test_empty_segment_with_a_wider_window_changes_no_flag(self):
        empty = ProcessedProfile(
            [ProfileSegment(ProcessedVector({}), 0, 1000)], case_label="e")
        flags = detect_contacts(self.USER, [empty, self.CASE], CFG)
        assert flags == detect_contacts(self.USER, [self.CASE], CFG)
        assert [(f.in_contact, f.best_score) for f in flags] == [
            (False, 0.0), (True, 1.0), (False, 0.0), (True, 1.0),
            (False, 0.0)]


def flags_at_minute_spacing(pattern: str) -> list[ContactFlag]:
    return [ContactFlag(i * 60, c == "T", 1.0 if c == "T" else 0.0,
                        0 if c == "T" else None, "c" if c == "T" else None)
            for i, c in enumerate(pattern)]


class TestAggregateEpisodes:
    def test_five_true_then_five_false(self):
        report = aggregate_episodes(flags_at_minute_spacing("TTTTTFFFFF"), CFG)
        assert len(report.episodes) == 1
        episode = report.episodes[0]
        assert (episode.start, episode.end) == (0, 240)
        assert episode.contact_minutes == 5.0

    def test_all_false(self):
        report = aggregate_episodes(flags_at_minute_spacing("FFFFFFFF"), CFG)
        assert report.episodes == ()

    def test_four_trues_insufficient(self):
        report = aggregate_episodes(flags_at_minute_spacing("TTTTFFFFFF"), CFG)
        assert report.episodes == ()

    def test_unordered_flags_rejected(self):
        flags = [ContactFlag(60, True, 1.0), ContactFlag(0, True, 1.0)]
        with pytest.raises(ValueError, match="ordered"):
            aggregate_episodes(flags, CFG)

    def test_matches_exhaustive_window_placement(self):
        for n in range(13):
            for bits in range(2 ** n):
                pattern = "".join(
                    "T" if bits & (1 << i) else "F" for i in range(n))
                flags = flags_at_minute_spacing(pattern)
                report = aggregate_episodes(flags, CFG)
                expected = episodes_brute(
                    [(f.timestamp, f.in_contact) for f in flags],
                    CFG.window_length, CFG.min_exposure, CFG.sampling_period)
                got = [(e.start, e.end,
                        round(e.contact_minutes * 60 / CFG.sampling_period))
                       for e in report.episodes]
                assert got == expected, pattern

    def test_episodes_disjoint_and_big_enough(self, rng):
        for _ in range(100):
            pattern = "".join(rng.choice("TF") for _ in range(rng.randint(0, 30)))
            report = aggregate_episodes(flags_at_minute_spacing(pattern), CFG)
            spans = [(e.start, e.end) for e in report.episodes]
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert e1 < s2
            for episode in report.episodes:
                n_true = episode.contact_minutes * 60 / CFG.sampling_period
                assert n_true >= CFG.min_true_flags

    def test_irregular_timestamps(self):
        # trues at 0, 90, 200, 290, 500: five within [0, 500] <= 600 window
        times = [0, 90, 200, 290, 500]
        flags = [ContactFlag(t, True, 1.0, 0, "c") for t in times]
        report = aggregate_episodes(flags, CFG)
        assert len(report.episodes) == 1
        assert (report.episodes[0].start, report.episodes[0].end) == (0, 500)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), window=st.integers(120, 900),
           period=st.integers(1, 300), start=st.integers(-10**6, 10**6))
    def test_irregular_times_match_exhaustive_window_placement(
            self, data, window, period, start):
        # at most 8 true flags needed, so 60 flags can make several episodes
        min_exposure = data.draw(st.integers(1, min(window, 8 * period)))
        cfg = DetectionConfig(window_length=window, min_exposure=min_exposure,
                              sampling_period=period)
        gaps = data.draw(st.lists(st.integers(1, 3 * window), max_size=60))
        marks = data.draw(st.lists(st.sampled_from([None, "a", "b", "c"]),
                                   min_size=len(gaps), max_size=len(gaps)))
        times = [start + sum(gaps[:i]) for i in range(len(gaps))]
        flags = [ContactFlag(t, label is not None, 1.0 if label else 0.0,
                             0 if label else None, label)
                 for t, label in zip(times, marks)]
        report = aggregate_episodes(flags, cfg)
        expected = episodes_brute(
            [(f.timestamp, f.in_contact) for f in flags],
            window, min_exposure, period)
        got = [(e.start, e.end, round(e.contact_minutes * 60 / period))
               for e in report.episodes]
        assert got == expected
        label_at = {f.timestamp: f.matched_case for f in flags}
        assert [e.case_label for e in report.episodes] == [
            label_at[e.start] for e in report.episodes]

    def test_case_attribution_follows_first_true_flag(self):
        flags = [ContactFlag(i * 60, True, 1.0, 0, "alpha" if i < 3 else "beta")
                 for i in range(6)]
        report = aggregate_episodes(flags, CFG)
        assert report.episodes[0].case_label == "alpha"


class TestMatchAndNotify:
    def test_empty_published_no_episodes(self, rng):
        user = make_profile(rng, n_vectors=10, spacing=(60, 60))
        report = match_and_notify(user, [], CFG)
        assert report.episodes == () and len(report.flags) == 10

    def test_six_minutes_close_then_half_hour_far(self):
        # simulated ground truth: one episode from the co-located stretch only
        from wifitrace.model import LifespanSchedule
        from wifitrace.processing import build_case_profile
        from wifitrace.simulator import (SimTrajectory, make_site,
                                         simulate_profile, stationary)

        env, layout = make_site("office", seed=5)
        spot = layout.center
        case_walk = simulate_profile(env, stationary(spot, 0, 2160), 60,
                                     stream=1)
        published = [build_case_profile(case_walk,
                                        LifespanSchedule(default=0),
                                        case_label="case")]
        near, far = (spot[0] + 1.0, spot[1]), (-40.0, -40.0)
        user_path = SimTrajectory(((0, near), (359, near), (360, far),
                                   (2160, far)))
        user = simulate_profile(env, user_path, 60, stream=2)
        report = match_and_notify(user, published, CFG)
        assert len(report.episodes) == 1
        assert report.episodes[0].start == 0
        assert report.episodes[0].end <= 360

    def test_sustained_match_becomes_episode(self):
        user = SignalProfile([SignalVector({X: -50}, t) for t in
                              range(0, 600, 60)])
        published = [point_profile({X: -50}, 0, 600, label="c")]
        report = match_and_notify(user, published, CFG)
        assert len(report.episodes) == 1
        assert report.summary()["contacts"] == 10


class TestReportSerialization:
    def test_line_shapes(self):
        user = SignalProfile([SignalVector({X: -50}, t) for t in
                              range(0, 360, 60)])
        report = match_and_notify(user, [point_profile({X: -50}, 0, 600,
                                                       label="c 1")], CFG)
        text = serialize_report(report).decode()
        lines = text.splitlines()
        assert lines[0] == "vcontact-report/1"
        assert sum(1 for l in lines if l.startswith("flag ")) == 6
        assert sum(1 for l in lines if l.startswith("episode ")) == 1
        assert lines[-1].startswith("summary flags=6 contacts=6 episodes=1")
        assert "case=c%201" in text
