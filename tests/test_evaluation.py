import csv

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wifitrace import evaluation as ev, simulator
from wifitrace.evaluation import (
    CSV_COLUMNS,
    CalibrationPoint,
    DEFAULT_ALPHA_GRID,
    ProximityData,
    calibrate,
    collect_proximity_data,
    pick_intersection,
    record_score,
    run_inout_suite,
    sweep_scores,
    write_csv,
)
from wifitrace.model import (
    LifespanSchedule,
    ProcessedProfile,
    ProcessedVector,
    ProfileSegment,
    SignalProfile,
    SignalVector,
)
from wifitrace.processing import _case_columns, build_area_profile
from wifitrace.similarity import (_Columns, _ScanBatch, _score_columns, aed,
                                  amd, jaccard)
from wifitrace.simulator import (PRESET_NAMES, DeviceParams, SimTrajectory,
                                 make_site, simulate_profile, stationary)

from conftest import (ID_POOL, assert_same_columns, brute_columns,
                      brute_detected, make_processed_profile, make_vector)
import oracles
from oracles import prf_brute

X, Y = ID_POOL[0], ID_POOL[1]


def prf(truth: set, detected: set) -> tuple[float, float, float]:
    """``_prf`` over the counts of two index sets, checked bit for bit
    against the set oracle."""
    got = ev._prf(len(truth & detected), len(detected), len(truth))
    assert got == prf_brute(truth, detected)
    return got


class TestPrecisionRecallF1:
    def test_perfect_detection(self):
        assert prf({1, 2}, {1, 2}) == (1.0, 1.0, 1.0)

    def test_disjoint_sets(self):
        assert prf({1, 2}, {3, 4}) == (0.0, 0.0, 0.0)

    def test_partial_overlap(self):
        truth = set(range(10))
        detected = set(range(4, 12))  # |Db| = 8, overlap 6
        p, r, f1 = prf(truth, detected)
        assert (p, r) == (0.75, 0.6)
        assert f1 == pytest.approx(2 / 3)

    def test_empty_detected_conventions(self):
        assert prf(set(), set()) == (1.0, 1.0, 1.0)
        assert prf({1}, set())[:2] == (0.0, 0.0)

    def test_empty_truth_recall_one(self):
        p, r, f1 = prf(set(), {1})
        assert r == 1.0 and p == 0.0 and f1 == 0.0

    def test_matches_oracle_on_random_sets(self, rng):
        for _ in range(200):
            truth = {i for i in range(20) if rng.random() < 0.4}
            detected = {i for i in range(20) if rng.random() < 0.4}
            prf(truth, detected)


# scores with many ties, and thresholds that often equal a drawn score
levels = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
sweep_scores_in = st.lists(levels | st.floats(-1, 2), max_size=30)


@settings(max_examples=300)
@given(scores=sweep_scores_in, data=st.data(), below=st.booleans())
def test_sweep_scores_is_the_set_oracle_at_every_threshold(scores, data,
                                                            below):
    truth = data.draw(st.lists(st.booleans(), min_size=len(scores),
                               max_size=len(scores)))
    thresholds = levels | st.floats(-1, 2)
    if scores:
        thresholds |= st.sampled_from(scores)
    grid = data.draw(st.lists(thresholds, min_size=1, max_size=8))
    points = sweep_scores(np.array(scores, dtype=float), np.array(truth, bool),
                          grid, detect_below=below)
    true = {i for i, t in enumerate(truth) if t}
    assert [(p.alpha, p.precision, p.recall, p.f1) for p in points] == [
        (theta, *prf_brute(true, {i for i, s in enumerate(scores)
                                  if (s <= theta if below else s >= theta)}))
        for theta in grid]


# drills built by hand put contacts at 1 m and everything else at 2 m, and
# label them at a 1 m proximity
CONTACT, FAR = 1.0, 2.0


def drill(scans) -> ProximityData:
    """(scan, contact) pairs as a drill against one always-valid segment."""
    processed = ProcessedProfile(
        [ProfileSegment(ProcessedVector({X: (-50, -50)}), 0, 10_000)])
    vectors, contacts = zip(*scans)
    return ProximityData(_Columns.from_segments(processed.segments),
                         _ScanBatch.from_vectors(vectors),
                         np.where(contacts, CONTACT, FAR))


def drill_from_scores(pairs) -> ProximityData:
    """(score-of-one-shared-id, contact) pairs encoded as real scans whose
    single-AP similarity equals 1 / (gap + 1)."""
    return drill((SignalVector({X: -50 - gap}, i), contact)
                 for i, (gap, contact) in enumerate(pairs))


def sweep(data: ProximityData) -> list[CalibrationPoint]:
    return sweep_scores(data.scores(), data.truth(CONTACT))


class TestSweepScores:
    def test_separable_dataset_intersects_at_smallest_alpha(self):
        # contacts score exactly 1.0, non-contacts exactly 0.0 (disjoint ids)
        data = drill(
            [(SignalVector({X: -50}, i), True) for i in range(5)]
            + [(SignalVector({Y: -50}, 5 + i), False) for i in range(5)])
        points = sweep(data)
        for point in points:
            assert (point.precision, point.recall) == (1.0, 1.0)
        assert pick_intersection(points).alpha == DEFAULT_ALPHA_GRID[0]

    def test_recall_non_increasing_everywhere(self, rng):
        pairs = [(rng.randint(0, 30), rng.random() < 0.5) for _ in range(200)]
        if not any(c for _, c in pairs):
            pairs[0] = (0, True)
        points = sweep(drill_from_scores(pairs))
        recalls = [p.recall for p in points]
        assert all(b <= a for a, b in zip(recalls, recalls[1:]))

    def test_threshold_set_nesting_is_exact(self, rng):
        data = drill_from_scores(
            [(rng.randint(0, 30), rng.random() < 0.5) for _ in range(100)])
        scores = data.scores()
        previous = None
        for alpha in DEFAULT_ALPHA_GRID:
            detected = {i for i, s in enumerate(scores) if s >= alpha}
            if previous is not None:
                assert detected <= previous
            previous = detected

    def test_degenerate_zero_zero_points_not_selected(self):
        # all scores far below 1.0: thresholds above them give (0, 0)
        data = drill_from_scores([(3, True)] * 6 + [(20, False)] * 6)
        best = calibrate(data.scores(), data.truth(CONTACT))
        assert best.precision + best.recall > 0

    def test_default_grid_is_the_alpha_grid(self):
        data = drill_from_scores([(i % 7, i % 3 == 0) for i in range(50)])
        points = sweep(data)
        assert tuple(p.alpha for p in points) == DEFAULT_ALPHA_GRID
        assert points == sweep_scores(data.scores(), data.truth(CONTACT),
                                      list(DEFAULT_ALPHA_GRID))

    def test_deterministic(self):
        data = drill_from_scores([(i % 7, i % 3 == 0) for i in range(50)])
        a = sweep(data)
        b = sweep(data)
        assert a == b


class TestPickIntersection:
    def test_pick_intersection_prefers_smaller_alpha_on_ties(self):
        points = (
            CalibrationPoint(0.1, 0.6, 0.6, 0.6),
            CalibrationPoint(0.2, 0.7, 0.7, 0.7),
        )
        assert pick_intersection(points).alpha == 0.1


class TestRecordScore:
    def test_max_over_covering_segments_only(self, rng):
        for _ in range(50):
            vec = make_vector(rng, rng.randint(0, 6),
                              timestamp=rng.randint(0, 1500))
            profile = make_processed_profile(rng, rng.randint(1, 5))
            (expected,), _ = brute_columns([vec], profile.segments)
            assert record_score(vec, profile) == expected


def inout_drill_ref(env, layout):
    """The in/out drill one profile per walk: the survey's scans, then the
    inside spots' and the outside spots' scans."""
    (x0, y0), (x1, y1) = layout.walk_area
    corners = [(x0 + 1, y0 + 1), (x1 - 1, y0 + 1), (x1 - 1, y1 - 1),
               (x0 + 1, y1 - 1), (x0 + 1, y0 + 1)]
    survey = simulate_profile(
        env, SimTrajectory(tuple((60 * i, c) for i, c in enumerate(corners))),
        5, stream=3000).vectors
    inside = [(float(x), float(y)) for x in np.linspace(x0 + 1, x1 - 1, 3)
              for y in np.linspace(y0 + 1, y1 - 1, 3)]
    (cx, cy), w, h = layout.center, (x1 - x0) / 2, (y1 - y0) / 2
    outside = [spot for m in (5.0, 10.0) for spot in (
        (cx - w - m, cy), (cx + w + m, cy), (cx, cy - h - m), (cx, cy + h + m))]

    def scans(spots, stream):
        return [vec for j, spot in enumerate(spots) for vec in simulate_profile(
            env, stationary(spot, 0, 60), 5, stream=stream + j).vectors]

    return survey, scans(inside, 3100), scans(outside, 3200)


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_inout_suite_is_the_study_over_the_drills_dicts(preset):
    for seed in (1, 2):
        env, layout = make_site(preset, seed=seed)
        survey, scans, n_inside = ev._inout_drill(env, layout)
        vectors = scans.vectors()
        # the drill draws what one profile per walk draws
        assert (survey.vectors(), vectors[:n_inside], vectors[n_inside:]) == \
            tuple(map(list, inout_drill_ref(env, layout)))
        area = build_area_profile(SignalProfile(survey.vectors()), 0,
                                  ev._INOUT_STAY, ev._INOUT_LIFESPAN)
        detected = brute_detected(vectors, area.segments, 0.2)
        precision, recall, _ = prf_brute(set(range(n_inside)), detected)
        assert run_inout_suite(preset, [seed], alpha=0.2) == [dict(
            seed=seed, alpha=0.2, precision=precision, recall=recall)]


def inout_scores(area, inside, outside, alpha):
    """``run_inout_suite``'s scoring and evaluation over an area profile and
    dict scans, inside first: precision and recall."""
    scores, _ = _score_columns(_ScanBatch.from_vectors([*inside, *outside]),
                               _Columns.from_segments(area.segments))
    (point,) = sweep_scores(scores, np.arange(len(scores)) < len(inside),
                            [alpha])
    return point.precision, point.recall


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_inout_drill_scans_lie_in_the_area_window(preset):
    # so the time gate passes every test scan to the area's one segment
    survey, scans, _ = ev._inout_drill(*make_site(preset, seed=1))
    for batch in (survey, scans):
        times = batch.times
        assert len(times) and times.min() >= 0
        assert times.max() <= ev._INOUT_STAY + ev._INOUT_LIFESPAN


class TestInOutStudy:
    def area(self, ranges=None):
        ranges = ranges or {X: (-70, -40), Y: (-80, -50)}
        return ProcessedProfile([ProfileSegment(ProcessedVector(ranges), 0, 600)])

    def test_empty_outside_all_inside_detected(self):
        inside = [SignalVector({X: -50, Y: -60}, t) for t in range(5)]
        assert inout_scores(self.area(), inside, [], alpha=0.2) == (1.0, 1.0)

    def test_disjoint_ap_environment_no_false_positives(self, rng):
        inside = [SignalVector({X: -50, Y: -60}, t) for t in range(5)]
        # scans from a site sharing no APs force zero similarity
        outside = [
            SignalVector({ID_POOL[10 + i]: -50}, t)
            for t in range(5) for i in (0, 1)
        ]
        precision, recall = inout_scores(self.area(), inside, outside, 0.2)
        assert (precision, recall) == (1.0, 1.0)

    def test_matches_brute_force_classification(self, rng):
        area = make_processed_profile(rng, 2)
        inside = [make_vector(rng, rng.randint(0, 5), t) for t in range(30)]
        outside = [make_vector(rng, rng.randint(0, 5), t) for t in range(30)]
        alpha = 0.3
        precision, recall = inout_scores(area, inside, outside, alpha)
        detected = brute_detected(inside + outside, area.segments, alpha)
        expected = prf_brute(set(range(len(inside))), detected)
        assert (precision, recall) == expected[:2]


class TestCsvOutput:
    def test_fixed_schema_round_trip(self, tmp_path):
        rows = [dict(seed=1, k=2.0, alpha=0.4, precision=0.8, recall=0.79,
                     f1=0.795)]
        path = tmp_path / "out.csv"
        write_csv(path, rows, CSV_COLUMNS["proximity"])
        with open(path, newline="") as fh:
            got = list(csv.DictReader(fh))
        assert got[0]["k"] == "2.0" and got[0]["f1"] == "0.795"

    def test_missing_column_is_an_error(self, tmp_path):
        with pytest.raises(KeyError):
            write_csv(tmp_path / "out.csv", [dict(seed=1)],
                      CSV_COLUMNS["proximity"])


class TestSweepDegenerateInputs:
    def test_single_record_dataset_follows_conventions(self):
        data = drill_from_scores([(0, True)])  # one contact scoring 1.0
        assert all(p.precision == p.recall == p.f1 == 1.0
                   for p in sweep(data))
        lone_negative = drill_from_scores([(4, False)])  # scores 0.2
        for p in sweep(lone_negative):
            if p.alpha <= 0.2:  # detected: precision 0 (truth empty -> r=1)
                assert (p.precision, p.recall, p.f1) == (0.0, 1.0, 0.0)
            else:  # nothing detected and nothing to detect
                assert (p.precision, p.recall, p.f1) == (1.0, 1.0, 1.0)


@pytest.mark.parametrize("area", [((0, 0), (3, 3)), ((0, 0), (5.9, 5.9)),
                                  ((0, 0), (2, 7.6))])
def test_random_walk_refuses_an_area_too_small_to_walk(area):
    # a walk redraws targets under 2 m away, which such an area may not hold
    with pytest.raises(ValueError, match="too small to walk"):
        ev.random_walk(area, 60, 1)


def rows_per_variant(preset, seed, knobs, proximity):
    """The devices and sampling rows of ``run_robustness_suite`` for one
    seed, each phone model's drill and each period's two walks simulated
    by one ``_simulate_batch`` of their own."""
    env, layout = make_site(preset, seed=seed)

    def drill(device):
        return ev._simulate_batch(env, [
            (stationary(layout.line_position(i), 0, 600, device),
             ev._USER_STREAM + i) for i in range(1, 11)], 5)

    data = ev._proximity_data(ev._case_batch(env, layout),
                              drill(DeviceParams()))
    truth = data.truth(proximity)
    alpha = calibrate(data.scores(), truth).alpha
    devices = [ev.point_row(
        calibrate(_score_columns(drill(DeviceParams(bias, rate)),
                                 data.case)[0], truth),
        seed=seed, device_bias=bias, device_detect_rate=rate)
        for bias, rate in knobs.device_pairs]
    case_walk, user_walk = (ev.random_walk(layout.site_area, 3600, seed,
                                           offset=offset)
                            for offset in (0.0, 0.25))
    sampling = []
    for period in knobs.sampling_periods:
        case = ev._simulate_batch(
            env, [(case_walk, ev._CASE_STREAM + 500)], period)
        user = ev._simulate_batch(
            env, [(user_walk, ev._USER_STREAM + 500)], period)
        recall = 0.0
        if len(case) >= 2:
            scores, _ = _score_columns(user, _case_columns(
                case, LifespanSchedule(default=0), max(600, period + 1)))
            (point,) = sweep_scores(scores, np.ones(len(user), dtype=bool),
                                    [alpha])
            recall = point.recall
        sampling.append(dict(seed=seed, sampling_period=period, alpha=alpha,
                             recall=recall))
    return devices, sampling


class TestRobustnessSuite:
    @settings(max_examples=12, deadline=None)
    @given(preset=st.sampled_from(["office", "mall"]),
           seed=st.one_of(st.integers(0, 2**32 - 1),
                          st.integers(2**32, 2**64 - 1)),
           periods=st.lists(st.sampled_from([10, 20, 45, 80, 600, 5000]),
                            max_size=4),
           pairs=st.lists(st.tuples(st.sampled_from([0.0, -3.0, 6.5]),
                                    st.sampled_from([1.0, 0.9, 0.7])),
                          max_size=3))
    # periods out of order, repeated and longer than the walk; the plain
    # device among the pairs, twice; a seed past 32 bits seeds scan by scan,
    # and the mall's walk at 10 s spans two blocks of draws
    @example(preset="mall", seed=2**32 + 1, periods=[80, 10, 10, 5000],
             pairs=[(0.0, 1.0), (-3.0, 0.9), (0.0, 1.0)])
    @example(preset="office", seed=1, periods=[80, 60, 40, 20, 10, 80],
             pairs=[(-6.0, 0.7), (0.0, 1.0)])
    def test_device_and_sampling_rows_equal_one_batch_per_variant(
            self, preset, seed, periods, pairs):
        knobs = ev.RobustnessKnobs(filter_rates=(), noise_stds=(),
                                   sampling_periods=tuple(periods),
                                   device_pairs=tuple(pairs))
        tables = ev.run_robustness_suite(preset, (seed,), knobs)
        devices, sampling = rows_per_variant(preset, seed, knobs,
                                             ev.StudyParams.proximity)
        assert tables["devices"] == devices
        assert tables["sampling"] == sampling

    def test_an_office_suite_builds_each_scan_generator_once(self,
                                                             monkeypatch):
        built = []
        scan_rngs = simulator._scan_rngs

        def counting(env, stream, first, n):
            for rng in scan_rngs(env, stream, first, n):
                built.append((stream, first))
                first += 1
                yield rng

        monkeypatch.setattr(simulator, "_scan_rngs", counting)
        ev.run_robustness_suite("office", (1,))
        # the drill's 120 case and 1200 user scans, and 362 on each walk at
        # 10 s; one generator per device pair and sampling period built 7602
        assert len(built) == len(set(built)) == 2044

    def test_identity_perturbations_equal_baseline(self):
        from wifitrace.evaluation import (RobustnessKnobs,
                                          run_robustness_suite)
        tables = run_robustness_suite(
            "office", seeds=(1,),
            knobs=RobustnessKnobs(filter_rates=(0.0, 0.5),
                                  noise_stds=(0.0,),
                                  sampling_periods=(), device_pairs=()))
        env, layout = make_site("office", seed=1)
        data = collect_proximity_data(env, layout)
        truth = data.truth(2)
        alpha = pick_intersection(
            sweep_scores(data.scores(), truth, DEFAULT_ALPHA_GRID)).alpha
        p, r, f1 = prf_brute(set(np.flatnonzero(truth).tolist()),
                             set(np.flatnonzero(data.scores() >= alpha).tolist()))
        zero_filter = next(row for row in tables["filter"]
                           if row["filter_rate"] == 0.0)
        zero_noise = next(row for row in tables["noise"]
                          if row["noise_std"] == 0.0)
        for row in (zero_filter, zero_noise):
            assert (row["precision"], row["recall"], row["f1"]) == (p, r, f1)
            assert row["alpha"] == alpha


    def test_sampling_rows_walk_the_site(self):
        from wifitrace.evaluation import RobustnessKnobs, run_robustness_suite
        knobs = RobustnessKnobs(filter_rates=(0.0,), noise_stds=(),
                                sampling_periods=(40, 7200), device_pairs=())
        tables = run_robustness_suite("office", seeds=(1,), knobs=knobs)
        (filter_row,) = tables["filter"]
        walk, too_long = tables["sampling"]
        assert walk["sampling_period"] == 40 and 0 <= walk["recall"] <= 1
        assert walk["alpha"] == too_long["alpha"] == filter_row["alpha"]
        # an hour's walk sampled every two hours is one scan: no segments
        assert too_long["sampling_period"] == 7200 and too_long["recall"] == 0.0
        again = run_robustness_suite("office", seeds=(1,), knobs=knobs)
        assert again["sampling"] == tables["sampling"]

    @pytest.mark.parametrize("period", [40, 80])
    def test_sampling_row_equals_per_scan_reference(self, period):
        from wifitrace.evaluation import (RobustnessKnobs, _CASE_STREAM,
                                          _USER_STREAM, random_walk,
                                          run_robustness_suite)
        from wifitrace.model import LifespanSchedule, SignalProfile
        from wifitrace.processing import build_case_profile
        seed = 3
        knobs = RobustnessKnobs(filter_rates=(), noise_stds=(),
                                sampling_periods=(period,), device_pairs=())
        (row,) = run_robustness_suite("office", seeds=(seed,),
                                      knobs=knobs)["sampling"]
        env, layout = make_site("office", seed=seed)
        # the per-scan simulator, per-pair scoring and no batches
        case_walk, user_walk = (
            [SignalVector(readings, t) for t, readings in
             oracles.simulate_profile_ref(
                 env, random_walk(layout.site_area, 3600, seed, offset=offset),
                 period, stream=stream)]
            for offset, stream in ((0.0, _CASE_STREAM + 500),
                                   (0.25, _USER_STREAM + 500)))
        processed = build_case_profile(SignalProfile(case_walk),
                                       LifespanSchedule(default=0),
                                       max_gap=max(600, period + 1))
        hits = len(brute_detected(user_walk, processed.segments, row["alpha"]))
        assert 0 < hits < len(user_walk)
        assert row == dict(seed=seed, sampling_period=period,
                           alpha=row["alpha"], recall=hits / len(user_walk))

    def test_sampling_walks_each_path_once_per_seed(self, monkeypatch):
        from wifitrace import evaluation
        from wifitrace.evaluation import (RobustnessKnobs, random_walk,
                                          run_robustness_suite)
        knobs = RobustnessKnobs(filter_rates=(), noise_stds=(),
                                sampling_periods=(20, 40, 60), device_pairs=())
        walks = []

        def counting(area, duration, walk_seed, offset=0.0):
            walks.append((walk_seed, offset))
            return random_walk(area, duration, walk_seed, offset=offset)

        monkeypatch.setattr(evaluation, "random_walk", counting)
        tables = run_robustness_suite("office", seeds=(1, 2), knobs=knobs)
        assert walks == [(1, 0.0), (1, 0.25), (2, 0.0), (2, 0.25)]
        assert len(tables["sampling"]) == 6

    def test_filter_row_drops_one_site_wide_id_draw(self):
        from wifitrace.evaluation import (RobustnessKnobs, case_raw_vectors,
                                          run_robustness_suite, sweep_scores)
        from wifitrace.model import LifespanSchedule
        from wifitrace.processing import build_case_profile
        seed, rate, k = 1, 0.5, 2.0
        tables = run_robustness_suite(
            "office", seeds=(seed,), proximity=k,
            knobs=RobustnessKnobs(filter_rates=(rate,), noise_stds=(),
                                  sampling_periods=(), device_pairs=()))
        env, layout = make_site("office", seed=seed)
        data = collect_proximity_data(env, layout)
        truth = data.truth(k)
        alpha = pick_intersection(
            sweep_scores(data.scores(), truth, DEFAULT_ALPHA_GRID)).alpha
        # one draw over the distinct ids of every position's scans together
        ids = sorted({sid for vec, _ in data.vectors for sid in vec.readings})
        draws = np.random.default_rng((seed, 0xF117E2)).random(len(ids))
        removed = {sid for sid, u in zip(ids, draws) if u < rate}
        assert 0 < len(removed) < len(ids)
        processed = build_case_profile(case_raw_vectors(env, layout),
                                       LifespanSchedule(default=0))
        kept = [SignalVector({sid: r for sid, r in vec.readings.items()
                              if sid not in removed}, vec.timestamp)
                for vec, _ in data.vectors]
        detected = brute_detected(kept, processed.segments, alpha)
        expected = prf_brute(set(np.flatnonzero(truth).tolist()), detected)
        (row,) = tables["filter"]
        assert row["alpha"] == alpha
        assert (row["precision"], row["recall"], row["f1"]) == expected

    def test_noise_row_perturbs_each_position_once(self, monkeypatch):
        from wifitrace.evaluation import (RobustnessKnobs, _CASE_STREAM,
                                          _USER_STREAM, run_robustness_suite,
                                          sweep_scores)
        from wifitrace.model import LifespanSchedule
        from wifitrace.processing import build_case_profile
        from wifitrace.simulator import (DeviceParams, perturb_rssi_noise,
                                         simulate_profile, stationary)
        seed, std, k = 1, 4.0, 2.0
        bias, rate = -3.0, 0.9
        drawn = []
        draw = simulator._scan_draws

        def counting(env, stream, first, n):
            drawn.extend((stream, i) for i in range(first, first + n))
            return draw(env, stream, first, n)

        # every simulated scan, dict or batch, takes its draws here
        monkeypatch.setattr(simulator, "_scan_draws", counting)
        tables = run_robustness_suite(
            "office", seeds=(seed,), proximity=k,
            knobs=RobustnessKnobs(filter_rates=(), noise_stds=(std,),
                                  sampling_periods=(),
                                  device_pairs=((bias, rate),)))
        # one proximity drill, each scan drawn once: the case's, and each
        # position's, which the other device reads too; noise re-simulates
        # nothing
        streams = [_CASE_STREAM] + [_USER_STREAM + i for i in range(1, 11)]
        assert sorted(drawn) == [(stream, i) for stream in streams
                                 for i in range(120)]
        monkeypatch.undo()
        env, layout = make_site("office", seed=seed)
        # the device row equals one from a fresh case walk and profile, with
        # every user position re-simulated under the device pair
        case = simulate_profile(env, stationary(layout.line_position(0), 0, 600),
                                5, stream=_CASE_STREAM)
        processed = build_case_profile(case, LifespanSchedule(default=0))
        walks = [simulate_profile(
            env, stationary(layout.line_position(i), 0, 600,
                            DeviceParams(bias, rate)),
            5, stream=_USER_STREAM + i).vectors for i in range(1, 11)]
        hetero = ProximityData(
            _Columns.from_segments(processed.segments),
            _ScanBatch.from_vectors(sum(walks, ())),
            np.repeat(np.arange(1.0, 11.0), list(map(len, walks))))
        best = calibrate(hetero.scores(), hetero.truth(k))
        assert tables["devices"] == [dict(
            seed=seed, device_bias=bias, device_detect_rate=rate,
            alpha=best.alpha, precision=best.precision, recall=best.recall,
            f1=best.f1)]
        data = collect_proximity_data(env, layout)
        truth = data.truth(k)
        alpha = pick_intersection(
            sweep_scores(data.scores(), truth, DEFAULT_ALPHA_GRID)).alpha
        # each position simulated alone, then noised with its own seed
        noisy = []
        for i in range(1, 11):
            profile = simulate_profile(
                env, stationary(layout.line_position(i), 0, 600), 5,
                stream=_USER_STREAM + i)
            noisy += perturb_rssi_noise(profile, std, seed * 10000 + i).vectors
        assert len(noisy) == len(data.vectors)
        assert all(n != vec for n, (vec, _) in zip(noisy, data.vectors))
        detected = brute_detected(noisy, processed.segments, alpha)
        expected = prf_brute(set(np.flatnonzero(truth).tolist()), detected)
        (row,) = tables["noise"]
        assert row["alpha"] == alpha
        assert (row["precision"], row["recall"], row["f1"]) == expected


def test_study_rows_are_the_sweep_intersections():
    from wifitrace.evaluation import (run_baseline_comparison,
                                      run_proximity_study)
    seed, ks = 1, (1.0, 2.0, 3.0, 4.0, 5.0)
    proximity = run_proximity_study("office", ks, seeds=(seed,))
    similarity = [row for row in run_baseline_comparison("office", ks, (seed,))
                  if row["metric"] == "similarity"]
    assert len(proximity) == len(similarity) == len(ks)
    data = collect_proximity_data(*make_site("office", seed=seed))
    for k, ours, baseline in zip(ks, proximity, similarity):
        best = calibrate(data.scores(), data.truth(k))
        metrics = dict(precision=best.precision, recall=best.recall, f1=best.f1)
        assert ours == dict(seed=seed, k=k, alpha=best.alpha, **metrics)
        assert baseline == dict(seed=seed, k=k, metric="similarity",
                                threshold=best.alpha, **metrics)


class TestDatasetConstruction:
    def test_drill_covers_ten_positions_with_distances(self):
        env, layout = make_site("office", seed=1)
        data = collect_proximity_data(env, layout)
        distances = sorted({d for _, d in data.vectors})
        assert distances == [float(i) for i in range(1, 11)]
        assert len(data.vectors) == 10 * 120
        assert len(data.case.length) == 119

    def test_vectors_are_built_once(self):
        data = collect_proximity_data(*make_site("office", seed=1))
        assert data.vectors is data.vectors
        assert data.vectors == tuple(
            zip(data.scans.vectors(), data.distances.tolist()))

    @pytest.mark.parametrize("preset, seed", [("office", 1), ("mall", 3)])
    def test_case_columns_are_the_raw_walk_processed(self, preset, seed):
        # the baselines' raw case walk is the walk whose segments are scored
        from wifitrace.evaluation import _NO_LIFESPAN, case_raw_vectors
        from wifitrace.processing import build_case_profile
        env, layout = make_site(preset, seed=seed)
        profile = build_case_profile(case_raw_vectors(env, layout),
                                     _NO_LIFESPAN)
        assert_same_columns(collect_proximity_data(env, layout).case,
                            _Columns.from_segments(profile.segments))

    def test_every_scan_time_covered_by_profile(self):
        env, layout = make_site("office", seed=1)
        data = collect_proximity_data(env, layout)
        case = data.case
        for vec, _ in data.vectors:
            t = vec.timestamp
            assert ((case.t_start <= t) & (t <= case.t_end)).any()


def linear_nearest(times, t):
    return min(range(len(times)), key=lambda i: (abs(times[i] - t), times[i]))


def paired_case_scans(case_times, user_times):
    """Which case scan ``_baseline_scores`` pairs each user scan with, read
    back from AMD: case scan i hears X at -i dBm, every user scan at 0."""
    case = _ScanBatch.from_vectors(
        [SignalVector({X: -i}, t) for i, t in enumerate(case_times)])
    users = _ScanBatch.from_vectors([SignalVector({X: 0}, t) for t in user_times])
    return ev._baseline_scores(users, case)[1].tolist()


@pytest.mark.parametrize("t", [
    -50, 0, 10, 20, 22,  # before the first scan, then on each scan
    5, 15, 21,  # exactly midway: the earlier scan
    4, 6, 16, 23, 10**6,  # nearer one side, after the last scan
])
def test_baselines_pair_the_linear_nearest_case_scan(t):
    times = [0, 10, 20, 22]
    assert paired_case_scans(times, [t]) == [linear_nearest(times, t)]
    assert paired_case_scans([7], [t]) == [0]


@given(times=st.lists(st.integers(-40, 40), min_size=1, unique=True),
       ts=st.lists(st.integers(-50, 50), max_size=10))
def test_baselines_pair_the_linear_nearest_on_any_walk(times, ts):
    times.sort()
    assert paired_case_scans(times, ts) == [linear_nearest(times, t)
                                            for t in ts]


@st.composite
def baseline_walks(draw):
    """User scans and a case walk (one scan or more) over overlapping slices
    of the id pool, so some ids are heard by one side only; scans may be
    empty, and user times include the midpoints between case scans."""
    times = sorted(draw(st.lists(st.integers(-40, 40), min_size=1,
                                 max_size=8, unique=True)))
    midway = [(a + b) // 2 for a, b in zip(times, times[1:]) if (a + b) % 2 == 0]
    at = st.integers(-50, 50) | st.sampled_from(midway or times)
    case_ids = st.dictionaries(st.sampled_from(ID_POOL[:10]),
                               st.integers(-100, 0), max_size=6)
    user_ids = st.dictionaries(st.sampled_from(ID_POOL[4:14]),
                               st.integers(-100, 0), max_size=6)
    case = [SignalVector(draw(case_ids), t) for t in times]
    users = draw(st.lists(st.builds(SignalVector, user_ids, at), max_size=8))
    return _ScanBatch.from_vectors(users), _ScanBatch.from_vectors(case)


@given(baseline_walks())
@settings(max_examples=300)
def test_baseline_scores_are_the_scalar_metrics_bit_for_bit(walks):
    users, case = walks
    case_scans, times = case.vectors(), case.times.tolist()
    pairs = [(u, case_scans[linear_nearest(times, u.timestamp)])
             for u in users.vectors()]
    if any(not (u.ids | c.ids) for u, c in pairs):
        with pytest.raises(ValueError, match="both vectors are empty"):
            ev._baseline_scores(users, case)
        return
    scores = ev._baseline_scores(users, case)
    for metric, got in zip((jaccard, amd, aed), scores):
        assert got.dtype == np.float64
        assert got.tolist() == [metric(u, c) for u, c in pairs]
    plain = [(dict(u.readings), dict(c.readings)) for u, c in pairs]
    for oracle, got in ((oracles.jaccard_brute, scores[0]),
                        (oracles.amd_brute, scores[1])):
        assert got.tolist() == [float(oracle(a, b)) for a, b in plain]


def test_baseline_scores_reject_a_pair_of_empty_scans():
    case = _ScanBatch.from_vectors([SignalVector({X: -50}, 0),
                                    SignalVector({}, 10)])
    heard = _ScanBatch.from_vectors([SignalVector({}, 4)])
    assert [s.tolist() for s in ev._baseline_scores(heard, case)] == \
        [[0.0], [50.0], [50.0]]
    with pytest.raises(ValueError, match="both vectors are empty"):
        ev._baseline_scores(_ScanBatch.from_vectors([SignalVector({}, 6)]),
                            case)


def test_baselines_build_no_dict_scans(monkeypatch):
    def refuse(*args):
        raise AssertionError("the baselines built a dict scan")

    monkeypatch.setattr(_ScanBatch, "vectors", refuse)
    monkeypatch.setattr(SignalVector, "_trusted", refuse)
    rows = ev.run_baseline_comparison("office", (2,), (1,))
    assert [row["metric"] for row in rows] == ["similarity", "jaccard",
                                               "amd", "aed"]


def test_baselines_simulate_the_case_once_per_seed(monkeypatch):
    simulated = []

    def simulate(env, walks, period):
        simulated.extend(stream for _, stream in walks)
        return simulate_batch(env, walks, period)

    simulate_batch = ev._simulate_batch
    monkeypatch.setattr(ev, "_simulate_batch", simulate)
    ev.run_baseline_comparison("office", (2, 3), (1, 2))
    assert simulated.count(ev._CASE_STREAM) == 2
