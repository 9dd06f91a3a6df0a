"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest -s -v tests/test_acceptance.py`` to see one
ACCEPTANCE PASS/FAIL line per criterion. Everything is deterministic: the
evaluation criteria run on the office preset with the fixed seed set below.
"""

import contextlib
import random
import threading

import pytest

from wifitrace.detection import (
    ContactFlag,
    DetectionConfig,
    aggregate_episodes,
    detect_contacts,
    match_and_notify,
)
from wifitrace.evaluation import (
    RobustnessKnobs,
    calibrate,
    collect_proximity_data,
    pick_intersection,
    run_baseline_comparison,
    run_robustness_suite,
    sweep_scores,
)
from wifitrace import exchange
from wifitrace.exchange import (
    ExchangeError,
    ProfileStore,
    SyncState,
    client_sync,
    fetch_since,
    publish,
    serve_in_thread,
)
from wifitrace.model import (
    LifespanSchedule,
    ProcessedVector,
    SignalProfile,
    SignalVector,
)
from wifitrace.processing import (
    build_area_profile,
    build_case_profile,
    build_processed_vector,
)
from wifitrace.profileio import serialize_profile
from wifitrace.similarity import (
    aed,
    amd,
    jaccard,
    overlap_ratio,
    rssi_difference,
    signal_similarity,
)
from wifitrace.simulator import make_site, simulate_profile, stationary

from conftest import ID_POOL, make_processed_profile, make_profile, make_vector
from oracles import (
    area_profile_brute,
    case_profile_brute,
    detect_brute,
    episodes_brute,
    similarity_fraction,
)

ACCEPTANCE_SEEDS = (1, 3, 5, 7, 9)
CFG = DetectionConfig()


@contextlib.contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE FAIL: {name}")
        raise
    print(f"\nACCEPTANCE PASS: {name}")


def test_c01_metric_exactness():
    with criterion("metric exactness (bounds, purity, symmetry, "
                   "rational-oracle composition, 1e-12)"):
        rng = random.Random(101)
        a = SignalVector({ID_POOL[0]: -50, ID_POOL[1]: -60}, 0)
        exact = ProcessedVector({ID_POOL[0]: (-50, -50),
                                 ID_POOL[1]: (-60, -60)})
        disjoint = ProcessedVector({ID_POOL[2]: (-60, -40)})
        assert signal_similarity(a, exact) == 1.0
        assert signal_similarity(a, disjoint) == 0.0

        for _ in range(10_000):
            vec = make_vector(rng, rng.randint(0, 10), pool=ID_POOL[:20])
            other = make_vector(rng, rng.randint(0, 10), pool=ID_POOL[:20])
            pv = build_processed_vector(
                make_vector(rng, rng.randint(0, 10), pool=ID_POOL[:20]),
                make_vector(rng, rng.randint(0, 10), pool=ID_POOL[:20]))
            score = signal_similarity(vec, pv)
            assert 0.0 <= score <= 1.0
            assert score == signal_similarity(vec, pv)  # purity
            oracle = similarity_fraction(dict(vec.readings), dict(pv.ranges))
            assert abs(score - float(oracle)) <= 1e-12
            # explicit composition O / (D + 1)
            d = rssi_difference(vec, pv)
            if d is None:
                assert score == 0.0
            else:
                assert score == overlap_ratio(vec, pv) / (d + 1.0)
            # symmetry of the symmetric metrics
            assert jaccard(vec, other) == jaccard(other, vec)
            if vec.ids | other.ids:
                assert amd(vec, other) == amd(other, vec)
                assert aed(vec, other) == aed(other, vec)


def test_c02_processed_profile_oracle_equivalence():
    with criterion("processed-profile construction equals brute-force "
                   "min/max/union on 1000 random profiles"):
        rng = random.Random(202)
        pool = ID_POOL[:15]
        for _ in range(1000):
            walk = make_profile(rng, n_vectors=rng.randint(2, 10),
                                max_ids=15, spacing=(5, 900), pool=pool)
            lifespans = [rng.randint(0, 2400) for _ in range(len(walk) - 1)]
            got = build_case_profile(walk, LifespanSchedule(per_segment=lifespans))
            scans = [(v.timestamp, dict(v.readings)) for v in walk.vectors]
            expected = case_profile_brute(scans, lifespans, max_gap=600)
            assert len(got) == len(expected)
            for seg, (ranges, t0, t1) in zip(got.segments, expected):
                assert dict(seg.vector.ranges) == ranges
                assert (seg.t_start, seg.t_end) == (t0, t1)

            area = build_area_profile(walk, 0, 1000, 1800)
            ranges, t0, t1 = area_profile_brute(scans, 0, 1000, 1800)
            assert dict(area.segments[0].vector.ranges) == ranges
            assert (area.segments[0].t_start, area.segments[0].t_end) == (t0, t1)


def test_c03_algorithm_equivalence():
    with criterion("per-timestamp detection equals no-early-break all-pairs "
                   "brute force on 1000 random instances"):
        rng = random.Random(303)
        for _ in range(1000):
            user = make_profile(rng, n_vectors=rng.randint(1, 15),
                                start=rng.randint(0, 500))
            published = [make_processed_profile(rng, rng.randint(1, 4))
                         for _ in range(rng.randint(0, 3))]
            alpha = rng.choice([0.05, 0.15, 0.3, 0.5, 0.8, 1.0])
            cfg = DetectionConfig(alpha=alpha)
            got = [f.in_contact for f in detect_contacts(user, published, cfg)]
            expected = detect_brute(
                [(v.timestamp, dict(v.readings)) for v in user.vectors],
                [[(dict(s.vector.ranges), s.t_start, s.t_end)
                  for s in p.segments] for p in published],
                alpha)
            assert got == expected


def test_c04_sliding_window_rule_exhaustive():
    with criterion("close-contact aggregation equals exhaustive window "
                   "placement for all flag sequences of length <= 12"):
        for n in range(13):
            for bits in range(2 ** n):
                flags = [
                    ContactFlag(i * 60, bool(bits & (1 << i)),
                                1.0 if bits & (1 << i) else 0.0)
                    for i in range(n)
                ]
                report = aggregate_episodes(flags, CFG)
                expected = episodes_brute(
                    [(f.timestamp, f.in_contact) for f in flags],
                    CFG.window_length, CFG.min_exposure, CFG.sampling_period)
                got = [
                    (e.start, e.end,
                     round(e.contact_minutes * 60 / CFG.sampling_period))
                    for e in report.episodes
                ]
                assert got == expected


def test_c05_calibration_trend():
    with criterion("threshold sweep: recall non-increasing, intersection "
                   "|p - r| <= 0.05, alpha ordering 1m >= 2m >= 4m"):
        env, layout = make_site("office", seed=1)
        data = collect_proximity_data(env, layout)
        intersections = {}
        for k in (1, 2, 4):
            points = sweep_scores(data.scores(), data.truth(k))
            recalls = [p.recall for p in points]
            assert all(b <= a for a, b in zip(recalls, recalls[1:]))
            best = pick_intersection(points)
            assert abs(best.precision - best.recall) <= 0.05
            intersections[k] = best.alpha
        assert intersections[1] >= intersections[2] >= intersections[4]


def test_c06_proximity_study_trend():
    with criterion("proximity study: precision and recall >= 0.5 at 2 m, "
                   "F1 non-decreasing over k in 1..5 m, per seed"):
        for seed in ACCEPTANCE_SEEDS:
            env, layout = make_site("office", seed=seed)
            data = collect_proximity_data(env, layout)
            f1s = []
            for k in (1, 2, 3, 4, 5):
                best = calibrate(data.scores(), data.truth(k))
                f1s.append(best.f1)
                if k == 2:
                    assert best.precision >= 0.5, f"seed {seed}"
                    assert best.recall >= 0.5, f"seed {seed}"
            assert all(b >= a for a, b in zip(f1s, f1s[1:])), (
                f"seed {seed}: F1 by k = {f1s}")


def test_c07_filter_robustness():
    with criterion("50% AP filtering on one side degrades F1 at 2 m by "
                   "<= 25%, per seed"):
        tables = run_robustness_suite(
            "office", ACCEPTANCE_SEEDS,
            RobustnessKnobs(filter_rates=(0.0, 0.5), noise_stds=(),
                            sampling_periods=(), device_pairs=()),
            proximity=2.0)
        baseline = {r["seed"]: r["f1"] for r in tables["filter"]
                    if r["filter_rate"] == 0.0}
        for row in tables["filter"]:
            if row["filter_rate"] == 0.5:
                assert row["f1"] >= 0.75 * baseline[row["seed"]], (
                    f"seed {row['seed']}: {row['f1']} vs {baseline[row['seed']]}")


def test_c08_baseline_dominance():
    with criterion("range similarity F1 within 0.05 of or above every "
                   "baseline at k in {2,3,4} m"):
        rows = run_baseline_comparison("office", (2, 3, 4), ACCEPTANCE_SEEDS)
        f1 = {(r["seed"], r["k"], r["metric"]): r["f1"] for r in rows}
        for seed in ACCEPTANCE_SEEDS:
            for k in (2, 3, 4):
                ours = f1[(seed, k, "similarity")]
                for metric in ("jaccard", "amd", "aed"):
                    theirs = f1[(seed, k, metric)]
                    assert ours >= theirs - 0.05, (
                        f"seed {seed} k={k}: {ours} vs {metric} {theirs}")


def test_c09_exchange_round_trip(tmp_path, monkeypatch):
    with criterion("exchange: byte-identical round trip, 100 concurrent "
                   "publishes totally ordered, failed sync leaves state "
                   "untouched"):
        store = ProfileStore(tmp_path / "server")
        with serve_in_thread(store) as server:
            walk = SignalProfile(
                [SignalVector({ID_POOL[0]: -50 - i}, i * 60) for i in range(5)])
            data = serialize_profile(
                build_case_profile(walk, LifespanSchedule(default=1800),
                                   case_label="case-acc"))
            rid = publish(server.endpoint, data)
            fetched = fetch_since(server.endpoint, 0)
            assert [r.record_id for r in fetched] == [rid]
            assert fetched[0].profile_bytes == data

            ids = []
            lock = threading.Lock()

            def upload(i):
                payload = serialize_profile(
                    build_case_profile(walk, LifespanSchedule(default=1800),
                                       case_label=f"case-{i}"))
                got = publish(server.endpoint, payload)
                with lock:
                    ids.append(got)

            threads = [threading.Thread(target=upload, args=(i,))
                       for i in range(100)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(set(ids)) == 100
            assert sorted(ids) == list(range(rid + 1, rid + 101))
            records = fetch_since(server.endpoint, 0)
            assert [r.record_id for r in records] == sorted(
                r.record_id for r in records)

            state = SyncState(tmp_path / "client")
            state.advance(3)
            cursor_bytes = (tmp_path / "client" / "cursor").read_bytes()
            user = SignalProfile([SignalVector({ID_POOL[0]: -50}, 0)])
            monkeypatch.setattr(exchange, "_RETRIES", 2)
            monkeypatch.setattr(exchange, "_BACKOFF", 0.01)
            with pytest.raises(ExchangeError):
                client_sync(state, "http://127.0.0.1:1", user)
            assert (tmp_path / "client" / "cursor").read_bytes() == cursor_bytes


def test_c10_lifespan_scenario():
    with criterion("lifespan scenario: arriving 10 min after the case left "
                   "-> one episode; 40 min after -> none (per seed)"):
        for seed in ACCEPTANCE_SEEDS:
            env, layout = make_site("office", seed=seed)
            spot = layout.center
            case_walk = simulate_profile(
                env, stationary(spot, 0, 900), 60, stream=1)
            published = [build_case_profile(
                case_walk, LifespanSchedule(default=1800), case_label="case")]

            soon = simulate_profile(
                env, stationary(spot, 1500, 2100), 60, stream=2)
            report = match_and_notify(soon, published, CFG)
            assert len(report.episodes) == 1, f"seed {seed}"

            late = simulate_profile(
                env, stationary(spot, 3300, 3900), 60, stream=3)
            report = match_and_notify(late, published, CFG)
            assert report.episodes == (), f"seed {seed}"
