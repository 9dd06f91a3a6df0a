import dataclasses
import math
import random
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from wifitrace.evaluation import RobustnessKnobs, random_walk
from wifitrace.model import RSSI_CEIL, RSSI_FLOOR, SignalProfile, SignalVector
from wifitrace.profileio import parse_profile, serialize_profile
from wifitrace.similarity import _ScanBatch, signal_similarity
from wifitrace.processing import build_processed_vector
from wifitrace.config import ScenarioError, load_scenario
from wifitrace.simulator import (
    _block_states,
    _drop_batch_ids,
    _scan_rngs,
    _simulate_batch,
    _simulate_variants,
    DeviceParams,
    Scenario,
    SimAp,
    SimEnvironment,
    SimTrajectory,
    emit_scenario,
    make_site,
    perturb_rssi_noise,
    sample_scan,
    scan_times,
    simulate_profile,
    stationary,
)

from conftest import ID_POOL


def dropped(scans, rate, seed):
    """The scans through _drop_batch_ids, back as SignalVectors."""
    return _drop_batch_ids(_ScanBatch.from_vectors(scans), rate, seed).vectors()


def one_ap_env(tx=-40.0, n=2.0, std=0.0, floor=-100, seed=1):
    return SimEnvironment((SimAp(ID_POOL[0], (0.0, 0.0), tx),),
                          path_loss_exponent=n, shadowing_std=std,
                          detection_floor=floor, seed=seed)


def grid_env(count=25, std=0.0, floor=-100, seed=1, **kwargs):
    side = int(math.isqrt(count))
    aps = tuple(
        SimAp(ID_POOL[i], (3.0 * (i % side), 3.0 * (i // side)), -40.0)
        for i in range(count)
    )
    return SimEnvironment(aps, shadowing_std=std, detection_floor=floor,
                          seed=seed, **kwargs)


class TestSampleScan:
    def test_zero_distance_zero_noise(self):
        vec = sample_scan(one_ap_env(), (0.0, 0.0))
        assert vec.readings[ID_POOL[0]] == -40

    def test_closed_form_path_loss(self):
        vec = sample_scan(one_ap_env(), (10.0, 0.0))
        assert vec.readings[ID_POOL[0]] == -60

    def test_deterministic_per_key(self):
        env = grid_env(std=4.0)
        a = sample_scan(env, (5.0, 5.0), stream=2, index=7)
        b = sample_scan(env, (5.0, 5.0), stream=2, index=7)
        assert a == b
        c = sample_scan(env, (5.0, 5.0), stream=2, index=8)
        assert a != c

    def test_clamped_into_valid_range(self):
        strong = one_ap_env(tx=0.0)
        assert sample_scan(strong, (0.0, 0.0)).readings[ID_POOL[0]] <= RSSI_CEIL
        env = grid_env(std=30.0)
        vec = sample_scan(env, (5.0, 5.0))
        assert all(RSSI_FLOOR <= r <= RSSI_CEIL for r in vec.readings.values())

    def test_detection_floor_cuts_weak_aps(self):
        env = one_ap_env(floor=-50)
        assert len(sample_scan(env, (10.0, 0.0))) == 0  # -60 below -50 floor
        assert len(sample_scan(env, (1.0, 0.0))) == 1

    def test_expected_count_non_increasing_in_floor(self):
        counts = []
        for floor in (-90, -70, -60, -50):
            env = grid_env(std=3.0, floor=floor)
            scans = [sample_scan(env, (6.0, 6.0), index=i) for i in range(40)]
            counts.append(statistics.mean(len(s) for s in scans))
        assert counts == sorted(counts, reverse=True)

    def test_device_bias_shifts_readings(self):
        vec = sample_scan(one_ap_env(), (10.0, 0.0), DeviceParams(bias=-7.0))
        assert vec.readings[ID_POOL[0]] == -67

    def test_detect_rate_thins_scans(self):
        env = grid_env()
        full = sample_scan(env, (6.0, 6.0), DeviceParams(detect_rate=1.0))
        thin = [sample_scan(env, (6.0, 6.0), DeviceParams(detect_rate=0.3),
                            index=i) for i in range(60)]
        mean = statistics.mean(len(s) for s in thin)
        assert len(full) == 25
        assert 0.15 * 25 < mean < 0.45 * 25

    def test_invariants_rejected(self):
        with pytest.raises(ValueError):
            SimEnvironment((), path_loss_exponent=1.0)
        with pytest.raises(ValueError):
            SimEnvironment((), shadowing_std=-1.0)
        with pytest.raises(ValueError):
            DeviceParams(detect_rate=0.0)
        with pytest.raises(ValueError):
            SimTrajectory(((0, (0.0, 0.0)), (0, (1.0, 1.0))))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_radio_values_rejected(self, value):
        # a NaN bias or shadowing std would silently simulate empty scans
        with pytest.raises(ValueError, match="bias must be finite"):
            DeviceParams(bias=value)
        with pytest.raises(ValueError, match="shadowing_std must be finite"):
            SimEnvironment((), shadowing_std=value)

    def test_duplicate_ap_ids_rejected(self):
        # a scan batch has one column per id; two APs cannot share one
        aps = (SimAp(ID_POOL[0], (0.0, 0.0), -40.0),
               SimAp(ID_POOL[0], (5.0, 0.0), -40.0))
        with pytest.raises(ValueError, match="AP ids must be distinct"):
            SimEnvironment(aps)


class TestSimulateProfile:
    def test_ten_minutes_at_five_seconds_is_120_scans(self):
        profile = simulate_profile(grid_env(), stationary((6.0, 6.0), 0, 600), 5)
        assert len(profile) == 120
        assert profile.vectors[0].timestamp == 0
        assert profile.vectors[-1].timestamp == 595

    def test_single_waypoint_yields_one_scan_there(self):
        env = one_ap_env()
        profile = simulate_profile(env, SimTrajectory(((100, (10.0, 0.0)),)), 5)
        assert len(profile) == 1
        assert profile.vectors[0].timestamp == 100
        assert profile.vectors[0].readings[ID_POOL[0]] == -60

    def test_same_seed_same_profile(self):
        env = grid_env(std=3.0)
        traj = stationary((5.0, 5.0), 0, 300)
        assert simulate_profile(env, traj, 5) == simulate_profile(env, traj, 5)

    def test_position_interpolation(self):
        env = one_ap_env()
        traj = SimTrajectory(((0, (1.0, 0.0)), (100, (101.0, 0.0))))
        profile = simulate_profile(env, traj, 50)
        # scans at t=0 (d=1) and t=50 (d=51)
        assert profile.vectors[0].readings[ID_POOL[0]] == -40
        expected = round(-40 - 20 * math.log10(51))
        assert profile.vectors[1].readings[ID_POOL[0]] == expected


def stationary_pair(env, separation, duration):
    """Two co-timed stationary devices ``separation`` m apart, each on its
    own noise stream, as demo 02 places them."""
    return [simulate_profile(env, stationary((6.0, 6.0 + k), 0, duration), 5,
                             stream=stream)
            for stream, k in enumerate((0.0, separation))]


class TestPairedScenario:
    def test_zero_separation_zero_noise_identical_scans(self):
        a, b = stationary_pair(grid_env(), 0.0, 60)
        for va, vb in zip(a.vectors, b.vectors):
            assert dict(va.readings) == dict(vb.readings)

    def test_mean_similarity_decreases_with_separation(self):
        env = grid_env()
        base, _ = stationary_pair(env, 0.0, 120)
        means = []
        for sep in (0.0, 2.0, 5.0, 9.0):
            _, other = stationary_pair(env, sep, 120)
            scores = [
                signal_similarity(vb, build_processed_vector(va, va))
                for va, vb in zip(base.vectors, other.vectors)
            ]
            means.append(statistics.mean(scores))
        assert means == sorted(means, reverse=True)
        assert means[0] == 1.0


class TestPerturbations:
    def make_profile(self, env=None):
        env = env or grid_env(std=2.0)
        return simulate_profile(env, stationary((6.0, 6.0), 0, 300), 5)

    def test_filter_rate_zero_identity(self):
        scans = self.make_profile().vectors
        assert dropped(scans, 0.0, seed=3) == list(scans)

    def test_filter_rate_one_empties_all(self):
        scans = self.make_profile().vectors
        filtered = dropped(scans, 1.0, seed=3)
        assert all(len(v) == 0 for v in filtered)
        assert [v.timestamp for v in filtered] == [v.timestamp for v in scans]

    def test_filter_half_removes_about_half_the_ids(self):
        scans = self.make_profile().vectors
        survivors = []
        for seed in range(30):
            filtered = dropped(scans, 0.5, seed=seed)
            survivors.append(len({s for v in filtered for s in v.readings}))
        total = len({s for v in scans for s in v.readings})
        assert total == 25
        assert 0.3 * total < statistics.mean(survivors) < 0.7 * total

    def test_filter_deterministic_per_seed(self):
        scans = self.make_profile().vectors
        assert dropped(scans, 0.4, 9) == dropped(scans, 0.4, 9)
        assert dropped(scans, 0.4, 9) != dropped(scans, 0.4, 10)

    def test_scenario_filter_drops_ids_from_the_user_scans(self):
        env = grid_env(std=2.0, seed=4)
        walk = stationary((6.0, 6.0), 0, 300)
        plain = Scenario(env, walk, walk, user_period=5)
        filtered = Scenario(env, walk, walk, user_period=5, filter_rate=0.3)
        scans = plain.user_profile().vectors
        assert filtered.user_profile().vectors == tuple(
            dropped(scans, 0.3, seed=4))
        assert filtered.user_profile() != plain.user_profile()

    @pytest.mark.parametrize("std", [math.nan, math.inf, -1.0])
    def test_noise_std_must_be_finite_and_non_negative(self, std):
        # NaN noise would cast to the int64 minimum, not an RSSI
        with pytest.raises(ValueError, match="std must be finite and >= 0"):
            perturb_rssi_noise(self.make_profile(), std)

    def test_noise_zero_identity(self):
        profile = self.make_profile()
        assert perturb_rssi_noise(profile, 0.0, seed=3) == profile

    def test_noise_deterministic_and_clamped(self):
        profile = self.make_profile()
        a = perturb_rssi_noise(profile, 25.0, seed=3)
        assert a == perturb_rssi_noise(profile, 25.0, seed=3)
        for vec in a.vectors:
            assert all(RSSI_FLOOR <= r <= RSSI_CEIL for r in vec.readings.values())

    def test_noise_mean_absolute_change_tracks_folded_normal(self):
        # interior readings so clamping cannot bias the estimate
        profile = self.make_profile(grid_env(std=0.0))
        std = 6.0
        noisy = perturb_rssi_noise(profile, std, seed=3)
        changes = [
            abs(nv.readings[sid] - v.readings[sid])
            for v, nv in zip(profile.vectors, noisy.vectors)
            for sid in v.readings
        ]
        expected = std * math.sqrt(2 / math.pi)
        assert statistics.mean(changes) == pytest.approx(expected, rel=0.12)


def assert_same_scans(vectors, expected):
    """Equal readings, listed in id order, as int values."""
    assert [v.timestamp for v in vectors] == [t for t, _ in expected]
    for vec, (_, readings) in zip(vectors, expected):
        assert vec.readings == readings
        assert list(vec.readings.items()) == sorted(readings.items())
        assert all(type(r) is int for r in vec.readings.values())


def plain(vectors):
    return [(v.timestamp, dict(v.readings)) for v in vectors]


class TestMatchesReference:
    """The vectorised simulator draws exactly what the per-scan loop in
    oracles.py draws."""

    BIASED = DeviceParams(bias=-4.5, detect_rate=0.7)

    @pytest.mark.parametrize("name", ["office", "bus-station", "mall"])
    @pytest.mark.parametrize("device", [DeviceParams(), BIASED])
    def test_stationary_on_every_preset(self, name, device):
        env, layout = make_site(name, seed=5)
        walk = stationary(layout.center, 30, 1230, device)  # 240 scans
        assert_same_scans(
            simulate_profile(env, walk, 5, stream=3).vectors,
            oracles.simulate_profile_ref(env, walk, 5, stream=3))

    @pytest.mark.parametrize("name", ["office", "bus-station", "mall"])
    def test_random_walk_on_every_preset(self, name):
        env, layout = make_site(name, seed=2)
        walk = SimTrajectory(random_walk(layout.walk_area, 1800, 7).waypoints,
                             self.BIASED)
        assert_same_scans(
            simulate_profile(env, walk, 5, stream=1).vectors,
            oracles.simulate_profile_ref(env, walk, 5, stream=1))

    def test_single_waypoint(self):
        env, layout = make_site("office", seed=4)
        walk = SimTrajectory(((100, layout.center),), self.BIASED)
        assert_same_scans(simulate_profile(env, walk, 5).vectors,
                          oracles.simulate_profile_ref(env, walk, 5))

    def test_one_batch_over_several_walks(self):
        # each walk on its own stream with scan indices from 0, one after
        # another; a stream beyond 32 bits takes the per-scan seeding path
        env, layout = make_site("office", seed=6)
        walks = [
            (stationary(layout.line_position(2), 0, 300), 2002),
            (SimTrajectory(((100, layout.center),), self.BIASED), 7),
            (SimTrajectory(random_walk(layout.walk_area, 600, 3).waypoints,
                           self.BIASED), 2**40),
            (stationary(layout.line_position(9), 0, 300), 2009),
        ]
        expected = [scan for walk, stream in walks for scan in
                    oracles.simulate_profile_ref(env, walk, 5, stream=stream)]
        batch = _simulate_batch(env, walks, 5)
        assert batch.ids == sorted({sid for _, scan in expected
                                    for sid in scan})
        assert_same_scans(batch.vectors(), expected)

    @pytest.mark.parametrize("x,bias,rssi", [
        (0.0, 0.5, -40), (0.0, 1.5, -38), (0.0, -2.5, -42), (0.0, 45.0, 0),
        (1e6, 0.0, -100),
    ])
    def test_rounding_ties_and_clamping(self, x, bias, rssi):
        # no shadowing: at the AP rssi is exactly tx + bias, so a half-dB
        # bias is a rounding tie (half to even) and +45 dB clamps at 0; 1 km
        # away it clamps at -100, which still clears a -100 floor
        env = one_ap_env(tx=-40.0)
        walk = stationary((x, 0.0), 0, 20, DeviceParams(bias=bias))
        expected = oracles.simulate_profile_ref(env, walk, 5)
        assert_same_scans(simulate_profile(env, walk, 5).vectors, expected)
        assert expected[0][1] == {ID_POOL[0]: rssi}

    def test_no_aps(self):
        walk = stationary((1.0, 2.0), 0, 60)
        profile = simulate_profile(SimEnvironment(()), walk, 5)
        assert_same_scans(profile.vectors, [(t, {}) for t in range(0, 60, 5)])
        assert sample_scan(SimEnvironment(()), (1.0, 2.0)).readings == {}

    @pytest.mark.parametrize("index", [0, 1, 250, 2**40])
    def test_sample_scan(self, index):
        env, layout = make_site("mall", seed=9)
        vec = sample_scan(env, layout.center, self.BIASED, stream=4,
                          index=index, timestamp=17)
        assert_same_scans([vec], [(17, oracles.sample_scan_ref(
            env, layout.center, self.BIASED, stream=4, index=index))])

    @pytest.mark.parametrize("std", [0.0, 1.0, 2.5, 4.0, 8.0, 40.0])
    def test_rssi_noise(self, std):
        env, layout = make_site("bus-station", seed=3)
        walk = random_walk(layout.walk_area, 900, 2)
        profile = simulate_profile(env, walk, 5, device_tag="dev")
        noisy = perturb_rssi_noise(profile, std, seed=11)
        assert noisy.device_tag == "dev"
        assert_same_scans(noisy.vectors, oracles.perturb_rssi_noise_ref(
            plain(profile.vectors), std, seed=11))

    @pytest.mark.parametrize("rate", [0.0, 0.5, 1.0])
    def test_drop_batch_ids(self, rate):
        env, layout = make_site("mall", seed=3)
        walk = random_walk(layout.walk_area, 900, 4)
        scans = simulate_profile(env, walk, 5).vectors
        assert_same_scans(dropped(scans, rate, seed=6),
                          oracles.drop_ids_ref(plain(scans), rate, seed=6))

    def test_non_finite_position_rejected(self):
        env, _ = make_site("office")
        with pytest.raises(ValueError, match="finite"):
            sample_scan(env, (math.nan, 1.0))
        with pytest.raises(ValueError, match="finite"):
            sample_scan(SimEnvironment(()), (1.0, math.inf))
        walk = SimTrajectory(((0, (1.0, 1.0)), (60, (math.inf, 1.0))))
        with pytest.raises(ValueError, match="finite"):
            simulate_profile(env, walk, 5)


def assert_same_batch(got, want):
    assert got.ids == want.ids
    assert np.array_equal(got.times, want.times)
    assert got.rssi.dtype == want.rssi.dtype
    assert np.array_equal(got.rssi, want.rssi)


VARIANT = st.tuples(
    st.one_of(st.none(),
              st.builds(DeviceParams, st.sampled_from([0.0, -3.0, 6.5]),
                        st.sampled_from([1.0, 0.8, 0.3]))),
    st.sampled_from([1, 2, 5, 45, 700]))


class TestSimulateVariants:
    """Several (device, sampling period) variants of the same walks read one
    set of draws; each variant is the batch one _simulate_batch call makes
    with that device and period."""

    @settings(max_examples=20, deadline=None)
    @given(name=st.sampled_from(["office", "mall"]),
           seed=st.one_of(st.integers(0, 2**32 - 1),
                          st.integers(2**32, 2**64 - 1)),
           variants=st.lists(VARIANT, min_size=1, max_size=4),
           order=st.randoms(use_true_random=False))
    # past 32 bits the seed seeds scan by scan; at 1 s the mall walk spans
    # three blocks of draws (217 scans each on 301 APs)
    @example(name="mall", seed=2**40, variants=[
        (None, 1), (DeviceParams(-3.0, 0.8), 2), (None, 700), (None, 1)],
        order=random.Random(0))
    def test_each_variant_is_its_own_batch(self, name, seed, variants, order):
        env, layout = make_site(name, seed=seed)
        walks = [
            (SimTrajectory(random_walk(layout.walk_area, 600, 3).waypoints,
                           DeviceParams(bias=2.5, detect_rate=0.9)), 7),
            (stationary(layout.line_position(2), 0, 600), 2002),
        ]
        want = [_simulate_batch(env, [
            (trajectory if device is None
             else dataclasses.replace(trajectory, device=device), stream)
            for trajectory, stream in walks], period)
            for device, period in variants]
        got = _simulate_variants(env, walks, variants)
        assert len(got) == len(want)
        for batch, expected in zip(got, want):
            assert_same_batch(batch, expected)
        # in any order: no variant changes the draws the others read
        perm = list(range(len(variants)))
        order.shuffle(perm)
        shuffled = _simulate_variants(env, walks, [variants[i] for i in perm])
        for i, batch in zip(perm, shuffled):
            assert_same_batch(batch, want[i])


class TestSitePresets:
    @pytest.mark.parametrize("name,total,target", [
        ("office", 32, 19.02),
        ("bus-station", 109, 24.0),
        ("mall", 301, 46.29),
    ])
    def test_ap_totals_and_per_scan_averages(self, name, total, target):
        env, layout = make_site(name, seed=3)
        assert len(env.aps) == total
        profile = simulate_profile(env, stationary(layout.center, 0, 300), 5)
        mean = statistics.mean(len(v) for v in profile.vectors)
        assert mean == pytest.approx(target, rel=0.25)

    def test_layout_is_stable_across_scenario_seeds(self):
        env_a, _ = make_site("office", seed=1)
        env_b, _ = make_site("office", seed=2)
        assert env_a.aps == env_b.aps

    def test_explicit_radio_overrides_beat_the_preset(self):
        assert make_site("office")[0].detection_floor == -67
        env, _ = make_site("office", detection_floor=-80, shadowing_std=0.5)
        assert (env.detection_floor, env.shadowing_std) == (-80, 0.5)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="preset"):
            make_site("stadium")

    def test_line_positions_stay_inside_walk_area(self):
        for name in ("office", "bus-station", "mall"):
            _, layout = make_site(name)
            (x0, y0), (x1, y1) = layout.walk_area
            for i in range(11):
                x, y = layout.line_position(i)
                assert x0 <= x <= x1 and y0 <= y <= y1


@pytest.mark.parametrize("lifespan", [-5, 1.5, float("nan")])
def test_scenario_rejects_a_bad_lifespan_before_simulating(lifespan):
    walk = stationary((6.0, 6.0), 0, 60)
    with pytest.raises(ValueError, match="lifespan"):
        Scenario(grid_env(), walk, walk, lifespan=lifespan)


# each message follows the name of the period
@pytest.mark.parametrize("period, message", [
    (20.5, "must be a whole number of seconds, got 20.5"),
    (math.inf, "must be a whole number of seconds, got inf"),
    (math.nan, "must be a whole number of seconds, got nan"),
    (0, "must be positive, got 0"),
    (-1, "must be positive, got -1"),
])
def test_a_sampling_period_is_whole_seconds_above_zero(period, message):
    with pytest.raises(ValueError, match=f"^sampling_period {message}$"):
        scan_times(0, 100, period)
    walk = stationary((6.0, 6.0), 0, 60)
    for side in ("case", "user"):
        with pytest.raises(ValueError,
                           match=f"^{side} sampling_period {message}$"):
            Scenario(grid_env(), walk, walk, **{f"{side}_period": period})
    with pytest.raises(ValueError, match=f"^sampling period {message}$"):
        RobustnessKnobs(sampling_periods=(10, period))


def test_a_whole_float_sampling_period_is_taken_as_an_int():
    assert scan_times(0, 100, 20.0) == [0, 20, 40, 60, 80]


class TestScenarioConfig:
    CONFIG = """
[environment]
preset = office
seed = 5

[case]
waypoints = 0,15,15 600,15,15
sampling_period = 5
lifespan = 900
label = case-a

[user]
waypoints = 0,17,15 600,17,15
sampling_period = 60

[perturb]
filter_rate = 0.2
noise_std = 1.0
"""

    def test_load_and_emit(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(self.CONFIG)
        scenario = load_scenario(cfg)
        assert scenario.lifespan == 900
        assert scenario.case_label == "case-a"
        assert scenario.filter_rate == 0.2
        paths = emit_scenario(scenario, tmp_path / "out")
        for path in paths.values():
            assert (tmp_path / "out").exists()
        truth = (tmp_path / "out" / "truth.txt").read_text().splitlines()
        assert truth[0] == "vcontact-truth/1"
        assert truth[1].startswith("t=0 d=2.0")
        from wifitrace.profileio import read_profile
        from wifitrace.model import ProcessedProfile
        processed = read_profile(paths["processed"])
        assert isinstance(processed, ProcessedProfile)
        assert processed.case_label == "case-a"

    def test_missing_sections_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[environment]\npreset = office\n")
        with pytest.raises(ScenarioError, match="case"):
            load_scenario(cfg)

    def test_unreadable_path_rejected(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "missing.cfg")

    def test_bad_waypoints_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            "[environment]\npreset = office\n"
            "[case]\nwaypoints = 0,1\n[user]\nwaypoints = 0,1,2\n")
        with pytest.raises(ScenarioError, match="waypoint"):
            load_scenario(cfg)

    def test_explicit_environment(self, tmp_path):
        cfg = tmp_path / "custom.cfg"
        cfg.write_text(
            "[environment]\nap_count = 12\narea = 0,0,20,20\nsite_seed = 4\n"
            "seed = 2\n"
            "[case]\nwaypoints = 0,10,10 300,10,10\n"
            "[user]\nwaypoints = 0,11,10 300,11,10\n")
        scenario = load_scenario(cfg)
        assert len(scenario.env.aps) == 12
        assert len(scenario.case_profile()) == 60

    def test_explicit_environment_needs_ap_count(self, tmp_path):
        cfg = tmp_path / "custom.cfg"
        cfg.write_text(
            "[environment]\narea = 0,0,20,20\n"
            "[case]\nwaypoints = 0,10,10 300,10,10\n"
            "[user]\nwaypoints = 0,11,10 300,11,10\n")
        with pytest.raises(ScenarioError, match="ap_count"):
            load_scenario(cfg)


def default_rng_states(seed, stream, first, n):
    return [np.random.default_rng((seed, stream, i)).bit_generator.state
            for i in range(first, first + n)]


def pcg64(state, inc):
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


WORD = st.integers(0, 2**32 - 1)


class TestBlockSeeding:
    """A block of scans is seeded at once, state for state what
    default_rng((seed, stream, index)) seeds one scan at a time."""

    @settings(max_examples=60, deadline=None)
    @given(seed=WORD, stream=WORD, first=WORD, n=st.integers(0, 40))
    @example(seed=0, stream=0, first=0, n=1)
    @example(seed=2**32 - 1, stream=2**32 - 1, first=2**32 - 8, n=8)
    @example(seed=1, stream=2500, first=0, n=40)
    def test_block_equals_default_rng(self, seed, stream, first, n):
        n = min(n, 2**32 - first)  # every index still one 32-bit word
        expected = default_rng_states(seed, stream, first, n)
        states = _block_states(seed, stream, first, n)
        assert [pcg64(*s) for s in states] == expected
        # set in turn on the one generator the simulator reuses
        env = SimEnvironment((), seed=seed)
        assert [rng.bit_generator.state
                for rng in _scan_rngs(env, stream, first, n)] == expected

    @pytest.mark.parametrize("seed, stream, first, n", [
        (3, 4, 2**32 - 2, 3),  # the block reaches 2**32
        (3, 4, 2**32, 1),
        (2**32, 4, 0, 2),
        (3, 2**32 + 5, 0, 2),
        (2**63, 1, 7, 2),
    ])
    def test_wider_words_fall_back(self, seed, stream, first, n):
        assert _block_states(seed, stream, first, n) is None
        env = SimEnvironment((), seed=seed)
        assert [rng.bit_generator.state
                for rng in _scan_rngs(env, stream, first, n)] == \
            default_rng_states(seed, stream, first, n)

    def test_non_int_words_fall_back_to_numpy(self):
        assert _block_states(np.uint32(3), 4, 0, 2) is None
        assert _block_states(3, 4.0, 0, 2) is None
        env = SimEnvironment((), seed=3)
        # a negative stream still raises numpy's own error
        with pytest.raises(ValueError):
            next(_scan_rngs(env, -1, 0, 2))
        with pytest.raises(TypeError):
            next(_scan_rngs(env, 4.0, 0, 2))


class TestTrustedVectors:
    """The simulator builds its scans unchecked; each must be exactly what
    the checked constructor would build from the same readings."""

    @pytest.mark.parametrize("name", ["office", "mall"])
    def test_simulated_and_perturbed_scans_are_canonical(self, name):
        env, layout = make_site(name, seed=3)
        walk = SimTrajectory(random_walk(layout.walk_area, 600, 5).waypoints,
                             DeviceParams(bias=6.5, detect_rate=0.8))
        profile = simulate_profile(env, walk, 5)
        outputs = {
            "simulate_profile": profile.vectors,
            "sample_scan": [sample_scan(env, layout.center, timestamp=3)],
            "_drop_batch_ids": dropped(profile.vectors, 0.4, seed=2),
            "perturb_rssi_noise": perturb_rssi_noise(profile, 30.0, 2).vectors,
        }
        for name, vectors in outputs.items():
            assert vectors, name
            for vec in vectors:
                assert vec == SignalVector(dict(vec.readings), vec.timestamp), name
                assert type(vec.timestamp) is int
                assert all(type(r) is int and RSSI_FLOOR <= r <= RSSI_CEIL
                           for r in vec.readings.values()), name
        # strong noise reaches both clamps
        noisy = [r for vec in outputs["perturb_rssi_noise"]
                 for r in vec.readings.values()]
        assert RSSI_FLOOR in noisy and RSSI_CEIL in noisy


def descending(vectors):
    """The same scans, each listing its ids in descending id order."""
    return [SignalVector(dict(sorted(vec.readings.items(), reverse=True)),
                         vec.timestamp) for vec in vectors]


def built_scans(name):
    """The scans one public path (or the batch) builds on an office walk."""
    env, layout = make_site("office", seed=3)
    walk = SimTrajectory(random_walk(layout.walk_area, 600, 5).waypoints,
                         DeviceParams(bias=2.0, detect_rate=0.8))
    scans = simulate_profile(env, walk, 5).vectors

    def user(filter_rate=0.0, noise_std=0.0):
        return Scenario(env, walk, walk, user_period=5, filter_rate=filter_rate,
                        noise_std=noise_std).user_profile().vectors

    return {
        "simulate_profile": lambda: scans,
        "sample_scan": lambda: [sample_scan(env, layout.center, index=i)
                                for i in range(5)],
        "_drop_batch_ids": lambda: dropped(descending(scans), 0.3, seed=2),
        "perturb_rssi_noise": lambda: perturb_rssi_noise(
            SignalProfile(descending(scans)), 3.0, seed=2).vectors,
        "user_profile-filter": lambda: user(filter_rate=0.3),
        "user_profile-noise": lambda: user(noise_std=3.0),
        "user_profile-both": lambda: user(0.3, 3.0),
        "parse_profile": lambda: parse_profile(
            serialize_profile(SignalProfile(descending(scans)))).vectors,
        "_ScanBatch.vectors": lambda: _ScanBatch.from_vectors(
            descending(scans)).vectors(),
    }[name]()


@pytest.mark.parametrize("name", [
    "simulate_profile", "sample_scan", "_drop_batch_ids", "perturb_rssi_noise",
    "user_profile-filter", "user_profile-noise", "user_profile-both",
    "parse_profile", "_ScanBatch.vectors"])
def test_every_scan_lists_its_ids_in_id_order(name):
    vectors = built_scans(name)
    assert any(len(vec) > 1 for vec in vectors)
    for vec in vectors:
        assert list(vec.readings) == sorted(vec.readings)
