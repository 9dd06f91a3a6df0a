import math
import os
from fractions import Fraction
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wifitrace
from wifitrace.model import ProcessedVector, SignalVector
from wifitrace.similarity import (
    aed,
    amd,
    jaccard,
    overlap_ratio,
    rssi_difference,
    signal_similarity,
)

from conftest import ID_POOL, make_processed, make_vector
from oracles import (amd_brute, jaccard_brute, match_brute, similarity_float,
                     similarity_fraction)

X, Y, Z, U, V = ID_POOL[:5]

ids = st.sampled_from(ID_POOL[:10])
readings = st.dictionaries(ids, st.integers(-100, 0), max_size=8)
range_maps = st.dictionaries(
    ids, st.tuples(st.integers(-100, 0), st.integers(-100, 0)), max_size=8
).map(lambda d: {k: (min(a, b), max(a, b)) for k, (a, b) in d.items()})


class TestOverlapRatio:
    def test_shared_over_smaller(self):
        a = SignalVector({X: -50, Y: -50, Z: -50}, 0)
        p = ProcessedVector({X: (-60, -40), Y: (-60, -40),
                             U: (-60, -40), V: (-60, -40)})
        assert overlap_ratio(a, p) == pytest.approx(2 / 3)

    def test_identical_id_sets(self):
        a = SignalVector({X: -50, Y: -50}, 0)
        p = ProcessedVector({X: (-60, -40), Y: (-60, -40)})
        assert overlap_ratio(a, p) == 1.0

    def test_disjoint(self):
        a = SignalVector({X: -50}, 0)
        p = ProcessedVector({Y: (-60, -40)})
        assert overlap_ratio(a, p) == 0.0

    def test_empty_side(self):
        assert overlap_ratio(SignalVector({}, 0), ProcessedVector({})) == 0.0
        assert overlap_ratio(SignalVector({X: -1}, 0), ProcessedVector({})) == 0.0


class TestRssiDifference:
    def test_inside_range_is_zero(self):
        a = SignalVector({X: -60}, 0)
        p = ProcessedVector({X: (-70, -50)})
        assert rssi_difference(a, p) == 0.0

    def test_below_and_above(self):
        p = ProcessedVector({X: (-70, -50)})
        assert rssi_difference(SignalVector({X: -80}, 0), p) == 10.0
        assert rssi_difference(SignalVector({X: -40}, 0), p) == 10.0

    def test_mean_over_shared(self):
        a = SignalVector({X: -60, Y: -44}, 0)
        p = ProcessedVector({X: (-70, -50), Y: (-70, -50)})
        assert rssi_difference(a, p) == pytest.approx(3.0)

    def test_disjoint_is_undefined(self):
        a = SignalVector({X: -60}, 0)
        p = ProcessedVector({Y: (-70, -50)})
        assert rssi_difference(a, p) is None


class TestSignalSimilarity:
    def test_exact_point_match_is_one(self):
        a = SignalVector({X: -50, Y: -60}, 0)
        p = ProcessedVector({X: (-50, -50), Y: (-60, -60)})
        assert signal_similarity(a, p) == 1.0

    def test_disjoint_is_zero(self):
        a = SignalVector({X: -50}, 0)
        p = ProcessedVector({Y: (-60, -40)})
        assert signal_similarity(a, p) == 0.0

    def test_composition_example(self):
        # overlap 2/3 with mean out-of-range distance 3 -> 1/6
        a = SignalVector({X: -60, Y: -44, Z: -10}, 0)
        p = ProcessedVector({X: (-70, -50), Y: (-70, -50),
                             U: (-30, -20), V: (-30, -20)})
        assert signal_similarity(a, p) == pytest.approx(1 / 6)

    @given(readings, range_maps)
    @settings(max_examples=300)
    def test_bounded_pure_and_matches_rational_oracle(self, ra, rp):
        a, p = SignalVector(ra, 0), ProcessedVector(rp)
        score = signal_similarity(a, p)
        assert 0.0 <= score <= 1.0
        assert score == signal_similarity(a, p)
        expected = similarity_fraction(dict(a.readings), dict(p.ranges))
        assert score == pytest.approx(float(expected), abs=1e-12)

    @given(readings, range_maps)
    @settings(max_examples=300)
    def test_is_the_oracle_float_bit_for_bit(self, ra, rp):
        score = signal_similarity(SignalVector(ra, 0), ProcessedVector(rp))
        assert score == similarity_float(ra, rp)

    def test_tie_is_the_oracle_float_and_not_flagged(self):
        # 6 of 10 ids shared, summed out-of-range distance 3: exactly 0.4
        # in rationals, 0.39999999999999997 in floats
        scan = {sid: -50 for sid in ID_POOL[:10]}
        ranges = {sid: (-50, -50) for sid in ID_POOL[4:14]}
        ranges[ID_POOL[4]] = (-47, -40)
        tie = 0.39999999999999997
        assert similarity_fraction(scan, ranges) == Fraction(2, 5)
        score = signal_similarity(SignalVector(scan, 30),
                                  ProcessedVector(ranges))
        assert score == similarity_float(scan, ranges) == tie
        assert match_brute([(30, scan)], [("tie", [(ranges, 0, 60)])],
                           0.4) == [(tie, None, None)]

    @given(readings, range_maps)
    @settings(max_examples=150)
    def test_widening_ranges_never_decreases_similarity(self, ra, rp):
        a, p = SignalVector(ra, 0), ProcessedVector(rp)
        widened = ProcessedVector(
            {k: (max(-100, lo - 7), min(0, hi + 7)) for k, (lo, hi) in rp.items()}
        )
        assert signal_similarity(a, widened) >= signal_similarity(a, p)

    def test_one_iff_full_overlap_and_zero_difference(self, rng):
        for _ in range(200):
            a = make_vector(rng, rng.randint(0, 6))
            p = make_processed(rng, rng.randint(0, 6))
            score = signal_similarity(a, p)
            o, d = overlap_ratio(a, p), rssi_difference(a, p)
            if score == 1.0:
                assert o == 1.0 and d == 0.0
            if o == 1.0 and d == 0.0:
                assert score == 1.0


class TestJaccard:
    def test_examples(self):
        a = SignalVector({X: -1, Y: -1}, 0)
        b = SignalVector({Y: -1, Z: -1}, 0)
        assert jaccard(a, a) == 1.0
        assert jaccard(a, SignalVector({Z: -1}, 0)) == 0.0
        assert jaccard(a, b) == pytest.approx(1 / 3)

    def test_both_empty(self):
        assert jaccard(SignalVector({}, 0), SignalVector({}, 0)) == 0.0

    @given(readings, readings)
    @settings(max_examples=150)
    def test_matches_oracle_and_dominated_by_overlap_style_bound(self, ra, rb):
        a, b = SignalVector(ra, 0), SignalVector(rb, 1)
        assert jaccard(a, b) == pytest.approx(float(jaccard_brute(ra, rb)))
        shared = len(a.ids & b.ids)
        if shared:
            min_denom = shared / min(len(a.ids), len(b.ids))
            assert jaccard(a, b) <= min_denom + 1e-12


class TestDistanceBaselines:
    def test_identical_vectors_zero(self):
        a = SignalVector({X: -50, Y: -60}, 0)
        assert amd(a, a) == 0.0
        assert aed(a, a) == 0.0

    def test_single_shared_id(self):
        a, b = SignalVector({X: -50}, 0), SignalVector({X: -60}, 0)
        assert amd(a, b) == 10.0
        assert aed(a, b) == 10.0

    def test_fill_rule(self):
        a, b = SignalVector({X: -50}, 0), SignalVector({Y: -60}, 0)
        # a gains y:-100, b gains x:-100; N = 2
        assert amd(a, b) == pytest.approx(45.0)
        assert aed(a, b) == pytest.approx(math.sqrt(50**2 + 40**2) / 2)

    def test_both_empty_rejected(self):
        with pytest.raises(ValueError):
            amd(SignalVector({}, 0), SignalVector({}, 0))
        with pytest.raises(ValueError):
            aed(SignalVector({}, 0), SignalVector({}, 0))

    @given(readings, readings)
    @settings(max_examples=150)
    def test_symmetric_and_matches_oracle(self, ra, rb):
        a, b = SignalVector(ra, 0), SignalVector(rb, 1)
        if not (a.ids | b.ids):
            return
        assert amd(a, b) == amd(b, a)
        assert aed(a, b) == aed(b, a)
        assert amd(a, b) == pytest.approx(float(amd_brute(ra, rb)))


def test_device_path_does_not_load_the_simulator():
    # the kernel owns its scan format, so exchange, detection and similarity
    # run on a device without the simulator
    src = os.path.dirname(os.path.dirname(wifitrace.__file__))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, wifitrace.exchange; "
         "print(sorted(m for m in sys.modules if m.startswith('wifitrace')))"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        check=True).stdout
    assert "wifitrace.exchange" in out and "wifitrace.simulator" not in out
