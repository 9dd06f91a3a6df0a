import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wifitrace.model import (
    RSSI_CEIL,
    RSSI_FLOOR,
    LifespanSchedule,
    ProcessedProfile,
    ProcessedVector,
    ProfileSegment,
    SignalId,
    SignalProfile,
    SignalVector,
    clamp_rssi,
    hash_mac,
)

from conftest import ID_POOL

MAC = "AA:BB:CC:DD:EE:FF"


class TestHashMac:
    def test_deterministic(self):
        assert hash_mac(MAC, b"s") == hash_mac(MAC, b"s")

    def test_distinct_macs_distinct_ids(self):
        assert hash_mac(MAC, b"s") != hash_mac("AA:BB:CC:DD:EE:F0", b"s")

    def test_distinct_salts_distinct_ids(self):
        assert hash_mac(MAC, b"s1") != hash_mac(MAC, b"s2")

    def test_digest_is_32_bytes(self):
        assert len(hash_mac(MAC, b"s").value) == 32

    @pytest.mark.parametrize("bad", [
        "aa:bb:cc:dd:ee:ff",      # lowercase
        "AA-BB-CC-DD-EE-FF",      # wrong separator
        "AA:BB:CC:DD:EE",         # five octets
        "AA:BB:CC:DD:EE:FF:00",   # seven octets
        "AABB:CC:DD:EE:FF",       # malformed octet
        "",
    ])
    def test_rejects_non_canonical(self, bad):
        with pytest.raises(ValueError):
            hash_mac(bad, b"s")

    def test_hex_round_trip(self):
        sid = hash_mac(MAC, b"s")
        assert SignalId.from_hex(sid.hex) == sid


DIGESTS = st.binary(min_size=32, max_size=32)


class TestSignalId:
    """An id is its digest bytes: it hashes, compares and sorts as them."""

    @given(DIGESTS, DIGESTS)
    def test_behaves_as_its_bytes(self, a, b):
        x, y = SignalId(a), SignalId(b)
        assert (x == y) == (a == b) and x == a and y == b
        assert (x < y) == (a < b) and (y < x) == (b < a)
        assert hash(x) == hash(a) and hash(y) == hash(b)
        assert sorted([y, x]) == sorted([b, a])
        for sid in (x, y):
            for back in (pickle.loads(pickle.dumps(sid)), copy.deepcopy(sid)):
                assert type(back) is SignalId and back == sid
            assert type(sid.value) is bytes and sid.value == sid
            assert repr(sid) == str(sid) == f"SignalId({sid.hex[:12]}..)"

    def test_hash_runs_no_python(self):
        assert SignalId.__hash__ is bytes.__hash__

    @pytest.mark.parametrize("bad", [
        b"x" * 31, b"x" * 33, "x" * 32, bytearray(32),
    ])
    def test_rejects_anything_but_32_bytes(self, bad):
        with pytest.raises(ValueError):
            SignalId(bad)


class TestClampRssi:
    def test_in_range_passthrough(self):
        assert clamp_rssi(-60) == -60

    def test_floor(self):
        assert clamp_rssi(-120) == -100

    def test_ceiling(self):
        assert clamp_rssi(5) == 0

    @given(st.integers(-10_000, 10_000))
    def test_always_in_bounds(self, raw):
        assert RSSI_FLOOR <= clamp_rssi(raw) <= RSSI_CEIL


class TestSignalVector:
    def test_clamps_at_ingest(self):
        vec = SignalVector({ID_POOL[0]: -130, ID_POOL[1]: 7}, 0)
        assert vec.readings[ID_POOL[0]] == -100
        assert vec.readings[ID_POOL[1]] == 0

    def test_readings_immutable(self):
        vec = SignalVector({ID_POOL[0]: -50}, 0)
        with pytest.raises(TypeError):
            vec.readings[ID_POOL[1]] = -60


class TestSignalProfile:
    def test_rejects_non_increasing_timestamps(self):
        v1 = SignalVector({ID_POOL[0]: -50}, 100)
        v2 = SignalVector({ID_POOL[0]: -55}, 100)
        with pytest.raises(ValueError, match="strictly increasing"):
            SignalProfile([v1, v2])

    def test_empty_ok(self):
        assert len(SignalProfile([])) == 0


class TestProcessedTypes:
    def test_min_above_max_rejected(self):
        with pytest.raises(ValueError, match="rssiMin"):
            ProcessedVector({ID_POOL[0]: (-40, -50)})

    def test_below_floor_rejected(self):
        with pytest.raises(ValueError, match="floor"):
            ProcessedVector({ID_POOL[0]: (-120, -50)})

    def test_segment_needs_forward_window(self):
        pv = ProcessedVector({ID_POOL[0]: (-60, -50)})
        with pytest.raises(ValueError):
            ProfileSegment(pv, 100, 100)

    def test_segments_ordered_by_start(self):
        pv = ProcessedVector({ID_POOL[0]: (-60, -50)})
        with pytest.raises(ValueError, match="ordered"):
            ProcessedProfile([ProfileSegment(pv, 100, 200),
                              ProfileSegment(pv, 50, 300)])

    def test_overlapping_segments_allowed(self):
        pv = ProcessedVector({ID_POOL[0]: (-60, -50)})
        profile = ProcessedProfile([ProfileSegment(pv, 0, 2000),
                                    ProfileSegment(pv, 60, 2060)])
        assert len(profile) == 2


# a reading: an exact int in range or out of it, a numpy int, a float or a bool
_RAW = st.one_of(
    st.integers(RSSI_FLOOR, RSSI_CEIL),
    st.integers(RSSI_FLOOR - 30, RSSI_CEIL + 10),
    st.integers(RSSI_FLOOR - 30, RSSI_CEIL + 10).map(np.int16),
    st.floats(RSSI_FLOOR - 30.0, RSSI_CEIL + 10.0),
    st.booleans(),
)
_EXACT = st.tuples(st.integers(RSSI_FLOOR, RSSI_CEIL),
                   st.integers(RSSI_FLOOR, RSSI_CEIL))
# a pair: an exact canonical tuple, two raw values in order as a tuple, a
# list or a numpy array, or two exact or raw values in any order
_PAIR = st.one_of(
    _EXACT.map(sorted).map(tuple),
    st.tuples(_RAW, _RAW).map(lambda p: tuple(sorted(p, key=int))),
    st.tuples(_RAW, _RAW).map(lambda p: sorted(p, key=int)),
    st.tuples(_RAW, _RAW).map(lambda p: np.array(sorted(p, key=int))),
    _EXACT,
    st.tuples(_RAW, _RAW),
)


def reference_ranges(ranges):
    """Each pair as (int(lo), int(hi)); the first bad one raises."""
    out = {}
    for sid, (lo, hi) in ranges.items():
        lo, hi = int(lo), int(hi)
        if lo > hi:
            raise ValueError(f"rssiMin {lo} > rssiMax {hi} for {sid!r}")
        if lo < RSSI_FLOOR:
            raise ValueError(f"rssiMin {lo} below floor {RSSI_FLOOR} for {sid!r}")
        if hi > RSSI_CEIL:
            raise ValueError(f"rssiMax {hi} above {RSSI_CEIL} for {sid!r}")
        out[sid] = (lo, hi)
    return out


class TestCanonicalConstruction:
    """Exact (int, int) ranges and in-range int readings are copied as they
    are; anything else is rebuilt with int() and clamping."""

    X, Y = ID_POOL[:2]

    @pytest.mark.parametrize("pair, want", [
        ((-60, -50), (-60, -50)),
        ((np.int16(-60), -50), (-60, -50)),
        ([-60, -50], (-60, -50)),
        ((-60.0, -50), (-60, -50)),
        ((False, 0), (0, 0)),
    ])
    def test_ranges_become_exact_int_pairs(self, pair, want):
        got = ProcessedVector({self.Y: (-70, -60), self.X: pair}).ranges[self.X]
        assert got == want
        assert type(got) is tuple and {type(v) for v in got} == {int}

    @pytest.mark.parametrize("pair, message", [
        ((-40, -50), "rssiMin -40 > rssiMax -50"),
        ((-120, -50), "rssiMin -120 below floor"),
        ((-60, 5), "rssiMax 5 above 0"),
        ((-60, -50, -40), "too many values"),
        ((-60,), "not enough values"),
    ])
    def test_first_bad_range_named(self, pair, message):
        with pytest.raises(ValueError, match=message):
            ProcessedVector({self.Y: (-70, -60), self.X: pair, ID_POOL[2]: (1, 0)})

    @pytest.mark.parametrize("rssi, want", [
        (-60, -60), (np.int16(-60), -60), (-60.7, -60), (True, 0),
        (-130, -100), (5, 0),
    ])
    def test_readings_become_clamped_ints(self, rssi, want):
        got = SignalVector({self.Y: -70, self.X: rssi}, 0).readings[self.X]
        assert got == want and type(got) is int

    def test_canonical_mappings_copied_without_rehashing(self, monkeypatch):
        ranges = {sid: (-60, -50) for sid in ID_POOL[:8]}
        readings = {sid: -60 for sid in ID_POOL[:8]}
        calls = []
        original = SignalId.__hash__
        monkeypatch.setattr(SignalId, "__hash__",
                            lambda sid: calls.append(sid) or original(sid))
        pv, vec = ProcessedVector(ranges), SignalVector(readings, 0)
        assert calls == []
        monkeypatch.undo()
        assert pv.ranges == ranges and vec.readings == readings

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(st.sampled_from(ID_POOL), _RAW, max_size=12),
           st.dictionaries(st.sampled_from(ID_POOL), _PAIR, max_size=12))
    def test_one_pass_equals_the_per_entry_reference(self, readings, ranges):
        vec = SignalVector(readings, 0)
        want = [(sid, clamp_rssi(rssi)) for sid, rssi in readings.items()]
        assert list(vec.readings.items()) == want
        assert all(type(rssi) is int for rssi in vec.readings.values())
        try:
            want_ranges = reference_ranges(ranges)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                ProcessedVector(ranges)
            assert str(got.value) == str(exc)
            return
        pv = ProcessedVector(ranges)
        assert list(pv.ranges.items()) == list(want_ranges.items())
        assert all(type(pair) is tuple and {type(v) for v in pair} == {int}
                   for pair in pv.ranges.values())


class TestLifespanSchedule:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LifespanSchedule(default=-1)
        with pytest.raises(ValueError):
            LifespanSchedule(per_segment=[600, -5])

    @pytest.mark.parametrize("value", [1.5, float("inf"), float("nan")])
    def test_anything_but_whole_seconds_rejected(self, value):
        # one rule for the default and each per-segment entry, at
        # construction, not when a profile is built
        for kwargs in ({"default": value}, {"per_segment": [600, value]}):
            with pytest.raises(ValueError, match=f"got {value}"):
                LifespanSchedule(**kwargs)

    def test_whole_seconds_kept_as_ints(self):
        sched = LifespanSchedule(default=1800.0, per_segment=[np.int64(5), 7.0])
        assert (sched.default, sched.per_segment) == (1800, (5, 7))
        assert {type(t) for t in (sched.default, *sched.per_segment)} == {int}

    def test_per_segment_lookup(self):
        sched = LifespanSchedule(default=1800, per_segment=[10, 20, 30])
        assert [sched.lifespan_for(i) for i in range(3)] == [10, 20, 30]

    def test_default_lookup(self):
        sched = LifespanSchedule(default=1800)
        assert sched.lifespan_for(7) == 1800
