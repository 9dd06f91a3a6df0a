import hashlib
import random
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wifitrace.model import (
    ProcessedProfile,
    clamp_rssi,
    ProcessedVector,
    ProfileSegment,
    SignalId,
    SignalProfile,
    SignalVector,
)
from wifitrace import profileio
from wifitrace.profileio import (
    ProfileFormatError,
    _read_processed,
    parse_profile,
    serialize_profile,
)
from wifitrace.similarity import _Columns

import oracles
from conftest import (ID_POOL, assert_same_columns, make_processed,
                      make_processed_profile, make_profile)

ids = st.sampled_from(ID_POOL)
readings = st.dictionaries(ids, st.integers(-100, 0), max_size=10)


@st.composite
def signal_profiles(draw):
    n = draw(st.integers(0, 6))
    t = draw(st.integers(0, 1000))
    vectors = []
    for _ in range(n):
        vectors.append(SignalVector(draw(readings), t))
        t += draw(st.integers(1, 500))
    tag = draw(st.one_of(st.just(""), st.text(max_size=12)))
    return SignalProfile(vectors, device_tag=tag)


@st.composite
def processed_profiles(draw, starts=st.integers(0, 1000)):
    n = draw(st.integers(0, 5))
    t = draw(starts)
    segments = []
    for _ in range(n):
        pairs = draw(st.dictionaries(
            ids, st.tuples(st.integers(-100, 0), st.integers(-100, 0)),
            min_size=1, max_size=6))
        ranges = {k: (min(a, b), max(a, b)) for k, (a, b) in pairs.items()}
        end = t + draw(st.integers(1, 3000))
        segments.append(ProfileSegment(ProcessedVector(ranges), t, end))
        t += draw(st.integers(0, 400))
    label = draw(st.one_of(st.just(""), st.text(max_size=12)))
    return ProcessedProfile(segments, case_label=label)


@given(signal_profiles())
@settings(max_examples=150)
def test_signal_round_trip(profile):
    assert parse_profile(serialize_profile(profile)) == profile


@given(processed_profiles())
@settings(max_examples=150)
def test_processed_round_trip(profile):
    assert parse_profile(serialize_profile(profile)) == profile


@given(signal_profiles())
@settings(max_examples=50)
def test_serialization_is_byte_stable(profile):
    assert serialize_profile(profile) == serialize_profile(profile)


def test_empty_profile_round_trip():
    empty = SignalProfile([])
    parsed = parse_profile(serialize_profile(empty))
    assert parsed == empty and isinstance(parsed, SignalProfile)


def test_ids_serialized_in_lexicographic_order(rng):
    profile = make_profile(rng, n_vectors=3, max_ids=8)
    for line in serialize_profile(profile).decode().splitlines()[1:]:
        hexes = [tok.split(":")[0] for tok in line.split(" ")[1:]]
        assert hexes == sorted(hexes)


def test_header_kinds():
    assert serialize_profile(SignalProfile([])).startswith(b"vcontact/1 signal")
    assert serialize_profile(ProcessedProfile([])).startswith(b"vcontact/1 processed")


def test_label_with_spaces_and_newlines_round_trips():
    profile = ProcessedProfile([], case_label="ward 3\nfloor 2")
    assert parse_profile(serialize_profile(profile)) == profile


class TestParseRejections:
    def test_bad_header(self):
        with pytest.raises(ProfileFormatError, match="header"):
            parse_profile(b"nonsense/9 signal\n")

    def test_empty_input(self):
        with pytest.raises(ProfileFormatError, match="header"):
            parse_profile(b"")

    def test_min_above_max(self):
        sid = ID_POOL[0].hex
        data = f"vcontact/1 processed\nt=0..10 {sid}:-50..-60\n".encode()
        with pytest.raises(ProfileFormatError, match="rssiMin"):
            parse_profile(data)

    def test_non_increasing_timestamps(self):
        sid = ID_POOL[0].hex
        data = f"vcontact/1 signal\nt=10 {sid}:-50\nt=10 {sid}:-51\n".encode()
        with pytest.raises(ProfileFormatError, match="strictly increasing"):
            parse_profile(data)

    def test_duplicate_id_in_record(self):
        sid = ID_POOL[0].hex
        data = f"vcontact/1 signal\nt=10 {sid}:-50 {sid}:-51\n".encode()
        with pytest.raises(ProfileFormatError, match="duplicate"):
            parse_profile(data)

    def test_bad_rssi_token(self):
        sid = ID_POOL[0].hex
        data = f"vcontact/1 signal\nt=10 {sid}:weak\n".encode()
        with pytest.raises(ProfileFormatError, match="rssi"):
            parse_profile(data)

    def test_bad_id(self):
        data = b"vcontact/1 signal\nt=10 zz:-50\n"
        with pytest.raises(ProfileFormatError, match="signal id"):
            parse_profile(data)

    def test_missing_time_field(self):
        sid = ID_POOL[0].hex
        data = f"vcontact/1 signal\n{sid}:-50\n".encode()
        with pytest.raises(ProfileFormatError, match="t="):
            parse_profile(data)

    def test_segment_window_backwards(self):
        sid = ID_POOL[0].hex
        data = f"vcontact/1 processed\nt=20..10 {sid}:-60..-50\n".encode()
        with pytest.raises(ProfileFormatError, match="tStart"):
            parse_profile(data)

    def test_error_carries_line_number(self):
        sid = ID_POOL[0].hex
        data = f"vcontact/1 signal\nt=10 {sid}:-50\nt=20 {sid}:oops\n".encode()
        with pytest.raises(ProfileFormatError, match="line 3"):
            parse_profile(data)


def test_signal_rssi_clamped_at_parse():
    # raw scan ingest clamps out-of-range readings instead of rejecting
    sid = ID_POOL[0].hex
    profile = parse_profile(f"vcontact/1 signal\nt=10 {sid}:-140\n".encode())
    assert profile.vectors[0].readings[ID_POOL[0]] == -100


def test_random_profiles_round_trip_bulk(rng):
    for _ in range(50):
        profile = make_profile(rng, n_vectors=rng.randint(0, 6))
        assert parse_profile(serialize_profile(profile)) == profile
        processed = make_processed_profile(rng, n_segments=rng.randint(0, 4),
                                           label="case x")
        assert parse_profile(serialize_profile(processed)) == processed


# the bytes serialize_profile writes are the only bytes parse_profile takes

EDIT_BYTES = b" :.+-0_\r\nA" + b"0123456789abcdef"


@st.composite
def edited(draw, profiles):
    data = serialize_profile(draw(profiles))
    # half the edits land on a separator or a sign, where layout faults hide
    marks = [i for i, byte in enumerate(data) if byte in b" :.=-\n"]
    at = draw(st.one_of(st.integers(0, len(data)), st.sampled_from(marks)))
    byte = bytes([draw(st.sampled_from(EDIT_BYTES))])
    kind = draw(st.sampled_from(["insert", "delete", "replace"]))
    if kind == "insert":
        return data[:at] + byte + data[at:]
    if kind == "delete" or at == len(data):
        return data[:at] + data[at + 1:]
    return data[:at] + byte + data[at + 1:]


def _clamped_readings(data: bytes) -> bytes:
    """The bytes with each signal reading clamped, as the parser does; in a
    signal profile every ':' precedes a reading (labels are escaped)."""
    return re.sub(rb"(?<=:)-?[0-9]+",
                  lambda m: str(clamp_rssi(int(m.group()))).encode(), data)


@given(edited(processed_profiles()))
@settings(max_examples=400)
def test_processed_parse_accepts_only_canonical_bytes(data):
    try:
        profile = parse_profile(data)
    except ProfileFormatError:
        return
    assert serialize_profile(profile) == data


@given(edited(signal_profiles()))
@settings(max_examples=400)
def test_signal_parse_accepts_only_canonical_bytes(data):
    try:
        profile = parse_profile(data)
    except ProfileFormatError:
        return
    assert serialize_profile(profile) == _clamped_readings(data)


A, B = sorted(sid.hex for sid in ID_POOL[:2])


@pytest.mark.parametrize("data, line, message", [
    (f"vcontact/1 signal\nt=10 {A.upper()}:-50\n", 2, "bad signal id"),
    (f"vcontact/1 signal\nt=10 {A}:+5\n", 2, "bad rssi"),
    (f"vcontact/1 signal\nt=+5 {A}:-50\n", 2, "bad timestamp"),
    (f"vcontact/1 signal\nt=10 {A}:-05\n", 2, "bad rssi"),
    (f"vcontact/1 signal\nt=05 {A}:-50\n", 2, "bad timestamp"),
    (f"vcontact/1 signal\nt=10 {A}:-0\n", 2, "bad rssi"),
    (f"vcontact/1 processed\nt=0..10 {A}:-0..0\n", 2, "bad rssi range"),
    (f"vcontact/1 processed\nt=-0..10 {A}:-60..-50\n", 2, "bad time window"),
    (f"vcontact/1 processed\nt=0..+10 {A}:-60..-50\n", 2, "bad time window"),
    (f"vcontact/1 processed\nt=0..10 {A}:-060..-50\n", 2, "bad rssi range"),
    (f"vcontact/1 signal\nt=10 {B}:-50 {A}:-60\n", 2, "out of order"),
    (f"vcontact/1 processed\nt=0..10 {B}:-60..-50 {A}:-60..-50\n", 2,
     "out of order"),
    (f"vcontact/1 signal\r\nt=10 {A}:-50\r\n", 1, "header"),
    (f"vcontact/1 processed\nt=0..10 {A}:-60..-50\r\n", 2, "bad rssi range"),
    (f"vcontact/1 signal\nt=10 {A}:-50\r\n", 2, "bad rssi"),
    (f"vcontact/1 signal\nt=10 {A}:-50\n\nt=20 {A}:-50\n", 3, "blank line"),
    (f"vcontact/1 signal\nt=10 {A}:-50\n\n", 3, "blank line"),
    (f"vcontact/1 signal\nt=10 {A}:-50", 2, "missing final newline"),
    ("vcontact/1 processed", 1, "missing final newline"),
    (f"vcontact/1 signal\nt=10  {A}:-50\n", 2, "bad reading ''"),
    (f"vcontact/1 signal\nt=10:{A} -50\n", 2, "bad timestamp"),
    (f"vcontact/1 processed\nt=0..10 {A} -60..-50\n", 2, "bad range"),
    (f"vcontact/1 processed\nt=0..10 {A}:-60..-50:{B} -60..-50\n", 2,
     "bad rssi range"),
    (f"vcontact/1 signal\nt=10 {A}:-50 \n", 2, "reading"),
    ("vcontact/1 processed label=%41\n", 1, "non-canonical label"),
    ("vcontact/1 processed label=%c3%a9\n", 1, "non-canonical label"),
    ("vcontact/1 processed label=a%2\n", 1, "non-canonical label"),
    ("vcontact/1 processed label=\n", 1, "non-canonical label"),
])
def test_non_canonical_forms_rejected_naming_the_line(data, line, message):
    with pytest.raises(ProfileFormatError, match=f"^line {line}: .*{message}"):
        parse_profile(data.encode())


def test_parsed_ranges_are_exact_int_pairs():
    data = f"vcontact/1 processed\nt=-5..10 {A}:-100..0 {B}:-7..-7\n".encode()
    segment = parse_profile(data).segments[0]
    assert (segment.t_start, segment.t_end) == (-5, 10)
    for pair in segment.vector.ranges.values():
        assert type(pair) is tuple and {type(v) for v in pair} == {int}
    assert sorted(segment.vector.ranges.values()) == [(-100, 0), (-7, -7)]


def test_equal_ranges_share_one_tuple_across_profiles():
    """A device holds every parsed record: an entry costs no tuple of its
    own."""
    data = f"vcontact/1 processed\nt=1..2 {A}:-7..-7 {B}:-100..0\n".encode()
    first, second = (parse_profile(data).segments[0].vector.ranges
                     for _ in range(2))
    assert all(first[sid] is second[sid] for sid in first)


def test_ids_are_interned_per_call():
    data = f"vcontact/1 signal\nt=1 {A}:-50\nt=2 {A}:-60\n".encode()
    first, second = (next(iter(v.readings)) for v in parse_profile(data).vectors)
    assert first is second
    again = next(iter(parse_profile(data).vectors[0].readings))
    assert again == first and again is not first


NUMBERS = [str(v) for v in range(-102, 3)]
NON_CANONICAL = ["+0", "-0", "00", "+5", "05", "-05", "-0100", "1_0", "\u0663",
                 "-5.0", ""]


def test_range_tokens_accepted_exactly_when_canonical_and_in_range():
    for lo in NUMBERS + NON_CANONICAL:
        for hi in NUMBERS + NON_CANONICAL:
            data = f"vcontact/1 processed\nt=0..10 {A}:{lo}..{hi}\n".encode()
            valid = (lo in NUMBERS and hi in NUMBERS
                     and -100 <= int(lo) <= int(hi) <= 0)
            try:
                profile = parse_profile(data)
            except ProfileFormatError as exc:
                assert not valid and exc.line_no == 2, (lo, hi)
            else:
                assert valid and serialize_profile(profile) == data, (lo, hi)


def test_numbers_accepted_exactly_when_canonical():
    # signal readings out of range are canonical too: they are clamped
    for template in ("vcontact/1 signal\nt={} {}:-50\n",
                     "vcontact/1 signal\nt=7 {1}:{0}\n",
                     "vcontact/1 processed\nt={}..200 {}:-60..-50\n",
                     "vcontact/1 processed\nt=-300..{} {}:-60..-50\n"):
        for text in NUMBERS + NON_CANONICAL:
            try:
                parse_profile(template.format(text, A).encode())
            except ProfileFormatError as exc:
                assert text not in NUMBERS and exc.line_no == 2, (template, text)
            else:
                assert text in NUMBERS, (template, text)


# the batch pass reads into columns exactly what parse_profile reads as a
# processed profile, and rejects the rest with parse_profile's error

def _processed_or_error(data: bytes):
    try:
        profile = parse_profile(data)
    except ProfileFormatError as exc:
        return exc
    if not isinstance(profile, ProcessedProfile):
        return ProfileFormatError(
            "not a processed profile (scans stay on a device)")
    return profile


def assert_batch_reads_as_parse_profile(records: list[bytes]):
    wants = list(map(_processed_or_error, records))
    bad = [i for i, want in enumerate(wants)
           if isinstance(want, ProfileFormatError)]
    if bad:
        want = wants[bad[0]]
        # only a batch read names a record
        assert want.record is None
        with pytest.raises(ProfileFormatError) as got:
            _read_processed(records)
        assert str(got.value) == str(want)
        assert (got.value.line_no, got.value.record) == (want.line_no, bad[0])
        return
    labels, counts, columns = _read_processed(records)
    assert labels == [p.case_label for p in wants]
    assert counts == [len(p.segments) for p in wants]
    assert_same_columns(
        columns,
        _Columns.from_segments([s for p in wants for s in p.segments]))


@given(st.one_of(edited(processed_profiles()), edited(signal_profiles())))
@settings(max_examples=400)
def test_batch_read_of_one_record_is_parse_profile(data):
    assert_batch_reads_as_parse_profile([data])


# times on both sides of the int64 bounds, where the columns hold objects
starts = st.one_of(st.integers(0, 1000),
                   st.integers(2**63 - 4000, 2**63 + 1000),
                   st.integers(-2**63 - 1000, -2**63 + 4000))


@given(st.lists(st.one_of(processed_profiles(starts).map(serialize_profile),
                          edited(processed_profiles(starts))),
                min_size=1, max_size=4))
@settings(max_examples=200)
def test_batch_read_of_many_records_is_parse_profile(records):
    assert_batch_reads_as_parse_profile(records)


def test_batch_read_of_nothing_is_empty():
    labels, counts, columns = _read_processed([])
    assert labels == counts == [] and columns.index == {}
    assert_same_columns(columns, _Columns.from_segments([]))


# the batch reader accepts exactly what the format grammar accepts, record by
# record, and reads the columns the grammar gives; every record its own run
# as well, so that the runs' ids are numbered together

def assert_reads_as_oracle(records: list[bytes], run_bytes: int = 1 << 20):
    want = oracles.read_processed_brute(records)
    with mock.patch.object(profileio, "_RUN_BYTES", run_bytes):
        if isinstance(want, int):
            with pytest.raises(ProfileFormatError) as got:
                _read_processed(records)
            assert got.value.record == want
            return
        labels, counts, columns = _read_processed(records)
    assert (labels, counts) == want[:2]
    cols = columns
    segments = want[2]
    entries = [entry for _, _, seg in segments for entry in seg]
    ids = sorted({bytes.fromhex(h) for h, _, _ in entries})
    assert cols.index == dict(zip(ids, range(len(ids))))
    assert all(type(sid) is bytes for sid in cols.index)
    assert (cols.col.dtype, cols.lo.dtype, cols.hi.dtype) == (
        np.intp, np.int16, np.int16)
    assert [(ids[c].hex(), lo, hi) for c, lo, hi in zip(
        cols.col.tolist(), cols.lo.tolist(), cols.hi.tolist())] == entries
    assert cols.length.tolist() == [len(seg) for _, _, seg in segments]
    assert cols.t_start.tolist() == [start for start, _, _ in segments]
    assert cols.t_end.tolist() == [end for _, end, _ in segments]


@given(st.lists(st.one_of(processed_profiles(starts).map(serialize_profile),
                          edited(processed_profiles(starts)),
                          edited(signal_profiles())),
                min_size=1, max_size=4),
       st.sampled_from([1, 1 << 20]))
@settings(max_examples=300)
def test_batch_read_is_the_grammar(records, run_bytes):
    assert_reads_as_oracle(records, run_bytes)


def _record(*lines: str, label: str = "") -> bytes:
    return serialize_profile(ProcessedProfile([], label)) + "".join(
        line + "\n" for line in lines).encode()


HEX = [hashlib.sha256(bytes([i])).hexdigest() for i in range(4)]
PREFIX = "0123456789abcdef"  # ids that share their first 16 digits
TWINS = sorted(PREFIX + h[16:] for h in HEX[:2])


@pytest.mark.parametrize("records", [
    [_record("t=1..2")],  # a segment with no entries
    [_record(f"t=1..2 {HEX[0].upper()}:-5..0")],  # uppercase hex
    [_record(f"t=1..2 {HEX[0]}:-5..0", "t=3..4")],
    [_record(label="case a"), _record(f"t=1..2 {HEX[0]}:-5..0")],  # headers
    [_record(f"t=1..2 {TWINS[0]}:-5..0 {TWINS[1]}:-6..0")],
    [_record(f"t=1..2 {TWINS[1]}:-5..0", f"t=1..3 {TWINS[0]}:-5..0")],
    [_record(f"t=1..2 {TWINS[0]}:-5..0"), _record(f"t=1..2 {TWINS[1]}:-1..0")],
    [_record(f"t=1..2 {TWINS[1]}:-5..0 {TWINS[0]}:-6..0")],  # out of order
    # raw bytes that end in 00
    [_record("t=1..2 {}00:-5..0 {}00:-7..-1".format(*sorted(
        h[:-2] for h in HEX[:2])))],
    [_record(f"t=1..2 {HEX[0]}:-5..0 {HEX[0]}:-6..0")],  # a duplicate id
    # range tokens of every width, 4 to 10
    [_record(" ".join(["t=1..2"] + [f"{h}:{r}" for h, r in zip(
        sorted(hashlib.sha256(bytes([i, 9])).hexdigest() for i in range(7)),
        ["0..0", "-1..0", "-1..-1", "-10..-1", "-10..-10", "-100..-10",
         "-100..-100"])]))],
    [_record(f"t=1..2 {HEX[0]}:-100..-101")],  # an 11-byte token
    [_record(f"t=1..2 {HEX[0]}:-5..0"), _record(f"t=1..2 {HEX[1]}:-5..0"),
     _record(f"t=1..2 {HEX[2]}:-5..1")],  # a bad record in last position
    [_record(f"t=1..2 {HEX[0]}:-5..0"), _record(f"t=2..1 {HEX[1]}:-5..0")],
    [_record("t=1..2", "t=0..3")],  # starts fall within a record
    [_record("t=1..2"), _record("t=0..3")],  # not across records
    [_record(f"t=1..{'9' * 5000}")],  # past int()'s digits
    [_record(f"t=1..2 {HEX[0]}:-5..0"), b"vcontact/1 processed\n\n"],
])
@pytest.mark.parametrize("run_bytes", [1, 1 << 20])
def test_batch_read_edge_cases_are_the_grammar(records, run_bytes):
    assert_reads_as_oracle(records, run_bytes)


def test_range_table_holds_every_range_once():
    pairs = list(zip(profileio._RANGES[2].tolist(), profileio._RANGES[3].tolist()))
    assert sorted(pairs) == [(lo, hi) for lo in range(-100, 1)
                             for hi in range(lo, 1)]
    assert len(set(profileio._RANGES[0].tolist())) == len(pairs)


def test_readings_table_holds_every_reading_once():
    keys, words, lo, hi = profileio._READINGS
    assert lo.tolist() == hi.tolist()
    assert sorted(lo.tolist()) == list(range(-100, 1))
    assert len(set(keys.tolist())) == len(lo)
    # each slot's token spells its reading
    tokens = words.view("S16").ravel().tolist()
    assert tokens == [b":%d" % v for v in lo.tolist()]


def test_read_temporaries_do_not_grow_with_the_batch():
    """About 5 MB of records, 67 000 entries, read in runs of about 1 MB:
    the peak stays near one run's temporaries. Gathered in one piece they
    take about 17 MB; one intp index per hex digit would take 34 MB."""
    rng = random.Random(3)
    pool = [SignalId(hashlib.sha256(bytes([i, 7])).digest()) for i in range(200)]
    segments = [ProfileSegment(make_processed(rng, 35, pool), 60 * g, 3000 + g)
                for g in range(20)]
    one = serialize_profile(ProcessedProfile(segments, "case"))
    records = [one] * (5_000_000 // len(one))
    tracemalloc.start()
    try:
        labels, counts, columns = _read_processed(records)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(columns.col) == 35 * 20 * len(records)
    assert peak < 8 << 20


def test_a_batch_read_in_many_runs_holds_each_entry_once_more():
    """About 10 MB of records, 134 000 entries, in about 40 runs: the batch
    holds its entries (an intp column and two int16 bounds, 12 bytes) and,
    until they are gathered, each run's (an int32 rank and the bounds, 8
    bytes). Measured at 25.0 bytes an entry with the rest of the read; 28.0
    when each run held intp ranks and the bounds were concatenated."""
    rng = random.Random(3)
    pool = [SignalId(hashlib.sha256(bytes([i, 7])).digest()) for i in range(40)]
    segments = [ProfileSegment(make_processed(rng, 35, pool), 60 * g, 3000 + g)
                for g in range(20)]
    one = serialize_profile(ProcessedProfile(segments, "case"))
    records = [one] * (10_000_000 // len(one))
    with mock.patch.object(profileio, "_RUN_BYTES", 1 << 18):
        tracemalloc.start()
        try:
            _, _, columns = _read_processed(records)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    entries = 35 * 20 * len(records)
    assert len(columns.col) == entries
    assert peak < 26.5 * entries


# a signal profile is read by the same byte reader, in runs of lines: it
# accepts exactly what the format grammar accepts, reads the scans the
# grammar gives, and names the fault of the rest as the explainer does

def assert_signal_reads_as_oracle(data: bytes, run_bytes: int = 1 << 20):
    want = oracles.read_signal_brute(data)
    with mock.patch.object(profileio, "_RUN_BYTES", run_bytes):
        if want is None:
            with pytest.raises(ProfileFormatError) as explained:
                profileio._explain(data)
            with pytest.raises(ProfileFormatError) as got:
                parse_profile(data)
            assert str(got.value) == str(explained.value)
            assert got.value.line_no == explained.value.line_no
            # the walker names a fault the reader found, and on the line
            # the grammar first rejects, where one line holds it
            assert str(got.value) != "malformed profile"
            bad_line = oracles.first_bad_signal_line(data)
            if bad_line is not None:
                assert got.value.line_no == bad_line
            return
        profile = parse_profile(data)
    assert isinstance(profile, SignalProfile)
    assert profile.device_tag == want[0]
    assert [(v.timestamp, [(sid.hex, rssi) for sid, rssi in v.readings.items()])
            for v in profile.vectors] == want[1]
    assert all(type(sid) is SignalId and type(rssi) is int
               and type(v.timestamp) is int
               for v in profile.vectors for sid, rssi in v.readings.items())


@given(edited(signal_profiles()), st.sampled_from([1, 1 << 20]))
@settings(max_examples=400)
def test_signal_read_is_the_grammar(data, run_bytes):
    assert_signal_reads_as_oracle(data, run_bytes)


def _scans(*lines: str) -> bytes:
    return b"vcontact/1 signal\n" + "".join(
        line + "\n" for line in lines).encode()


@pytest.mark.parametrize("data", [
    # readings of every width, 2 to 5 bytes, and one of 22 bytes, clamped
    _scans(" ".join(["t=1"] + [f"{h}:{r}" for h, r in zip(
        sorted(hashlib.sha256(bytes([i, 9])).hexdigest() for i in range(5)),
        ["0", "-1", "-10", "-100", "-1" + "0" * 20])])),
    # canonical readings outside [-100, 0], clamped
    _scans(f"t=1 {HEX[0]}:5", f"t=2 {HEX[0]}:-101"),
    _scans(f"t=1 {HEX[0]}:{'9' * 20}"),
    _scans(f"t=1 {HEX[0]}:-{'9' * 5000}"),  # past int()'s digits
    # non-canonical readings
    _scans(f"t=1 {HEX[0]}:-0"),
    _scans(f"t=1 {HEX[0]}:+5"),
    _scans(f"t=1 {HEX[0]}:05"),
    _scans(f"t=1 {HEX[0]}:-5..0"),
    # equal and falling times: within a run, or across runs of one line
    _scans(f"t=1 {HEX[0]}:-5", f"t=1 {HEX[0]}:-6"),
    _scans(f"t=2 {HEX[0]}:-5", f"t=1 {HEX[0]}:-6"),
    _scans("t=1", "t=3", "t=2"),
    # a scan with no readings, and a header-only profile
    _scans("t=1", f"t=2 {HEX[0]}:-5"),
    _scans(),
    b"vcontact/1 signal label=room%201\n",
    # times past int64
    _scans(f"t={2**63 - 1}", f"t={2**63} {HEX[0]}:-5", f"t={2**64}"),
    _scans(f"t={-2**63 - 1}", f"t={-2**63}"),
    _scans(f"t={2**63}", f"t={2**63}"),
    _scans(f"t={'9' * 5000}"),
    # ids that share their first 16 digits, in order and out of it
    _scans(f"t=1 {TWINS[0]}:-5 {TWINS[1]}:-6", f"t=2 {TWINS[1]}:-7"),
    _scans(f"t=1 {TWINS[1]}:-5 {TWINS[0]}:-6"),
    _scans(f"t=1 {HEX[0]}:-5 {HEX[0]}:-6"),  # a duplicate id
    # CRLF, and a missing final newline in the last run
    _scans(f"t=1 {HEX[0]}:-5").replace(b"\n", b"\r\n"),
    _scans("t=1", f"t=2 {HEX[0]}:-5")[:-1],
    _scans("t=1", "t=2") + b"\n",  # a blank last line
])
@pytest.mark.parametrize("run_bytes", [1, 1 << 20])
def test_signal_read_edge_cases_are_the_grammar(data, run_bytes):
    assert_signal_reads_as_oracle(data, run_bytes)


def test_signal_read_temporaries_do_not_grow_with_the_profile():
    """About 5 MB of scans, 70 000 readings, read in runs of about 1 MB of
    lines: the peak, about 4.5 MB, is one run's temporaries plus the
    columns. Read as one run, the profile peaks at about 17.5 MB."""
    rng = random.Random(5)
    pool = [SignalId(hashlib.sha256(bytes([i, 5])).digest()) for i in range(200)]
    vectors = [SignalVector({sid: rng.randint(-100, 0)
                             for sid in rng.sample(pool, 35)}, 60 * n)
               for n in range(2000)]
    data = serialize_profile(SignalProfile(vectors))
    tracemalloc.start()
    try:
        _, (ids, col, rssi, lengths, times) = profileio._read_signal(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(data) > 4_500_000 and len(times) == 2000
    assert len(col) == len(rssi) == sum(lengths) == 70_000
    assert peak < 7 << 20



# a rejected body is explained at the line the bulk pass flagged: only that
# line and the one before it are walked, however long the body

_LONG = 5000
_SEGMENTS = [f"t={10 * i}..{10 * i + 600} {HEX[i % 4]}:-{i % 90 + 5}..0"
             for i in range(_LONG)]
_READINGS = [f"t={60 * i} {HEX[i % 4]}:-{i % 90 + 5}" for i in range(_LONG)]


@pytest.mark.parametrize("data, message", [
    (_record(*_SEGMENTS[:-1], _SEGMENTS[-1][:-1] + "X"),
     f"line {_LONG + 1}: bad rssi range 'X'"),
    (_record(*_SEGMENTS, f"t=5..7 {HEX[0]}:-5..0"),
     f"segments must be ordered by tStart ({10 * (_LONG - 1)} followed by 5)"),
    # a bad field is named before a start that falls earlier
    (_record(*_SEGMENTS[:2], f"t=5..7 {HEX[0]}:-5..0", *_SEGMENTS[3:-1],
             _SEGMENTS[-1][:-1] + "X"),
     f"line {_LONG + 1}: bad rssi range 'X'"),
    (_scans(*_READINGS[:-1], _READINGS[-1] + "X"),
     f"line {_LONG + 1}: bad rssi '-{(_LONG - 1) % 90 + 5}X'"),
], ids=["processed-last-byte", "processed-last-start-falls",
        "processed-fall-then-last-byte", "signal-last-byte"])
def test_a_late_fault_is_explained_from_its_own_line(data, message):
    with pytest.raises(ProfileFormatError) as walked:
        profileio._explain(data)  # every line
    assert str(walked.value) == message
    with mock.patch.object(profileio, "_walk", wraps=profileio._walk) as walk:
        with pytest.raises(ProfileFormatError) as got:
            profileio._check_processed([data])
    assert walk.call_count <= 2
    assert str(got.value) == message
    assert (got.value.line_no, got.value.record) == (walked.value.line_no, 0)


def test_a_late_fault_costs_the_explainer_no_copy_of_the_body():
    """About 4.4 MB of scans: rejected at its last byte, the body peaks as
    the same body does intact (about 4.4 MB, the bulk pass). Decoded and
    split whole to walk two lines, it peaked at about 9.5 MB."""
    hexes = sorted(sid.hex for sid in ID_POOL)
    intact = _scans(*(f"t={60 * i} " + " ".join(
        f"{h}:-{(i + j) % 90 + 5}" for j, h in enumerate(hexes))
        for i in range(1000)))
    peaks, messages = [], []
    for data in (intact, intact[:-2] + b"X\n"):
        tracemalloc.start()
        try:
            with pytest.raises(ProfileFormatError) as got:
                profileio._check_processed([data])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        messages.append(str(got.value))
    assert len(intact) > 4_000_000
    # the last reading, -77, with its last digit bad
    assert messages == ["not a processed profile (scans stay on a device)",
                        "line 1001: bad rssi '-7X'"]
    assert peaks[1] < 1.5 * peaks[0]
