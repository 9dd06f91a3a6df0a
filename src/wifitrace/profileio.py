"""Profile file format: canonical, line-oriented, append-friendly.

Both profile kinds share the layout::

    vcontact/1 signal [label=<percent-encoded>]
    t=<epoch> <id_hex>:<rssi> <id_hex>:<rssi> ...

    vcontact/1 processed [label=<percent-encoded>]
    t=<start>..<end> <id_hex>:<min>..<max> ...

Fields are space-separated, ids sorted lexicographically, segments ordered by
start time. Serialization is byte-for-byte stable for a given profile, and
``parse_profile(serialize_profile(p)) == p``.

Parsing accepts only these canonical bytes: integers without sign or leading
zeros beyond what ``str(int)`` writes, lowercase hex ids in strictly
ascending order, one space between fields, ``\n`` after every line including
the last, no blank lines, and a label escaped exactly as ``quote(label,
safe='')`` escapes it. The one exception: signal readings outside [-100, 0]
are clamped, as at scan ingest.

Record lines of either kind have one reader, which works on their bytes
with numpy, in the manner of Langdale & Lemire's "Parsing Gigabytes of JSON
per Second" (VLDB J. 28, 2019): it indexes the structural bytes first, then
validates over that index. The record kind picks the value tokens, the
window pattern and the rule for times.

- One ``flatnonzero`` over the bytes at most 32 finds every field: a line's
  first field is its window (a scan's time), each further one an entry.
- Each entry is gathered as two fixed-width rows, its 64 hex digits and its
  value token, ``:<lo>..<hi>`` or ``:<rssi>``. The token is looked up whole
  in a table of every canonical token within [-100, 0], which checks its
  integers and its bounds; a canonical reading outside them misses the
  table and is clamped. The ids are interned through one ``np.unique``;
  each distinct id is checked as lowercase hex, and the order within a
  line on the ranks.
- Each line's window goes through one canonical-decimal regex and ``int``,
  so times past int64 read exactly.

Processed records are read in runs of whole records, a signal profile in
runs of whole lines, which bounds the temporaries of a long profile; its
times are checked once, across the runs. ``_read_processed`` returns
records' segments as one ``similarity._Columns``, which the device's sync
round scores and ``parse_profile`` turns into segments (``segments()``).
The device reads its own signal profile straight into the kernel's scan
batch: ``_signal_scans`` keeps the signal reader's sparse columns and
builds the batch of the covered slice of scans only, over the ids that
slice holds, with no SignalVector; ``parse_profile`` builds its
SignalVectors from the same columns. The relay's publish check runs the
checks alone (``_check_processed``, and ``_read_signal`` to name the fault
of a signal body). A profile of either
kind that the reader rejects goes to one explainer with the line the bulk
pass flagged: the first with a bad field, else the first whose time falls.
The explainer cuts that line and the one before it from the bytes and walks
them token by token, so a long body costs about as much to reject as to
accept, in time and in memory.
"""

from __future__ import annotations

import re
import urllib.parse
from itertools import chain, islice
from typing import Callable, NoReturn, Sequence

import numpy as np

from .model import (
    RSSI_CEIL,
    RSSI_FLOOR,
    ProcessedProfile,
    ProcessedVector,
    ProfileSegment,
    SignalId,
    SignalProfile,
    SignalVector,
    clamp_rssi,
)
from .similarity import _UNHEARD, _Columns, _ScanBatch, _times

MAGIC = "vcontact/1"
KIND_SIGNAL = "signal"
KIND_PROCESSED = "processed"
# the start of every processed header: the reader checks the rest
_PROCESSED_HEADER = f"{MAGIC} {KIND_PROCESSED}".encode()


class ProfileFormatError(ValueError):
    """Parse failure; the message names the offending line and field.

    When a batch of records was read, ``record`` is the position of the bad
    one in the batch.
    """

    record: int | None = None

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def _header(kind: str, label: str) -> str:
    if label:
        return f"{MAGIC} {kind} label={urllib.parse.quote(label, safe='')}"
    return f"{MAGIC} {kind}"


def serialize_profile(profile: SignalProfile | ProcessedProfile) -> bytes:
    """Serialize a profile to its canonical UTF-8 byte form."""
    lines: list[str] = []
    if isinstance(profile, SignalProfile):
        lines.append(_header(KIND_SIGNAL, profile.device_tag))
        for vec in profile.vectors:
            tokens = [f"t={vec.timestamp}"]
            tokens += [f"{sid.hex}:{rssi}"
                       for sid, rssi in sorted(vec.readings.items())]
            lines.append(" ".join(tokens))
    elif isinstance(profile, ProcessedProfile):
        lines.append(_header(KIND_PROCESSED, profile.case_label))
        for seg in profile.segments:
            tokens = [f"t={seg.t_start}..{seg.t_end}"]
            tokens += [
                f"{sid.hex}:{lo}..{hi}"
                for sid, (lo, hi) in sorted(seg.vector.ranges.items())
            ]
            lines.append(" ".join(tokens))
    else:
        raise TypeError(f"not a profile: {type(profile).__name__}")
    return ("\n".join(lines) + "\n").encode("utf-8")


# Record lines of either kind are checked in bulk with numpy over their
# bytes (see _check_run), so no Python code runs per entry; only a profile
# that fails is walked token by token, to name the bad field.

_ID_DIGITS = 64  # hex digits of a signal id
_TOKEN = 16  # bytes read of each entry's value token, which takes 2 to 11
_RUN_BYTES = 1 << 20  # lines are checked in runs of about this many bytes
_LINE_CHUNK = 1 << 16  # bytes of a body the explainer counts newlines in
_PAD = bytes(_ID_DIGITS + _TOKEN)  # what an entry's rows may read past it
_INT = rb"(0|-?[1-9][0-9]*)"  # an integer as str(int) writes it
_WINDOW = re.compile(rb"t=%s\.\.%s" % (_INT, _INT))
_EPOCH = re.compile(rb"t=" + _INT)
_READING = re.compile(rb":" + _INT)
# odd, so that a value token's second word moves its key
_MIX = np.uint64(0x9E3779B97F4A7C15)
# the first w of _TOKEN bytes, for w from 0 to _TOKEN, as words
_KEEP = ((np.arange(_TOKEN) < np.arange(_TOKEN + 1)[:, None]).astype(np.uint8)
         * np.uint8(255)).view(np.uint64)


def _rows(text: bytes, width: int) -> np.ndarray:
    """Every ``width`` bytes of ``text`` from each offset, as a read-only
    view: row i is text[i:i + width]."""
    return np.ndarray((len(text) - width + 1, width), dtype=np.uint8,
                      buffer=text, strides=(1, 1))


def _token_keys(words: np.ndarray) -> np.ndarray:
    """A hash of each row of an (n x 2) array of a value token's words."""
    return words[:, 0] + words[:, 1] * _MIX


def _token_table(form: str, pairs: list[tuple[int, int]]) -> tuple:
    """The canonical value token ``form.format(lo, hi)`` of each of
    ``pairs``, as the two words of its _TOKEN bytes, zero-padded, sorted by
    key; with the keys, lo and hi. So one lookup of a token checks its
    integer form and its bounds."""
    pairs = np.array(pairs, dtype=np.int16)
    tokens = np.array([form.format(a, b).encode() for a, b in pairs.tolist()],
                      dtype="S%d" % _TOKEN)
    words = tokens.view(np.uint64).reshape(len(tokens), 2)
    keys = _token_keys(words)
    order = np.argsort(keys)
    lo, hi = pairs[order].T.copy()
    return keys[order], words[order], lo, hi


_LEVELS = range(RSSI_FLOOR, RSSI_CEIL + 1)
# every ":<lo>..<hi>" with RSSI_FLOOR <= lo <= hi <= RSSI_CEIL, and every
# ":<rssi>" within those bounds, its lo and hi both the reading
_RANGES = _token_table(":{}..{}",
                       [(a, b) for a in _LEVELS for b in _LEVELS if a <= b])
_READINGS = _token_table(":{}", [(a, a) for a in _LEVELS])


def _slots(table: tuple, tokens: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Each row's slot in a token table, or -1: the row's first ``width``
    bytes, zero-padded, must equal the slot's token. No byte of a field is
    zero, so a token equals a table token only at that token's width.
    A batch holds few distinct tokens: each is searched for once, by its
    key, and then compared word for word. np.unique and a search over the
    tokens as S16 take about three times as long."""
    table_keys, table_words = table[:2]
    words = tokens.view(np.uint64) & _KEEP[
        np.minimum(np.maximum(width, 0), _TOKEN)]
    keys, which = np.unique(_token_keys(words), return_inverse=True)
    slot = np.minimum(np.searchsorted(table_keys, keys),
                      len(table_keys) - 1)[which.ravel()]
    same = table_words[slot] == words
    return np.where(same[:, 0] & same[:, 1], slot, -1)


def _is_hex(ids: np.ndarray) -> np.ndarray:
    """Per row of an (n x 64) byte array: all lowercase hex."""
    return (((ids >= 48) & (ids <= 57)) | ((ids >= 97) & (ids <= 102))).all(1)


def _intern(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a contiguous (n x 64) byte array, in order, as
    S64, and each row's rank among them. One np.unique over each row's
    first 8 bytes as a big-endian integer, then a check that each row
    equals one member of its rank. Only when two rows share those bytes
    but differ (by chance, about once in 30 000 runs of 500 distinct ids;
    a crafted record can at will) are the rows sorted whole as S64, which
    takes about eight times as long."""
    leads, rank = np.unique(ids[:, :8].view(">u8").ravel(),
                            return_inverse=True)
    rank = rank.ravel()
    member = np.empty(len(leads), dtype=np.intp)
    member[rank] = np.arange(len(rank))
    words = ids.view(np.uint64)
    if (words[member[rank]] == words).all():
        return ids[member].view("S%d" % _ID_DIGITS).ravel(), rank
    distinct, rank = np.unique(ids.view("S%d" % _ID_DIGITS).ravel(),
                               return_inverse=True)
    return distinct, rank.ravel()


def _digests(hexes: np.ndarray) -> list[bytes]:
    """The 32 bytes each S64 hex id spells."""
    digits = hexes.view(np.uint8).reshape(len(hexes), _ID_DIGITS)
    value = (digits & 15) + 9 * (digits >> 6)
    raw = (value[:, 0::2] << 4 | value[:, 1::2]).tobytes()
    return [raw[i:i + 32] for i in range(0, len(raw), 32)]


def _parse_id(token: str, line_no: int) -> SignalId:
    try:
        sid = SignalId.from_hex(token)
        if sid.hex == token:
            return sid
    except ValueError:
        pass
    raise ProfileFormatError(f"bad signal id {token!r}", line_no)


def _parse_int(token: str, what: str, line_no: int) -> int:
    try:
        value = int(token)
        if str(value) == token:
            return value
    except ValueError:
        pass
    raise ProfileFormatError(f"bad {what} {token!r}", line_no)


def _split_range(token: str, what: str, line_no: int) -> tuple[int, int]:
    parts = token.split("..")
    if len(parts) != 2:
        raise ProfileFormatError(f"bad {what} {token!r} (want <a>..<b>)", line_no)
    return (
        _parse_int(parts[0], what, line_no),
        _parse_int(parts[1], what, line_no),
    )


def _walk(line: str, line_no: int, processed: bool):
    """A record checked token by token; raises naming its first bad field."""
    if not line:
        raise ProfileFormatError("blank line", line_no)
    tokens = line.split(" ")
    if not tokens[0].startswith("t="):
        want = "<start>..<end>" if processed else "<epoch>"
        raise ProfileFormatError(f"record must start with t={want}", line_no)
    if processed:
        window = _split_range(tokens[0][2:], "time window", line_no)
    else:
        timestamp = _parse_int(tokens[0][2:], "timestamp", line_no)
    values: dict[SignalId, object] = {}
    previous = ""
    for token in tokens[1:]:
        id_part, sep, value = token.partition(":")
        if not sep:
            raise ProfileFormatError(
                f"bad range {token!r} (want id:min..max)" if processed
                else f"bad reading {token!r} (want id:rssi)", line_no
            )
        sid = _parse_id(id_part, line_no)
        if id_part == previous:
            raise ProfileFormatError(f"duplicate signal id {id_part!r}", line_no)
        if id_part < previous:
            raise ProfileFormatError(
                f"signal id {id_part!r} out of order (ids must ascend)", line_no
            )
        previous = id_part
        if processed:
            values[sid] = _split_range(value, "rssi range", line_no)
        else:
            values[sid] = _parse_int(value, "rssi", line_no)
    try:
        if processed:
            return ProfileSegment(ProcessedVector(values), *window)
        return SignalVector(values, timestamp)
    except ValueError as exc:
        raise ProfileFormatError(str(exc), line_no) from None


def _line_start(data: bytes, line_no: int, start: int = 0, at: int = 1) -> int:
    """The offset of line ``line_no`` of ``data``, found from the line
    ``at``, which begins at ``start``: newlines are counted a chunk at a
    time, and found one by one only in the chunk that holds the line, so
    nothing of the size of a long body is made."""
    while True:
        stop = min(start + _LINE_CHUNK, len(data))
        count = data.count(b"\n", start, stop)
        if at + count >= line_no or stop == len(data):
            break
        start, at = stop, at + count
    for _ in range(line_no - at):
        start = data.find(b"\n", start) + 1
    return start


def _explain(data: bytes, line_no: int | None = None) -> NoReturn:
    """Raise a ProfileFormatError naming the fault of profile bytes a bulk
    pass rejected: their encoding, header or final newline, else the fault
    of the line ``line_no`` that pass flagged, its first bad field or its
    time that falls below the line before's. With no line, every line is
    walked: the first bad one, else the broken order of times. Only the
    lines walked are cut from the bytes and decoded."""
    if not data.isascii():  # ASCII is UTF-8: only other bytes may fail it
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProfileFormatError(f"not UTF-8: {exc}") from None
    if not data:
        raise ProfileFormatError("empty input, missing header", 1)
    end = data.find(b"\n")
    kind, label = _parse_header(data[:end if end >= 0 else None].decode())
    if not data.endswith(b"\n"):
        raise ProfileFormatError("missing final newline",
                                 data.count(b"\n") + 1)
    processed = kind == KIND_PROCESSED
    first = 2 if line_no is None else max(line_no - 1, 2)
    start = _line_start(data, first, end + 1, 2)
    stop = (len(data) if line_no is None
            else _line_start(data, line_no + 1, start, first))
    lines = data[start:stop].decode().split("\n")[:-1]
    records = [_walk(line, n, processed) for n, line in enumerate(lines, first)]
    try:
        (ProcessedProfile if processed else SignalProfile)(records, label)
    except ValueError as exc:
        raise ProfileFormatError(str(exc)) from None
    raise ProfileFormatError("malformed profile")


def _parse_header(line: str) -> tuple[str, str]:
    """The kind and the label of a header line."""
    head = line.split(" ")
    if len(head) < 2 or head[0] != MAGIC or head[1] not in (KIND_SIGNAL, KIND_PROCESSED):
        raise ProfileFormatError(
            f"bad header {line!r} (want '{MAGIC} signal|processed')", 1
        )
    if len(head) == 2:
        return head[1], ""
    if len(head) == 3 and head[2].startswith("label="):
        quoted = head[2][len("label="):]
        label = urllib.parse.unquote(quoted)
        if not quoted or urllib.parse.quote(label, safe="") != quoted:
            raise ProfileFormatError(f"non-canonical label {quoted!r}", 1)
        return head[1], label
    raise ProfileFormatError(f"unexpected header fields {head[2:]!r}", 1)


def _head(data: bytes, kind: str) -> tuple[str, int] | None:
    """The label of profile bytes of ``kind`` whose header reads and which
    end in a newline, and the offset of their first record line; else
    None."""
    end = data.find(b"\n")
    if end < 0 or not data.endswith(b"\n"):
        return None
    try:
        found, label = _parse_header(data[:end].decode("utf-8"))
    except (UnicodeDecodeError, ProfileFormatError):
        return None
    return (label, end + 1) if found == kind else None


def parse_profile(data: bytes) -> SignalProfile | ProcessedProfile:
    """Parse canonical profile bytes, rejecting anything else.

    Only bytes that :func:`serialize_profile` writes are accepted, except
    that signal readings outside [-100, 0] are clamped.

    Raises:
        ProfileFormatError: malformed or non-canonical bytes, or violated
            invariants, with a diagnostic naming the offending line and field.
    """
    if data.startswith(_PROCESSED_HEADER):
        try:
            labels, _, cols = _read_processed([data])
        except ProfileFormatError as exc:
            exc.record = None  # one profile is no batch
            raise
        return ProcessedProfile(cols.segments(), labels[0])
    # a signal profile, or the error
    label, (ids, col, rssi, lengths, times) = _read_signal(data)
    ids = list(map(SignalId, ids))
    readings = zip(map(ids.__getitem__, col.tolist()), rssi.tolist())
    return SignalProfile([SignalVector._trusted(dict(islice(readings, n)), t)
                          for n, t in zip(lengths, times)], device_tag=label)


def _reject(data: bytes, line_no: int | None) -> NoReturn:
    """Raise the error that names the fault of a record the processed
    reader rejected, at the line it flagged: parse_profile's, or "not a
    processed profile"."""
    if not data.startswith(_PROCESSED_HEADER):
        _read_signal(data)  # names the fault of a bad signal body
        raise ProfileFormatError(
            "not a processed profile (scans stay on a device)")
    _explain(data, line_no)


def _runs(records: Sequence[bytes]):
    """The records in runs of about _RUN_BYTES, at least one record each,
    with the position of each run's first; no records are one empty run."""
    first = size = 0
    for position, data in enumerate(records):
        size += len(data)
        if size >= _RUN_BYTES:
            yield records[first:position + 1], first
            first, size = position + 1, 0
    if first < len(records) or not records:
        yield records[first:], first


def _check_run(bodies: Sequence, processed: bool) -> tuple:
    """Check a run of record lines in bulk, over their bytes: the lines of
    processed records, one body each, or one run of a signal profile's.

    Returns how many bodies, from the first, pass every check; the line
    of the next body to name (see _fault), or None when all pass;
    each body's line count; and the run's columns: its distinct ids in
    order, as S64 hex; each entry's id as its rank among them, its lo and
    its hi (a reading is both, clamped); and each line's entry count, start
    and end (a scan's time is both). A scan's times are checked by
    _read_signal, across its runs.
    """
    text = b"".join([*bodies, _PAD])
    data = np.frombuffer(text, dtype=np.uint8)
    bounds = np.cumsum([len(body) for body in bodies], dtype=np.intp)

    # every field ends at a space or a newline; a line's first field is its
    # window, each further one an entry
    sep = np.flatnonzero(data[:len(text) - len(_PAD)] <= 32)
    delim = data[sep]
    newline = delim == 10
    begin = np.empty_like(sep)
    begin[:1] = 0
    begin[1:] = sep[:-1] + 1
    head = np.empty(len(sep), dtype=bool)
    head[:1] = True
    head[1:] = newline[:-1]
    # offsets of the failed checks of a line's own fields, then of the
    # starts that fall
    bad = [sep[(delim != 32) & ~newline]]
    falls = sep[:0]

    # each entry as two rows: its 64 hex digits, then ':' and its value,
    # which a shorter or a longer entry cuts or overruns
    at, stop = begin[~head], sep[~head]
    ids = _rows(text, _ID_DIGITS)[at]
    table = _RANGES if processed else _READINGS
    slot = _slots(table, _rows(text, _TOKEN)[at + _ID_DIGITS],
                  stop - at - _ID_DIGITS)
    lo, hi = table[2][slot], table[3][slot]
    miss = slot < 0
    if not processed:
        # a canonical reading outside the table's bounds is clamped
        for e in np.flatnonzero(miss).tolist():
            reading = _READING.fullmatch(text, int(at[e]) + _ID_DIGITS,
                                         int(stop[e]))
            try:
                lo[e] = hi[e] = clamp_rssi(int(reading[1]))
            except (TypeError, ValueError):  # no match, or past int()'s digits
                continue
            miss[e] = False
    distinct, rank = _intern(ids)
    good = _is_hex(distinct.view(np.uint8).reshape(-1, _ID_DIGITS))[rank]
    bad.append(at[~good | miss])
    # ids ascend strictly within a line: an entry ending at a space has the
    # next entry on its line
    bad.append(at[1:][~newline[~head][:-1] & (rank[1:] <= rank[:-1])])

    # each line's window, or its scan's time, exactly as int() reads it
    lines = np.flatnonzero(head)
    pattern = _WINDOW if processed else _EPOCH
    starts, ends = [], []
    for offset, close in zip(begin[lines].tolist(), sep[lines].tolist()):
        window = pattern.fullmatch(text, offset, close)
        try:  # a scan's one time is its start and its end
            start, end = int(window[1]), int(window[window.lastindex])
        except (TypeError, ValueError):  # no match, or past int()'s digits
            bad.append([offset])
            start, end = 0, 1
        starts.append(start)
        ends.append(end)
    record = np.searchsorted(bounds, sep[newline], side="right")
    if processed:
        # a window ends after it starts; within a record, starts do not fall
        t_start, t_end = _times(starts), _times(ends)
        bad.append(begin[lines][t_start >= t_end])
        falls = begin[lines][1:][(record[1:] == record[:-1])
                                 & (t_start[1:] < t_start[:-1])]

    bad = np.concatenate(bad)
    clean, fault = len(bodies), None
    if len(bad) or len(falls):
        clean, fault = _fault(bad, falls, bounds, sep[newline])
    counts = np.bincount(record, minlength=len(bodies)).tolist()
    # a batch holds every run's ranks until _gather: as int32, since a run
    # holds far fewer ids; a line's last field ends at its newline
    return clean, fault, counts, (distinct, rank.astype(np.int32), lo, hi,
                                  np.flatnonzero(newline) - lines, starts,
                                  ends)


def _fault(bad: np.ndarray, falls: np.ndarray, bounds: np.ndarray,
           newlines: np.ndarray) -> tuple[int, int]:
    """The first body that holds a failed check, at offsets ``bad`` (of a
    line's own fields) or ``falls`` (of a start that falls), and the line of
    it to name, as the explainer walks a record: its first line with a bad
    field, else its first start that falls. Lines count from 2, as in a
    profile, whose header is line 1."""
    body = int(np.searchsorted(bounds, np.concatenate([bad, falls]).min(),
                               side="right"))
    begin = bounds[body - 1] if body else 0
    for offsets in (bad, falls):
        mine = offsets[(offsets >= begin) & (offsets < bounds[body])]
        if len(mine):
            # a line's offsets end at its newline
            return body, int(np.searchsorted(newlines, mine.min())
                             - np.searchsorted(newlines, begin)) + 2


def _gather(runs: list[tuple]) -> tuple:
    """The columns of checked runs (see _check_run) as one batch's, the
    arguments of its ``_Columns`` with its ids as raw bytes."""
    distinct, rank, lo, hi, lengths, starts, ends = zip(*runs)
    # each run's distinct ids, numbered among all runs'; the batch's entries
    # are filled in place, so that only one run's are ever held twice
    vocabulary, where = np.unique(np.concatenate(distinct),
                                  return_inverse=True)
    where = np.split(where.ravel(), np.cumsum(list(map(len, distinct)))[:-1])
    size = sum(map(len, rank))
    col = np.empty(size, dtype=np.intp)
    low, high = np.empty(size, dtype=np.int16), np.empty(size, dtype=np.int16)
    end = 0
    for w, r, a, b in zip(where, rank, lo, hi):
        part = slice(end, end + len(r))
        col[part], low[part], high[part] = w[r], a, b
        end = part.stop
    return (_digests(vocabulary), col, low, high,
            np.concatenate(lengths).tolist(), list(chain(*starts)),
            list(chain(*ends)))


def _processed_runs(records: Sequence[bytes]):
    """Each run of processed records checked in bulk: its records' labels
    and segment counts, and its columns (see _check_run).

    Raises:
        ProfileFormatError: for the first record that fails any check, from
            _reject, with ``record`` set to its position in the batch.
    """
    for run, first in _runs(records):
        labels, bodies = [], []
        for data in run:
            head = _head(data, KIND_PROCESSED)
            if head is None:
                break
            labels.append(head[0])
            bodies.append(memoryview(data)[head[1]:])
        clean, fault, counts, columns = _check_run(bodies, processed=True)
        # the first record that holds a failed check, at its line to name,
        # else the one whose header or final newline stopped the run
        if clean < len(run):
            try:
                _reject(run[clean], fault)
            except ProfileFormatError as exc:
                exc.record = first + clean
                raise
        yield labels, counts, columns


def _check_processed(records: Sequence[bytes]) -> None:
    """Check processed-profile records as _read_processed does, without
    building their columns: the relay's publish check.

    Raises:
        ProfileFormatError: as _read_processed raises it.
    """
    for _ in _processed_runs(records):
        pass


def _read_processed(
    records: Sequence[bytes],
) -> tuple[list[str], list[int], _Columns]:
    """Read processed-profile records straight into one batch of columns.
    Returns each record's label and segment count, and the batch's
    ``_Columns``, its ids as raw bytes.

    Raises:
        ProfileFormatError: for the first bad record, as ``parse_profile``
            raises it (or "not a processed profile"), with ``record`` set
            to its position.
    """
    labels, counts, runs = [], [], []
    for run_labels, run_counts, columns in _processed_runs(records):
        labels += run_labels
        counts += run_counts
        runs.append(columns)
    ids, col, lo, hi, lengths, starts, ends = _gather(runs)
    return labels, counts, _Columns(ids, col, lo, hi, lengths, starts, ends)


def _line_runs(data: bytes, start: int):
    """The lines of ``data`` from ``start``, which ends in a newline, in
    runs of whole lines of about _RUN_BYTES; no lines are one empty run."""
    view = memoryview(data)
    while True:
        stop = data.find(b"\n", min(start + _RUN_BYTES, len(data)) - 1) + 1
        yield view[start:stop]
        if stop == len(data):
            return
        start = stop


def _read_signal(data: bytes) -> tuple[str, tuple]:
    """Read a signal profile into columns: its label, and its distinct ids
    in order, as raw bytes; each reading's id as an index into them and its
    RSSI, clamped; and each scan's reading count and time. Its lines are
    checked in runs of about _RUN_BYTES, which bounds the temporaries of a
    long profile, and its times once, across them.

    Raises:
        ProfileFormatError: as parse_profile raises it.
    """
    head = _head(data, KIND_SIGNAL)
    if head is None:
        _explain(data)
    runs, scans = [], 0  # the scans before each run
    for lines in _line_runs(data, head[1]):
        clean, fault, counts, columns = _check_run([lines], processed=False)
        if not clean:
            _explain(data, scans + fault)
        runs.append(columns)
        scans += counts[0]
    ids, col, rssi, _, lengths, times, _ = _gather(runs)
    rising = _times(times)
    falls = np.flatnonzero(rising[1:] <= rising[:-1])
    if len(falls):  # scan i + 1, on line i + 3, is not after scan i
        _explain(data, int(falls[0]) + 3)
    return head[0], (ids, col, rssi, lengths, times)


def _signal_scans(
    data: bytes,
) -> tuple[list[int], Callable[[int, int], _ScanBatch]]:
    """A signal profile's scans as ``detection._detect_columns`` takes them,
    straight from _read_signal's columns: their times, and the maker of the
    batch of scans lo..hi-1, over exactly the ids those scans hold. No
    SignalVector or SignalProfile is built.

    Raises:
        ProfileFormatError: as parse_profile raises it, or "not a raw
            signal profile" for a processed profile that parses.
    """
    if data.startswith(_PROCESSED_HEADER):
        parse_profile(data)  # a malformed one names its own fault
        raise ProfileFormatError("not a raw signal profile")
    _, (ids, col, rssi, lengths, times) = _read_signal(data)
    ptr = np.cumsum([0, *lengths], dtype=np.intp)

    def rows(lo: int, hi: int) -> _ScanBatch:
        span = slice(ptr[lo], ptr[hi])
        entries = col[span]
        # the ids the slice holds, in order, and each one's column
        kept = np.flatnonzero(np.bincount(entries, minlength=len(ids)))
        column = np.empty(len(ids), dtype=np.intp)
        column[kept] = np.arange(len(kept))
        block = np.full((hi - lo, len(kept)), _UNHEARD, dtype=np.int16)
        block[np.repeat(np.arange(hi - lo), lengths[lo:hi]),
              column.take(entries)] = rssi[span]
        return _ScanBatch(_times(times[lo:hi]),
                          list(map(ids.__getitem__, kept.tolist())), block)

    return times, rows


def write_profile(path, profile: SignalProfile | ProcessedProfile) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_profile(profile))


def read_profile(path) -> SignalProfile | ProcessedProfile:
    with open(path, "rb") as fh:
        return parse_profile(fh.read())
