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

Each record line is checked in bulk. Signal lines are split with C-level
string splits and joins. Processed lines have one reader, which works on
the bytes of a run of records with numpy, in the manner of Langdale &
Lemire's "Parsing Gigabytes of JSON per Second" (VLDB J. 28, 2019): it
indexes the structural bytes first, then validates over that index.

- One ``flatnonzero`` over the bytes at most 32 finds every field: a line's
  first field is its window, each further one an entry.
- Each entry is gathered as two fixed-width rows, its 64 hex digits and its
  ``:<lo>..<hi>``. The range token is looked up whole in a table of every
  canonical token, which checks its integers, the floor, the ceiling and
  lo <= hi. The ids are interned through one ``np.unique``; each distinct
  id is checked as lowercase hex, and the order within a line on the ranks.
- Each line's window goes through one canonical-decimal regex and ``int``,
  so windows past int64 read exactly.

``parse_profile`` builds its segments from the reader's columns, the relay's
publish check runs its checks alone (``_check_processed``), and the
device's sync round reads fetched records into columns with it
(``_read_processed``). A profile of either kind that a bulk pass rejects
goes to one explainer, which walks its lines token by token to name the
first bad field, then checks its order of times.
"""

from __future__ import annotations

import operator
import re
import urllib.parse
from typing import NoReturn, Sequence

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
)
from .similarity import _times

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


# Signal record lines are checked in bulk with C-level splits, joins and
# comparisons, processed record lines with numpy over their bytes (see
# _check_run), so no Python code runs per token, and for a processed line
# none per entry; only a record that fails is walked token by token, to
# name the bad field.

_ID_DIGITS = 64  # hex digits of a signal id
_TOKEN = 16  # bytes read of each entry's ":<lo>..<hi>", which takes 5 to 11
_RUN_BYTES = 1 << 20  # records are checked in runs of about this many bytes
_PAD = bytes(_ID_DIGITS + _TOKEN)  # what an entry's rows may read past it
_WINDOW = re.compile(rb"t=(0|-?[1-9][0-9]*)\.\.(0|-?[1-9][0-9]*)")
# odd, so that a range token's second word moves its key
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
    """A hash of each row of an (n x 2) array of a range token's words."""
    return words[:, 0] + words[:, 1] * _MIX


def _range_table() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every canonical ":<lo>..<hi>" with RSSI_FLOOR <= lo <= hi <= RSSI_CEIL,
    as the two words of its _TOKEN bytes, zero-padded, sorted by key; with
    the keys, lo and hi. So one lookup of a token checks its integer form,
    the floor, the ceiling and lo <= hi."""
    pairs = np.array([(a, b) for a in range(RSSI_FLOOR, RSSI_CEIL + 1)
                      for b in range(a, RSSI_CEIL + 1)], dtype=np.int16)
    tokens = np.array([f":{a}..{b}".encode() for a, b in pairs.tolist()],
                      dtype="S%d" % _TOKEN)
    words = tokens.view(np.uint64).reshape(len(tokens), 2)
    keys = _token_keys(words)
    order = np.argsort(keys)
    lo, hi = pairs[order].T.copy()
    return keys[order], words[order], lo, hi


_RANGE_KEYS, _RANGE_WORDS, _RANGE_LO, _RANGE_HI = _range_table()


def _range_slots(tokens: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Each row's slot in the range table, or -1: the row's first ``width``
    bytes, zero-padded, must equal the slot's token. No byte of a field is
    zero, so a token equals a table token only at that token's width.
    A batch holds few distinct tokens: each is searched for once, by its
    key, and then compared word for word. np.unique and a search over the
    tokens as S16 take about three times as long."""
    words = tokens.view(np.uint64) & _KEEP[
        np.minimum(np.maximum(width, 0), _TOKEN)]
    keys, which = np.unique(_token_keys(words), return_inverse=True)
    slot = np.minimum(np.searchsorted(_RANGE_KEYS, keys),
                      len(_RANGE_KEYS) - 1)[which.ravel()]
    same = _RANGE_WORDS[slot] == words
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


def _canonical_ints(texts: list[str]) -> list[int]:
    values = list(map(int, texts))
    if list(map(str, values)) != texts:
        raise ValueError(texts)
    return values


def _canonical_int(text: str) -> int:
    value = int(text)
    if str(value) != text:
        raise ValueError(text)
    return value


def _signal_id(text: str) -> SignalId:
    sid = SignalId.from_hex(text)
    if sid.hex != text:
        raise ValueError(text)
    return sid


def _fields(
    line: str, ids: dict[str, SignalId]
) -> tuple[str, list[SignalId], list[str]]:
    """Split a record laid out as ``t=<x> <id>:<v> ...`` with ids ascending.

    Returns the text after ``t=``, the ids interned through ``ids`` and the
    value tokens. Raises ValueError on any other layout or a bad id.
    """
    fields = line.replace(":", " ").split(" ")
    hexes, values = fields[1::2], fields[2::2]
    if (
        fields[0][:2] != "t="
        or " ".join([fields[0], *map(":".join, zip(hexes, values))]) != line
        or any(map(operator.ge, hexes, hexes[1:]))
    ):
        raise ValueError(line)
    for text in set(hexes).difference(ids):
        ids[text] = _signal_id(text)
    return fields[0][2:], list(map(ids.__getitem__, hexes)), values


def _signal_record(line: str, ids: dict[str, SignalId]) -> SignalVector:
    when, sids, tokens = _fields(line, ids)
    return SignalVector(dict(zip(sids, _canonical_ints(tokens))),
                        _canonical_int(when))


def _parse_id(token: str, line_no: int) -> SignalId:
    try:
        return _signal_id(token)
    except ValueError:
        raise ProfileFormatError(f"bad signal id {token!r}", line_no) from None


def _parse_int(token: str, what: str, line_no: int) -> int:
    try:
        return _canonical_int(token)
    except ValueError:
        raise ProfileFormatError(f"bad {what} {token!r}", line_no) from None


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


def _explain(kind: str, label: str, lines: list[str]) -> NoReturn:
    """Raise a ProfileFormatError naming the fault of a profile a bulk pass
    rejected: its first bad line, else its broken order of times."""
    processed = kind == KIND_PROCESSED
    records = [_walk(line, line_no, processed)
               for line_no, line in enumerate(lines, 2)]
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


def _split(data: bytes) -> tuple[str, str, list[str]]:
    """The kind, the label and the record lines of profile bytes."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProfileFormatError(f"not UTF-8: {exc}") from None
    if not text:
        raise ProfileFormatError("empty input, missing header", 1)
    lines = text.split("\n")
    kind, label = _parse_header(lines[0])
    if lines[-1]:
        raise ProfileFormatError("missing final newline", len(lines))
    return kind, label, lines[1:-1]


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
            labels, _, columns = _read_processed([data])
        except ProfileFormatError as exc:
            exc.record = None  # one profile is no batch
            raise
        raw, *columns = columns
        return ProcessedProfile._from_columns(list(map(SignalId, raw)),
                                              *columns, case_label=labels[0])
    kind, label, lines = _split(data)  # a signal profile, or the error
    # per call, never shared: the relay parses untrusted bodies
    ids: dict[str, SignalId] = {}
    try:
        return SignalProfile([_signal_record(line, ids) for line in lines],
                             device_tag=label)
    except ValueError:
        _explain(kind, label, lines)


def _reject(data: bytes) -> NoReturn:
    """Raise the error that names the fault of a record the bulk checks
    rejected: parse_profile's, or "not a processed profile"."""
    kind, label, lines = _split(data)
    if kind != KIND_PROCESSED:
        parse_profile(data)  # names the fault of a bad signal body
        raise ProfileFormatError(
            "not a processed profile (scans stay on a device)")
    _explain(kind, label, lines)


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


def _check_run(records: Sequence[bytes], first: int) -> tuple:
    """Check a run of processed records in bulk, over their bytes.

    Returns each record's label and segment count; the run's distinct ids
    in order, as S64 hex; each entry's id as its rank among them, its lo and
    its hi; and each segment's entry count, start and end. ``first`` is the
    position of the run's first record in the whole batch.

    Raises:
        ProfileFormatError: for the first record that fails any check, from
            _reject, with ``record`` set to its position in the batch.
    """
    labels, bodies = [], []
    for data in records:
        end = data.find(b"\n")
        if end < 0 or not data.endswith(b"\n"):
            break
        try:
            kind, label = _parse_header(data[:end].decode("utf-8"))
        except (UnicodeDecodeError, ProfileFormatError):
            break
        if kind != KIND_PROCESSED:
            break
        labels.append(label)
        bodies.append(memoryview(data)[end + 1:])
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
    bad = [sep[(delim != 32) & ~newline]]  # offsets of the failed checks

    # each entry as two rows: its 64 hex digits, then ':' and its range,
    # which a shorter or a longer entry cuts or overruns
    at = begin[~head]
    ids = _rows(text, _ID_DIGITS)[at]
    slot = _range_slots(_rows(text, _TOKEN)[at + _ID_DIGITS],
                        sep[~head] - at - _ID_DIGITS)
    distinct, rank = _intern(ids)
    good = _is_hex(distinct.view(np.uint8).reshape(-1, _ID_DIGITS))[rank]
    bad.append(at[~good | (slot < 0)])
    # ids ascend strictly within a line: an entry ending at a space has the
    # next entry on its line
    bad.append(at[1:][~newline[~head][:-1] & (rank[1:] <= rank[:-1])])

    # each line's window, exactly as int() reads it
    lines = np.flatnonzero(head)
    starts, ends = [], []
    for offset, stop in zip(begin[lines].tolist(), sep[lines].tolist()):
        window = _WINDOW.fullmatch(text, offset, stop)
        try:
            start, end = int(window[1]), int(window[2])
        except (TypeError, ValueError):  # no match, or past int()'s digits
            bad.append([offset])
            start, end = 0, 1
        starts.append(start)
        ends.append(end)
    # a window ends after it starts; within a record, starts do not fall
    t_start, t_end = _times(starts), _times(ends)
    record = np.searchsorted(bounds, sep[newline], side="right")
    bad.append(begin[lines][t_start >= t_end])
    bad.append(begin[lines][1:][(record[1:] == record[:-1])
                                & (t_start[1:] < t_start[:-1])])

    bad = np.concatenate(bad)
    if len(bad) or len(bodies) < len(records):
        # the first record that holds a failed check, else the one whose
        # header or final newline stopped the run
        position = len(bodies)
        if len(bad):
            position = int(np.searchsorted(bounds, bad.min(), side="right"))
        try:
            _reject(records[position])
        except ProfileFormatError as exc:
            exc.record = first + position
            raise
    counts = np.bincount(record, minlength=len(bodies)).tolist()
    # a line's last field ends at its newline
    return (labels, counts, distinct, rank, _RANGE_LO[slot], _RANGE_HI[slot],
            np.flatnonzero(newline) - lines, starts, ends)


def _check_processed(records: Sequence[bytes]) -> None:
    """Check processed-profile records as _read_processed does, without
    building their columns: the relay's publish check.

    Raises:
        ProfileFormatError: as _read_processed raises it.
    """
    for run, first in _runs(records):
        _check_run(run, first)


def _read_processed(
    records: Sequence[bytes],
) -> tuple[list[str], list[int], tuple]:
    """Read processed-profile records straight into one batch of columns.
    Returns each record's label and segment count, and the arguments of the
    batch's ``_Columns``, its ids as raw bytes.

    Raises:
        ProfileFormatError: for the first bad record, as ``parse_profile``
            raises it (or "not a processed profile"), with ``record`` set
            to its position.
    """
    labels, counts, lengths, starts, ends = [], [], [], [], []
    distinct, rank, lo, hi = [], [], [], []
    for run, first in _runs(records):
        (run_labels, run_counts, run_distinct, run_rank, run_lo, run_hi,
         run_lengths, run_starts, run_ends) = _check_run(run, first)
        labels += run_labels
        counts += run_counts
        lengths += run_lengths.tolist()
        starts += run_starts
        ends += run_ends
        distinct.append(run_distinct)
        rank.append(run_rank)
        lo.append(run_lo)
        hi.append(run_hi)
    # each run's distinct ids, numbered among all runs'; filled in place, so
    # that only one run's entries are ever gathered twice
    vocabulary, where = np.unique(np.concatenate(distinct),
                                  return_inverse=True)
    where = np.split(where.ravel(), np.cumsum(list(map(len, distinct)))[:-1])
    col = np.empty(sum(map(len, rank)), dtype=np.intp)
    end = 0
    for w, r in zip(where, rank):
        col[end:end + len(r)] = w[r]
        end += len(r)
    return labels, counts, (_digests(vocabulary), col, np.concatenate(lo),
                            np.concatenate(hi), lengths, starts, ends)


def write_profile(path, profile: SignalProfile | ProcessedProfile) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_profile(profile))


def read_profile(path) -> SignalProfile | ProcessedProfile:
    with open(path, "rb") as fh:
        return parse_profile(fh.read())
