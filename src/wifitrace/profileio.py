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

Each record line is checked in bulk. Processed lines have one reader, which
appends them to columns: ``parse_profile`` builds its segments from them,
and the relay's publish check and the device's sync round read fetched
records with it through ``_read_processed``. A profile of either kind that
a bulk pass rejects goes to one explainer, which walks its lines token by
token to name the first bad field, then checks its order of times.
"""

from __future__ import annotations

import operator
import urllib.parse
from typing import NoReturn, Sequence

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

MAGIC = "vcontact/1"
KIND_SIGNAL = "signal"
KIND_PROCESSED = "processed"


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


# Each record line is checked in bulk (C-level splits, joins, lookups and
# comparisons), so no Python code runs per token; only a line that fails is
# walked token by token, to name the bad field.

# every canonical "lo..hi" range token, mapped to one shared (lo, hi) tuple:
# a lookup checks the integer form, the floor, the ceiling and lo <= hi
_RANGES = {
    f"{lo}..{hi}": (lo, hi)
    for lo in range(RSSI_FLOOR, RSSI_CEIL + 1)
    for hi in range(lo, RSSI_CEIL + 1)
}


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
    kind, label, lines = _split(data)
    # per call, never shared: the relay parses untrusted bodies
    ids: dict[str, SignalId] = {}
    if kind == KIND_SIGNAL:
        try:
            return SignalProfile([_signal_record(line, ids) for line in lines],
                                 device_tag=label)
        except ValueError:
            _explain(kind, label, lines)
    columns = ([], [], [], [], [])
    _read_columns(label, lines, ids, columns)
    return ProcessedProfile._from_columns(*columns, case_label=label)


def _read_columns(label: str, lines: list[str], ids: dict[str, SignalId],
                  columns: Sequence[list]) -> None:
    """The one reader of processed record lines: appends them to ``columns``
    (ids, (lo, hi) pairs, segment lengths, starts, ends) through ``_fields``
    and the range table, then checks the windows as integers."""
    keys, pairs, lengths, t_start, t_end = columns
    starts, ends = [], []
    try:
        for line in lines:
            window, sids, tokens = _fields(line, ids)
            keys += sids
            pairs += map(_RANGES.__getitem__, tokens)
            lengths.append(len(sids))
            start, _, end = window.partition("..")
            starts.append(start)
            ends.append(end)
        starts, ends = _canonical_ints(starts), _canonical_ints(ends)
        if (any(map(operator.ge, starts, ends))
                or any(map(operator.gt, starts, starts[1:]))):
            raise ValueError(label)
    except (KeyError, ValueError):
        _explain(KIND_PROCESSED, label, lines)
    t_start += starts
    t_end += ends


def _read_processed(
    records: Sequence[bytes],
) -> tuple[list[str], list[int], tuple]:
    """Read processed-profile records straight into the layout of one batch
    of columns. Returns each record's label and segment count, and the
    arguments of the batch's ``_Columns``, which a caller that only
    validates never builds.

    Raises:
        ProfileFormatError: for the first bad record, as ``parse_profile``
            raises it (or "not a processed profile"), with ``record`` set
            to its position.
    """
    # per call, never shared: the relay parses untrusted bodies
    ids: dict[str, SignalId] = {}
    columns = ([], [], [], [], [])
    labels: list[str] = []
    counts: list[int] = []
    for position, data in enumerate(records):
        try:
            kind, label, lines = _split(data)
            if kind != KIND_PROCESSED:
                parse_profile(data)  # names the fault of a bad signal body
                raise ProfileFormatError(
                    "not a processed profile (scans stay on a device)")
            _read_columns(label, lines, ids, columns)
        except ProfileFormatError as exc:
            exc.record = position
            raise
        labels.append(label)
        counts.append(len(lines))
    return labels, counts, columns


def write_profile(path, profile: SignalProfile | ProcessedProfile) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_profile(profile))


def read_profile(path) -> SignalProfile | ProcessedProfile:
    with open(path, "rb") as fh:
        return parse_profile(fh.read())
