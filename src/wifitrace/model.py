"""Core data types for WiFi-scan contact detection.

A scan produces a :class:`SignalVector`: the set of access points heard at one
instant, keyed by a salted one-way hash of the AP MAC address, with integer
RSSIs in dBm. A :class:`SignalId` is its 32 digest bytes: it hashes, compares
and sorts as them, and equals a raw ``bytes`` of the same value. A device
accumulates scans into a :class:`SignalProfile`. Published artifacts are
:class:`ProcessedProfile` objects, whose per-AP RSSI *ranges* summarize an
interval (or a surveyed area) and whose validity windows are extended by the
virus lifespan.

The package's column forms of scans and segments, and their conversions
to and from these types, live in ``similarity``.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

RSSI_FLOOR = -100  # weak-signal floor in dBm; one-sided ranges open here
RSSI_CEIL = 0

_MAC_RE = re.compile(r"^[0-9A-F]{2}(?::[0-9A-F]{2}){5}$")


class InsufficientDataError(ValueError):
    """Raised when an operation needs more scan data than was supplied."""


class SignalId(bytes):
    """Opaque 32-byte digest identifying one access point."""

    __slots__ = ()

    def __new__(cls, value: bytes) -> "SignalId":
        if not isinstance(value, bytes) or len(value) != 32:
            raise ValueError("SignalId value must be a 32-byte digest")
        return super().__new__(cls, value)

    @classmethod
    def from_hex(cls, text: str) -> "SignalId":
        return cls(bytes.fromhex(text))

    @property
    def value(self) -> bytes:
        return bytes(self)

    @property
    def hex(self) -> str:
        return bytes.hex(self)

    def __repr__(self) -> str:
        return f"SignalId({self.hex[:12]}..)"

    __str__ = __repr__


def hash_mac(mac: str, salt: bytes) -> SignalId:
    """One-way hash of a canonical AP MAC address.

    Args:
        mac: 6-octet colon-separated uppercase hex, e.g. "AA:BB:CC:DD:EE:FF".
        salt: deployment-wide salt, prepended before hashing so public MAC
            lists cannot be reversed by dictionary lookup.

    Returns:
        Deterministic SignalId; same (mac, salt) always yields the same id.

    Raises:
        ValueError: if the MAC string is not in canonical form.
    """
    if not isinstance(mac, str) or not _MAC_RE.match(mac):
        raise ValueError(f"not a canonical MAC address: {mac!r}")
    if not isinstance(salt, bytes):
        raise ValueError("salt must be bytes")
    return SignalId(hashlib.sha256(salt + mac.encode("ascii")).digest())


def clamp_rssi(raw: int) -> int:
    """Clamp a raw dBm reading into [RSSI_FLOOR, RSSI_CEIL]."""
    return min(RSSI_CEIL, max(RSSI_FLOOR, int(raw)))


@dataclass(frozen=True)
class SignalVector:
    """One scan: AP ids with their RSSIs, at one timestamp.

    RSSIs are clamped into [-100, 0] at construction; each id appears once
    (enforced by the mapping).
    """

    readings: Mapping[SignalId, int]
    timestamp: int

    def __post_init__(self) -> None:
        # a dict copy keeps the stored key hashes; only a reading that is not
        # already an exact int in range is replaced
        readings = dict(self.readings)
        for sid, rssi in readings.items():
            if type(rssi) is not int or not RSSI_FLOOR <= rssi <= RSSI_CEIL:
                readings[sid] = clamp_rssi(rssi)
        object.__setattr__(self, "readings", MappingProxyType(readings))
        object.__setattr__(self, "timestamp", int(self.timestamp))

    @classmethod
    def _trusted(cls, readings: dict[SignalId, int], timestamp: int) -> "SignalVector":
        """Wrap, unchecked and uncopied, a dict the caller built and no longer
        touches: int RSSIs already in [RSSI_FLOOR, RSSI_CEIL], an int
        timestamp. For similarity._ScanBatch.vectors, whose block is clamped,
        and profileio.parse_profile, whose reader clamps."""
        vec = object.__new__(cls)
        vec.__dict__.update(readings=MappingProxyType(readings), timestamp=timestamp)
        return vec

    @property
    def ids(self) -> frozenset[SignalId]:
        return frozenset(self.readings)

    def __len__(self) -> int:
        return len(self.readings)


@dataclass(frozen=True)
class SignalProfile:
    """Time-ordered sequence of scans from one device or one survey walk."""

    vectors: Sequence[SignalVector]
    device_tag: str = ""

    def __post_init__(self) -> None:
        vectors = tuple(self.vectors)
        for prev, cur in zip(vectors, vectors[1:]):
            if cur.timestamp <= prev.timestamp:
                raise ValueError(
                    "timestamps must be strictly increasing "
                    f"({prev.timestamp} followed by {cur.timestamp})"
                )
        object.__setattr__(self, "vectors", vectors)

    def __len__(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class ProcessedVector:
    """Per-AP RSSI (min, max) ranges summarizing an interval or an area."""

    ranges: Mapping[SignalId, tuple[int, int]]

    def __post_init__(self) -> None:
        # a dict copy keeps the stored key hashes; only a pair that is not
        # already an exact, ordered (int, int) tuple in range is replaced
        ranges = dict(self.ranges)
        for sid, pair in ranges.items():
            lo, hi = pair
            if (type(pair) is tuple and type(lo) is int and type(hi) is int
                    and RSSI_FLOOR <= lo <= hi <= RSSI_CEIL):
                continue
            lo, hi = int(lo), int(hi)
            if lo > hi:
                raise ValueError(f"rssiMin {lo} > rssiMax {hi} for {sid!r}")
            if lo < RSSI_FLOOR:
                raise ValueError(f"rssiMin {lo} below floor {RSSI_FLOOR} for {sid!r}")
            if hi > RSSI_CEIL:
                raise ValueError(f"rssiMax {hi} above {RSSI_CEIL} for {sid!r}")
            ranges[sid] = (lo, hi)
        object.__setattr__(self, "ranges", MappingProxyType(ranges))

    @property
    def ids(self) -> frozenset[SignalId]:
        return frozenset(self.ranges)

    def __len__(self) -> int:
        return len(self.ranges)


@dataclass(frozen=True)
class ProfileSegment:
    """A processed vector with its lifespan-extended validity window."""

    vector: ProcessedVector
    t_start: int
    t_end: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "t_start", int(self.t_start))
        object.__setattr__(self, "t_end", int(self.t_end))
        if self.t_start >= self.t_end:
            raise ValueError(f"tStart {self.t_start} must precede tEnd {self.t_end}")

    def covers(self, t: int) -> bool:
        return self.t_start <= t <= self.t_end


@dataclass(frozen=True)
class ProcessedProfile:
    """The published artifact of a confirmed case or infected area.

    Segments are ordered by t_start and may overlap in time (consecutive
    lifespan extensions usually do).
    """

    segments: Sequence[ProfileSegment]
    case_label: str = ""

    def __post_init__(self) -> None:
        segments = tuple(self.segments)
        for prev, cur in zip(segments, segments[1:]):
            if cur.t_start < prev.t_start:
                raise ValueError(
                    "segments must be ordered by tStart "
                    f"({prev.t_start} followed by {cur.t_start})"
                )
        object.__setattr__(self, "segments", segments)

    def __len__(self) -> int:
        return len(self.segments)


def _whole_seconds(lifespan) -> int:
    """A lifespan as an int: a whole number of seconds, 0 or more."""
    if not (isinstance(lifespan, numbers.Real) and 0 <= lifespan < math.inf
            and lifespan == int(lifespan)):
        raise ValueError("a lifespan must be a whole number of seconds >= 0, "
                         f"got {lifespan!r}")
    return int(lifespan)


@dataclass(frozen=True)
class LifespanSchedule:
    """Virus lifespan per processed segment, in seconds.

    When ``per_segment`` is given for a profile with n vectors it must hold
    n - 1 entries; otherwise every segment uses ``default``.
    """

    default: int = 1800
    per_segment: Sequence[int] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "default", _whole_seconds(self.default))
        if self.per_segment is not None:
            object.__setattr__(self, "per_segment",
                               tuple(map(_whole_seconds, self.per_segment)))

    def lifespan_for(self, segment_index: int) -> int:
        if self.per_segment is None:
            return self.default
        return self.per_segment[segment_index]
