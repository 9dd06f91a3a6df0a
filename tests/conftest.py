import hashlib
import random

import pytest

from wifitrace.detection import ContactFlag
from wifitrace.model import (
    ProcessedProfile,
    ProcessedVector,
    ProfileSegment,
    SignalId,
    SignalProfile,
    SignalVector,
)

from oracles import match_brute

# a reusable pool of well-formed signal ids
ID_POOL = [SignalId(hashlib.sha256(bytes([i])).digest()) for i in range(64)]


def make_vector(rng: random.Random, n_ids: int = 8, timestamp: int = 0,
                pool=None) -> SignalVector:
    pool = pool or ID_POOL
    ids = rng.sample(pool, min(n_ids, len(pool)))
    return SignalVector({sid: rng.randint(-100, 0) for sid in ids}, timestamp)


def make_processed(rng: random.Random, n_ids: int = 8, pool=None) -> ProcessedVector:
    pool = pool or ID_POOL
    ids = rng.sample(pool, min(n_ids, len(pool)))
    ranges = {}
    for sid in ids:
        a, b = rng.randint(-100, 0), rng.randint(-100, 0)
        ranges[sid] = (min(a, b), max(a, b))
    return ProcessedVector(ranges)


def make_profile(rng: random.Random, n_vectors: int = 5, max_ids: int = 8,
                 start: int = 0, spacing: tuple[int, int] = (5, 120),
                 pool=None) -> SignalProfile:
    vectors = []
    t = start
    for _ in range(n_vectors):
        vectors.append(make_vector(rng, rng.randint(0, max_ids), t, pool=pool))
        t += rng.randint(*spacing)
    return SignalProfile(vectors)


def make_processed_profile(rng: random.Random, n_segments: int = 3,
                           label: str = "") -> ProcessedProfile:
    segments = []
    t = rng.randint(0, 100)
    for _ in range(n_segments):
        length = rng.randint(10, 600)
        segments.append(ProfileSegment(make_processed(rng, rng.randint(1, 6)),
                                       t, t + length))
        t += rng.randint(5, 300)
    return ProcessedProfile(segments, case_label=label)


def brute_matches(vectors, published, alpha: float | None = None):
    """``oracles.match_brute`` over scans and (label, segments) pairs."""
    return match_brute(
        [(vec.timestamp, dict(vec.readings)) for vec in vectors],
        [(label, [(dict(seg.vector.ranges), seg.t_start, seg.t_end)
                  for seg in segments]) for label, segments in published],
        alpha)


def brute_flags(vectors, published, alpha: float) -> list[ContactFlag]:
    """The oracle's matches as the flags detect_contacts gives."""
    matches = brute_matches(
        vectors, [(p.case_label, p.segments) for p in published], alpha)
    return [ContactFlag(vec.timestamp, index is not None, score, index, label)
            for vec, (score, index, label) in zip(vectors, matches)]


def brute_columns(vectors, segments, alpha: float | None = None
                  ) -> tuple[list[float], list[int]]:
    """``similarity._score_columns``' two outputs by the oracle over the
    segments as one profile, as lists: each scan's score, and its matched
    segment or -1."""
    matches = brute_matches(vectors, [("", segments)], alpha)
    return ([score for score, _, _ in matches],
            [-1 if index is None else index for _, index, _ in matches])


def brute_detected(vectors, segments, alpha: float) -> set[int]:
    """The positions of the scans that the oracle matches."""
    _, matched = brute_columns(vectors, segments, alpha)
    return {i for i, index in enumerate(matched) if index >= 0}


def assert_same_columns(got, want):
    """Two similarity._Columns hold the same ids, numbering and arrays."""
    assert got.ids == want.ids
    for name in ("col", "lo", "hi", "length", "ptr", "t_start", "t_end"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tolist() == b.tolist(), name


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
