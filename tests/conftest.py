import contextlib
import hashlib
import random

import pytest

from wifitrace.exchange import serve_in_thread
from wifitrace.model import (
    ProcessedProfile,
    ProcessedVector,
    ProfileSegment,
    SignalId,
    SignalProfile,
    SignalVector,
)

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


@contextlib.contextmanager
def relay_in_thread(store, **kwargs):
    """A relay from serve_in_thread, shut down and its socket closed on
    exit."""
    server = serve_in_thread(store, **kwargs)
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


def assert_same_columns(got, want):
    """Two similarity._Columns hold the same ids, numbering and arrays."""
    assert got.index == want.index
    for name in ("col", "lo", "hi", "length", "ptr", "t_start", "t_end"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tolist() == b.tolist(), name


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
