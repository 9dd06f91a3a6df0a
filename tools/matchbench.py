"""Matching cost against longer logs and larger batches, with equal flags.

    PYTHONPATH=src python tools/matchbench.py [--days 28] [--seed 1] [--repeat 5]

Builds one sync-day day (``perfbench/sync_day.Day``: 480 scans and 80
records) and makes day d by shifting its scans and records by d * 86400 s.
It prints the best of ``--repeat`` runs as three rows of the ROADMAP
baseline table:

* the day-0 scans matched against day 0's records and against ``--days``
  days of records, with the pairs the kernel scores against one day next
  to the covering pairs (it skips the pairs of scans already matched);
* ``min(7, --days)`` days of scans matched against as many days of records,
  in one batch and as one batch per day;
* the device's own scans: a device round as ``wifitrace sync`` makes it,
  without the fetch (its own profile's bytes read, the last hour's records
  read, then the match), over 1 and ``--days`` days of scans. The parse
  path reads the profile with ``parse_profile`` and matches its dict scans;
  the straight path builds the covered slice's batch from the signal
  reader's columns (``profileio._signal_scans``). Each is timed, and its
  peak traced by tracemalloc in one more run.

The first two rows time ``detection._detect_columns`` only, on records
already read into columns. Each pair of runs must give equal flags: the
extra days' windows cover no day-0 scan, a day's records cover only that
day's scans, and both paths read the same scans. Each row's flags of a
seeded sample of 8 scans must also equal ``oracles.match_brute`` (from
``tests/oracles.py``) over the row's records as ``read_processed_brute``
reads them, in score, segment and case: day-0 scans against one day's
records in the first row and a week's in the second, and in the third the
last day's scans against the last hour's records; each drawn from the
scans between the records' first start and last end. A difference exits
1. Nothing gates on time.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
import tracemalloc
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / name) for name in ("src", "perfbench", "tests")]

from oracles import match_brute, read_processed_brute  # noqa: E402
from sync_day import DAY, Day, shifted  # noqa: E402
from wifitrace import detection, profileio, similarity  # noqa: E402
from wifitrace.model import SignalProfile, SignalVector  # noqa: E402


def best_ms(repeat: int, fn, *args):
    """(the fastest of ``repeat`` calls in ms, the last call's result)."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best * 1e3, out


def traced_peak_mb(fn, *args) -> float:
    """The peak of memory traced by tracemalloc during ``fn(*args)``, in MB."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def scored_pairs(match, vectors, log) -> tuple[int, int]:
    """(pairs the kernel scores, covering pairs) in one untimed match: the
    scored pairs counted by wrapping ``_Columns.shared_terms`` here only."""
    scored = 0
    shared_terms = similarity._Columns.shared_terms

    def counting(self, block, row, seg, entry_col):
        nonlocal scored
        scored += len(seg)
        return shared_terms(self, block, row, seg, entry_col)

    similarity._Columns.shared_terms = counting
    try:
        match(vectors, log)
    finally:
        similarity._Columns.shared_terms = shared_terms
    times = similarity._times(vec.timestamp for vec in vectors)
    return scored, len(log[2].covering(times)[0])


def sample_differs(rng: random.Random, vectors, flags, records: list[bytes],
                   alpha: float) -> bool:
    """Whether the flags of 8 of the scans that lie between the records'
    first start and last end, drawn by ``rng``, differ from those of
    ``oracles.match_brute`` over the records: in contact, score, segment
    and case."""
    labels, counts, segments = read_processed_brute(records)
    entries = iter(segments)
    published = [(label, [({h: (lo, hi) for h, lo, hi in ranges}, start, end)
                          for start, end, ranges in islice(entries, n)])
                 for label, n in zip(labels, counts)]
    first = min(start for start, _, _ in segments)
    last = max(end for _, end, _ in segments)
    inside = [i for i, vec in enumerate(vectors)
              if first <= vec.timestamp <= last]
    picks = sorted(rng.sample(inside, min(8, len(inside))))
    scans = [(vectors[i].timestamp, {bytes.hex(sid): rssi for sid, rssi
                                     in vectors[i].readings.items()})
             for i in picks]
    want = [(index is not None, score, index, label)
            for score, index, label in match_brute(scans, published, alpha)]
    return want != [(f.in_contact, f.best_score, f.matched_segment,
                     f.matched_case) for f in map(flags.__getitem__, picks)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--days", type=int, default=28,
                    help="days of records in the long log (default 28)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=5,
                    help="runs of each match; the fastest is shown")
    args = ap.parse_args(argv)
    if args.days < 2 or args.repeat < 1:
        ap.error("--days must be at least 2 and --repeat at least 1")

    day = Day(args.seed)
    cfg = day.cfg
    records = [data for batch in day.batches for _, _, data in batch]
    rng = random.Random(args.seed)

    def day_records(days: range) -> list[bytes]:
        return [shifted(data, d * DAY) for d in days for data in records]

    def read(days: range):
        return profileio._read_processed(day_records(days))

    def scans(days: range):
        return [SignalVector(v.readings, v.timestamp + d * DAY)
                for d in days for v in day.user]

    def match(vectors, log):
        return detection._detect_columns(*detection._vector_scans(vectors),
                                         log[2], log[0], log[1], cfg)

    def parsed(data: bytes):
        return detection._vector_scans(profileio.parse_profile(data).vectors)

    def device_round(read, data: bytes, hour: list[bytes]):
        labels, counts, cols = profileio._read_processed(hour)
        return detection._detect_columns(*read(data), cols, labels, counts,
                                         cfg)

    failed = []

    # the day-0 scans against one day and against the whole log
    one, many = read(range(1)), read(range(args.days))
    one_ms, one_flags = best_ms(args.repeat, match, day.user, one)
    many_ms, many_flags = best_ms(args.repeat, match, day.user, many)
    if one_flags != many_flags:
        failed.append(f"{args.days}-day log")
    # the longer log's flags must equal these, so one check covers both
    if sample_differs(rng, day.user, one_flags, records, cfg.alpha):
        failed.append("1-day log, against the oracle,")
    scored, covering = scored_pairs(match, day.user, one)
    print(f"| matching against longer logs | the {len(day.user)} day-0 scans "
          f"against 1 and {args.days} days of records "
          f"({len(one[2].length)} and {len(many[2].length)} segments; "
          f"against one day, {scored} of {covering} covering pairs scored) "
          f"| {one_ms:.1f} and **{many_ms:.1f} ms**: "
          f"{many_ms / one_ms:.2f}x, with the same flags |")

    # a week of scans in one batch and as one batch per day
    week = min(7, args.days)
    log = read(range(week))
    batch_ms, batch_flags = best_ms(args.repeat, match, scans(range(week)), log)
    per_day_ms, per_day_flags = 0.0, []
    for d in range(week):
        days = range(d, d + 1)
        ms, flags = best_ms(args.repeat, match, scans(days), read(days))
        per_day_ms += ms
        per_day_flags += flags
    if batch_flags != per_day_flags:
        failed.append(f"{week}-day batch")
    if sample_differs(rng, day.user, batch_flags,
                      day_records(range(week)), cfg.alpha):
        failed.append(f"{week}-day batch, against the oracle,")
    print(f"| matching over a week | {week} days of scans "
          f"({week * len(day.user)}) against {week} days of records, "
          f"matching only | **{batch_ms:.1f} ms** in one batch, against "
          f"{per_day_ms:.1f} ms as {week} per-day batches: "
          f"{batch_ms / per_day_ms:.2f}x |")

    # the device's own scans, read by the parse path and by the straight
    # one, against the last hour's records of the last day
    paths = (parsed, profileio._signal_scans)
    rounds = []
    for n in (1, args.days):
        own = scans(range(n))
        data = profileio.serialize_profile(SignalProfile(own))
        hour = [shifted(body, (n - 1) * DAY) for _, _, body in day.batches[-1]]
        (parse_ms, parse_flags), (straight_ms, straight_flags) = (
            best_ms(args.repeat, device_round, read, data, hour)
            for read in paths)
        if parse_flags != straight_flags:
            failed.append(f"straight read of {n} days of scans")
        last = slice((n - 1) * len(day.user), None)
        if sample_differs(rng, own[last], straight_flags[last], hour,
                          cfg.alpha):
            failed.append(f"straight read of {n} days of scans, against the "
                          f"oracle,")
        rounds.append((len(data) / 1e6, parse_ms, straight_ms))
    # the peaks of the --days round
    parse_mb, straight_mb = (traced_peak_mb(device_round, read, data, hour)
                             for read in paths)
    (one_mb, one_parse, one_straight), (many_mb, many_parse,
                                        many_straight) = rounds
    print(f"| the device's own scans | a device round without the fetch: the "
          f"own signal profile read, {len(hour)} records of the last hour "
          f"read, then matched; 1 and {args.days} days of scans "
          f"({one_mb:.2f} and {many_mb:.1f} MB), read by `parse_profile` "
          f"then dict scans, against straight from the reader's columns "
          f"| 1 day: {one_parse:.1f} → **{one_straight:.1f} ms**; "
          f"{args.days} days: {many_parse:.1f} → **{many_straight:.1f} ms**, "
          f"traced peak {parse_mb:.1f} → {straight_mb:.1f} MB; the same "
          f"flags |")

    for what in failed:
        print(f"FAIL: the {what} gave other flags", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
