"""Matching cost against longer logs and larger batches, with equal flags.

    PYTHONPATH=src python tools/matchbench.py [--days 28] [--seed 1] [--repeat 5]

Builds one sync-day day (``perfbench/sync_day.Day``: 480 scans and 80
records) and makes day d by shifting its scans and records by d * 86400 s.
It times ``detection._detect_columns`` only, on records already read into
columns, and prints the best of ``--repeat`` runs as two rows of the
ROADMAP baseline table:

* the day-0 scans matched against day 0's records and against ``--days``
  days of records, with the pairs the kernel scores against one day next
  to the covering pairs (it skips the pairs of scans already matched);
* ``min(7, --days)`` days of scans matched against as many days of records,
  in one batch and as one batch per day.

Each pair of runs must give equal flags: the extra days' windows cover no
day-0 scan, and a day's records cover only that day's scans. A difference
exits 1. Nothing gates on time.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from sync_day import DAY, Day, shifted  # noqa: E402
from wifitrace import detection, profileio, similarity  # noqa: E402
from wifitrace.model import SignalVector  # noqa: E402


def best_ms(repeat: int, fn, *args):
    """(the fastest of ``repeat`` calls in ms, the last call's result)."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best * 1e3, out


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

    def read(days: range):
        return profileio._read_processed(
            [shifted(data, d * DAY) for d in days for data in records])

    def scans(days: range):
        return [SignalVector(v.readings, v.timestamp + d * DAY)
                for d in days for v in day.user]

    def match(vectors, log):
        return detection._detect_columns(vectors, log[2], log[0], log[1], cfg)

    failed = []

    # the day-0 scans against one day and against the whole log
    one, many = read(range(1)), read(range(args.days))
    one_ms, one_flags = best_ms(args.repeat, match, day.user, one)
    many_ms, many_flags = best_ms(args.repeat, match, day.user, many)
    if one_flags != many_flags:
        failed.append(f"{args.days}-day log")
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
    print(f"| matching over a week | {week} days of scans "
          f"({week * len(day.user)}) against {week} days of records, "
          f"matching only | **{batch_ms:.1f} ms** in one batch, against "
          f"{per_day_ms:.1f} ms as {week} per-day batches: "
          f"{batch_ms / per_day_ms:.2f}x |")

    for what in failed:
        print(f"FAIL: the {what} gave other flags", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
