"""sync-day: one device's working day in the mall preset.

The user spends ROUNDS hours in the store, one spot per hour, scanning every
minute. Each hour a batch of case profiles is published to a relay running
in its own process, and then the device runs ``client_sync`` with a
persistent cursor over the scans it has taken so far. Every batch holds

* a direct contact: a case standing 1 m from the user for 20 minutes;
* an environmental exposure: a case that stood on the user's next spot and
  left 5 minutes before the user arrives, inside its 30-minute lifespan;
* ELSEWHERE cases at least 15 m from the user's spots, scored in full but
  far below the threshold.

A run repeats whole days; day d is day 0 shifted by d * 86400 s, so the
relay receives fresh bytes while the matching work stays the same.
"""

from __future__ import annotations

import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np

import oracle
from common import (ROOT, SRC, CheckFailed, Relay, fresh_dir, median, now,
                    paused, peak_rss_mb, timed)
from wifitrace import detection, exchange, processing, profileio, simulator
from wifitrace.detection import ContactFlag, DetectionConfig
from wifitrace.model import (LifespanSchedule, SignalId, SignalProfile,
                             SignalVector)

T0 = 1_600_000_200
ROUNDS = 8
HOUR = 3600
PERIOD = 60
LIFESPAN = 1800
ELSEWHERE = 8
SAMPLE = 8
DAY = 86400
USER_STREAM = 1

# the reference matcher must not be the traced wrapper
_detect_contacts = detection.detect_contacts


class Day:
    """The generated inputs of one day."""

    def __init__(self, seed: int):
        self.cfg = DetectionConfig()
        env, layout = simulator.make_site("mall", seed=seed)
        # The seed drives the radio draws only. The places and times are
        # fixed, so every seed asks for the same amount of matching.
        rng = np.random.default_rng(0x5D)
        (x0, y0), (x1, y1) = layout.walk_area
        spots = [(rng.uniform(x0 + 2, x1 - 2), rng.uniform(y0 + 2, y1 - 2))]
        while len(spots) < ROUNDS + 1:
            p = (rng.uniform(x0 + 2, x1 - 2), rng.uniform(y0 + 2, y1 - 2))
            if np.hypot(p[0] - spots[-1][0], p[1] - spots[-1][1]) >= 8.0:
                spots.append(p)
        waypoints = []
        for h in range(ROUNDS):
            start = T0 + h * HOUR
            waypoints += [(start, spots[h]), (start + HOUR - 1, spots[h])]
        user = simulator.simulate_profile(
            env, simulator.SimTrajectory(tuple(waypoints)), PERIOD,
            stream=USER_STREAM)
        self.user = user.vectors
        self.plain_user = [({s.value: r for s, r in v.readings.items()}, v.timestamp)
                           for v in user.vectors]

        (sx0, sy0), (sx1, sy1) = layout.site_area
        self.batches = []  # per hour: [(label, ProcessedProfile, bytes)]
        stream = 100
        for h in range(ROUNDS):
            start = T0 + h * HOUR
            near = (spots[h][0] + 1.0, spots[h][1])
            visits = [("direct", near, start + 600, start + 1800),
                      ("environ", spots[h + 1], start + 1800, start + 3300)]
            while len(visits) < 2 + ELSEWHERE:
                p = (rng.uniform(sx0, sx1), rng.uniform(sy0, sy1))
                if min(np.hypot(p[0] - s[0], p[1] - s[1])
                       for s in spots[h:h + 2]) < 15.0:
                    continue
                begin = start + int(rng.integers(0, 40)) * 60
                visits.append(("elsewhere", p, begin,
                               begin + int(rng.integers(10, 21)) * 60))
            batch = []
            for j in rng.permutation(len(visits)):
                kind, pos, begin, end = visits[j]
                label = f"{kind}-h{h + 1}-{j}"
                walk = simulator.simulate_profile(
                    env, simulator.stationary(pos, begin, end), PERIOD,
                    stream=stream)
                stream += 1
                prof = processing.build_case_profile(
                    walk, LifespanSchedule(default=LIFESPAN), case_label=label)
                batch.append((label, prof, profileio.serialize_profile(prof)))
            self.batches.append(batch)
        # the checker's own view of every record, read from the bytes
        self.plain = [[oracle.read_processed(b) for _, _, b in batch]
                      for batch in self.batches]

    def __getstate__(self):
        # the model's mappings do not pickle: hand over the scans' readings
        # and the records' bytes, which __setstate__ reads back
        return {"plain_user": self.plain_user, "plain": self.plain,
                "batches": [[(label, data) for label, _, data in batch]
                            for batch in self.batches]}

    def __setstate__(self, state):
        self.cfg = DetectionConfig()
        self.plain_user = state["plain_user"]
        self.plain = state["plain"]
        self.user = [SignalVector({SignalId(k): r for k, r in readings.items()}, t)
                     for readings, t in self.plain_user]
        self.batches = [[(label, profileio.parse_profile(data), data)
                         for label, data in batch] for batch in state["batches"]]

    def scans_until(self, h: int) -> int:
        """Number of user scans taken before the sync after hour h."""
        end = T0 + h * HOUR
        return sum(1 for v in self.user if v.timestamp < end)

    def covering_pairs(self, h: int) -> int:
        """Time-covering scan x segment pairs a correct sync after hour h
        must score: the new scans against every earlier record, and every
        scan so far against this hour's batch."""
        n_old, n = self.scans_until(h - 1), self.scans_until(h)

        def pairs(scans, records):
            return sum(1 for _, segs in records for _, t0, t1 in segs
                       for _, t in scans if t0 <= t <= t1)

        earlier = [rec for batch in self.plain[:h - 1] for rec in batch]
        return (pairs(self.plain_user[n_old:n], earlier)
                + pairs(self.plain_user[:n], self.plain[h - 1]))


_TIMES = re.compile(rb"^t=(\d+)\.\.(\d+)", re.M)


def shifted(data: bytes, by: int) -> bytes:
    if not by:
        return data
    return _TIMES.sub(lambda m: b"t=%d..%d" % (int(m.group(1)) + by,
                                                int(m.group(2)) + by), data)


def _key(flag: ContactFlag, by: int):
    return (flag.timestamp - by, flag.in_contact, flag.best_score,
            flag.matched_segment, flag.matched_case)


class Reference:
    """match_and_notify over the scans so far and every record so far, built
    round by round with the program's own matcher. By the first-match rule a
    scan keeps the flag an earlier batch gave it; otherwise the new batch
    decides, and an unmatched scan carries the larger best score.

    Each round also keeps the report of the scans so far against that
    round's batch alone: what the known client_sync fault returns."""

    def __init__(self, day: Day):
        self.day = day
        self.flags: dict[int, ContactFlag] = {}
        self.rounds = []      # per round: (flag keys, episode tuples)
        self.batch_only = []  # per round: (flags, flag keys, episode tuples)

    def extend(self, h: int) -> None:
        day, cfg = self.day, self.day.cfg
        n_old, n = day.scans_until(h - 1), day.scans_until(h)
        earlier = [p for batch in day.batches[:h - 1] for _, p, _ in batch]
        for f in _detect_contacts(SignalProfile(day.user[n_old:n]), earlier, cfg):
            self.flags[f.timestamp] = f
        new = [p for _, p, _ in day.batches[h - 1]]
        batch = _detect_contacts(SignalProfile(day.user[:n]), new, cfg)
        for f in batch:
            old = self.flags[f.timestamp]
            if not old.in_contact:
                self.flags[f.timestamp] = f if f.in_contact else ContactFlag(
                    f.timestamp, False, max(old.best_score, f.best_score))
        flags = [self.flags[v.timestamp] for v in day.user[:n]]
        self.rounds.append(([_key(f, 0) for f in flags], self._episodes(flags)))
        self.batch_only.append((batch, [_key(f, 0) for f in batch],
                                self._episodes(batch)))

    def _episodes(self, flags):
        cfg = self.day.cfg
        return oracle.episodes(flags, cfg.window_length, cfg.min_exposure,
                               cfg.sampling_period)


def check_round(day: Day, ref: Reference, h: int, by: int, report, rng) -> bool:
    """True when the report equals the reference; False when it equals,
    flag for flag and episode for episode, the report of the scans so far
    against this round's batch alone (the known client_sync fault);
    CheckFailed otherwise."""
    cfg = day.cfg
    alpha = Fraction(str(cfg.alpha))
    oracle.check_episodes(report, cfg)
    n = day.scans_until(h)
    if len(report.flags) != n:
        raise CheckFailed(f"round {h}: {len(report.flags)} flags for {n} scans")
    got_flags = [_key(f, by) for f in report.flags]
    got_episodes = [(e.start - by, e.end - by, e.case_label, e.contact_minutes)
                    for e in report.episodes]
    want_flags, want_episodes = ref.rounds[h - 1]
    passed = got_flags == want_flags and got_episodes == want_episodes
    batch_flags, fault_flags, fault_episodes = ref.batch_only[h - 1]
    if not passed and (got_flags != fault_flags or got_episodes != fault_episodes):
        raise CheckFailed(
            f"round {h}: the report matches neither every record so far nor "
            "this round's batch alone")
    everything = [rec for batch in day.plain[:h] for rec in batch]
    for i in rng.choice(n, size=min(SAMPLE, n), replace=False):
        readings, t = day.plain_user[i]
        oracle.check_flag(t, readings, everything, alpha, ref.flags[t])
        oracle.check_flag(t, readings, day.plain[h - 1], alpha, batch_flags[i])
    return passed


def set_up(seed: int, n: int):
    """(scaled CPU seconds of each of n set-ups, the last Day)."""
    times = []
    for _ in range(n):
        day, scaled, _, _ = timed(Day, seed)
        times.append(scaled)
    return times, day


def set_up_in_child(seed: int, n: int, work) -> tuple:
    """set_up in a child process, which hands the Day back pickled, so that
    the peak RSS of this process is the device's: the simulator's arrays
    never live here."""
    out = work / "set-up.pickle"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "perfbench"), str(SRC), env.get("PYTHONPATH", "")])
    subprocess.run(
        [sys.executable, "-c",
         "import pickle, sys, sync_day\n"
         "r = sync_day.set_up(int(sys.argv[1]), int(sys.argv[2]))\n"
         "with open(sys.argv[3], 'wb') as fh: pickle.dump(r, fh)",
         str(seed), str(n), str(out)],
        stdin=subprocess.DEVNULL, cwd=ROOT, env=env, check=True)
    with open(out, "rb") as fh:
        return pickle.load(fh)


def run(seed: int, seconds: float, tracer=None, n_setups: int = 3) -> dict:
    work = fresh_dir(f"sync-day-{seed}")
    relay = Relay(work / "relay")
    try:
        # a traced pass sets up here, so that the set-up's layers are traced
        setups, day = (set_up(seed, n_setups) if tracer is not None
                       else set_up_in_child(seed, n_setups, work))
        relay.start()
        ref = Reference(day)
        state = exchange.SyncState(work / "device")
        pairs = [day.covering_pairs(h) for h in range(1, ROUNDS + 1)]
        rss_before_sync = peak_rss_mb()
        rounds, raws, walls, publishes, covering = [], [], [], [], 0
        ok = failed = flags_true = n_episodes = n_days = 0
        start = now()
        while n_days == 0 or now() - start < seconds:
            by = n_days * DAY
            with paused(tracer):
                user = [SignalVector(v.readings, v.timestamp + by)
                        for v in day.user]
            rng = np.random.default_rng((seed, n_days))
            for h in range(1, ROUNDS + 1):
                for _, _, data in day.batches[h - 1]:
                    body = shifted(data, by)
                    t = now()
                    exchange.publish(relay.endpoint, body)
                    publishes.append(now() - t)
                profile = SignalProfile(user[:day.scans_until(h)])
                report, scaled, raw, wall = timed(
                    exchange.client_sync, state, relay.endpoint, profile,
                    day.cfg)
                rounds.append(scaled)
                raws.append(raw)
                walls.append(wall)
                covering += pairs[h - 1]
                with paused(tracer):
                    if len(ref.rounds) < h:
                        ref.extend(h)
                    passed = check_round(day, ref, h, by, report, rng)
                ok += passed
                failed += not passed
                flags_true += sum(1 for f in report.flags if f.in_contact)
                n_episodes += len(report.episodes)
            n_days += 1
        rss = peak_rss_mb()
    finally:
        relay.stop()
    sync_s = sum(rounds)
    return {
        "ops": {"sync_round": (len(rounds), failed),
                "publish": (len(publishes), 0)},
        "e2e": {"setup_s": median(setups),
                "op_ms_p50": median(rounds) * 1e3,
                "work_per_s": covering / sync_s,
                "peak_rss_mb": rss},
        "detail": {"sync_round_s": (median(rounds), "s"),
                   "sync_round_cpu_s": (median(raws), "s"),
                   "sync_round_wall_s": (median(walls), "s"),
                   "sync_pairs_per_s": (covering / sync_s, "pairs/s"),
                   "batch_publish_ms_p50": (median(publishes) * 1e3, "ms"),
                   "peak_rss_before_sync_mb": (rss_before_sync, "MB"),
                   "days": (n_days, "count"),
                   "rounds_passed": (ok, "count")},
        "layer": {"detection.flags_true": flags_true,
                  "detection.episodes": n_episodes},
        "work": work,
    }
