"""relay-churn: open-loop publish/fetch traffic against the relay.

One sender in one process drives the relay over loopback HTTP at RATE
requests per second, whatever the relay's speed. Request i is due at
i / RATE seconds; its latency counts from that due time, so a stall also
delays the requests queued behind it. The mix:

* publishes of processed profiles with distinct bytes (office to mall sizes);
* re-publishes of byte-identical earlier bodies, which take the dedup path;
* fetches from DEVICES device cursors, each kept like a ``SyncState``;
* one device back from a long absence, fetching the whole log.

The run ends by restarting the relay over its log RESTARTS times.
"""

from __future__ import annotations

import hashlib
import time
from collections import namedtuple

import numpy as np

import oracle
from common import CheckFailed, Relay, fresh_dir, median, now, quantile, timed
from wifitrace import exchange, processing, profileio, simulator
from wifitrace.model import LifespanSchedule

# about a quarter of the relay's capacity on this mix: it spends 1.6 to
# 2.4 ms of CPU per request, so one core serves 420 to 630 requests/s
# (README: "relay-churn")
RATE = 150.0
# one block of the mix: 5 publishes, 1 re-publish and one fetch by each of
# DEVICES devices, so a device's cursor lags by the publishes since its
# previous poll
BLOCK_PUBLISHES = 5
DEVICES = 14
BLOCK = BLOCK_PUBLISHES + 1 + DEVICES
# the device back from a long absence; its cursor stays at 0
ABSENT = DEVICES
RESTARTS = 3
T0 = 1_600_000_000
# (preset, visit minutes): processed profiles of about 10 to 130 KB
SHAPES = (("office", 8), ("office", 15), ("bus-station", 10),
          ("bus-station", 20), ("mall", 15), ("mall", 30))


# a fetched record as the checker keeps it: the id and a digest of the
# bytes, so that the run does not hold every fetched body
Seen = namedtuple("Seen", "record_id profile_bytes")


def digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=16).digest()


def make_pool(seed: int) -> list[bytes]:
    """Serialized base profiles; each publish relabels one of them."""
    pool = []
    for j, (preset, minutes) in enumerate(SHAPES):
        env, layout = simulator.make_site(preset, seed=seed)
        walk = simulator.simulate_profile(
            env, simulator.stationary(layout.line_position(j), T0,
                                      T0 + minutes * 60), 60, stream=10 + j)
        prof = processing.build_case_profile(
            walk, LifespanSchedule(default=1800), case_label="base")
        pool.append(profileio.serialize_profile(prof))
    return pool


def make_schedule(seed: int, n_blocks: int, pool: list[bytes]):
    """[(kind, argument)]: publish -> body, republish -> index of the
    original publish op, fetch -> device.

    Every block of BLOCK ops holds the same mix in a seeded order, and the
    k-th publish relabels pool[k % len(pool)], so each seed asks for the
    same work. In the block at 80 % of the run, the first fetch is the
    absent device's instead.
    """
    rng = np.random.default_rng((seed, 0xC4))
    absent_block = n_blocks * 4 // 5
    ops, publishes = [], []
    for b in range(n_blocks):
        block = ([("publish", None)] * BLOCK_PUBLISHES + [("republish", None)]
                 + [("fetch", d) for d in range(DEVICES)])
        absent = b == absent_block
        for j in rng.permutation(BLOCK):
            kind, device = block[j]
            i = len(ops)
            early = [k for k in publishes if k < i - 10]
            if kind == "republish" and early:
                ops.append(("republish", early[int(rng.integers(len(early)))]))
                continue
            if kind != "fetch":
                head, rest = pool[len(publishes) % len(pool)].split(b"\n", 1)
                label = b"label=churn-%d-%d" % (seed, i)
                publishes.append(i)
                ops.append(("publish", head.replace(b"label=base", label)
                            + b"\n" + rest))
            else:
                ops.append(("fetch", ABSENT if absent else device))
                absent = False
    return ops


class Load:
    """The open-loop generator and what it observed.

    One sender sends every request, so the relay serves one at a time and
    the relay CPU time read around a request is that request's own.
    """

    def __init__(self, relay: Relay, ops):
        self.relay = relay
        self.ops = ops
        self.head = 0
        self.device_cursor = [0] * (DEVICES + 1)
        self.published: dict[int, bytes] = {}   # record id -> bytes
        self.ids: dict[int, int] = {}           # publish op index -> id
        self.acks = []                          # (sent, acked, id)
        self.late = [0.0] * len(ops)
        self.latency = [0.0] * len(ops)
        self.service = [0.0] * len(ops)
        self.relay_cpu = [0.0] * len(ops)       # relay CPU s per request
        self.cursors = [0] * len(ops)
        self.fetched = []                       # (op, cursor, head, [Seen])
        self.backlog_max = 0

    def run(self) -> None:
        self.t0 = now() + 0.05
        for i in range(len(self.ops)):
            self._one(i)

    def _one(self, i: int) -> None:
        due = self.t0 + i / RATE
        delay = due - now()
        if delay > 0:
            time.sleep(delay)
        kind, arg = self.ops[i]
        endpoint = self.relay.endpoint
        c0 = self.relay.cpu_seconds()
        sent = now()
        if kind == "fetch":
            cursor = self.device_cursor[arg]
            records = exchange.fetch_since(endpoint, cursor)
        else:
            body = arg if kind == "publish" else self.ops[arg][1]
            rid = exchange.publish(endpoint, body)
        done = now()
        self.relay_cpu[i] = self.relay.cpu_seconds() - c0
        self.late[i] = sent - due
        self.latency[i] = done - due
        self.service[i] = done - sent
        self.backlog_max = max(self.backlog_max,
                               int((sent - self.t0) * RATE) - i)
        if kind == "fetch":
            self.cursors[i] = cursor
            self.fetched.append((i, cursor, self.head, [
                Seen(r.record_id, digest(r.profile_bytes)) for r in records]))
            if records and arg != ABSENT:
                self.device_cursor[arg] = records[-1].record_id
            return
        self.ids[i] = rid
        if kind == "publish":
            if rid in self.published:
                raise CheckFailed(f"new body {i} got the existing id {rid}")
            self.published[rid] = body
            self.acks.append((sent, done, rid))
            self.head = max(self.head, rid)

    def check(self) -> None:
        oracle.check_acks(self.acks, self.published)
        for i, (kind, arg) in enumerate(self.ops):
            if kind == "republish" and self.ids[i] != self.ids[arg]:
                raise CheckFailed(
                    f"re-publish {i} got id {self.ids[i]}, original {self.ids[arg]}")
        digests = {rid: digest(body) for rid, body in self.published.items()}
        for _, cursor, head, seen in self.fetched:
            oracle.check_fetch(cursor, head, seen, digests)


def replay_in_process(load: Load, work) -> dict:
    """Replay the load's operations, in due order, against a ProfileStore in
    this process, so the store's own time can be split from HTTP."""
    store = exchange.ProfileStore(work / "replay")
    overhead = []
    for i, (kind, arg) in enumerate(load.ops):
        t = now()
        if kind == "fetch":
            store.fetch_since(load.cursors[i])
        else:
            store.publish(arg if kind == "publish" else load.ops[arg][1])
        overhead.append(load.service[i] - (now() - t))
    n_publish = sum(1 for k, _ in load.ops if k != "fetch")
    dedup = n_publish - store.last_record_id
    exchange.ProfileStore(work / "replay")  # replays the log
    return {"exchange.ProfileStore.publish.dedup": dedup,
            "exchange.log.bytes": (work / "replay" / "profiles.log").stat().st_size,
            "exchange.http_overhead_ms": median(overhead) * 1e3}


def run(seed: int, seconds: float, tracer=None, n_setups: int = 3) -> dict:
    work = fresh_dir(f"relay-churn-{seed}")
    n_blocks = max(1, round(RATE * seconds / BLOCK))
    setups = []
    relay = Relay(work / "relay")
    try:
        for _ in range(n_setups):
            pool, scaled, _, _ = timed(make_pool, seed)
            setups.append(scaled)
        ops = make_schedule(seed, n_blocks, pool)
        relay.start()
        load = Load(relay, ops)
        cpu0 = relay.cpu_seconds()
        load.run()
        cpu = relay.cpu_seconds() - cpu0
        load.check()
        relay.stop()
        restarts = []
        for _ in range(RESTARTS):
            t = now()
            relay.start()
            records = exchange.fetch_since(relay.endpoint, 0)
            restarts.append(now() - t)
            relay.stop()
            oracle.check_fetch(0, len(load.published), records, load.published)
            if len(records) != len(load.published):
                raise CheckFailed(f"restart served {len(records)} records, "
                                  f"{len(load.published)} were acknowledged")
        layer = {}
        if tracer is not None:
            layer = replay_in_process(load, work)
    finally:
        relay.stop()
    publishes = [i for i, (k, _) in enumerate(ops) if k == "publish"]
    pub = [load.latency[i] for i in publishes]
    # the k-th publish carries pool[k % len(pool)]; half the publishes are
    # of the three smaller shapes, so the median of all of them falls in the
    # gap between two sizes. Each shape's median is steady.
    by_shape = [[load.relay_cpu[i] for i in publishes[k::len(pool)]]
                for k in range(len(pool))]
    repub = [load.latency[i] for i, (k, _) in enumerate(ops) if k == "republish"]
    fetch = [load.latency[i] for i, (k, _) in enumerate(ops) if k == "fetch"]
    # the relay's CPU time is not scaled by the speed kernel: the kernel runs
    # in the generator, and its samples moved the figures more than the
    # relay's own CPU time moved (README: "Timing on a shared host")
    ms = lambda xs, q: quantile(xs, q) * 1e3  # noqa: E731
    publish_cpu_ms = sum(ms(xs, 0.5) for xs in by_shape) / len(pool)
    layer["loadgen.late_ms_p90"] = quantile(load.late, 0.9) * 1e3
    layer["loadgen.backlog_max"] = load.backlog_max
    return {
        "ops": {"publish": (sum(1 for k, _ in ops if k == "publish"), 0),
                "republish": (sum(1 for k, _ in ops if k == "republish"), 0),
                "fetch": (len(fetch), 0),
                "restart": (RESTARTS, 0)},
        "e2e": {"setup_s": median(setups),
                "op_ms_p50": publish_cpu_ms,
                "work_per_s": len(ops) / cpu,
                "peak_rss_mb": max(relay.peaks)},
        "detail": {"publish_relay_cpu_ms": (publish_cpu_ms, "ms"),
                   "publish_ms_p50": (ms(pub, 0.5), "ms"),
                   "publish_ms_p90": (ms(pub, 0.9), "ms"),
                   "republish_ms_p50": (ms(repub, 0.5), "ms"),
                   "request_ms_p50": (ms(load.latency, 0.5), "ms"),
                   "fetch_ms_p50": (ms(fetch, 0.5), "ms"),
                   "fetch_ms_p90": (ms(fetch, 0.9), "ms"),
                   "relay_restart_s": (median(restarts), "s"),
                   "relay_load_peak_rss_mb": (relay.peaks[0], "MB"),
                   "relay_restart_peak_rss_mb": (max(relay.peaks[1:]), "MB"),
                   "relay_cpu_s": (cpu, "s"),
                   "late_ms_p90": (layer["loadgen.late_ms_p90"], "ms"),
                   "backlog_max": (load.backlog_max, "count"),
                   "records": (len(load.published), "count")},
        "layer": layer,
        "work": work,
    }
