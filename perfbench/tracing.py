"""Traced mode: which package functions are wrapped, and the per-layer
metrics derived from their spans and counts."""

from __future__ import annotations

import numpy as np

from wifitrace import (cli, detection, evaluation, exchange, model, processing,
                       profileio, similarity, simulator)

LAYERS = ("model", "profileio", "processing", "similarity", "detection",
          "simulator", "evaluation", "exchange", "cli")

# (name, unit, better); every traced run reports all of them, 0 where the
# workload does not use the layer
PER_LAYER = (
    ("detection.detect_contacts.s", "s", "lower"),
    ("detection.pairs_per_s", "pairs/s", "higher"),
    ("detection.aggregate_episodes.s", "s", "lower"),
    ("detection.covering_pairs", "count", "lower"),
    ("detection.flags_true", "count", "higher"),
    ("detection.episodes", "count", "higher"),
    ("similarity.signal_similarity.calls", "count", "lower"),
    ("profileio.parse_profile.s", "s", "lower"),
    ("profileio.parse_profile.bytes", "bytes", "lower"),
    ("profileio.parse_profile.mb_per_s", "MB/s", "higher"),
    ("exchange.fetch_since.s", "s", "lower"),
    ("exchange.fetch_since.bytes", "bytes", "lower"),
    ("exchange.fetch_since.records", "count", "lower"),
    ("exchange.client_sync.self_s", "s", "lower"),
    ("exchange.ProfileStore.publish.s", "s", "lower"),
    ("exchange.ProfileStore.publish.self_s", "s", "lower"),
    ("exchange.ProfileStore.publish.calls", "count", "lower"),
    ("exchange.ProfileStore.publish.dedup", "count", "higher"),
    ("exchange.ProfileStore.fetch_since.s", "s", "lower"),
    ("exchange.ProfileStore.fetch_since.records", "count", "lower"),
    ("exchange.ProfileStore.replay.s", "s", "lower"),
    ("exchange.log.bytes", "bytes", "lower"),
    ("exchange.http_overhead_ms", "ms", "lower"),
    ("loadgen.late_ms_p90", "ms", "lower"),
    ("loadgen.backlog_max", "count", "lower"),
    ("simulator.sample_scan.s", "s", "lower"),
    ("simulator.sample_scan.calls", "count", "lower"),
    ("simulator.sample_scan.us_per_call", "us", "lower"),
    ("simulator.perturb_rssi_noise.s", "s", "lower"),
    ("processing.build_case_profile.s", "s", "lower"),
    ("processing.build_case_profile.calls", "count", "lower"),
    ("evaluation.record_score.s", "s", "lower"),
    ("evaluation.record_score.calls", "count", "lower"),
    ("evaluation.sweep_scores.s", "s", "lower"),
    ("evaluation.write_csv.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
) + tuple((f"layer.{m}.self_s", "s", "lower") for m in LAYERS) + (
    ("trace.spans", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def _fetched(args, records):
    return {"exchange.fetch_since.records": len(records),
            "exchange.fetch_since.bytes": sum(len(r.profile_bytes) for r in records)}


def _covering(args, _):
    """Time-covering scan x segment pairs in a detect_contacts call's inputs."""
    user, published = args[0], args[1]
    times = np.sort([v.timestamp for v in user.vectors])
    t0 = np.array([s.t_start for p in published for s in p.segments], dtype=np.int64)
    t1 = np.array([s.t_end for p in published for s in p.segments], dtype=np.int64)
    n = np.searchsorted(times, t1, "right") - np.searchsorted(times, t0, "left")
    return {"detection.covering_pairs": int(n.sum())}


def instrument(tracer) -> None:
    """Wrap the public functions of every layer for this process."""
    p = tracer.patch
    p(model.SignalVector, "__post_init__", "model.SignalVector")
    p(model.ProcessedVector, "__post_init__", "model.ProcessedVector")
    p(profileio, "parse_profile", "profileio.parse_profile",
      lambda args, _: {"profileio.parse_profile.bytes": len(args[0])})
    p(profileio, "serialize_profile", "profileio.serialize_profile")
    p(processing, "build_case_profile", "processing.build_case_profile")
    p(similarity, "signal_similarity", "similarity.signal_similarity")
    p(detection, "detect_contacts", "detection.detect_contacts", _covering)
    for name in ("aggregate_episodes", "match_and_notify"):
        p(detection, name, f"detection.{name}")
    for name in ("sample_scan", "simulate_profile", "perturb_rssi_noise"):
        p(simulator, name, f"simulator.{name}")
    for name in ("record_score", "sweep_scores", "write_csv",
                 "collect_proximity_data", "run_robustness_suite"):
        p(evaluation, name, f"evaluation.{name}")
    p(exchange, "publish", "exchange.publish")
    p(exchange, "fetch_since", "exchange.fetch_since", _fetched)
    p(exchange, "client_sync", "exchange.client_sync")
    p(exchange.ProfileStore, "publish", "exchange.ProfileStore.publish")
    p(exchange.ProfileStore, "fetch_since", "exchange.ProfileStore.fetch_since",
      lambda _, records: {"exchange.ProfileStore.fetch_since.records": len(records)})
    p(exchange.ProfileStore, "_replay", "exchange.ProfileStore.replay")
    p(cli, "main", "cli.main")


def layer_metrics(tracer, extra: dict, overhead_pct: float) -> dict:
    spans = tracer.summary()
    values = dict(tracer.counts())
    values.update(extra)

    def get(name, field):
        return spans.get(name, {}).get(field, 0)

    def rate(num, den):
        return num / den if den else 0.0

    for name in ("detection.detect_contacts", "detection.aggregate_episodes",
                 "profileio.parse_profile", "exchange.fetch_since",
                 "exchange.ProfileStore.publish", "exchange.ProfileStore.fetch_since",
                 "exchange.ProfileStore.replay", "simulator.sample_scan",
                 "simulator.perturb_rssi_noise", "processing.build_case_profile",
                 "evaluation.record_score", "evaluation.sweep_scores",
                 "evaluation.write_csv"):
        values[f"{name}.s"] = get(name, "s")
    for name in ("similarity.signal_similarity", "exchange.ProfileStore.publish",
                 "simulator.sample_scan", "processing.build_case_profile",
                 "evaluation.record_score"):
        values[f"{name}.calls"] = get(name, "calls")
    for name in ("exchange.client_sync", "exchange.ProfileStore.publish", "cli.main"):
        values[f"{name}.self_s"] = get(name, "self_s")
    values["detection.pairs_per_s"] = rate(
        values.get("detection.covering_pairs", 0), get("detection.detect_contacts", "s"))
    values["profileio.parse_profile.mb_per_s"] = rate(
        values.get("profileio.parse_profile.bytes", 0) / 1e6,
        get("profileio.parse_profile", "s"))
    values["simulator.sample_scan.us_per_call"] = rate(
        get("simulator.sample_scan", "s") * 1e6, get("simulator.sample_scan", "calls"))
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = sum(
            v["self_s"] for k, v in spans.items() if k.split(".")[0] == layer)
    values["trace.spans"] = sum(v["calls"] for v in spans.values())
    values["trace.overhead_pct"] = overhead_pct
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit, _ in PER_LAYER}
