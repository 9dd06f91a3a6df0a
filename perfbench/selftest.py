"""Self-test: every checker passes on clean program output and catches a
planted corruption, and BENCHMARK.json names the metrics the runs print.

    python3 perfbench/run.py --self-test
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import shutil
import sys
from fractions import Fraction

import numpy as np

import oracle
import study_robustness
import sync_day
import tracing
from common import ROOT, CheckFailed, fresh_dir
from wifitrace import cli, processing, profileio, simulator
from wifitrace.detection import ContactReport, DetectionConfig, match_and_notify
from wifitrace.exchange import PublishedRecord
from wifitrace.model import LifespanSchedule


def _caught(name: str, fn) -> bool:
    try:
        fn()
    except CheckFailed as exc:
        print(f"self-test: {name}: caught ({exc})")
        return True
    print(f"self-test: {name}: NOT caught", file=sys.stderr)
    return False


def _case_bytes(env, position, label, stream):
    walk = simulator.simulate_profile(
        env, simulator.stationary(position, 0, 900), 60, stream=stream)
    prof = processing.build_case_profile(walk, LifespanSchedule(default=1800),
                                         case_label=label)
    return prof, profileio.serialize_profile(prof)


def sync_checker() -> bool:
    env, _ = simulator.make_site("office", seed=7)
    prof, data = _case_bytes(env, (15.0, 14.0), "case-a", 1)
    user = simulator.simulate_profile(
        env, simulator.stationary((15.5, 14.0), 0, 1800), 60, stream=2)
    cfg = DetectionConfig()
    report = match_and_notify(user, [prof], cfg)
    published = [oracle.read_processed(data)]
    plain = [({s.value: r for s, r in v.readings.items()}, v.timestamp)
             for v in user.vectors]

    def check(rep):
        for (readings, t), flag in zip(plain, rep.flags):
            oracle.check_flag(t, readings, published, Fraction(str(cfg.alpha)),
                              flag)
        oracle.check_episodes(rep, cfg)

    check(report)
    first = next(i for i, f in enumerate(report.flags) if f.in_contact)
    flags = list(report.flags)
    flags[first] = dataclasses.replace(flags[first], in_contact=False)
    return _caught("sync-day: flipped flag",
                   lambda: check(ContactReport(flags, report.episodes)))


def sync_round_checker() -> bool:
    """A round passes when it equals every record so far, is the known
    client_sync fault when it equals this round's batch alone, and fails the
    run otherwise, wherever the difference is."""
    day = sync_day.Day(1)
    ref = sync_day.Reference(day)
    ref.extend(1)
    ref.extend(2)
    cfg = day.cfg
    user = sync_day.SignalProfile(day.user[:day.scans_until(2)])
    rng = lambda: np.random.default_rng(0)  # noqa: E731
    correct = match_and_notify(
        user, [p for batch in day.batches[:2] for _, p, _ in batch], cfg)
    faulty = match_and_notify(user, [p for _, p, _ in day.batches[1]], cfg)
    if not sync_day.check_round(day, ref, 2, 0, correct, rng()):
        raise CheckFailed("the correct round 2 report did not pass")
    if sync_day.check_round(day, ref, 2, 0, faulty, rng()):
        raise CheckFailed("the batch-only round 2 report passed")
    # halve the best score of the last scan that has one; the sampled exact
    # check does not cover that scan
    flags = list(faulty.flags)
    i = max(j for j, f in enumerate(flags) if f.best_score > 0)
    flags[i] = dataclasses.replace(flags[i], best_score=flags[i].best_score / 2)
    other = ContactReport(flags, faulty.episodes)
    return _caught("sync-day: a round that is neither correct nor the known fault",
                   lambda: sync_day.check_round(day, ref, 2, 0, other, rng()))


def relay_checker() -> bool:
    env, _ = simulator.make_site("office", seed=7)
    published = {i: _case_bytes(env, (12.0 + i, 14.0), f"case-{i}", i)[1]
                 for i in (1, 2, 3)}
    records = [PublishedRecord(i, b, 0) for i, b in published.items()]
    oracle.check_fetch(0, 3, records, published)
    oracle.check_acks([(0.0, 1.0, 1), (1.5, 2.0, 2), (2.5, 3.0, 3)], published)
    altered = list(records)
    altered[1] = PublishedRecord(2, published[2].replace(b"..-", b"..-1", 1), 0)
    return all((
        _caught("relay-churn: altered record bytes",
                lambda: oracle.check_fetch(0, 3, altered, published)),
        _caught("relay-churn: gap in a fetch",
                lambda: oracle.check_fetch(0, 3, records[::2], published)),
        _caught("relay-churn: id out of acknowledgement order",
                lambda: oracle.check_acks(
                    [(0.0, 1.0, 2), (1.5, 2.0, 1), (2.5, 3.0, 3)], published)),
    ))


def _edit(path, match, column, value, recompute_f1=False):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
        fields = list(rows[0])
    for row in rows:
        if match(row):
            row[column] = value
            if recompute_f1:
                p, r = float(row["precision"]), float(row["recall"])
                row["f1"] = repr(0.0 if p + r == 0 else 2 * p * r / (p + r))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def study_checker() -> bool:
    work = fresh_dir("self-test")
    try:
        inputs = study_robustness.Inputs(1, work)
        exact = inputs.exact()
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["robustness", str(inputs.config),
                             "--out", str(work / "out")])
        if code != 0:
            raise CheckFailed(f"robustness exited {code}")
        paths = json.loads(out.getvalue().strip().splitlines()[-1])
        check = lambda: study_robustness.check_tables(paths, inputs, exact)  # noqa: E731
        check()
        keep = {name: open(paths[name], "rb").read() for name in ("filter", "noise")}

        def restore():
            for name, data in keep.items():
                with open(paths[name], "wb") as fh:
                    fh.write(data)

        results = []
        _edit(paths["noise"], lambda r: float(r["noise_std"]) == 4.0, "f1", "0.5")
        results.append(_caught("study-robustness: edited f1 cell", check))
        restore()
        zero_filter = lambda r: float(r["filter_rate"]) == 0.0  # noqa: E731
        _edit(paths["filter"], zero_filter, "recall", "0.25")
        results.append(_caught("study-robustness: edited recall cell", check))
        restore()
        # the same consistent edit in both unperturbed rows: only the exact
        # recomputation can tell
        _edit(paths["filter"], zero_filter, "precision", "0.5", recompute_f1=True)
        _edit(paths["noise"], lambda r: float(r["noise_std"]) == 0.0,
              "precision", "0.5", recompute_f1=True)
        results.append(_caught("study-robustness: edited unperturbed rows", check))
        return all(results)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def benchmark_json() -> bool:
    import run
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        "workloads": ["sync-day", "relay-churn", "study-robustness"],
        "end_to_end": [list(m) for m in run.END_TO_END],
        "per_layer": [[n, u] for n, u, _ in tracing.PER_LAYER],
    }
    got = {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": [[m["name"], m["unit"]] for m in spec["end_to_end"]],
        "per_layer": [[m["name"], m["unit"]] for m in spec["per_layer"]],
    }
    for key in want:
        if want[key] != got[key]:
            print(f"self-test: BENCHMARK.json {key} differs from the runs",
                  file=sys.stderr)
            return False
    print("self-test: BENCHMARK.json names every metric the runs print")
    return True


def main() -> int:
    try:
        ok = all([sync_checker(), sync_round_checker(), relay_checker(),
                  study_checker(), benchmark_json()])
    except CheckFailed as exc:
        print(f"self-test: a checker rejected clean output: {exc}", file=sys.stderr)
        return 1
    print("self-test: " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1
