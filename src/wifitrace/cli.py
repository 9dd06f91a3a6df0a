"""Command line front end.

``simulate`` reads a scenario config and the study subcommands a study
config, both through ``wifitrace.config``, which rejects unknown keys. Study
subcommands write fixed-schema CSV files. Each command returns its summary;
``main`` alone prints it as one JSON line and exits 0, or maps the failure
to an exit code: 1 on an exchange error, 2 on a config problem, a file that
cannot be read or written, or a scan profile that does not parse or is not
a raw signal profile. ``sync`` reports the last two as ``profile error:
<path>: ...`` and leaves its cursor and report untouched. It reads its scan
profile's bytes straight into the matching kernel's scan batch
(``profileio._signal_scans``), building no SignalVector. It writes its
report durably after the match and before the cursor moves, so a report
that cannot be written exits 2 with the cursor where it was.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import evaluation as ev
from .config import load_scenario, load_study
from .detection import DetectionConfig, serialize_report
from .exchange import (
    DEFAULT_RETENTION_DAYS,
    TOKEN_ENV_VAR,
    ExchangeError,
    ExchangeServer,
    ProfileStore,
    SyncState,
    fetch_and_match,
    publish,
    write_durably,
)
from .profileio import ProfileFormatError, _signal_scans
from .simulator import emit_scenario, make_site

CONFIG_ERROR = 2


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> dict:
    return emit_scenario(load_scenario(args.config), args.out)


def cmd_calibrate(args) -> dict:
    preset, radio, study, _ = load_study(args.config)
    if args.k is not None:  # replace() checks --k like the config's value
        study = replace(study, calibration_proximity=args.k)
    k = study.calibration_proximity
    out = _out_dir(args)
    data = ev.collect_proximity_data(
        *make_site(preset, seed=study.seeds[0], **radio))
    points = ev.sweep_scores(data.scores(), data.truth(k))
    path = out / f"calibration_{preset}_k{k:g}.csv"
    ev.write_csv(path, [ev.point_row(p) for p in points],
                 ev.CSV_COLUMNS["calibration"])
    return dict(preset=preset, k=k, seed=study.seeds[0],
                **ev.point_row(ev.pick_intersection(points),
                               "intersection_alpha"),
                csv=str(path))


def cmd_proximity_study(args) -> dict:
    preset, radio, study, _ = load_study(args.config)
    out = _out_dir(args)
    rows = ev.run_proximity_study(preset, study.proximities, study.seeds,
                                  **radio)
    path = out / f"proximity_{preset}.csv"
    ev.write_csv(path, rows, ev.CSV_COLUMNS["proximity"])
    mean_f1 = sum(r["f1"] for r in rows) / len(rows)
    return dict(preset=preset, seeds=list(study.seeds),
                proximities=list(study.proximities), rows=len(rows),
                mean_f1=round(mean_f1, 4), csv=str(path))


def cmd_inout_study(args) -> dict:
    preset, radio, study, _ = load_study(args.config)
    out = _out_dir(args)
    rows = ev.run_inout_suite(preset, study.seeds, alpha=study.alpha, **radio)
    path = out / f"inout_{preset}.csv"
    ev.write_csv(path, rows, ev.CSV_COLUMNS["inout"])
    return dict(preset=preset, alpha=study.alpha, rows=len(rows),
                csv=str(path))


def cmd_robustness(args) -> dict:
    preset, radio, study, knobs = load_study(args.config)
    out = _out_dir(args)
    tables = ev.run_robustness_suite(preset, study.seeds, knobs,
                                     proximity=study.proximity, **radio)
    paths = {}
    for name, rows in tables.items():
        path = out / f"robustness_{name}_{preset}.csv"
        ev.write_csv(path, rows, ev.CSV_COLUMNS[name])
        paths[name] = str(path)
    return dict(preset=preset, seeds=list(study.seeds),
                proximity=study.proximity, **paths)


def cmd_serve(args) -> None:
    if not 0 <= args.port <= 65535:
        raise ValueError(f"port must be in 0..65535, got {args.port}")
    token = args.token or os.environ.get(TOKEN_ENV_VAR) or None
    store = ProfileStore(args.data_dir, retention_days=args.retention_days)
    server = ExchangeServer((args.host, args.port), store, upload_token=token)
    print(f"serving on {server.endpoint} (data: {args.data_dir}, "
          f"token: {'required' if token else 'off'})", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()
    finally:
        server.server_close()


def cmd_publish(args) -> dict:
    token = args.token or os.environ.get(TOKEN_ENV_VAR) or None
    data = Path(args.file).read_bytes()
    record_id = publish(args.endpoint, data, upload_token=token)
    return dict(record_id=record_id, bytes=len(data))


def cmd_sync(args) -> dict:
    scans = _signal_scans(Path(args.profile).read_bytes())
    cfg = DetectionConfig(alpha=args.alpha, window_length=args.window,
                          min_exposure=args.min_exposure,
                          sampling_period=args.period)
    state = SyncState(args.state)
    report, last = fetch_and_match(args.endpoint, state.last_record_id,
                                   scans, cfg)
    # the report is on disk before the cursor moves past its records, so a
    # report that cannot be written leaves them to the next sync
    if args.report:
        write_durably(Path(args.report), serialize_report(report))
    if last is not None:
        state.advance(last)
    return dict(cursor=state.last_record_id, **report.summary())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wifitrace",
        description="WiFi-scan contact detection: simulation, evaluation, "
                    "and profile exchange.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, text in (
            ("simulate", cmd_simulate,
             "emit profiles + ground truth for a scenario"),
            ("calibrate", cmd_calibrate, "threshold sweep at one proximity"),
            ("proximity-study", cmd_proximity_study,
             "metrics versus proximity"),
            ("inout-study", cmd_inout_study, "infected-area in/out detection"),
            ("robustness", cmd_robustness,
             "filter/noise/device/sampling tables")):
        p = sub.add_parser(name, help=text)
        p.add_argument("config")
        p.add_argument("--out", default="out")
        p.set_defaults(fn=fn)
    sub.choices["calibrate"].add_argument(
        "--k", type=float, default=None, help="contact proximity in meters")

    p = sub.add_parser("serve", help="run the profile exchange server")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8330)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--token", default=None,
                   help=f"upload token (or set {TOKEN_ENV_VAR})")
    p.add_argument("--retention-days", type=float,
                   default=DEFAULT_RETENTION_DAYS)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("publish", help="upload a processed profile file")
    p.add_argument("file")
    p.add_argument("--endpoint", required=True)
    p.add_argument("--token", default=None)
    p.set_defaults(fn=cmd_publish)

    p = sub.add_parser("sync", help="fetch new profiles and match locally")
    p.add_argument("--endpoint", required=True)
    p.add_argument("--profile", required=True, help="local raw scan profile")
    p.add_argument("--state", required=True, help="cursor state directory")
    p.add_argument("--report", default=None, help="write the full report here")
    defaults = DetectionConfig()
    p.add_argument("--alpha", type=float, default=defaults.alpha)
    p.add_argument("--window", type=int, default=defaults.window_length)
    p.add_argument("--min-exposure", type=int, default=defaults.min_exposure)
    p.add_argument("--period", type=int, default=defaults.sampling_period)
    p.set_defaults(fn=cmd_sync)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        summary = args.fn(args)
    except ProfileFormatError as exc:  # sync's own scans
        print(f"profile error: {args.profile}: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    # ValueError also covers ScenarioError; OSError a file or directory that
    # cannot be read or written
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except ExchangeError as exc:
        print(f"exchange error: {exc}", file=sys.stderr)
        return 1
    if summary is not None:
        print(json.dumps({"command": args.command, **summary}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
