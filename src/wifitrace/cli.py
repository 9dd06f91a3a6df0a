"""Command line front end.

``simulate`` reads a scenario config and the study subcommands a study
config, both through ``wifitrace.config``, which rejects unknown keys. Study
subcommands write fixed-schema CSV files and print one JSON summary line.
Exit codes: 0 on success, 1 on an exchange error, 2 on a config problem, a
scan profile that does not parse, or a file that cannot be read or written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
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
    client_sync,
    publish,
)
from .model import SignalProfile
from .profileio import ProfileFormatError, read_profile
from .simulator import emit_scenario

CONFIG_ERROR = 2


def _summary(**kwargs) -> None:
    print(json.dumps(kwargs, sort_keys=True))


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.config)
    paths = emit_scenario(scenario, args.out)
    _summary(command="simulate", **paths)
    return 0


def cmd_calibrate(args) -> int:
    preset, radio, study, _ = load_study(args.config)
    if args.k is not None:  # replace() checks --k like the config's value
        study = replace(study, calibration_proximity=args.k)
    k = study.calibration_proximity
    out = _out_dir(args)
    points = ev.run_calibration_study(preset, k, study.seeds[0], **radio)
    path = out / f"calibration_{preset}_k{k:g}.csv"
    ev.write_csv(path, [ev.point_row(p) for p in points],
                 ev.CSV_COLUMNS["calibration"])
    _summary(command="calibrate", preset=preset, k=k, seed=study.seeds[0],
             **ev.point_row(ev.pick_intersection(points), "intersection_alpha"),
             csv=str(path))
    return 0


def cmd_proximity_study(args) -> int:
    preset, radio, study, _ = load_study(args.config)
    out = _out_dir(args)
    rows = ev.run_proximity_study(preset, study.proximities, study.seeds,
                                  **radio)
    path = out / f"proximity_{preset}.csv"
    ev.write_csv(path, rows, ev.CSV_COLUMNS["proximity"])
    mean_f1 = sum(r["f1"] for r in rows) / len(rows)
    _summary(command="proximity-study", preset=preset, seeds=list(study.seeds),
             proximities=list(study.proximities), rows=len(rows),
             mean_f1=round(mean_f1, 4), csv=str(path))
    return 0


def cmd_inout_study(args) -> int:
    preset, radio, study, _ = load_study(args.config)
    out = _out_dir(args)
    rows = ev.run_inout_suite(preset, study.seeds, alpha=study.alpha, **radio)
    path = out / f"inout_{preset}.csv"
    ev.write_csv(path, rows, ev.CSV_COLUMNS["inout"])
    _summary(command="inout-study", preset=preset, alpha=study.alpha,
             rows=len(rows), csv=str(path))
    return 0


def cmd_robustness(args) -> int:
    preset, radio, study, knobs = load_study(args.config)
    out = _out_dir(args)
    tables = ev.run_robustness_suite(preset, study.seeds, knobs,
                                     proximity=study.proximity, **radio)
    paths = {}
    for name, rows in tables.items():
        path = out / f"robustness_{name}_{preset}.csv"
        ev.write_csv(path, rows, ev.CSV_COLUMNS[name])
        paths[name] = str(path)
    _summary(command="robustness", preset=preset, seeds=list(study.seeds),
             proximity=study.proximity, **paths)
    return 0


def cmd_serve(args) -> int:
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
    return 0


def cmd_publish(args) -> int:
    token = args.token or os.environ.get(TOKEN_ENV_VAR) or None
    data = Path(args.file).read_bytes()
    record_id = publish(args.endpoint, data, upload_token=token)
    _summary(command="publish", record_id=record_id, bytes=len(data))
    return 0


def cmd_sync(args) -> int:
    try:
        profile = read_profile(args.profile)
    except ProfileFormatError as exc:
        print(f"profile error: {args.profile}: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    if not isinstance(profile, SignalProfile):
        raise ValueError(f"{args.profile} is not a raw signal profile")
    cfg = DetectionConfig(alpha=args.alpha, window_length=args.window,
                          min_exposure=args.min_exposure,
                          sampling_period=args.period)
    state = SyncState(args.state)
    # opened before the sync advances the cursor, so a report that cannot be
    # written fails first; appending keeps the old report if the sync fails
    with open(args.report, "ab") if args.report else nullcontext() as out:
        report = client_sync(state, args.endpoint, profile, cfg)
        if out:
            out.truncate(0)
            out.write(serialize_report(report))
    _summary(command="sync", cursor=state.last_record_id,
             **report.summary())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wifitrace",
        description="WiFi-scan contact detection: simulation, evaluation, "
                    "and profile exchange.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="emit profiles + ground truth for a scenario")
    p.add_argument("config")
    p.add_argument("--out", default="out")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("calibrate", help="threshold sweep at one proximity")
    p.add_argument("config")
    p.add_argument("--out", default="out")
    p.add_argument("--k", type=float, default=None,
                   help="contact proximity in meters")
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("proximity-study", help="metrics versus proximity")
    p.add_argument("config")
    p.add_argument("--out", default="out")
    p.set_defaults(fn=cmd_proximity_study)

    p = sub.add_parser("inout-study", help="infected-area in/out detection")
    p.add_argument("config")
    p.add_argument("--out", default="out")
    p.set_defaults(fn=cmd_inout_study)

    p = sub.add_parser("robustness", help="filter/noise/device/sampling tables")
    p.add_argument("config")
    p.add_argument("--out", default="out")
    p.set_defaults(fn=cmd_robustness)

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
        return args.fn(args)
    # ValueError also covers ScenarioError; OSError a file or directory that
    # cannot be read or written
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except ExchangeError as exc:
        print(f"exchange error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
