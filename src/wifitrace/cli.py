"""Command line front end.

Study subcommands read a scenario/study config (INI-style key=value
sections), write fixed-schema CSV files, and print one JSON summary line.
Exit codes: 0 on success, 1 on an exchange error, 2 on a config problem.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import evaluation as ev
from .detection import DetectionConfig, serialize_report
from .exchange import (
    TOKEN_ENV_VAR,
    ExchangeError,
    ExchangeServer,
    ProfileStore,
    SyncState,
    client_sync,
    publish,
)
from .model import SignalProfile
from .profileio import read_profile
from .simulator import emit_scenario, load_scenario, radio_overrides, read_config

CONFIG_ERROR = 2


class ConfigProblem(Exception):
    pass


def _summary(**kwargs) -> None:
    print(json.dumps(kwargs, sort_keys=True))


def _section(cp, name: str, known) -> dict:
    """The known keys of [name]. Any other key is a config error, unless it
    comes from [DEFAULT], whose keys show up in every section."""
    sec = cp[name] if cp.has_section(name) else {}
    for key in sec:
        if key not in known and key not in cp.defaults():
            raise ConfigProblem(f"unknown [{name}] key {key!r}, "
                                f"know {sorted(known)}")
    return {key: sec[key] for key in sec if key in known}


def _study_params(config_path):
    cp = read_config(config_path)
    env = cp["environment"] if cp.has_section("environment") else {}
    preset = env.get("preset")
    if not preset:
        raise ConfigProblem("study commands need [environment] preset = ...")
    study = _section(cp, "study", ("seeds", "proximities", "alpha",
                                   "calibration_proximity", "proximity"))
    seeds = tuple(int(s) for s in study.get("seeds", "1 3 5 7 9").split())
    proximities = tuple(
        float(k) for k in study.get("proximities", "1 2 3 4 5").split()
    )
    return cp, preset, seeds, proximities, study, radio_overrides(env)


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
    _, preset, seeds, proximities, study, site_kwargs = _study_params(args.config)
    k = args.k if args.k is not None else float(
        study.get("calibration_proximity", 2)
    )
    out = _out_dir(args)
    curves = ev.run_calibration_study(preset, [k], seed=seeds[0], **site_kwargs)
    curve = curves[k]
    path = out / f"calibration_{preset}_k{k:g}.csv"
    ev.write_csv(path, ev.curve_rows(curve), ev.CSV_COLUMNS["calibration"])
    best = curve.at_intersection()
    _summary(command="calibrate", preset=preset, k=k, seed=seeds[0],
             intersection_alpha=best.alpha, precision=best.precision,
             recall=best.recall, f1=best.f1, csv=str(path))
    return 0


def cmd_proximity_study(args) -> int:
    _, preset, seeds, proximities, _, site_kwargs = _study_params(args.config)
    out = _out_dir(args)
    rows = ev.run_proximity_study(preset, proximities, seeds, **site_kwargs)
    path = out / f"proximity_{preset}.csv"
    ev.write_csv(path, rows, ev.CSV_COLUMNS["proximity"])
    mean_f1 = sum(r["f1"] for r in rows) / len(rows)
    _summary(command="proximity-study", preset=preset, seeds=list(seeds),
             proximities=list(proximities), rows=len(rows),
             mean_f1=round(mean_f1, 4), csv=str(path))
    return 0


def cmd_inout_study(args) -> int:
    _, preset, seeds, _, study, site_kwargs = _study_params(args.config)
    alpha = float(study.get("alpha", 0.2))
    out = _out_dir(args)
    rows = ev.run_inout_suite(preset, seeds, alpha=alpha, **site_kwargs)
    path = out / f"inout_{preset}.csv"
    ev.write_csv(path, rows, ev.CSV_COLUMNS["inout"])
    _summary(command="inout-study", preset=preset, alpha=alpha,
             rows=len(rows), csv=str(path))
    return 0


def _parse_like(token: str, like):
    """Parse a knob token like ``like``; a tuple is written ``bias:rate``."""
    if not isinstance(like, tuple):
        return type(like)(token)
    parts = token.split(":")
    if len(parts) != len(like):
        raise ConfigProblem(f"bad value {token!r}, want {len(like)} values "
                            "joined by ':'")
    return tuple(map(_parse_like, parts, like))


def _robustness_knobs(cp) -> ev.RobustnessKnobs:
    """[robustness] overrides: one key per RobustnessKnobs field, each a
    space-separated list parsed like the field's first default element."""
    defaults = {f.name: f.default for f in dataclasses.fields(ev.RobustnessKnobs)}
    return ev.RobustnessKnobs(**{
        key: tuple(_parse_like(t, defaults[key][0]) for t in text.split())
        for key, text in _section(cp, "robustness", defaults).items()})


def cmd_robustness(args) -> int:
    cp, preset, seeds, _, study, site_kwargs = _study_params(args.config)
    knobs = _robustness_knobs(cp)
    proximity = float(study.get("proximity", 2))
    out = _out_dir(args)
    tables = ev.run_robustness_suite(preset, seeds, knobs, proximity=proximity,
                                     **site_kwargs)
    paths = {}
    for name, rows in tables.items():
        path = out / f"robustness_{name}_{preset}.csv"
        ev.write_csv(path, rows, ev.CSV_COLUMNS[name])
        paths[name] = str(path)
    _summary(command="robustness", preset=preset, seeds=list(seeds),
             proximity=proximity, **paths)
    return 0


def cmd_serve(args) -> int:
    token = args.token or os.environ.get(TOKEN_ENV_VAR) or None
    store = ProfileStore(args.data_dir, retention_days=args.retention_days)
    server = ExchangeServer((args.host, args.port), store, upload_token=token)
    print(f"serving on {server.endpoint} (data: {args.data_dir}, "
          f"token: {'required' if token else 'off'})", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()
    return 0


def cmd_publish(args) -> int:
    token = args.token or os.environ.get(TOKEN_ENV_VAR) or None
    data = Path(args.file).read_bytes()
    record_id = publish(args.endpoint, data, upload_token=token)
    _summary(command="publish", record_id=record_id, bytes=len(data))
    return 0


def cmd_sync(args) -> int:
    profile = read_profile(args.profile)
    if not isinstance(profile, SignalProfile):
        raise ConfigProblem(f"{args.profile} is not a raw signal profile")
    cfg = DetectionConfig(alpha=args.alpha, window_length=args.window,
                          min_exposure=args.min_exposure,
                          sampling_period=args.period)
    state = SyncState(args.state)
    report = client_sync(state, args.endpoint, profile, cfg)
    if args.report:
        Path(args.report).write_bytes(serialize_report(report))
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
    p.add_argument("--retention-days", type=float, default=28)
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
    # ValueError also covers ScenarioError and ProfileFormatError
    except (ConfigProblem, FileNotFoundError, configparser.Error,
            ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except ExchangeError as exc:
        print(f"exchange error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
