"""Config files: one strict reader for every INI section.

Each section's keys and value kinds come from one schema, mostly the fields
of the dataclass the section configures (README's "Scenario config
reference" lists them). ``section`` returns only the keys a file sets, so
each default stays with the dataclass or function the value goes to.
"""

from __future__ import annotations

import configparser
import dataclasses

from .detection import DetectionConfig
from .evaluation import RobustnessKnobs
from .simulator import (DeviceParams, Scenario, SimEnvironment, SimTrajectory,
                        generate_aps, make_site)


class ScenarioError(ValueError):
    """Config file problem."""


@dataclasses.dataclass(frozen=True)
class StudyParams:
    """[study]: what the study subcommands run on a preset site."""

    seeds: tuple[int, ...] = (1, 3, 5, 7, 9)
    proximities: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 5.0)
    calibration_proximity: float = 2.0
    proximity: float = 2.0  # robustness tables
    alpha: float = 0.2  # in/out classification threshold

    def __post_init__(self) -> None:
        if not (self.seeds and self.proximities):
            raise ValueError("[study] seeds and proximities must not be empty")


def _joined(like: tuple, sep: str):
    """Parse len(like) sep-joined values, each like its peer in ``like``."""
    def parse(token: str) -> tuple:
        parts = token.split(sep)
        if len(parts) != len(like):
            raise ScenarioError(f"bad value {token!r}, want {len(like)} "
                                f"values joined by {sep!r}")
        return tuple(type(v)(part) for v, part in zip(like, parts))
    return parse


def _list(item):
    return lambda text: tuple(map(item, text.split()))


def _like(default):
    """A parser for text like ``default``. A tuple is a space-separated list
    of items like its first element; an item that is a tuple is ``a:b``."""
    if not isinstance(default, tuple):
        return type(default)
    first = default[0]
    return _list(_joined(first, ":") if isinstance(first, tuple)
                 else type(first))


def _fields(cls) -> dict:
    """The schema of a dataclass: its fields that have a default."""
    return {f.name: _like(f.default) for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING}


_SITE = {"preset": str, "ap_count": int, "site_seed": int,
         "area": _joined((0.0,) * 4, ",")}
_TRAJECTORY = {"waypoints": _list(_joined((0, 0.0, 0.0), ",")),
               "sampling_period": int, "device_bias": float,
               "device_detect_rate": float}

SCHEMAS = {
    "environment": {**_SITE, **_fields(SimEnvironment)},
    "case": {**_TRAJECTORY, "lifespan": int, "label": str},
    "user": _TRAJECTORY,
    "perturb": {"filter_rate": float, "noise_std": float},
    "detection": _fields(DetectionConfig),
    "study": _fields(StudyParams),
    "robustness": _fields(RobustnessKnobs),
}


def read_config(path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        if not cp.read(path):
            raise ScenarioError(f"cannot read config file {path}")
    except configparser.Error as exc:
        raise ScenarioError(str(exc)) from None
    return cp


def section(cp: configparser.ConfigParser, name: str) -> dict:
    """The keys [name] sets, parsed by its schema. Any other key is an error,
    unless it comes from [DEFAULT], whose keys show up in every section."""
    schema = SCHEMAS[name]
    sec = cp[name] if cp.has_section(name) else {}
    values = {}
    for key in sec:
        if key in schema:
            try:
                values[key] = schema[key](sec[key])
            except (ValueError, configparser.Error) as exc:
                raise ScenarioError(f"[{name}] {key}: {exc}") from None
        elif key not in cp.defaults():
            raise ScenarioError(f"unknown [{name}] key {key!r}, "
                                f"know {sorted(schema)}")
    return values


def _environment(cp) -> tuple[dict, dict]:
    """[environment] split into the site's keys and SimEnvironment's."""
    env = section(cp, "environment")
    return {key: env.pop(key) for key in _SITE if key in env}, env


def _trajectory(sec: dict, name: str) -> SimTrajectory:
    if "waypoints" not in sec:
        raise ScenarioError(f"[{name}] needs waypoints = t,x,y t,x,y ...")
    device = DeviceParams(**{key.removeprefix("device_"): value
                             for key, value in sec.items()
                             if key.startswith("device_")})
    return SimTrajectory([(t, (x, y)) for t, x, y in sec["waypoints"]], device)


def load_scenario(path) -> Scenario:
    """Load a scenario config (key=value sections, see README)."""
    cp = read_config(path)
    site, radio = _environment(cp)
    if "preset" in site:
        env, _ = make_site(site["preset"], **radio)
    elif "ap_count" in site and "area" in site:
        x0, y0, x1, y1 = site["area"]
        aps = generate_aps(site["ap_count"], ((x0, y0), (x1, y1)),
                           site.get("site_seed", 1))
        env = SimEnvironment(aps, **radio)
    else:
        raise ScenarioError("[environment] needs preset, or ap_count and area")
    case, user = section(cp, "case"), section(cp, "user")
    given = {"case_period": case.get("sampling_period"),
             "user_period": user.get("sampling_period"),
             "lifespan": case.get("lifespan"),
             "case_label": case.get("label"),
             **section(cp, "perturb")}
    return Scenario(
        env, _trajectory(case, "case"), _trajectory(user, "user"),
        detection=DetectionConfig(**section(cp, "detection")),
        **{key: value for key, value in given.items() if value is not None},
    )


def load_study(path) -> tuple[str, dict, StudyParams, RobustnessKnobs]:
    """Load a study config: the preset, its SimEnvironment overrides, and
    the [study] and [robustness] sections."""
    cp = read_config(path)
    site, radio = _environment(cp)
    if not site.get("preset") or len(site) > 1 or "seed" in radio:
        raise ScenarioError("study commands need [environment] preset = ..., "
                            "with no explicit site and seeds in [study]")
    return (site["preset"], radio, StudyParams(**section(cp, "study")),
            RobustnessKnobs(**section(cp, "robustness")))
