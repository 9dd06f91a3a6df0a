"""Config files: one strict reader for every INI section.

Each section's keys and value kinds come from one schema, mostly the fields
of the dataclass the section configures (README's "Scenario config
reference" lists them). ``section`` returns only the keys a file sets, so
each default stays with the dataclass or function the value goes to. Each
loader rejects a section it does not read.
"""

from __future__ import annotations

import configparser
import dataclasses

from .evaluation import RobustnessKnobs, StudyParams
from .simulator import (DeviceParams, Scenario, SimEnvironment, SimTrajectory,
                        generate_aps, make_site)


class ScenarioError(ValueError):
    """Config file problem."""


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


def _sections(path, *names) -> list[dict]:
    """[name] for each of ``names`` in the config at path, parsed by its
    schema. Any other section is an error."""
    cp = read_config(path)
    unknown = sorted(set(cp.sections()) - set(names))
    if unknown:
        raise ScenarioError(f"unknown section(s) {unknown}, know {list(names)}")
    return [section(cp, name) for name in names]


def _site(env: dict) -> dict:
    """Pop the site's keys from [environment], leaving SimEnvironment's."""
    site = {key: env.pop(key) for key in _SITE if key in env}
    if "preset" in site and len(site) > 1:
        raise ScenarioError("[environment] sets a preset or an explicit site "
                            "(ap_count, area, site_seed), not both")
    return site


def _trajectory(sec: dict, name: str) -> SimTrajectory:
    if "waypoints" not in sec:
        raise ScenarioError(f"[{name}] needs waypoints = t,x,y t,x,y ...")
    device = DeviceParams(**{key.removeprefix("device_"): value
                             for key, value in sec.items()
                             if key.startswith("device_")})
    return SimTrajectory([(t, (x, y)) for t, x, y in sec["waypoints"]], device)


def load_scenario(path) -> Scenario:
    """Load a scenario config (key=value sections, see README)."""
    radio, case, user, perturb = _sections(path, "environment", "case",
                                           "user", "perturb")
    site = _site(radio)
    if "preset" in site:
        env, _ = make_site(site["preset"], **radio)
    elif "ap_count" in site and "area" in site:
        x0, y0, x1, y1 = site["area"]
        aps = generate_aps(site["ap_count"], ((x0, y0), (x1, y1)),
                           site.get("site_seed", 1))
        env = SimEnvironment(aps, **radio)
    else:
        raise ScenarioError("[environment] needs preset, or ap_count and area")
    given = {"case_period": case.get("sampling_period"),
             "user_period": user.get("sampling_period"),
             "lifespan": case.get("lifespan"),
             "case_label": case.get("label"),
             **perturb}
    return Scenario(
        env, _trajectory(case, "case"), _trajectory(user, "user"),
        **{key: value for key, value in given.items() if value is not None},
    )


def load_study(path) -> tuple[str, dict, StudyParams, RobustnessKnobs]:
    """Load a study config: the preset, its SimEnvironment overrides, and
    the [study] and [robustness] sections. The site is built once here, so a
    bad [environment] value fails before a command writes anything."""
    radio, study, robustness = _sections(path, "environment", "study",
                                         "robustness")
    site = _site(radio)
    if not site.get("preset") or "seed" in radio:
        raise ScenarioError("study commands need [environment] preset = ..., "
                            "with no explicit site and seeds in [study]")
    make_site(site["preset"], **radio)
    return (site["preset"], radio, StudyParams(**study),
            RobustnessKnobs(**robustness))
