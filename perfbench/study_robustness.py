"""study-robustness: `wifitrace robustness` on an office study, in-process.

The study config holds one seed (the benchmark's) and the default knobs, so
one command simulates and scores 18 proximity datasets and five moving
walks, and writes four CSVs. A run repeats whole commands.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import oracle
from common import (CheckFailed, fresh_dir, median, now, paused, peak_rss_mb,
                    timed)
from wifitrace import cli, evaluation, simulator

PROXIMITY = 2.0
TABLES = ("filter", "noise", "devices", "sampling")
CONFIG = """[environment]
preset = office

[study]
seeds = {seed}
proximity = {proximity}
"""


class Inputs:
    """The study config and the unperturbed proximity data, generated with
    the package's simulator; the checker scores the data itself."""

    def __init__(self, seed: int, work):
        self.config = work / "office_study.cfg"
        self.config.write_text(CONFIG.format(seed=seed, proximity=PROXIMITY))
        env, layout = simulator.make_site("office", seed=seed)
        self.data = evaluation.collect_proximity_data(env, layout)
        self.case = evaluation.case_raw_vectors(env, layout)
        knobs = evaluation.RobustnessKnobs()
        datasets = (1 + len(knobs.filter_rates) + len(knobs.noise_stds)
                    + len(knobs.device_pairs))
        walk_end = evaluation.random_walk(layout.site_area, 3600, seed,
                                          offset=0.25).t_end
        self.scored_scans = datasets * len(self.data.vectors) + sum(
            math.ceil(walk_end / p) for p in knobs.sampling_periods)
        self.knobs = knobs

    def exact(self):
        """Exact scores per unperturbed scan, against segments built here
        from the case's raw scans: ranges over each consecutive pair, valid
        from the first scan to the second (lifespan 0)."""
        plain = [({s.value: r for s, r in v.readings.items()}, v.timestamp)
                 for v in self.case.vectors]
        segments = []
        for (a, ta), (b, tb) in zip(plain, plain[1:]):
            ranges = {}
            for k in set(a) | set(b):
                if k in a and k in b:
                    ranges[k] = (min(a[k], b[k]), max(a[k], b[k]))
                else:
                    ranges[k] = (-100, a.get(k, b.get(k)))
            segments.append((ranges, ta, tb))
        scans = [({s.value: r for s, r in v.readings.items()}, v.timestamp)
                 for v, _ in self.data.vectors]
        truth = [d <= PROXIMITY for _, d in self.data.vectors]
        return oracle.exact_scores(scans, segments), truth


def check_tables(paths: dict, inputs: Inputs, exact) -> None:
    tables = {name: oracle.read_csv(paths[name]) for name in TABLES}
    knobs = inputs.knobs
    sizes = {"filter": len(knobs.filter_rates), "noise": len(knobs.noise_stds),
             "devices": len(knobs.device_pairs),
             "sampling": len(knobs.sampling_periods)}
    for name, rows in tables.items():
        if len(rows) != sizes[name]:
            raise CheckFailed(f"{name}: {len(rows)} rows, want {sizes[name]}")
    for name in ("filter", "noise", "devices"):
        oracle.check_f1(tables[name], name)
    clean = [r for r in tables["filter"] if float(r["filter_rate"]) == 0.0]
    quiet = [r for r in tables["noise"] if float(r["noise_std"]) == 0.0]
    keys = ("seed", "alpha", "precision", "recall", "f1")
    if len(clean) != 1 or len(quiet) != 1 or any(
            clean[0][k] != quiet[0][k] for k in keys):
        raise CheckFailed(f"filter_rate=0 row {clean} != noise_std=0 row {quiet}")
    oracle.check_unperturbed_row(clean[0], *exact)
    for row in tables["sampling"]:
        if not 0.0 <= float(row["recall"]) <= 1.0:
            raise CheckFailed(f"sampling recall out of range: {row}")


def run(seed: int, seconds: float, tracer=None, n_setups: int = 3) -> dict:
    work = fresh_dir(f"study-robustness-{seed}")
    setups = []
    with paused(tracer):
        for _ in range(n_setups):
            inputs, scaled, _, _ = timed(Inputs, seed, work)
            setups.append(scaled)
        exact = inputs.exact()
    out = work / "out"
    argv = ["robustness", str(inputs.config), "--out", str(out)]
    rss_before = peak_rss_mb()
    studies, raws, walls = [], [], []
    start = now()
    while not studies or now() - start < seconds:
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code, scaled, raw, wall = timed(cli.main, argv)
        studies.append(scaled)
        raws.append(raw)
        walls.append(wall)
        if code != 0:
            raise CheckFailed(f"wifitrace robustness exited {code}")
        summary = json.loads(printed.getvalue().strip().splitlines()[-1])
        with paused(tracer):
            check_tables(summary, inputs, exact)
    rss = peak_rss_mb()
    study_s = sum(studies)
    return {
        "ops": {"robustness_command": (len(studies), 0)},
        "e2e": {"setup_s": median(setups),
                "op_ms_p50": median(studies) * 1e3,
                "work_per_s": inputs.scored_scans * len(studies) / study_s,
                "peak_rss_mb": rss},
        "detail": {"study_s": (median(studies), "s"),
                   "study_cpu_s": (median(raws), "s"),
                   "study_wall_s": (median(walls), "s"),
                   "scored_scans_per_s": (inputs.scored_scans * len(studies)
                                          / study_s, "scans/s"),
                   "peak_rss_before_study_mb": (rss_before, "MB"),
                   "commands": (len(studies), "count")},
        "layer": {},
        "work": work,
    }
