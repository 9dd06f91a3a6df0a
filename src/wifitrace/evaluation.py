"""Precision/recall evaluation and the experiment suites.

The threshold studies run on one measurement drill per seed: a case device
sits at a reference spot while user devices record at 1..10 m along a line.
``ProximityData`` holds the drill as the case's segments in kernel columns
(built from its scan batch), the user scans as one ``similarity._ScanBatch``
and each user scan's distance; ``scores()`` scores the batch once, and
``truth(k)`` marks the scans within contact proximity k as the positives.
``sweep_scores`` evaluates scores against a truth mask at every threshold of
a grid, and ``pick_intersection`` picks the point where precision meets
recall (the minimizer of |precision - recall|, ties to the smaller
threshold); ``calibrate`` is the two together, and the studies evaluate at
that operating point. Every row's precision, recall and F1 come from
``sweep_scores``, and only its ``_prf`` does their arithmetic. The filter,
noise and sampling rows sweep a one-point grid, the seed's alpha, and the
in/out rows one at the configured alpha; a sampling row's truth marks every
user scan. Every table of a seed reads that seed's drill (README,
"Studies": which tables keep the seed's alpha, which recalibrate). The
robustness suite perturbs the drill's batch and scores the copies, every
noise level's from one draw of each position's stream; its device table
reads one batch per phone model and its sampling table one per period (of
one walk and that walk shifted 0.25 m), each built from the seed's one set
of draws. The in/out study scores a batch of test spots against area
columns from a survey batch, time-gated like every score: the area's
window, from arrival to departure plus the lifespan, holds every test scan.
No table builds a dict per scan.

All functions are deterministic given (preset, seed); CSV schemas are fixed
so downstream plots regenerate bit-identically.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from itertools import count
from typing import Sequence

import numpy as np

from .detection import DetectionConfig
from .model import (RSSI_FLOOR, LifespanSchedule, ProcessedProfile,
                    SignalProfile, SignalVector)
from .processing import DEFAULT_MAX_GAP, _area_columns, _case_columns
from .similarity import _UNHEARD, _Columns, _ScanBatch, _score_columns
from .simulator import (
    DeviceParams,
    SiteLayout,
    SimEnvironment,
    SimTrajectory,
    _check_perturbation,
    _drop_batch_ids,
    _perturb_batch,
    _sampling_period,
    _simulate_batch,
    _simulate_variants,
    make_site,
    stationary,
)

DEFAULT_ALPHA_GRID = tuple(i / 100 for i in range(1, 101))

# the proximity drill: user positions (m from the case), length and scan
# interval (s)
_POSITIONS = tuple(range(1, 11))
_DRILL_DURATION = 600
_DRILL_PERIOD = 5
_DRILL_SCANS = len(range(0, _DRILL_DURATION, _DRILL_PERIOD))  # per position
# the in/out drill: scan interval, stay (survey), dwell per spot, lifespan (s)
_INOUT_PERIOD = 5
_INOUT_STAY = 240
_INOUT_DWELL = 60
_INOUT_SCANS = len(range(0, _INOUT_DWELL, _INOUT_PERIOD))  # per spot
_INOUT_LIFESPAN = 1800
# studies record case and users together, so no case segment need outlive
# its own scans
_NO_LIFESPAN = LifespanSchedule(default=0)

# stream ids keep every simulated device on its own draw sequence
_CASE_STREAM = 1000
_USER_STREAM = 2000  # + position index
_SURVEY_STREAM = 3000
_INSIDE_STREAM = 3100  # + spot index
_OUTSIDE_STREAM = 3200  # + spot index


@dataclass(frozen=True)
class CalibrationPoint:
    alpha: float
    precision: float
    recall: float
    f1: float


def _prf(overlap: int, n_det: int, n_true: int) -> tuple[float, float, float]:
    """Precision, recall and F1 from counts.

    Nothing detected: precision 1 if nothing is true either, else 0.
    Nothing true: recall 1. F1 is 0 whenever precision + recall is 0.
    """
    if n_det:
        precision = overlap / n_det
    else:
        precision = 1.0 if n_true == 0 else 0.0
    recall = overlap / n_true if n_true else 1.0
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def record_score(vector: SignalVector, processed: ProcessedProfile) -> float:
    """Similarity of one scan to a published profile: the best score among
    segments whose validity window contains the scan time."""
    return _score_columns(_ScanBatch.from_vectors([vector]),
                          _Columns.from_segments(processed.segments))[0].item()


def sweep_scores(
    scores: np.ndarray,
    truth: np.ndarray,
    grid: Sequence[float] = DEFAULT_ALPHA_GRID,
    detect_below: bool = False,
) -> list[CalibrationPoint]:
    """Evaluate detection at every threshold on the grid.

    detect_below=False detects score >= threshold (similarities);
    detect_below=True detects score <= threshold (distances).
    """
    n_true = int(np.count_nonzero(truth))
    points = []
    for theta in grid:
        detected = scores <= theta if detect_below else scores >= theta
        points.append(CalibrationPoint(float(theta), *_prf(
            int(np.count_nonzero(truth & detected)),
            int(np.count_nonzero(detected)), n_true)))
    return points


def pick_intersection(points: Sequence[CalibrationPoint]) -> CalibrationPoint:
    """Grid point where precision and recall meet: the global minimizer of
    |precision - recall|, ties resolved toward the smaller threshold.

    Points with precision + recall = 0 are not eligible: once the threshold
    exceeds every score, precision and recall are both 0 by the empty-set
    conventions, which would make that degenerate point "win" every sweep.
    """
    live = [p for p in points if p.precision + p.recall > 0]
    if not live:
        return points[0]
    return min(live, key=lambda p: (abs(p.precision - p.recall), p.alpha))


def calibrate(
    scores: np.ndarray,
    truth: np.ndarray,
    grid: Sequence[float] = DEFAULT_ALPHA_GRID,
    detect_below: bool = False,
) -> CalibrationPoint:
    """The point of the sweep over ``grid`` where precision meets recall."""
    return pick_intersection(sweep_scores(scores, truth, grid, detect_below))


def point_row(point: CalibrationPoint, threshold: str = "alpha",
              **fields) -> dict:
    """A table row: ``fields``, then the point's threshold (under the key
    ``threshold``), precision, recall and F1."""
    return {**fields, threshold: point.alpha, "precision": point.precision,
            "recall": point.recall, "f1": point.f1}


# --- dataset construction ----------------------------------------------------

@dataclass(frozen=True, eq=False)
class ProximityData:
    """Raw material for threshold studies: the case's processed segments in
    columns and the user scans as one batch, with each scan's distance in m
    (contact labels are applied per k)."""

    case: _Columns
    scans: _ScanBatch
    distances: np.ndarray

    @functools.cached_property
    def vectors(self) -> tuple[tuple[SignalVector, float], ...]:
        """Each user scan as a SignalVector, with its distance in m; built
        on the first read and kept."""
        return tuple(zip(self.scans.vectors(), self.distances.tolist()))

    def truth(self, proximity: float) -> np.ndarray:
        """Contact labels: the scans taken within ``proximity`` m."""
        return self.distances <= proximity

    def scores(self) -> np.ndarray:
        """Per-scan similarity to the case's segments (label-free)."""
        return _score_columns(self.scans, self.case)[0]


def collect_proximity_data(env: SimEnvironment,
                           layout: SiteLayout) -> ProximityData:
    """Stationary case at the reference spot, users at fixed distances.

    Case and users record simultaneously over the drill; the case's scans
    are processed with zero lifespan.
    """
    (users,) = _user_drill(env, layout)
    return _proximity_data(_case_batch(env, layout), users)


def _proximity_data(case: _ScanBatch, users: _ScanBatch) -> ProximityData:
    """The drill's data, from the case's raw scans ``_case_batch`` made and
    one device's user scans ``_user_drill`` made."""
    columns = _case_columns(case, _NO_LIFESPAN, DEFAULT_MAX_GAP)
    return ProximityData(columns, users, np.repeat(
        np.array(_POSITIONS, dtype=float), _DRILL_SCANS))


def case_raw_vectors(env: SimEnvironment, layout: SiteLayout) -> SignalProfile:
    """The drill's raw case scans as dict scans, for readers outside the
    package (the benchmark) and tests; the studies read ``_case_batch``."""
    return SignalProfile(_case_batch(env, layout).vectors())


def _case_batch(env: SimEnvironment, layout: SiteLayout) -> _ScanBatch:
    """The drill's case scans, at the reference spot."""
    walk = stationary(layout.line_position(0), 0, _DRILL_DURATION)
    return _simulate_batch(env, [(walk, _CASE_STREAM)], _DRILL_PERIOD)


def _user_drill(env: SimEnvironment, layout: SiteLayout,
                devices: Sequence[DeviceParams] = (DeviceParams(),)
                ) -> list[_ScanBatch]:
    """Every position's user scans as one batch per device, position by
    position (a scan at position i is ``_POSITIONS[i]`` m from the case);
    the devices read the same draws."""
    walks = [(stationary(layout.line_position(i), 0, _DRILL_DURATION),
              _USER_STREAM + i) for i in _POSITIONS]
    return _simulate_variants(env, walks,
                              [(device, _DRILL_PERIOD) for device in devices])


# --- studies ------------------------------------------------------------------

@dataclass(frozen=True)
class StudyParams:
    """[study]: what the study subcommands run on a preset site."""

    seeds: tuple[int, ...] = (1, 3, 5, 7, 9)
    proximities: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 5.0)
    calibration_proximity: float = 2.0
    proximity: float = 2.0  # robustness tables
    alpha: float = 0.2  # in/out classification threshold

    def __post_init__(self) -> None:
        # a bad value fails here, before any seed is simulated
        if not (self.seeds and self.proximities):
            raise ValueError("[study] seeds and proximities must not be empty")
        for seed in self.seeds:
            if not 0 <= seed < 2**64:
                raise ValueError(f"seed must be in [0, 2**64), got {seed}")
        for k in (*self.proximities, self.calibration_proximity, self.proximity):
            if not 0.0 < k < math.inf:
                raise ValueError(f"proximity must be finite and > 0, got {k}")
        DetectionConfig(alpha=self.alpha)  # an alpha in (0, 1]


@dataclass(frozen=True)
class RobustnessKnobs:
    filter_rates: tuple[float, ...] = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9)
    noise_stds: tuple[float, ...] = (0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0)
    sampling_periods: tuple[int, ...] = (10, 20, 40, 60, 80)
    device_pairs: tuple[tuple[float, float], ...] = (
        (0.0, 1.0), (-3.0, 0.9), (3.0, 0.8), (-6.0, 0.7),
    )

    def __post_init__(self) -> None:
        # a bad knob fails here, before any seed is simulated
        for rate in self.filter_rates:
            _check_perturbation(filter_rate=rate)
        for std in self.noise_stds:
            _check_perturbation(noise_std=std)
        for period in self.sampling_periods:
            _sampling_period(period, "sampling period")
        for bias, rate in self.device_pairs:
            DeviceParams(bias, rate)  # a finite bias, a rate in (0, 1]


def run_proximity_study(preset: str, proximities: Sequence[float],
                        seeds: Sequence[int], **site_kwargs) -> list[dict]:
    """Detection quality versus contact proximity, threshold calibrated per
    proximity. Rows: seed, k, alpha, precision, recall, f1."""
    rows = []
    for seed in seeds:
        data = collect_proximity_data(*make_site(preset, seed=seed, **site_kwargs))
        scores = data.scores()
        rows += [point_row(calibrate(scores, data.truth(k)),
                           seed=seed, k=k) for k in proximities]
    return rows


def _inout_drill(env: SimEnvironment, layout: SiteLayout
                 ) -> tuple[_ScanBatch, _ScanBatch, int]:
    """Survey an area and collect labeled test scans: the survey walk, the
    test scans (inside spots first) and how many of them are inside.

    The survey walks the walk-area perimeter; inside spots form a grid within
    it, outside spots sit several meters beyond its edges.
    """
    (x0, y0), (x1, y1) = layout.walk_area
    inset = 1.0
    corners = [
        (x0 + inset, y0 + inset), (x1 - inset, y0 + inset),
        (x1 - inset, y1 - inset), (x0 + inset, y1 - inset),
        (x0 + inset, y0 + inset),
    ]
    survey = SimTrajectory(tuple((i * _INOUT_STAY // 4, c)
                                 for i, c in enumerate(corners)))

    xs = np.linspace(x0 + inset, x1 - inset, 3)
    ys = np.linspace(y0 + inset, y1 - inset, 3)
    inside = [(float(x), float(y)) for x in xs for y in ys]
    cx, cy = layout.center
    w, h = (x1 - x0) / 2, (y1 - y0) / 2
    outside = [spot for margin in (5.0, 10.0) for spot in (
        (cx - w - margin, cy), (cx + w + margin, cy),
        (cx, cy - h - margin), (cx, cy + h + margin))]
    spots = [(stationary(spot, 0, _INOUT_DWELL), stream + j)
             for group, stream in ((inside, _INSIDE_STREAM),
                                   (outside, _OUTSIDE_STREAM))
             for j, spot in enumerate(group)]
    return (_simulate_batch(env, [(survey, _SURVEY_STREAM)], _INOUT_PERIOD),
            _simulate_batch(env, spots, _INOUT_PERIOD),
            len(inside) * _INOUT_SCANS)


def run_inout_suite(preset: str, seeds: Sequence[int],
                    alpha: float = StudyParams.alpha, **site_kwargs) -> list[dict]:
    """In/out detection rows: seed, alpha, precision, recall. A test scan
    scoring ``alpha`` or more is detected inside; the inside spots' scans
    are the positives."""
    rows = []
    for seed in seeds:
        survey, scans, n_inside = _inout_drill(
            *make_site(preset, seed=seed, **site_kwargs))
        area = _area_columns(survey, 0, _INOUT_STAY + _INOUT_LIFESPAN)
        scores, _ = _score_columns(scans, area)
        (point,) = sweep_scores(scores, np.arange(len(scans)) < n_inside,
                                [alpha])
        rows.append(dict(seed=seed, alpha=alpha, precision=point.precision,
                         recall=point.recall))
    return rows


# --- baseline comparison -------------------------------------------------------

def _baseline_scores(scans: _ScanBatch, case: _ScanBatch
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each scan's Jaccard, AMD and AED against the case scan nearest in
    time, the earlier on a tie; raises ValueError for a pair of empty scans.

    Bit for bit ``jaccard``, ``amd`` and ``aed``: the counts and the sums
    over the -100-filled readings are exact integers, and each score is one
    correctly rounded division (after one square root for AED).
    """
    # 2t against each sum of neighbouring case times: exact midpoints
    near = np.searchsorted(case.times[:-1] + case.times[1:], 2 * scans.times)
    ids = sorted(set(scans.ids).union(case.ids))
    column = dict(zip(ids, count()))
    heard, filled = [], []
    for batch, rows in ((scans, slice(None)), (case, near)):
        block = np.full((len(scans), len(ids)), _UNHEARD, dtype=np.int16)
        block[:, list(map(column.__getitem__, batch.ids))] = batch.rssi[rows]
        heard.append(block != _UNHEARD)
        filled.append(np.where(heard[-1], block, RSSI_FLOOR).astype(np.int64))
    union = np.count_nonzero(heard[0] | heard[1], axis=1)
    if not union.all():
        raise ValueError("both vectors are empty, distance undefined")
    diff = filled[0] - filled[1]
    return (np.count_nonzero(heard[0] & heard[1], axis=1) / union,
            np.abs(diff).sum(axis=1) / union,
            np.sqrt((diff * diff).sum(axis=1)) / union)


def run_baseline_comparison(preset: str, proximities: Sequence[float],
                            seeds: Sequence[int], **site_kwargs) -> list[dict]:
    """Contact detection quality of the range similarity versus the raw
    scan-to-scan baselines, each at its own calibrated threshold.

    Rows: seed, k, metric, threshold, precision, recall, f1; metric
    "similarity" is the range-based score.
    """
    rows = []
    for seed in seeds:
        env, layout = make_site(preset, seed=seed, **site_kwargs)
        case = _case_batch(env, layout)
        (users,) = _user_drill(env, layout)
        data = _proximity_data(case, users)
        per_metric = {"similarity": (data.scores(), DEFAULT_ALPHA_GRID, False)}
        baselines = _baseline_scores(data.scans, case)
        for m, scores in zip(("jaccard", "amd", "aed"), baselines):
            grid = sorted(set(scores.tolist())) or [0.0]
            per_metric[m] = (scores, grid, m != "jaccard")
        for k in proximities:
            truth = data.truth(k)
            rows += [point_row(calibrate(scores, truth, grid, below), "threshold",
                               seed=seed, k=k, metric=m)
                     for m, (scores, grid, below) in per_metric.items()]
    return rows


# --- robustness suite -----------------------------------------------------------

def random_walk(
    area: tuple[tuple[float, float], tuple[float, float]],
    duration: int,
    walk_seed: int,
    offset: float = 0.0,
) -> SimTrajectory:
    """Aperiodic waypoint walk across an area at walking speed (1.2 m/s).

    Deterministic per walk_seed; ``offset`` shifts the whole path so two
    devices can walk together without overlapping exactly.
    """
    (x0, y0), (x1, y1) = area
    margin = 1.0
    # targets are drawn inside the margins, and again while under 2 m away.
    # The fewest are that far from the centre of that box; if its diagonal
    # is a 4 m square's or more, a fifth of the box still is
    diagonal = math.hypot(x1 - x0 - 2 * margin, y1 - y0 - 2 * margin)
    if diagonal < math.hypot(4.0, 4.0):
        raise ValueError(
            f"area {area} is too small to walk: inside its {margin:g} m "
            f"margins, a diagonal of {diagonal:.2f} m is under a 4 m square's")
    rng = np.random.default_rng((walk_seed, 0xA1C))
    pos = np.array([(x0 + x1) / 2, (y0 + y1) / 2])
    t = 0.0
    waypoints = [(0, (pos[0] + offset, pos[1] + offset))]
    while t < duration:
        target = np.array([
            rng.uniform(x0 + margin, x1 - margin),
            rng.uniform(y0 + margin, y1 - margin),
        ])
        dist = float(np.linalg.norm(target - pos))
        if dist < 2.0:
            continue
        t += max(1.0, dist / 1.2)
        pos = target
        waypoints.append((int(round(t)), (pos[0] + offset, pos[1] + offset)))
    return SimTrajectory(tuple(waypoints))


def run_robustness_suite(
    preset: str,
    seeds: Sequence[int],
    knobs: RobustnessKnobs = RobustnessKnobs(),
    proximity: float = StudyParams.proximity,
    **site_kwargs,
) -> dict[str, list[dict]]:
    """Sensitivity tables: AP filtering, RSSI noise, heterogeneous devices,
    and sampling interval while moving.

    For the filter, noise and sampling tables the threshold is calibrated
    once per seed on unperturbed data at the given proximity and then held
    fixed, isolating the perturbation's effect; the device table recalibrates
    per device pair, since a deployment would calibrate per phone model.
    """
    filter_rows, noise_rows, device_rows, sampling_rows = [], [], [], []
    for seed in seeds:
        env, layout = make_site(preset, seed=seed, **site_kwargs)
        # the plain user device and every phone model read the same draws
        users, *hetero = _user_drill(env, layout, [DeviceParams()] + [
            DeviceParams(*pair) for pair in knobs.device_pairs])
        data = _proximity_data(_case_batch(env, layout), users)
        truth = data.truth(proximity)
        alpha = calibrate(data.scores(), truth).alpha

        # perturbed copies of the scans simulated above; nothing re-simulates.
        # One noise stream per position (positions are whole meters), over
        # disjoint row slices, drawn once for every noise level
        streams = [(slice(j * _DRILL_SCANS, (j + 1) * _DRILL_SCANS),
                    seed * 10000 + i) for j, i in enumerate(_POSITIONS)]
        perturbations = (
            # one site-wide id draw per seed, shared by every position's scans
            (filter_rows, "filter_rate", knobs.filter_rates,
             (_drop_batch_ids(data.scans, rate, seed)
              for rate in knobs.filter_rates)),
            (noise_rows, "noise_std", knobs.noise_stds,
             _perturb_batch(data.scans, knobs.noise_stds, streams)),
        )
        for rows, knob, values, batches in perturbations:
            for value, batch in zip(values, batches):
                scores, _ = _score_columns(batch, data.case)
                (point,) = sweep_scores(scores, truth, [alpha])
                rows.append(point_row(point, seed=seed, **{knob: value}))

        # another phone model: its own user scans against the same case segments
        for (bias, rate), scans in zip(knobs.device_pairs, hetero):
            device_rows.append(point_row(
                calibrate(_score_columns(scans, data.case)[0], truth),
                seed=seed, device_bias=bias, device_detect_rate=rate))

        # the same two walks at every sampling period: the user walks the
        # case's path 0.25 m off, exactly random_walk's offset=0.25, which
        # enters only where a waypoint is written
        walk = random_walk(layout.site_area, 3600, env.seed)
        user = SimTrajectory(tuple((t, (x + 0.25, y + 0.25))
                                   for t, (x, y) in walk.waypoints))
        recalls = _moving_recalls(env, (walk, user), knobs.sampling_periods,
                                  alpha)
        sampling_rows += [dict(seed=seed, sampling_period=period, alpha=alpha,
                               recall=recall)
                          for period, recall in zip(knobs.sampling_periods,
                                                    recalls)]

    return {
        "filter": filter_rows,
        "noise": noise_rows,
        "devices": device_rows,
        "sampling": sampling_rows,
    }


def _moving_recalls(env: SimEnvironment,
                    walks: tuple[SimTrajectory, SimTrajectory],
                    periods: Sequence[int], alpha: float) -> list[float]:
    """Recall at each sampling period for two devices walking together (the
    case's walk, then the user's), both sampling at that interval; every
    user scan is a ground-truth contact (the pair stays well inside the
    contact proximity). A period with fewer than 2 case scans, so no
    segment, reads 0.0."""
    variants = [(None, period) for period in periods]
    cases = _simulate_variants(env, [(walks[0], _CASE_STREAM + 500)], variants)
    users = _simulate_variants(env, [(walks[1], _USER_STREAM + 500)], variants)
    recalls = []
    for period, case_walk, user_walk in zip(periods, cases, users):
        if len(case_walk) < 2:
            recalls.append(0.0)
            continue
        case = _case_columns(case_walk, _NO_LIFESPAN, max(600, period + 1))
        scores, _ = _score_columns(user_walk, case)
        (point,) = sweep_scores(scores, np.ones(len(scores), dtype=bool),
                                [alpha])
        recalls.append(point.recall)
    return recalls


# --- output ----------------------------------------------------------------------

CSV_COLUMNS = {
    "calibration": ["alpha", "precision", "recall", "f1"],
    "proximity": ["seed", "k", "alpha", "precision", "recall", "f1"],
    "inout": ["seed", "alpha", "precision", "recall"],
    "baselines": ["seed", "k", "metric", "threshold", "precision", "recall", "f1"],
    "filter": ["seed", "filter_rate", "alpha", "precision", "recall", "f1"],
    "noise": ["seed", "noise_std", "alpha", "precision", "recall", "f1"],
    "devices": ["seed", "device_bias", "device_detect_rate", "alpha",
                "precision", "recall", "f1"],
    "sampling": ["seed", "sampling_period", "alpha", "recall"],
}


def write_csv(path, rows: Sequence[dict], columns: Sequence[str]) -> None:
    """Write rows under a fixed column schema (missing keys are errors)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns))
        writer.writeheader()
        for row in rows:
            writer.writerow({c: row[c] for c in columns})
