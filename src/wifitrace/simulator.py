"""Synthetic WiFi scans with known ground truth.

Log-distance path loss with Gaussian shadowing stands in for physical sites:
rssi = tx_power - 10 n log10(d) + N(0, sigma) + device_bias, clamped into
[-100, 0]; an AP lands in a scan iff that value clears the detection floor
and a per-AP Bernoulli(detect_rate) draw succeeds (modeling scan-ability
differences between devices).

Randomness is keyed by (environment seed, stream, scan index): scan i's
generator is exactly ``default_rng((seed, stream, i))``, so any scan is
reproducible in isolation and independent of evaluation order. Where the
seed, the stream and every index of a block of scans each fit 32 bits, the
block's generator states are computed at once (SeedSequence mixing and
PCG64 seeding in numpy arithmetic) and set on one reused generator; the
draws are the same either way. The draws (one standard normal, then one
uniform, over all APs) depend on nothing else: not on the device, nor on
the sampling period. ``_scan_draws`` takes them, and ``_readings`` turns
them into a device's readings without writing to them, so a study draws
each scan once per seed and builds every device and period variant from
those draws (``_simulate_variants``).

Scans are simulated into a ``similarity._ScanBatch``, the kernel's scan
format: int64 times, a sorted vocabulary of exactly the ids the scans hold,
and a dense int16 (scan x id) RSSI block with ``_UNHEARD`` where a scan
lacks the id. ``_simulate_batch`` fills one with any number of walks, each
with its own stream and scan indices from 0, so a study drill of several
positions is one batch, and ``_simulate_variants`` fills one per (device,
sampling period) variant of the same walks. ``_drop_batch_ids`` (a column
mask) and ``_perturb_batch`` are the one perturbation path, also under
``perturb_rssi_noise`` and ``Scenario.user_profile`` (one noise level each).
``_perturb_batch`` takes each stream's standard normals z once
(``_noise_draws``) and builds every level it is asked for from them, level
std being ``0.0 + std * z``, each in one masked operation over the heard
cells; so the study's noise table draws each position's stream once per
seed. Dicts are built from a batch once, where a public name returns them,
each scan's ids in id order; the draws stay in AP order.

Three site presets mirror common deployments: a small office, an outdoor
bus station with mostly-distant APs, and a store inside a dense mall. AP
layouts come from fixed per-site seeds, so a preset is the same physical
site under every scenario seed; detection floors are tuned so average
per-scan AP counts land near 19 / 24 / 46 respectively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .model import (
    RSSI_CEIL,
    RSSI_FLOOR,
    LifespanSchedule,
    SignalId,
    SignalProfile,
    SignalVector,
    _whole_seconds,
)
from .processing import build_case_profile
from .profileio import write_profile
from .similarity import _UNHEARD, _ScanBatch, _times

TRUTH_MAGIC = "vcontact-truth/1"

# fixed per-site layout seeds: a preset is the same site in every scenario
_SITE_SEEDS = {"office": 132, "bus-station": 201, "mall": 319}

# scans x APs per block of simulated scans: bounds the float temporaries
_BLOCK = 1 << 16


@dataclass(frozen=True)
class SimAp:
    """One access point: hashed id, planar position, tx power at 1 m."""

    sid: SignalId
    position: tuple[float, float]
    tx_power: float


@dataclass(frozen=True)
class DeviceParams:
    """Per-device scan characteristics.

    bias shifts every RSSI the device reports; detect_rate is the chance an
    audible AP actually makes it into a scan (phones differ widely here).
    """

    bias: float = 0.0
    detect_rate: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.bias):
            raise ValueError("bias must be finite")
        if not (0.0 < self.detect_rate <= 1.0):
            raise ValueError("detect_rate must be in (0, 1]")


@dataclass(frozen=True)
class SimEnvironment:
    aps: tuple[SimAp, ...]
    path_loss_exponent: float = 2.5
    shadowing_std: float = 2.0
    detection_floor: int = -90
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "aps", tuple(self.aps))
        if not (1.5 <= self.path_loss_exponent <= 6.0):
            raise ValueError("path_loss_exponent must be in [1.5, 6]")
        if not (0 <= self.shadowing_std < math.inf):
            raise ValueError("shadowing_std must be finite and >= 0")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must be an unsigned 64-bit integer")
        ids = np.array([ap.sid for ap in self.aps], dtype=object)
        if len(set(ids.tolist())) != len(ids):
            raise ValueError("AP ids must be distinct")
        pos = np.array([ap.position for ap in self.aps], dtype=float)
        if pos.size and not np.all(np.isfinite(pos)):
            raise ValueError("AP positions must be finite")
        # cached arrays for vectorized scanning (not dataclass fields)
        object.__setattr__(self, "_ap_pos", pos.reshape(len(self.aps), 2))
        object.__setattr__(
            self, "_ap_tx", np.array([ap.tx_power for ap in self.aps], dtype=float)
        )
        object.__setattr__(self, "_ap_ids", ids)
        object.__setattr__(self, "_ap_by_id", np.argsort(ids))


@dataclass(frozen=True)
class SimTrajectory:
    """Waypoints (time, position) with the carrying device's parameters.

    Positions are linearly interpolated between waypoints and clamped to the
    endpoints outside them.
    """

    waypoints: tuple[tuple[int, tuple[float, float]], ...]
    device: DeviceParams = DeviceParams()

    def __post_init__(self) -> None:
        wps = tuple((int(t), (float(x), float(y))) for t, (x, y) in self.waypoints)
        if not wps:
            raise ValueError("trajectory needs at least one waypoint")
        for (t0, _), (t1, _) in zip(wps, wps[1:]):
            if t1 <= t0:
                raise ValueError("waypoint times must be strictly increasing")
        object.__setattr__(self, "waypoints", wps)

    def position_at(self, t: float) -> tuple[float, float]:
        x, y = self._positions([t])[0].tolist()
        return (x, y)

    def _positions(self, times: Sequence[float]) -> np.ndarray:
        """(len(times), 2) positions, one np.interp per axis."""
        wp_t = [w[0] for w in self.waypoints]
        return np.column_stack([
            np.interp(times, wp_t, [w[1][axis] for w in self.waypoints])
            for axis in (0, 1)
        ])

    @property
    def t_start(self) -> int:
        return self.waypoints[0][0]

    @property
    def t_end(self) -> int:
        return self.waypoints[-1][0]


def stationary(position: tuple[float, float], t_start: int, t_end: int,
               device: DeviceParams = DeviceParams()) -> SimTrajectory:
    return SimTrajectory(((t_start, position), (t_end, position)), device)


def _rng(env: SimEnvironment, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng((env.seed, stream, index))


# numpy's SeedSequence (pool of 4 uint32 words) and PCG64 seeding constants
def _walk(value: int, mult: int, n: int) -> np.ndarray:
    """value, value * mult, ... (n terms, mod 2**32) as a column."""
    terms = [value]
    for _ in range(n - 1):
        terms.append(terms[-1] * mult & 0xFFFFFFFF)
    return np.array(terms, dtype=np.uint32)[:, None]


_HASH_A = _walk(0x43B0D7E5, 0x931E8875, 17)  # 4 entropy + 12 mixing hashes
_HASH_B = _walk(0x8B51F9DD, 0x58F38DED, 9)  # 8 state words
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hashmix(value: np.ndarray, k: int, n: int, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix for hash calls k .. k + n - 1, one per row."""
    value = (value ^ consts[k:k + n]) * consts[k + 1:k + n + 1]
    return value ^ (value >> _XSHIFT)


def _block_states(seed, stream, first: int, n: int) -> list[tuple[int, int]] | None:
    """PCG64 (state, inc) of ``default_rng((seed, stream, i))`` for each i in
    [first, first + n), or None unless seed, stream and every i are ints in
    [0, 2**32), each then one SeedSequence entropy word."""
    if not all(type(v) is int and 0 <= v for v in (seed, stream, first)) or \
            max(seed, stream, first + n - 1) >= 2**32:
        return None
    pool = np.zeros((4, n), dtype=np.uint32)  # entropy (seed, stream, i), 0
    pool[0], pool[1] = seed, stream
    pool[2] = np.arange(first, first + n, dtype=np.uint32)
    pool = _hashmix(pool, 0, 4, _HASH_A)
    # every word into every other, in SeedSequence's order of hash calls
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        mixed = _MIX_L * pool[dst] - _MIX_R * _hashmix(
            pool[src], 4 + 3 * src, 3, _HASH_A)
        pool[dst] = mixed ^ (mixed >> _XSHIFT)
    # generate_state(4, uint64): 8 words, paired little-endian into
    # (seed high, seed low, initseq high, initseq low)
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], 0, 8, _HASH_B)
    words = words.astype(np.uint64)
    u64 = (words[0::2] | words[1::2] << np.uint64(32)).tolist()
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(*u64):
        # pcg64_set_seed: inc = 2 * initseq + 1; state 0, step, add the
        # seed, step
        inc = (i_hi << 65 | i_lo << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


def _scan_rngs(env: SimEnvironment, stream: int, first: int, n: int):
    """Scan i's generator, ``default_rng((env.seed, stream, first + i))``;
    each is valid only until the next one is taken."""
    states = _block_states(env.seed, stream, first, n)
    if states is None:
        for i in range(first, first + n):
            yield _rng(env, stream, i)
        return
    rng = np.random.Generator(np.random.PCG64(0))
    state = {"state": 0, "inc": 1}
    full = {"bit_generator": "PCG64", "state": state,
            "has_uint32": 0, "uinteger": 0}
    for state["state"], state["inc"] in states:
        rng.bit_generator.state = full
        yield rng


def _simulate_batch(env: SimEnvironment,
                    walks: Sequence[tuple[SimTrajectory, int]],
                    sampling_period: int) -> _ScanBatch:
    """The scans of ``simulate_profile(env, trajectory, sampling_period,
    stream)`` for each ``(trajectory, stream)`` of ``walks``, in turn."""
    (batch,) = _simulate_variants(env, walks, [(None, sampling_period)])
    return batch


def _simulate_variants(
    env: SimEnvironment,
    walks: Sequence[tuple[SimTrajectory, int]],
    variants: Sequence[tuple[DeviceParams | None, int]],
) -> list[_ScanBatch]:
    """One batch per ``(device, sampling_period)`` of ``variants``: the
    scans of ``_simulate_batch(env, walks, sampling_period)`` with every
    walk carried by ``device`` (None keeps each trajectory's own).

    Scan i of a walk draws the same numbers under every variant, so each
    walk's draws are taken once, a block of scan indices at a time for the
    variant with the most scans, and every variant reads its rows from
    them; path loss is computed once per sampling period and block.
    """
    times = [[] for _ in variants]
    blocks = [[] for _ in variants]
    step = max(1, _BLOCK // max(1, len(env.aps)))
    for trajectory, stream in walks:
        walk_times = {period: scan_times(trajectory.t_start, trajectory.t_end,
                                         period) for _, period in variants}
        positions = {period: trajectory._positions(at)
                     for period, at in walk_times.items()}
        for (_, period), out in zip(variants, times):
            out += walk_times[period]
        longest = max(map(len, walk_times.values()), default=0)
        for lo in range(0, longest, step):
            means = {period: _path_loss(env, at[lo:lo + step])
                     for period, at in positions.items() if len(at) > lo}
            draws = _scan_draws(env, stream, lo, min(step, longest - lo))
            for (device, period), out in zip(variants, blocks):
                if period in means:
                    mean = means[period]
                    out.append(_readings(
                        env, mean, [d[:len(mean)] for d in draws],
                        trajectory.device if device is None else device))
    return [_from_aps(env, t, np.concatenate(b)) for t, b in zip(times, blocks)]


def _from_aps(env: SimEnvironment, times: list[int],
              block: np.ndarray) -> _ScanBatch:
    """A batch over the APs that some row of a (scan x AP) block hears."""
    aps = env._ap_by_id[(block != _UNHEARD).any(axis=0)[env._ap_by_id]]
    return _ScanBatch(_times(times), env._ap_ids[aps].tolist(), block[:, aps])


def _drop_batch_ids(batch: _ScanBatch, rate: float, seed: int) -> _ScanBatch:
    """The batch without a random fraction of its ids: each goes with
    probability ``rate``, by one uniform per vocabulary id in id order."""
    _check_perturbation(filter_rate=rate)
    rng = np.random.default_rng((seed, 0xF117E2))
    kept = rng.random(len(batch.ids)) >= rate
    return _ScanBatch(batch.times, list(compress(batch.ids, kept.tolist())),
                      batch.rssi[:, kept])


def _perturb_batch(batch: _ScanBatch, stds: Sequence[float],
                   streams: Iterable[tuple[slice, int]]) -> list[_ScanBatch]:
    """One copy per std of ``stds``, with Gaussian noise of that std added
    to every reading of the streams' rows, re-clamped into [-100, 0]. Each
    ``(rows, seed)`` of ``streams`` draws one stream over the readings of
    those rows (``_noise_draws``), once for every std."""
    for std in stds:
        _check_perturbation(noise_std=std)
    if not stds:
        return []
    cells, z = _noise_draws(batch.rssi, streams)
    base = batch.rssi.ravel()[cells]
    noisy = []
    for std in stds:
        rssi = batch.rssi.copy()
        np.put(rssi, cells, np.clip(np.rint(base + (0.0 + std * z)),
                                    RSSI_FLOOR, RSSI_CEIL))
        noisy.append(_ScanBatch(batch.times, batch.ids, rssi))
    return noisy


def _noise_draws(rssi: np.ndarray, streams: Iterable[tuple[slice, int]]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices of the cells the streams perturb, ascending, and a
    standard normal z for each.

    Stream ``(rows, seed)`` is ``default_rng((seed, 0x201E))``, drawn over
    the heard cells of ``rssi[rows]`` scan by scan, each scan's readings in
    id order. The streams must be disjoint row slices: each writes its draws
    through a view. The noise at level std is ``0.0 + std * z``, bit for bit
    what ``normal(0.0, std)`` draws from the same stream: numpy computes
    ``loc + scale * z``, and with loc 0.0 that is one rounding, with or
    without FMA.
    """
    cells = np.zeros(rssi.shape, dtype=bool)
    z = np.zeros(rssi.shape)
    for rows, seed in streams:
        heard = rssi[rows] != _UNHEARD
        cells[rows] = heard
        z[rows][heard] = np.random.default_rng((seed, 0x201E)).standard_normal(
            np.count_nonzero(heard))
    cells = np.flatnonzero(cells)
    return cells, z.ravel()[cells]


def _scan_draws(env: SimEnvironment, stream: int, first: int,
                n: int) -> tuple[np.ndarray, np.ndarray]:
    """The draws of scans first .. first + n - 1 of ``stream``: each scan's
    standard normal over all APs, then its uniform over all APs, from its
    own generator ``default_rng((env.seed, stream, index))``, as two
    (scan x AP) blocks."""
    normal = np.empty((n, len(env.aps)))
    uniform = np.empty_like(normal)
    if env.aps:
        for i, rng in enumerate(_scan_rngs(env, stream, first, n)):
            rng.standard_normal(out=normal[i])
            rng.random(out=uniform[i])
    return normal, uniform


def _path_loss(env: SimEnvironment, positions: np.ndarray) -> np.ndarray:
    """The mean RSSI of every AP at each row of ``positions``, a (scan x
    AP) block; computed once per run of equal positions, so once for a
    stationary walk."""
    if not np.all(np.isfinite(positions)):
        raise ValueError("scan position must be finite")
    moved = np.ones(len(positions), dtype=bool)
    moved[1:] = np.any(positions[1:] != positions[:-1], axis=1)
    spots = positions[moved]
    dist = np.hypot(env._ap_pos[:, 0] - spots[:, :1],
                    env._ap_pos[:, 1] - spots[:, 1:])
    # tx_power is referenced at 1 m; the model is not valid closer than that
    mean = env._ap_tx - 10.0 * env.path_loss_exponent * np.log10(
        np.maximum(dist, 1.0)
    )
    return mean[np.cumsum(moved) - 1]


def _readings(env: SimEnvironment, mean: np.ndarray,
              draws: Sequence[np.ndarray], device: DeviceParams) -> np.ndarray:
    """One scan per row of ``mean`` as an int16 (scan x AP) block, from that
    row's draws (``_scan_draws``), which stay as they are: the RSSI where
    the AP is heard, _UNHEARD elsewhere."""
    normal, uniform = draws
    # normal(0, std) draws exactly 0.0 + std * standard_normal
    rssi = mean + (env.shadowing_std or 0.0) * normal + device.bias
    rssi = np.clip(np.rint(rssi), RSSI_FLOOR, RSSI_CEIL)
    heard = (rssi >= env.detection_floor) & (uniform < device.detect_rate)
    return np.where(heard, rssi, _UNHEARD).astype(np.int16)


def sample_scan(
    env: SimEnvironment,
    position: tuple[float, float],
    device: DeviceParams = DeviceParams(),
    stream: int = 0,
    index: int = 0,
    timestamp: int = 0,
) -> SignalVector:
    """One synthetic scan at a position.

    (stream, index) select the random draw; the same (env.seed, stream,
    index) always reproduces the same scan bit-for-bit.
    """
    mean = _path_loss(env, np.asarray(position, dtype=float).reshape(1, 2))
    block = _readings(env, mean, _scan_draws(env, stream, index, 1), device)
    vec, = _from_aps(env, [int(timestamp)], block).vectors()
    return vec


def _sampling_period(value, name: str = "sampling_period") -> int:
    """``value`` as an int: a whole number of seconds above 0. Anything else
    raises a ValueError that names ``name``."""
    period = _whole_seconds(value, name, signed=True)
    if period <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return period


def scan_times(t_start: int, t_end: int, sampling_period: int) -> list[int]:
    """Scan instants [t_start, t_end) at the given period; at least one."""
    period = _sampling_period(sampling_period)
    return list(range(t_start, t_end, period)) or [t_start]


def simulate_profile(
    env: SimEnvironment,
    trajectory: SimTrajectory,
    sampling_period: int,
    stream: int = 0,
    device_tag: str = "",
) -> SignalProfile:
    """Scan along a trajectory, one scan per sampling period.

    Timestamps start at the first waypoint and run to (but not including)
    the last; a single-waypoint trajectory yields one scan. Scan i draws
    exactly what ``sample_scan(..., stream=stream, index=i)`` draws.
    """
    batch = _simulate_batch(env, [(trajectory, stream)], sampling_period)
    return SignalProfile(batch.vectors(), device_tag=device_tag)


def _check_perturbation(filter_rate: float = 0.0,
                        noise_std: float = 0.0) -> None:
    """The rule for every perturbation knob: a filter rate in [0, 1], a
    noise std finite and >= 0."""
    if not 0.0 <= filter_rate <= 1.0:
        raise ValueError(f"filter rate must be in [0, 1], got {filter_rate}")
    if not 0.0 <= noise_std < math.inf:
        raise ValueError(f"noise std must be finite and >= 0, got {noise_std}")


def perturb_rssi_noise(
    profile: SignalProfile, std: float, seed: int = 0
) -> SignalProfile:
    """Add Gaussian noise to every reading, re-clamped into [-100, 0].

    One stream per profile, drawn over the readings scan by scan, each
    scan's readings in id order; each noisy scan lists its ids in id order.
    """
    (noisy,) = _perturb_batch(_ScanBatch.from_vectors(profile.vectors),
                              [std], [(slice(None), seed)])
    return SignalProfile(noisy.vectors(), device_tag=profile.device_tag)


# --- site presets -----------------------------------------------------------

@dataclass(frozen=True)
class SiteLayout:
    """Where devices can be placed within a preset site.

    walk_area is the experiment zone (the office room, the store); site_area
    is the whole region devices could roam.
    """

    walk_area: tuple[tuple[float, float], tuple[float, float]]
    line_anchor: tuple[float, float]
    line_direction: tuple[float, float]
    site_area: tuple[tuple[float, float], tuple[float, float]]

    def line_position(self, meters: float) -> tuple[float, float]:
        dx, dy = self.line_direction
        norm = math.hypot(dx, dy)
        return (
            self.line_anchor[0] + dx / norm * meters,
            self.line_anchor[1] + dy / norm * meters,
        )

    @property
    def center(self) -> tuple[float, float]:
        (x0, y0), (x1, y1) = self.walk_area
        return ((x0 + x1) / 2.0, (y0 + y1) / 2.0)


# name -> (ap_count, scatter area, walk area, anchor, direction, floor)
_PRESETS: dict[str, dict] = {
    # 10x12 m office, 32 APs in and around it, ~19 APs per scan
    "office": dict(
        ap_count=32,
        scatter=((0.0, 0.0), (30.0, 36.0)),
        walk=((10.0, 12.0), (20.0, 24.0)),
        anchor=(15.0, 13.0),
        direction=(0.0, 1.0),
        floor=-67,
    ),
    # 2x15 m outdoor strip, 109 mostly-distant APs, ~24 per scan
    "bus-station": dict(
        ap_count=109,
        scatter=((0.0, 0.0), (80.0, 40.0)),
        walk=((39.0, 12.5), (41.0, 27.5)),
        anchor=(40.0, 13.0),
        direction=(0.0, 1.0),
        floor=-68,
    ),
    # 20x25 m store in a dense mall, 301 APs, ~46 per scan
    "mall": dict(
        ap_count=301,
        scatter=((0.0, 0.0), (60.0, 50.0)),
        walk=((20.0, 12.5), (40.0, 37.5)),
        anchor=(30.0, 14.0),
        direction=(0.0, 1.0),
        floor=-66,
    ),
}

PRESET_NAMES = tuple(_PRESETS)


def generate_aps(count: int, area, site_seed: int) -> tuple[SimAp, ...]:
    """``count`` APs placed uniformly over ``area`` by ``site_seed``."""
    rng = np.random.default_rng(site_seed)
    (x0, y0), (x1, y1) = area
    xs = rng.uniform(x0, x1, count)
    ys = rng.uniform(y0, y1, count)
    tx = rng.uniform(-44.0, -36.0, count)
    aps = []
    for i in range(count):
        digest = bytes(rng.integers(0, 256, 32, dtype=np.uint8))
        aps.append(SimAp(SignalId(digest), (float(xs[i]), float(ys[i])),
                         float(tx[i])))
    return tuple(aps)


def make_site(name: str, seed: int = 0,
              **radio) -> tuple[SimEnvironment, SiteLayout]:
    """Build a preset site. ``seed`` drives only the scan noise; the AP
    layout is fixed per preset. ``radio`` overrides SimEnvironment fields."""
    if name not in _PRESETS:
        raise ValueError(f"unknown site preset {name!r}, know {PRESET_NAMES}")
    p = _PRESETS[name]
    env = SimEnvironment(
        aps=generate_aps(p["ap_count"], p["scatter"], _SITE_SEEDS[name]),
        seed=seed, **{"detection_floor": p["floor"], **radio},
    )
    layout = SiteLayout(p["walk"], p["anchor"], p["direction"], p["scatter"])
    return env, layout


# --- scenarios ----------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """A full simulation scenario loaded from a config file."""

    env: SimEnvironment
    case: SimTrajectory
    user: SimTrajectory
    case_period: int = 5
    user_period: int = 60
    lifespan: int = 1800
    case_label: str = "case"
    filter_rate: float = 0.0
    noise_std: float = 0.0

    CASE_STREAM = 0
    USER_STREAM = 1

    def __post_init__(self) -> None:
        # [case] lifespan, both sampling periods and [perturb] fail here,
        # before any scan is simulated
        _sampling_period(self.case_period, "case sampling_period")
        _sampling_period(self.user_period, "user sampling_period")
        LifespanSchedule(self.lifespan)
        _check_perturbation(self.filter_rate, self.noise_std)

    def case_profile(self) -> SignalProfile:
        return simulate_profile(self.env, self.case, self.case_period,
                                stream=self.CASE_STREAM, device_tag=self.case_label)

    def user_profile(self) -> SignalProfile:
        scans = _simulate_batch(self.env, [(self.user, self.USER_STREAM)],
                                self.user_period)
        if self.filter_rate > 0:
            scans = _drop_batch_ids(scans, self.filter_rate, self.env.seed)
        if self.noise_std > 0:
            (scans,) = _perturb_batch(scans, [self.noise_std],
                                      [(slice(None), self.env.seed)])
        return SignalProfile(scans.vectors())


def write_ground_truth(path, scenario: Scenario, user_profile: SignalProfile) -> None:
    """Per-timestamp true distance between the user and the case's position
    (the case trajectory is endpoint-clamped, so after departure this is the
    distance to where the virus was left)."""
    lines = [TRUTH_MAGIC]
    for vec in user_profile.vectors:
        ux, uy = scenario.user.position_at(vec.timestamp)
        cx, cy = scenario.case.position_at(vec.timestamp)
        d = math.hypot(ux - cx, uy - cy)
        lines.append(f"t={vec.timestamp} d={d:.3f}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def emit_scenario(scenario: Scenario, out_dir) -> dict[str, str]:
    """Materialize a scenario: raw case/user profiles, the publishable
    processed case profile, and the ground-truth sidecar. Returns the
    written paths."""
    case_profile = scenario.case_profile()
    user_profile = scenario.user_profile()
    processed = build_case_profile(
        case_profile,
        LifespanSchedule(default=scenario.lifespan),
        case_label=scenario.case_label,
    )
    # only a scenario that simulates leaves a directory behind
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "case": str(out / "case.signal"),
        "user": str(out / "user.signal"),
        "processed": str(out / "case.processed"),
        "truth": str(out / "truth.txt"),
    }
    write_profile(paths["case"], case_profile)
    write_profile(paths["user"], user_profile)
    write_profile(paths["processed"], processed)
    write_ground_truth(paths["truth"], scenario, user_profile)
    return paths
