"""Independent straight-line reimplementations used as test oracles.

Everything here works on plain dicts/lists and is written directly from the
defining formulas, with no early exits, shared helpers, or reuse of package
internals: the implementations under test must agree with these, not the
other way around.

``match_brute`` is the one statement of detection's first-match rule: the
matcher, ``record_score``, the studies' scores and ``tools/matchbench.py``
are all checked against it, on exact scores and segments.
"""

import re
from fractions import Fraction
from math import ceil
from urllib.parse import quote, unquote

import numpy as np

FLOOR = -100


# --- processed-vector / profile construction ---------------------------------

def eq_processed_vector(a: dict, b: dict) -> dict:
    """Case-by-case range construction over the union of two readings maps."""
    out = {}
    for key in set(a) | set(b):
        if key in a and key in b:
            out[key] = (min(a[key], b[key]), max(a[key], b[key]))
        elif key in a:
            out[key] = (FLOOR, a[key])
        else:
            out[key] = (FLOOR, b[key])
    return out


def case_profile_brute(scans: list[tuple[int, dict]], lifespans: list[int],
                       max_gap: int) -> list[tuple[dict, int, int]]:
    """(ranges, t_start, t_end) per consecutive scan pair, skipping long gaps."""
    segments = []
    for i in range(len(scans) - 1):
        (t0, a), (t1, b) = scans[i], scans[i + 1]
        if t1 - t0 > max_gap:
            continue
        segments.append((eq_processed_vector(a, b), t0, t1 + lifespans[i]))
    return segments


def area_profile_brute(scans: list[tuple[int, dict]], stay_start: int,
                       stay_end: int, lifespan: int) -> tuple[dict, int, int]:
    ranges: dict = {}
    for _, readings in scans:
        for key, rssi in readings.items():
            if key in ranges:
                lo, hi = ranges[key]
                ranges[key] = (min(lo, rssi), max(hi, rssi))
            else:
                ranges[key] = (rssi, rssi)
    return ranges, stay_start, stay_end + lifespan


# --- processed-profile records ------------------------------------------------

_INT = r"(0|-?[1-9][0-9]*)"
_HEADER = re.compile(r"vcontact/1 processed(?: label=(.*))?")
_LINE = re.compile(rf"t={_INT}\.\.{_INT}((?: [0-9a-f]{{64}}:{_INT}\.\.{_INT})*)")
_ENTRY = re.compile(rf" ([0-9a-f]{{64}}):{_INT}\.\.{_INT}")


def read_processed_brute(records: list[bytes]):
    """Processed-profile records read line by line from the format grammar.

    Returns (labels, segment counts, segments), each segment as
    (t_start, t_end, [(id_hex, lo, hi), ...]); or, when some record is not
    exactly what the serializer writes, the position of the first such.

    A record is ASCII: a header ``vcontact/1 processed``, optionally with
    `` label=<q>`` where q is non-empty and ``quote(unquote(q), safe='')``
    gives q back; then one line per segment, every line ending in a newline.
    A line is ``t=<start>..<end>`` and zero or more ``<64 hex>:<lo>..<hi>``,
    one space before each, every number as ``str(int)`` writes it. Within a
    line the ids ascend strictly and -100 <= lo <= hi <= 0; every start is
    below its end; a record's starts never fall.
    """
    labels, counts, segments = [], [], []
    for position, data in enumerate(records):
        try:
            lines = data.decode("ascii").split("\n")
            header = _HEADER.fullmatch(lines[0])
            quoted = header[1]
            if quoted is not None and (
                    not quoted or quote(unquote(quoted), safe="") != quoted):
                return position
            if lines[-1] != "":
                return position
            record = []
            for line in lines[1:-1]:
                match = _LINE.fullmatch(line)
                start, end = int(match[1]), int(match[2])
                entries = [(h, int(lo), int(hi))
                           for h, lo, hi in _ENTRY.findall(match[3])]
                ids = [h for h, _, _ in entries]
                if (start >= end or ids != sorted(set(ids))
                        or any(not -100 <= lo <= hi <= 0
                               for _, lo, hi in entries)):
                    return position
                if record and start < record[-1][0]:
                    return position
                record.append((start, end, entries))
        except (UnicodeDecodeError, TypeError, ValueError):
            # not ASCII, a line the grammar does not match, or a number
            # longer than int() reads
            return position
        labels.append(unquote(quoted) if quoted is not None else "")
        counts.append(len(record))
        segments += record
    return labels, counts, segments


_SIGNAL_HEADER = re.compile(r"vcontact/1 signal(?: label=(.*))?")
_SCAN = re.compile(rf"t={_INT}((?: [0-9a-f]{{64}}:{_INT})*)")
_READING = re.compile(rf" ([0-9a-f]{{64}}):{_INT}")


def read_signal_brute(data: bytes):
    """A signal profile read line by line from the format grammar.

    Returns (label, scans), each scan as (time, [(id_hex, rssi), ...]) with
    every reading clamped into [-100, 0]; or None when the bytes are not
    exactly what the serializer writes, up to that clamping.

    A profile is ASCII: a header ``vcontact/1 signal``, optionally with
    `` label=<q>`` as for processed records; then one line per scan, every
    line ending in a newline. A line is ``t=<time>`` and zero or more
    ``<64 hex>:<rssi>``, one space before each, every number as ``str(int)``
    writes it. Within a line the ids ascend strictly; the times rise
    strictly from line to line.
    """
    try:
        lines = data.decode("ascii").split("\n")
        quoted = _SIGNAL_HEADER.fullmatch(lines[0])[1]
        if quoted is not None and (
                not quoted or quote(unquote(quoted), safe="") != quoted):
            return None
        if lines[-1] != "":
            return None
        scans = []
        for line in lines[1:-1]:
            match = _SCAN.fullmatch(line)
            time = int(match[1])
            readings = [(h, min(0, max(FLOOR, int(rssi))))
                        for h, rssi in _READING.findall(match[2])]
            ids = [h for h, _ in readings]
            if ids != sorted(set(ids)) or (scans and time <= scans[-1][0]):
                return None
            scans.append((time, readings))
    except (UnicodeDecodeError, TypeError, ValueError):
        # not ASCII, a line the grammar does not match, or a number longer
        # than int() reads
        return None
    return (unquote(quoted) if quoted is not None else ""), scans


def first_bad_signal_line(data: bytes):
    """The number of the first scan line of a signal profile that breaks
    the line grammar, or holds ids out of order or a number longer than
    int() reads; None when the header or the final newline is at fault
    first, or no one line is."""
    try:
        lines = data.decode("utf-8").split("\n")
    except UnicodeDecodeError:
        return None
    header = _SIGNAL_HEADER.fullmatch(lines[0])
    quoted = header[1] if header else None
    if (not header or lines[-1] != "" or quoted is not None and (
            not quoted or quote(unquote(quoted), safe="") != quoted)):
        return None
    for line_no, line in enumerate(lines[1:-1], 2):
        match = _SCAN.fullmatch(line)
        try:
            if match is None:
                raise ValueError(line)
            int(match[1])
            readings = _READING.findall(match[2])
            for _, rssi in readings:
                int(rssi)
        except ValueError:
            return line_no
        ids = [h for h, _ in readings]
        if ids != sorted(set(ids)):
            return line_no
    return None


# --- similarity ----------------------------------------------------------------

def similarity_fraction(a: dict, p: dict) -> Fraction:
    """Exact rational evaluation of overlap / (mean out-of-range distance + 1)."""
    shared = [k for k in a if k in p]
    if not shared:
        return Fraction(0)
    overlap = Fraction(len(shared), min(len(a), len(p)))
    total = 0
    for k in shared:
        s = a[k]
        lo, hi = p[k]
        if s < lo:
            total += lo - s
        elif s > hi:
            total += s - hi
    mean_diff = Fraction(total, len(shared))
    return overlap / (mean_diff + 1)


def jaccard_brute(a: dict, b: dict) -> Fraction:
    union = set(a) | set(b)
    if not union:
        return Fraction(0)
    return Fraction(len(set(a) & set(b)), len(union))


def amd_brute(a: dict, b: dict) -> Fraction:
    union = set(a) | set(b)
    total = sum(abs(a.get(k, FLOOR) - b.get(k, FLOOR)) for k in union)
    return Fraction(total, len(union))


# --- detection -------------------------------------------------------------------

def similarity_float(a: dict, p: dict) -> float:
    """Straight-line float evaluation of the similarity (same numeric type
    as production so threshold ties behave identically; the rational version
    above guards numeric accuracy instead)."""
    shared = [k for k in a if k in p]
    if not shared:
        return 0.0
    total = 0
    for k in shared:
        s = a[k]
        lo, hi = p[k]
        if s < lo:
            total += lo - s
        elif s > hi:
            total += s - hi
    o = len(shared) / min(len(a), len(p))
    d = total / len(shared)
    return o / (d + 1.0)


def match_brute(user: list[tuple[int, dict]],
                published: list[tuple[str, list[tuple[dict, int, int]]]],
                alpha: float | None = None) -> list[tuple]:
    """The first-match rule, per user scan (t, readings): every segment of
    every (label, segments) profile is tried in input order, and one whose
    window [t_start, t_end] holds t is scored. The first that scores >=
    alpha gives (score, its index in its profile, label); with none, or
    with no alpha, the scan gives (best covering score or 0.0, None, None).
    """
    out = []
    for t, readings in user:
        best, match = 0.0, None
        for label, segments in published:
            for index, (ranges, t_start, t_end) in enumerate(segments):
                if t_start <= t <= t_end:
                    score = similarity_float(readings, ranges)
                    best = max(best, score)
                    if match is None and alpha is not None and score >= alpha:
                        match = (score, index, label)
        out.append(match or (best, None, None))
    return out


def episodes_brute(flags: list[tuple[int, bool]], window: int, min_exposure: int,
                   period: int) -> list[tuple[int, int, int]]:
    """Exhaustive window-placement evaluation of the close-contact rule.

    Every distinct placement of the closed window [w, w + window] is tried
    (memberships only change at flag times and flag times minus the window,
    and midpoints are included for good measure). A placement qualifies when
    it holds at least min_exposure / period true flags; true flags inside any
    qualifying placement are covered, and qualifying windows that overlap in
    time merge. Returns (start, end, true-flag count) per merged episode.
    """
    trues = [t for t, f in flags if f]
    need = ceil(min_exposure / period)
    boundaries = sorted({t for t in trues} | {t - window for t in trues})
    candidates = list(boundaries)
    candidates += [
        (a + b) / 2 for a, b in zip(boundaries, boundaries[1:])
    ]
    qualifying = []
    for w in candidates:
        inside = [t for t in trues if w <= t <= w + window]
        if len(inside) >= need:
            qualifying.append((w, w + window))
    # merge placements whose windows overlap (closed intervals)
    qualifying.sort()
    merged = []
    for lo, hi in qualifying:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    episodes = []
    for lo, hi in merged:
        members = [t for t in trues if lo <= t <= hi]
        episodes.append((members[0], members[-1], len(members)))
    return episodes


# --- simulator ------------------------------------------------------------------
# The per-scan, per-reading simulator the vectorised one replaced. Same draws
# in the same order: each scan has its own generator (seed, stream, index)
# with one normal then one uniform over all APs, in AP order; RSSI noise is
# one stream per profile over each scan's readings in id order.

def sample_scan_ref(env, position, device, stream=0, index=0) -> dict:
    x, y = position
    if not (np.isfinite(x) and np.isfinite(y)):
        raise ValueError("scan position must be finite")
    n_aps = len(env.aps)
    if n_aps == 0:
        return {}
    rng = np.random.default_rng((env.seed, stream, index))
    pos = np.array([ap.position for ap in env.aps], dtype=float)
    tx = np.array([ap.tx_power for ap in env.aps], dtype=float)
    dist = np.hypot(*(pos - np.array([x, y], dtype=float)).T)
    rssi = tx - 10.0 * env.path_loss_exponent * np.log10(np.maximum(dist, 1.0))
    rssi = rssi + rng.normal(0.0, env.shadowing_std or 0.0, n_aps) + device.bias
    detect = rng.random(n_aps) < device.detect_rate
    rssi = np.clip(np.rint(rssi), -100, 0).astype(int)
    return {
        env.aps[i].sid: int(rssi[i])
        for i in range(n_aps)
        if rssi[i] >= env.detection_floor and detect[i]
    }


def simulate_profile_ref(env, trajectory, sampling_period, stream=0) -> list:
    """[(timestamp, readings)] of one scan per period along the waypoints."""
    times = [w[0] for w in trajectory.waypoints]
    xs = [w[1][0] for w in trajectory.waypoints]
    ys = [w[1][1] for w in trajectory.waypoints]
    instants = list(range(times[0], times[-1], sampling_period)) or [times[0]]
    return [
        (t, sample_scan_ref(env, (float(np.interp(t, times, xs)),
                                  float(np.interp(t, times, ys))),
                            trajectory.device, stream, i))
        for i, t in enumerate(instants)
    ]


def drop_ids_ref(scans: list, rate: float, seed: int = 0) -> list:
    ids = sorted({sid for _, readings in scans for sid in readings})
    rng = np.random.default_rng((seed, 0xF117E2))
    removed = {sid for sid, u in zip(ids, rng.random(len(ids))) if u < rate}
    return [(t, {sid: r for sid, r in readings.items() if sid not in removed})
            for t, readings in scans]


def perturb_rssi_noise_ref(scans: list, std: float, seed: int = 0) -> list:
    rng = np.random.default_rng((seed, 0x201E))
    out = []
    for t, readings in scans:
        items = sorted(readings.items())
        noise = rng.normal(0.0, std, len(items))
        out.append((t, {sid: min(0, max(FLOOR, int(round(rssi + dn))))
                        for (sid, rssi), dn in zip(items, noise)}))
    return out


# --- metrics ------------------------------------------------------------------------

def prf_brute(truth: set, detected: set) -> tuple[float, float, float]:
    tp = len(truth & detected)
    if len(detected) > 0:
        precision = tp / len(detected)
    elif len(truth) == 0:
        precision = 1.0
    else:
        precision = 0.0
    recall = tp / len(truth) if len(truth) > 0 else 1.0
    if precision + recall == 0:
        return precision, recall, 0.0
    return precision, recall, 2 * precision * recall / (precision + recall)
