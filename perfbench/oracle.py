"""Independent checkers, written straight from the defining formulas.

Nothing here imports the package: profiles are parsed from their bytes with
a plain split-based reader, scores are exact integer ratios, and episodes
come from trying every distinct window placement. The program must agree
with these, not the other way round.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction
from urllib.parse import unquote

from common import CheckFailed


# --- profile bytes -------------------------------------------------------------

def read_processed(data: bytes) -> tuple[str, list[tuple[dict, int, int]]]:
    """(label, [(ranges {id bytes: (lo, hi)}, t_start, t_end), ...])."""
    lines = data.decode("utf-8").split("\n")
    head = lines[0].split(" ")
    if head[:2] != ["vcontact/1", "processed"]:
        raise CheckFailed(f"not a processed profile header: {lines[0]!r}")
    label = ""
    if len(head) == 3:
        label = unquote(head[2][len("label="):])
    segments = []
    for line in lines[1:]:
        if not line:
            continue
        tokens = line.split(" ")
        t0, t1 = tokens[0][2:].split("..")
        ranges = {}
        for token in tokens[1:]:
            key, rng = token.split(":")
            lo, hi = rng.split("..")
            ranges[bytes.fromhex(key)] = (int(lo), int(hi))
        segments.append((ranges, int(t0), int(t1)))
    return label, segments


# --- similarity as an exact ratio ---------------------------------------------

def score_ratio(readings: dict, ranges: dict) -> tuple[int, int]:
    """O / (D + 1) as (numerator, denominator) of non-negative integers.

    With s shared ids, m the smaller id count and T the summed out-of-range
    distance: O = s/m and D = T/s, so O / (D + 1) = s*s / (m * (T + s)).
    Disjoint ids score 0/1.
    """
    shared = [k for k in readings if k in ranges]
    if not shared:
        return 0, 1
    total = 0
    for k in shared:
        rssi = readings[k]
        lo, hi = ranges[k]
        if rssi < lo:
            total += lo - rssi
        elif rssi > hi:
            total += rssi - hi
    s = len(shared)
    m = min(len(readings), len(ranges))
    return s * s, m * (total + s)


def _close(value: float, num: int, den: int) -> bool:
    return abs(Fraction(value) - Fraction(num, den)) <= Fraction(1, 10**12)


def check_flag(t: int, readings: dict, published, alpha: Fraction, flag) -> None:
    """Check one program flag against the first-match rule.

    ``published`` is [(label, segments)] in record order. Segments whose
    window covers t are tried in order; the first with score >= alpha sets
    the flag, else the flag is false and carries the best score. At an exact
    tie with alpha the program's float may fall on either side, so both
    outcomes are accepted there.
    """
    best = (0, 1)
    for label, segments in published:
        for idx, (ranges, t0, t1) in enumerate(segments):
            if not (t0 <= t <= t1):
                continue
            num, den = score_ratio(readings, ranges)
            if num * best[1] > best[0] * den:
                best = (num, den)
            lhs, rhs = num * alpha.denominator, alpha.numerator * den
            here = (flag.in_contact and flag.matched_segment == idx
                    and flag.matched_case == label)
            if lhs > rhs or (lhs == rhs and here):
                if not here or not _close(flag.best_score, num, den):
                    raise CheckFailed(
                        f"t={t}: expected a match on {label!r} segment {idx} "
                        f"score {num}/{den}, program has {flag}")
                return
    if flag.in_contact or not _close(flag.best_score, *best):
        raise CheckFailed(
            f"t={t}: expected no match with best score {best[0]}/{best[1]}, "
            f"program has {flag}")


# --- episodes by exhaustive window placement -----------------------------------

def episodes(flags, window: int, min_exposure: int, period: int):
    """(start, end, case label, minutes) per episode of the close-contact rule.

    Every placement [w, w + window] whose membership can differ is tried:
    true-flag times, those times minus the window, and the midpoints between
    consecutive such boundaries. A placement qualifies with at least
    ceil(min_exposure / period) true flags inside; qualifying windows that
    overlap merge, and their true flags form one episode, labelled with the
    case of its first flag.
    """
    trues = [f for f in flags if f.in_contact]
    need = math.ceil(min_exposure / period)
    bounds = sorted({f.timestamp for f in trues}
                    | {f.timestamp - window for f in trues})
    places = bounds + [(a + b) / 2 for a, b in zip(bounds, bounds[1:])]
    windows = []
    for w in places:
        if sum(1 for f in trues if w <= f.timestamp <= w + window) >= need:
            windows.append((w, w + window))
    windows.sort()
    merged = []
    for lo, hi in windows:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    out = []
    for lo, hi in merged:
        members = [f for f in trues if lo <= f.timestamp <= hi]
        out.append((members[0].timestamp, members[-1].timestamp,
                    members[0].matched_case or "",
                    len(members) * period / 60.0))
    return out


def check_episodes(report, cfg) -> None:
    want = episodes(report.flags, cfg.window_length, cfg.min_exposure,
                    cfg.sampling_period)
    got = [(e.start, e.end, e.case_label, e.contact_minutes)
           for e in report.episodes]
    if got != want:
        raise CheckFailed(f"episodes {got} != exhaustive evaluation {want}")


# --- relay -------------------------------------------------------------------------

def check_fetch(cursor: int, acked_before: int, records, published: dict) -> None:
    """A fetch returns ids cursor+1, cursor+2, ... with no gap, reaching at
    least every id acknowledged before it was sent, and each record's bytes
    are the bytes published under that id (checked when the id is known)."""
    ids = [r.record_id for r in records]
    if ids != list(range(cursor + 1, cursor + 1 + len(ids))):
        raise CheckFailed(f"fetch since {cursor} returned ids {ids[:5]}..")
    if cursor + len(ids) < acked_before:
        raise CheckFailed(
            f"fetch since {cursor} stopped at {cursor + len(ids)}, but "
            f"{acked_before} was acknowledged before it was sent")
    for r in records:
        if r.record_id in published and published[r.record_id] != r.profile_bytes:
            raise CheckFailed(f"record {r.record_id} bytes differ from the publish")


def check_acks(acks, published: dict) -> None:
    """acks: (send_time, ack_time, record_id) per new publish. Ids are dense
    from 1, unique, and a publish sent after another was acknowledged got a
    larger id."""
    ids = sorted(a[2] for a in acks)
    if ids != list(range(1, len(ids) + 1)) or set(ids) != set(published):
        raise CheckFailed(f"publish ids are not dense from 1: {ids[:8]}..")
    by_ack = sorted(acks, key=lambda a: a[1])
    floor_id = 0
    j = 0
    for send, _, rid in sorted(acks):
        while j < len(by_ack) and by_ack[j][1] < send:
            floor_id = max(floor_id, by_ack[j][2])
            j += 1
        if rid <= floor_id:
            raise CheckFailed(f"id {rid} sent after id {floor_id} was acknowledged")


# --- study CSVs --------------------------------------------------------------------

def read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_f1(rows: list[dict], where: str) -> None:
    for row in rows:
        p, r, f1 = (float(row[k]) for k in ("precision", "recall", "f1"))
        want = 0.0 if p + r == 0 else 2 * p * r / (p + r)
        if not math.isclose(f1, want, rel_tol=1e-12, abs_tol=1e-15):
            raise CheckFailed(f"{where}: f1 {f1} != 2pr/(p+r) = {want} in {row}")


def exact_scores(vectors, segments):
    """Exact scores of each (readings, t) scan against every segment whose
    window covers t."""
    out = []
    for readings, t in vectors:
        scores = [score_ratio(readings, ranges)
                  for ranges, t0, t1 in segments if t0 <= t <= t1]
        out.append(scores)
    return out


def check_unperturbed_row(row: dict, per_scan_scores, truth) -> None:
    """precision and recall of ``row`` equal detection at the row's alpha over
    exact scores; a scan scoring exactly alpha may land on either side."""
    alpha = Fraction(row["alpha"])
    sure = [False] * len(truth)
    tie = [False] * len(truth)
    for i, scores in enumerate(per_scan_scores):
        for num, den in scores:
            lhs, rhs = num * alpha.denominator, alpha.numerator * den
            sure[i] = sure[i] or lhs > rhs
            tie[i] = tie[i] or lhs == rhs
    tp = sum(1 for i, t in enumerate(truth) if t and sure[i])
    fp = sum(1 for i, t in enumerate(truth) if not t and sure[i])
    tie_t = sum(1 for i, t in enumerate(truth) if t and tie[i] and not sure[i])
    tie_f = sum(1 for i, t in enumerate(truth) if not t and tie[i] and not sure[i])
    n_true = sum(truth)
    got = (float(row["precision"]), float(row["recall"]))
    for a in range(tie_t + 1):
        for b in range(tie_f + 1):
            det = tp + fp + a + b
            p = (tp + a) / det if det else (1.0 if n_true == 0 else 0.0)
            r = (tp + a) / n_true if n_true else 1.0
            if (p, r) == got:
                return
    raise CheckFailed(
        f"unperturbed row {row}: exact scores give tp={tp} fp={fp} "
        f"(ties {tie_t}/{tie_f}) of {n_true} true")
