"""How the similarity score separates near from far.

Two simulated phones sit at increasing separations in the office preset.
The range-based similarity (id overlap over one plus the mean out-of-range
RSSI distance) is compared with the raw scan-to-scan baselines: Jaccard on
id sets, and average Manhattan/Euclidean RSSI distance with the -100 fill
for ids one side did not hear.
"""

import statistics

from wifitrace import (
    LifespanSchedule,
    aed,
    amd,
    build_case_profile,
    jaccard,
    overlap_ratio,
    rssi_difference,
)
from wifitrace.evaluation import record_score
from wifitrace.simulator import make_paired_scenario, make_site

env, layout = make_site("office", seed=42)

print(f"{'sep':>4} {'similarity':>11} {'overlap':>8} {'rssi-diff':>10}"
      f" {'jaccard':>8} {'amd':>7} {'aed':>6}")
for separation in (0, 1, 2, 3, 5, 8):
    case, user, dist = make_paired_scenario(
        env, separation, duration=600, sampling_period=5,
        anchor=layout.line_position(0), direction=layout.line_direction)
    processed = build_case_profile(case, LifespanSchedule(default=0))

    sims, overlaps, diffs, jacs, amds, aeds = [], [], [], [], [], []
    for vec, case_vec in zip(user.vectors, case.vectors):
        sims.append(record_score(vec, processed))
        seg = next(s for s in processed.segments if s.covers(vec.timestamp))
        overlaps.append(overlap_ratio(vec, seg.vector))
        d = rssi_difference(vec, seg.vector)
        diffs.append(d if d is not None else float("nan"))
        jacs.append(jaccard(vec, case_vec))
        amds.append(amd(vec, case_vec))
        aeds.append(aed(vec, case_vec))

    print(f"{dist:>3.0f}m"
          f" {statistics.mean(sims):>11.3f}"
          f" {statistics.mean(overlaps):>8.3f}"
          f" {statistics.mean(diffs):>10.2f}"
          f" {statistics.mean(jacs):>8.3f}"
          f" {statistics.mean(amds):>7.2f}"
          f" {statistics.mean(aeds):>6.2f}")

print("\nThe similarity falls with distance because shared-id RSSIs drift")
print("out of the case's recorded ranges (rssi-diff grows), while the id")
print("overlap stays high nearby. The distance baselines grow with")
print("separation but mix in scan-to-scan noise at zero separation too.")
