"""Choosing the detection threshold.

Detection quality hinges on the similarity threshold: raise it and precision
climbs while recall falls. The calibration drill puts the case at a
reference spot and users at 1..10 m; sweeping the threshold and taking the
point where precision meets recall gives a balanced operating point per
contact proximity. Closer proximities demand larger thresholds.
"""

from wifitrace.evaluation import (
    calibrate,
    collect_proximity_data,
    pick_intersection,
    run_proximity_study,
    sweep_scores,
)
from wifitrace.simulator import make_site

env, layout = make_site("office", seed=1)
data = collect_proximity_data(env, layout)
scores = data.scores()  # label-free: one scoring serves every proximity

print("threshold sweep at contact proximity k = 2 m (selected rows):")
points = sweep_scores(scores, data.truth(2))
print(f"{'alpha':>6} {'precision':>10} {'recall':>7} {'f1':>6}")
for point in points[4::10]:
    print(f"{point.alpha:>6.2f} {point.precision:>10.3f} "
          f"{point.recall:>7.3f} {point.f1:>6.3f}")
best = pick_intersection(points)
print(f"intersection: alpha={best.alpha:.2f} "
      f"(precision {best.precision:.3f} / recall {best.recall:.3f})")

print("\nintersection threshold per proximity (tighter contact needs a"
      " stricter threshold):")
for k in (1, 2, 4):
    point = calibrate(scores, data.truth(k))
    print(f"  k={k} m: alpha={point.alpha:.2f} f1={point.f1:.3f}")

print("\nmetrics at the calibrated threshold, office preset, 5 seeds:")
rows = run_proximity_study("office", (1, 2, 3, 4, 5), seeds=(1, 3, 5, 7, 9))
print(f"{'k':>3} {'precision':>10} {'recall':>7} {'f1':>6}   (mean over seeds)")
for k in (1, 2, 3, 4, 5):
    at_k = [r for r in rows if r["k"] == k]
    mean = lambda field: sum(r[field] for r in at_k) / len(at_k)
    print(f"{k:>2}m {mean('precision'):>10.3f} {mean('recall'):>7.3f} "
          f"{mean('f1'):>6.3f}")
print("\nDetecting 1 m contact is hard (nearby scans look alike); from 2 m")
print("on, precision and recall sit in the 0.7-0.9 band and improve with k.")
