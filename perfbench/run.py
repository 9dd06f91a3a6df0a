"""End-to-end benchmark of wifitrace: the sync round, the relay and the study
pipeline.

    python3 perfbench/run.py --workload sync-day --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source checkout; the package is imported from its
``src/`` directory. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. A checker that
fails for any reason other than the known ``client_sync`` fault makes the
command exit non-zero. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

END_TO_END = (("setup_s", "s"), ("op_ms_p50", "ms"), ("work_per_s", "1/s"),
              ("peak_rss_mb", "MB"))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("sync-day", "relay-churn",
                                           "study-robustness"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="show that each checker catches a planted corruption")
    args = ap.parse_args(argv)
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM, unwind through the workloads' finally blocks, which stop
    # the relay processes they started
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "wifitrace" / "__init__.py").is_file():
        print(f"perfbench: no wifitrace package under {SRC}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from common import CheckFailed, Tracer, WORK
    if args.self_test:
        import selftest
        return selftest.main()

    import relay_churn
    import study_robustness
    import sync_day
    import tracing
    workload = {"sync-day": sync_day, "relay-churn": relay_churn,
                "study-robustness": study_robustness}[args.workload]
    try:
        if args.trace:
            half = args.seconds / 2
            plain = workload.run(args.seed, half, None, n_setups=1)
            tracer = Tracer()
            tracing.instrument(tracer)
            try:
                traced = workload.run(args.seed, half, tracer, n_setups=1)
            finally:
                tracer.restore()
            overhead = (traced["e2e"]["op_ms_p50"] / plain["e2e"]["op_ms_p50"]
                        - 1.0) * 100.0
            metrics = tracing.layer_metrics(tracer, traced["layer"], overhead)
            spans = WORK / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
            tracer.write(spans)
            print(f"spans written to {spans.relative_to(HERE.parent)}")
            results = (plain, traced)
        else:
            result = workload.run(args.seed, args.seconds, None)
            metrics = {name: {"value": result["e2e"][name], "unit": unit}
                       for name, unit in END_TO_END}
            results = (result,)
    except CheckFailed as exc:
        print(f"perfbench: {args.workload}: check failed: {exc}", file=sys.stderr)
        return 1

    attempted = failed = 0
    for result in results:
        shutil.rmtree(result["work"], ignore_errors=True)
        for kind, (n, bad) in result["ops"].items():
            print(f"{args.workload}: {kind} attempted={n} failed={bad}")
            attempted += n
            failed += bad
        for name, (value, unit) in result["detail"].items():
            print(f"{args.workload}: {name} = {value} {unit}")
    for name, m in metrics.items():
        print(f"{args.workload}: {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
