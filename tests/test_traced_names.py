"""The benchmark's traced mode wraps package functions by name; each of those
names must still exist, or a ``--trace 1`` run stops at its first patch."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


class ResolvingTracer:
    """Resolves what a real tracer would wrap, and wraps nothing."""

    def __init__(self):
        self.names = []

    def patch(self, owner, attr, name, measure=None):
        assert callable(getattr(owner, attr)), name
        self.names.append(name)


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = ResolvingTracer()
    tracing.instrument(tracer)
    assert tracer.names and len(set(tracer.names)) == len(tracer.names)
    assert {"evaluation.record_score", "simulator.perturb_rssi_noise",
            "simulator.sample_scan",
            "similarity.signal_similarity"} <= set(tracer.names)
