"""Shared plumbing: the checkout layout, timing statistics, the relay process
and the span tracer used by the traced mode.

The tracer wraps the package's public functions in their module namespaces
for one pass only, so that the program itself carries no instrumentation.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

now = time.perf_counter
# CPU seconds of this process: the timing of in-process work, since time
# spent descheduled on a shared host is not the program's cost
cpu = time.process_time


class CheckFailed(Exception):
    """A program output disagreed with an independent computation."""


def median(values):
    return statistics.median(values)


def quantile(values, q):
    """Inclusive linear-interpolation quantile, q in [0, 1]."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (ru_maxrss is KiB on
    Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def paused(tracer):
    """``tracer.paused()``, or nothing to pause when not tracing."""
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


def fresh_dir(name: str) -> Path:
    path = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# --- machine speed --------------------------------------------------------------
#
# On a shared host the CPU time of identical work drifts by up to 2x within
# minutes. A fixed kernel that does not use the package, timed during each
# operation, tracks that drift; operation times are reported scaled to the
# kernel's speed on the reference machine (README: "Timing on a shared host").

@dataclass(frozen=True, order=True)
class _Key:
    value: bytes


# the kernel mixes what the program spends its time on: hashing frozen
# dataclass keys in dicts and sets, and small numpy draws
_KEYS = [_Key(bytes(range(i, i + 32))) for i in range(48)]
_POS = np.array([[i * 1.5, (i * 7) % 30] for i in range(32)], dtype=float)

# CPU seconds of one _kernel() call on the reference machine (a quiet
# 2-core sandbox, CPython 3.11, numpy 2.4)
KERNEL_REFERENCE_S = 0.00055
# CPU seconds between kernel samples taken during an operation
PROBE_EVERY = 0.02


def _kernel() -> int:
    total = 0
    for r in range(6):
        readings = {k: -40 - (i + r) % 50 for i, k in enumerate(_KEYS)}
        shared = frozenset(_KEYS[r % 9:]) & frozenset(_KEYS[:40])
        for k in shared:
            total += readings[k]
        rng = np.random.default_rng((r, 7))
        dist = np.hypot(*(_POS - (3.0, 4.0)).T)
        rssi = np.rint(-40 - 25 * np.log10(np.maximum(dist, 1.0))
                       + rng.normal(0.0, 2.0, len(_POS)))
        total += sum(int(v) for v in rssi if v > -70)
    return total


def speed_sample() -> float:
    """CPU seconds of one kernel call now."""
    t = time.thread_time()
    _kernel()
    return time.thread_time() - t


def to_reference(seconds: float, sample: float) -> float:
    """Scale a CPU time taken while the kernel took ``sample`` seconds."""
    return seconds * KERNEL_REFERENCE_S / sample


class _Probe:
    """Kernel samples taken from a CPU-time interval timer while an
    operation runs; their own CPU time is kept apart."""

    def __init__(self):
        self.samples = [speed_sample()]
        self.spent = 0.0

    def tick(self, signum, frame):
        t = time.thread_time()
        self.samples.append(speed_sample())
        self.spent += time.thread_time() - t


def timed(fn, *args):
    """(result, reference-scaled CPU s, raw CPU s, wall s) of fn(*args).

    Call it from the main thread, which runs the probe's SIGPROF handler.
    """
    probe = _Probe()
    previous = signal.signal(signal.SIGPROF, probe.tick)
    signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY, PROBE_EVERY)
    t, w = cpu(), now()
    try:
        result = fn(*args)
    finally:
        raw, wall = cpu() - t, now() - w
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, previous)
    raw -= probe.spent
    probe.samples.append(speed_sample())
    return result, to_reference(raw, median(probe.samples)), raw, wall


# --- relay process --------------------------------------------------------------

_SERVING = re.compile(r"serving on (http://\S+)")


class Relay:
    """`wifitrace serve` in its own process over a data directory.

    The port is chosen by the kernel; the relay prints its endpoint on
    stderr once it has replayed its log and bound the socket. stderr goes to
    a file so that a chatty relay can never block on a full pipe.
    """

    def __init__(self, data_dir: Path):
        self.data_dir = Path(data_dir)
        self.proc = None
        self.endpoint = None
        # peak RSS in MB of each relay process, read as it is stopped
        self.peaks: list[float] = []

    def start(self, timeout: float = 60.0) -> None:
        """Start the relay and wait until it has bound its socket; the
        endpoint line is printed after the log replay and the bind."""
        log = self.data_dir.parent / f"{self.data_dir.name}.stderr"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        t0 = now()
        with open(log, "wb") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "wifitrace.cli", "serve", "--port", "0",
                 "--data-dir", str(self.data_dir)],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=err, cwd=ROOT, env=env,
            )
        while self.endpoint is None:
            m = _SERVING.search(log.read_text(errors="replace"))
            if m:
                self.endpoint = m.group(1)
                break
            if self.proc.poll() is not None or now() - t0 > timeout:
                self.stop()
                raise RuntimeError(f"relay did not start: {log.read_text()}")
            time.sleep(0.001)

    def cpu_seconds(self) -> float:
        """User + system CPU time the relay process has used so far, all its
        threads, to the nanosecond: the process's CPU-time clock, whose id
        is made from the pid as clock_getcpuclockid(3) makes it."""
        return time.clock_gettime(((~self.proc.pid) << 3) | 2)

    def peak_rss_mb(self) -> float:
        """The relay process's own peak RSS (VmHWM). ru_maxrss of a child
        would not do: a child spawned by vfork and exec starts from the
        parent's peak."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line for the relay process")

    def stop(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.peaks.append(self.peak_rss_mb())
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None
        self.endpoint = None


# --- tracing --------------------------------------------------------------------

class _Buffer:
    def __init__(self):
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.stack = []
        self.counts = {}


class Tracer:
    """Spans (name, start, end, parent) kept in per-thread arrays.

    ``patch`` swaps a function for a timed wrapper wherever a module of the
    package binds it, and ``restore`` puts the originals back.
    """

    def __init__(self):
        self.names: list[str] = []
        self._buffers: list[_Buffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self.enabled = True

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced (the benchmark's own checking)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def _buf(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def wrap(self, name: str, fn, measure=None):
        ix = len(self.names)
        self.names.append(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            buf = self._buf()
            i = len(buf.start)
            buf.name.append(ix)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.end.append(0)
            buf.stack.append(i)
            buf.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[i] = clock()
                buf.stack.pop()
            if measure is not None:
                for key, n in measure(args, result).items():
                    buf.counts[key] = buf.counts.get(key, 0) + n
            return result

        return traced

    def patch(self, owner, attr: str, name: str, measure=None) -> None:
        """Wrap ``owner.attr``; for a module function, every module of the
        package that imported the same object is patched too."""
        original = getattr(owner, attr)
        wrapped = self.wrap(name, original, measure)
        targets = [owner]
        if isinstance(owner, type(sys)):
            targets = [m for key, m in list(sys.modules.items())
                       if (key == "wifitrace" or key.startswith("wifitrace."))
                       and getattr(m, attr, None) is original]
        for target in targets:
            self._patched.append((target, attr, original))
            setattr(target, attr, wrapped)

    def restore(self) -> None:
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    def spans(self):
        """Merged spans as (name, start_ns, end_ns, parent_index) rows."""
        rows = []
        for buf in self._buffers:
            base = len(rows)
            for n, s, e, p in zip(buf.name, buf.start, buf.end, buf.parent):
                rows.append((self.names[n], s, e, p + base if p >= 0 else -1))
        return rows

    def counts(self) -> dict:
        total: dict = {}
        for buf in self._buffers:
            for key, n in buf.counts.items():
                total[key] = total.get(key, 0) + n
        return total

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds."""
        rows = self.spans()
        child = [0] * len(rows)
        for name, s, e, p in rows:
            if p >= 0:
                child[p] += e - s
        out: dict = {}
        for i, (name, s, e, _) in enumerate(rows):
            calls, incl, own = out.get(name, (0, 0, 0))
            out[name] = (calls + 1, incl + (e - s), own + (e - s - child[i]))
        return {k: {"calls": c, "s": t / 1e9, "self_s": o / 1e9}
                for k, (c, t, o) in out.items()}

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\n")
            for i, (name, s, e, p) in enumerate(self.spans()):
                fh.write(f"{i}\t{name}\t{s}\t{e}\t{p}\n")
