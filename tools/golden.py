"""The package's outputs, pinned: a characterization check.

    PYTHONPATH=src python tools/golden.py --check
    PYTHONPATH=src python tools/golden.py --write

Runs, in this one process, the four study commands on
``demos/scenarios/office_study.cfg`` (their CSVs and JSON summary lines),
``robustness`` on the mall preset (one seed, default knobs: its moving walk
spans more than one block of simulated scans) and on the office preset (two
seeds, noise levels out of order and repeated), ``simulate`` on both
scenarios, every demo (its standard output), the baseline rows
``run_baseline_comparison`` returns for the office site, and a CLI exchange
round (``publish`` of the ``lifespan_visit`` case, then ``sync`` of its
user, against a relay in a thread: the report and both summary lines), and
a second device that syncs twice against the same relay, its second round
finding no new record (both summary lines and the last report). Output
paths in summary lines read ``OUT``.

``--write`` records the sha256, the size and a short digest of each line of
every output in ``tests/golden.json``. ``--check`` compares the outputs with
that file and exits 1 if any differs, naming each output that differs and
printing its first differing line as this code writes it. An output that
changes on purpose is rewritten with ``--write`` in the same commit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "golden.json"
SCENARIOS = ROOT / "demos" / "scenarios"
sys.path.insert(0, str(ROOT / "src"))

from wifitrace import evaluation  # noqa: E402
from wifitrace.cli import main as cli  # noqa: E402
from wifitrace.exchange import ProfileStore, serve_in_thread  # noqa: E402

STUDY_COMMANDS = ("calibrate", "proximity-study", "inout-study", "robustness")
SCENARIO_NAMES = ("lifespan_visit", "moving_pair")
ROBUSTNESS_RUNS = {  # output name -> study config
    "mall_study": "[environment]\npreset = mall\n\n[study]\nseeds = 1\n",
    "office_noise": "[environment]\npreset = office\n\n[study]\nseeds = 2 4"
                    "\n\n[robustness]\nnoise_stds = 4 0 4 1 8\n",
}
EXCHANGE_ROUNDS = ("exchange", "exchange_again")


def _printed(run, *args) -> str:
    """What ``run(*args)`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run(*args)
    return out.getvalue()


def _cli(*argv: str) -> str:
    """What the command line prints; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli(list(argv))
    if code:
        raise RuntimeError(f"wifitrace {' '.join(argv)} exited {code}")
    return out.getvalue()


def outputs(work: Path) -> dict[str, bytes]:
    """Every pinned output, by name, made under the directory ``work``."""
    text = {"study.jsonl": "".join(
        _cli(name, str(SCENARIOS / "office_study.cfg"), "--out",
             str(work / "study")) for name in STUDY_COMMANDS)}
    for name, config in ROBUSTNESS_RUNS.items():
        (work / f"{name}.cfg").write_text(config)
        text[f"{name}.jsonl"] = _cli("robustness", str(work / f"{name}.cfg"),
                                     "--out", str(work / name))
    for name in SCENARIO_NAMES:
        text[f"{name}.json"] = _cli(
            "simulate", str(SCENARIOS / f"{name}.cfg"), "--out",
            str(work / name))
    for demo in sorted((ROOT / "demos").glob("*.py")):
        text[f"demos/{demo.name}.txt"] = _printed(
            runpy.run_path, str(demo), None, "__main__")
    rows = evaluation.run_baseline_comparison("office", (2, 3), (1, 2))
    text["baselines.jsonl"] = "".join(json.dumps(r) + "\n" for r in rows)
    with serve_in_thread(ProfileStore(work / "relay")) as server:
        sync = ("sync", "--endpoint", server.endpoint,
                "--profile", str(work / "lifespan_visit" / "user.signal"))
        for name in EXCHANGE_ROUNDS:
            (work / name).mkdir()
        text["exchange.jsonl"] = _cli(
            "publish", str(work / "lifespan_visit" / "case.processed"),
            "--endpoint", server.endpoint) + _cli(
            *sync, "--state", str(work / "state"),
            "--report", str(work / "exchange" / "report.txt"))
        # a second device syncs twice; its second round finds no new record
        text["exchange_again.jsonl"] = "".join(_cli(
            *sync, "--state", str(work / "state_again"),
            "--report", str(work / "exchange_again" / "report.txt"))
            for _ in range(2))
    # the summary lines name their output paths
    found = {name: body.replace(str(work), "OUT").encode()
             for name, body in text.items()}
    for path in sorted(work.rglob("*")):
        name = path.relative_to(work).as_posix()
        if path.is_file() and name.split("/")[0] in (
                "study", *ROBUSTNESS_RUNS, *EXCHANGE_ROUNDS, *SCENARIO_NAMES):
            found[name] = path.read_bytes()
    return dict(sorted(found.items()))


def _line_digests(data: bytes) -> list[str]:
    return [hashlib.sha256(line).hexdigest()[:12]
            for line in data.splitlines(keepends=True)]


def entry(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "size": len(data),
            "lines": _line_digests(data)}


def differences(found: dict[str, bytes], pinned: dict[str, dict]) -> list[str]:
    """One message per output that is missing, new or not as pinned; a
    changed one names its first differing line and prints it as found."""
    messages = [f"{name}: pinned, but no longer written"
                for name in pinned if name not in found]
    for name, data in found.items():
        want = pinned.get(name)
        if want is None:
            messages.append(f"{name}: written, but not pinned")
            continue
        if hashlib.sha256(data).hexdigest() == want["sha256"]:
            continue
        lines = data.splitlines(keepends=True)
        got = _line_digests(data)
        first = next((i for i, (a, b) in enumerate(zip(got, want["lines"]))
                      if a != b), min(len(got), len(want["lines"])))
        if first < len(lines):
            shown = lines[first].decode("utf-8", "replace").rstrip("\n")
            if len(shown) > 200:
                shown = shown[:200] + "..."
            detail = f"line {first + 1} now reads {shown!r}"
        else:
            detail = f"ends after line {first}, {len(want['lines'])} pinned"
        messages.append(f"{name}: {len(data)} bytes, {want['size']} pinned; "
                        f"{detail}")
    return messages


def check() -> list[str]:
    """The differences between this code's outputs and the manifest."""
    with tempfile.TemporaryDirectory() as work:
        found = outputs(Path(work))
    return differences(found, json.loads(MANIFEST.read_text()))


def write() -> None:
    with tempfile.TemporaryDirectory() as work:
        found = outputs(Path(work))
    pinned = {name: entry(data) for name, data in found.items()}
    MANIFEST.write_text(json.dumps(pinned, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="compare the outputs with the manifest")
    mode.add_argument("--write", action="store_true",
                      help="record the outputs in the manifest")
    args = ap.parse_args(argv)
    if args.write:
        write()
        print(f"wrote {MANIFEST.relative_to(ROOT)}")
        return 0
    messages = check()
    for message in messages:
        print(message)
    if messages:
        return 1
    print(f"every output matches {MANIFEST.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
