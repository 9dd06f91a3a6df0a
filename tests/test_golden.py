"""Every study, simulation, demo, baseline and exchange output is the one
pinned in tests/golden.json (see tools/golden.py)."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "golden", Path(__file__).resolve().parent.parent / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_outputs_are_the_pinned_ones():
    assert golden.check() == []


def test_a_changed_output_names_its_first_differing_line():
    pinned = {"a.csv": golden.entry(b"x,y\n1,2\n3,4\n"),
              "gone.txt": golden.entry(b"")}
    found = {"a.csv": b"x,y\n1,2\n3,5\n", "new.txt": b"\n"}
    assert golden.differences(found, pinned) == [
        "gone.txt: pinned, but no longer written",
        "a.csv: 12 bytes, 12 pinned; line 3 now reads '3,5'",
        "new.txt: written, but not pinned",
    ]
    assert golden.differences({"a.csv": b"x,y\n1,2\n"}, pinned)[1:] == [
        "a.csv: 8 bytes, 12 pinned; ends after line 2, 3 pinned"]
