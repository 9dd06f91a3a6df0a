import re
from pathlib import Path

import pytest

from wifitrace.config import SCHEMAS, load_scenario, load_study

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "demos" / "scenarios"
READERS = {
    "lifespan_visit.cfg": load_scenario,
    "moving_pair.cfg": load_scenario,
    "office_study.cfg": load_study,
}


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.cfg")),
                         ids=lambda path: path.name)
def test_shipped_configs_load_through_their_reader(path):
    READERS[path.name](path)


def test_default_section_keys_are_accepted_in_every_section(tmp_path):
    # moving_pair.cfg sets all four scenario sections, so the note shows up
    # in each of them; the study sections are covered in test_cli.py
    shipped = SCENARIOS / "moving_pair.cfg"
    noted = tmp_path / "noted.cfg"
    noted.write_text("[DEFAULT]\nnote = x\n" + shipped.read_text())
    assert load_scenario(noted) == load_scenario(shipped)


def test_readme_reference_lists_exactly_the_schema_keys():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("### Scenario config reference", 1)[1]
    block = block.split("```ini\n", 1)[1].split("```", 1)[0]
    documented, current = {}, None
    for line in block.splitlines():
        if m := re.match(r"\[(\w+)\]", line):
            current = documented.setdefault(m[1], set())
        elif m := re.match(r"#?\s*(\w+)\s*=", line):
            current.add(m[1])
    assert documented == {name: set(schema) for name, schema in SCHEMAS.items()}
