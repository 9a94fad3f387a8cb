"""The README runs as written: its library sketch, and its config format against the schema."""

import json
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library sketch"):]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:Library sketch", "exec"), {"__name__": "readme_sketch"})
    delta, _, _, delta_mm, unit = capsys.readouterr().out.split()
    assert unit == "mm"
    assert math.isfinite(float(delta)) and math.isfinite(float(delta_mm))


def config_format_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("### Config format")
    return text[start:text.index("\n## ", start)]


def test_config_example_validates():
    from spinhall.config import validate_config

    example = re.search(r"```json\n(.*?)```", config_format_section(), re.DOTALL).group(1)
    assert validate_config(json.loads(example)) == []


def test_config_table_matches_the_schema():
    from spinhall.config import _SCHEMA

    rows = re.findall(r"^\| `(\w+)` \|[^|]*\|([^|]*)\|([^|]*)\|$", config_format_section(), re.M)
    table = {section: (re.findall(r"`(\w+)`", required), re.findall(r"`(\w+)`", optional))
             for section, required, optional in rows}
    assert table == {
        section: ([k for k, needed in keys.items() if needed],
                  [k for k, needed in keys.items() if not needed])
        for section, keys in _SCHEMA.items()
    }
