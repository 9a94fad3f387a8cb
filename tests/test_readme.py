"""The README's library sketch runs as written against this checkout."""

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
