"""The README's library quick start runs as written."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under 'Library quick start'"
    return match.group(1)


def test_library_quick_start_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_quick_start(), str(README), "exec"), {})
    lines = out.getvalue().split()
    assert len(lines) == 3
    cum_regret, leading, holds = lines
    assert float(cum_regret) > 0.0
    assert float(leading) > 0.0
    assert holds in ("True", "False")
