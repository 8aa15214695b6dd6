"""The README's library quick start runs as written, a Bernoulli and a contextual run, its module table names live
API, and its instance spec table is the spec schema."""
import contextlib
import importlib
import io
import re
from pathlib import Path

from clusterbandit.instances import SPEC_KINDS

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
    assert len(lines) == 4
    cum_regret, contextual_regret, leading, holds = lines
    assert float(cum_regret) > 0.0
    assert float(contextual_regret) > 0.0
    assert float(leading) > 0.0
    assert holds in ("True", "False")


# A backticked name that starts upper-case and has a lower-case letter, such as
# `ClusterTree` or `ClusterTree.star`; call forms and assignments do not match.
CAMEL_NAME = re.compile(r"[A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*(\.[A-Za-z_]\w*)*")


def _module_table() -> list[tuple[str, str]]:
    """(module, contents) of each row of the README's "What's inside" table."""
    section = README.read_text().split("## What's inside", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(clusterbandit\.\w+)` \|(.*)\|\s*$", section, re.MULTILINE)


def test_module_table_names_exist():
    rows = _module_table()
    assert len(rows) >= 8, "the module table has fewer rows than the package has modules"
    checked = []
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        for name in re.findall(r"`([^`]+)`", contents):
            if not CAMEL_NAME.fullmatch(name):
                continue
            obj = module
            for part in name.split("."):
                assert hasattr(obj, part), f"README names `{name}` in the {module_name} row, which has no such attribute"
                obj = getattr(obj, part)
            checked.append(name)
    assert "ClusterTree" in checked and "BanditInstance" in checked


def test_analysis_row_names_the_bound_table_and_both_audits():
    (contents,) = [contents for module_name, contents in _module_table() if module_name == "clusterbandit.analysis"]
    analysis = importlib.import_module("clusterbandit.analysis")
    for name in ("instance_bounds", "verify_strong_dominance", "audit_hierarchical_dominance"):
        assert f"`{name}" in contents and callable(getattr(analysis, name, None)), name


def _spec_table() -> list[tuple[str, ...]]:
    """(kind, builds, field, type, default) of each row of the README's instance spec table."""
    table = README.read_text().split("| kind | builds | field | type | default | range |", 1)[1].split("\n\n", 1)[0]
    return re.findall(r"^\| `(\w+)` \| (\w+) \| `(\w+)` \| (\w+) \| ([^|]+?) \|", table, re.MULTILINE)


def test_spec_table_is_the_schema():
    type_names = {int: "integer", float: "number", str: "string"}
    want = []
    for kind, schema in SPEC_KINDS.items():
        for field, kind_type in schema.required.items():
            want.append((kind, schema.structure, field, type_names[kind_type], "required"))
        for field, (kind_type, default) in schema.optional.items():
            shown = "no cut" if default is None else f"`{default}`"
            want.append((kind, schema.structure, field, type_names[kind_type], shown))
    assert sorted(_spec_table()) == sorted(want)
