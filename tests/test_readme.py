"""The README's code examples run against the package as it is."""
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def python_block_after(marker: str) -> str:
    """The first fenced Python block that follows ``marker`` in the README."""
    text = README.read_text()
    match = re.search(re.escape(marker) + r".*?```python\n(.*?)```", text, re.S)
    assert match, f"no python block after {marker!r}"
    return match.group(1)


def test_lower_level_example_runs(capsys):
    exec(compile(python_block_after("Lower-level pieces"), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[3:] == ["(42, 2, 6)", "True"]
