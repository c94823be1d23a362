"""The README's code examples and the package metadata match the package as it is."""
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def python_block_after(marker: str) -> str:
    """The first fenced Python block that follows ``marker`` in the README."""
    text = README.read_text()
    match = re.search(re.escape(marker) + r".*?```python\n(.*?)```", text, re.S)
    assert match, f"no python block after {marker!r}"
    return match.group(1)


def test_lower_level_example_runs(capsys):
    exec(compile(python_block_after("Lower-level pieces"), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[3:] == ["(1, 42, 2, 6)", "[ 0  1  4  6 12 19]", "True"]


def test_config_example_loads(tmp_path):
    from dstbc_ofdm import SimConfig
    from dstbc_ofdm.cli import _SCHEMA, load_config_file

    match = re.search(r"## Configuration files.*?```ini\n(.*?)```", README.read_text(), re.S)
    assert match, "no ini block in the configuration section"
    block = match.group(1)
    # every INI key, by its short name where it has one; commented lines count
    shown = set(re.findall(r"^(?:# )?(\w+) =", block, re.M))
    assert {alias or name for name, (_, alias, _, _) in _SCHEMA.items()} <= shown
    path = tmp_path / "example.cfg"
    path.write_text(block)
    cfg = SimConfig(**load_config_file(str(path)))
    assert (cfg.iqi_kappa_db, cfg.iqi_phi_deg) == (2.0, 8.0)


def test_version_matches_pyproject():
    import dstbc_ofdm

    # a regex, not tomllib, which Python 3.10 lacks
    match = re.search(r'^version = "([^"]+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    assert match, "no version in pyproject.toml"
    assert dstbc_ofdm.__version__ == match.group(1)


def test_analytic_transcript_matches_the_cli(capsys):
    from dstbc_ofdm.cli import main

    command = "$ dstbc-ofdm analytic --kappa-db 2 --phi-deg 8\n"
    match = re.search(re.escape(command) + r"(.*?)```", README.read_text(), re.S)
    assert match, "no analytic transcript in the README"
    assert main(["analytic", "--kappa-db", "2", "--phi-deg", "8"]) == 0
    assert capsys.readouterr().out == match.group(1)


def test_simulate_transcript_matches_the_cli(capsys):
    from dstbc_ofdm.cli import main

    match = re.search(r"## Command line quick start.*?```text\n(.*?)```", README.read_text(), re.S)
    assert match, "no simulate transcript in the README"
    shown = [line for line in match.group(1).splitlines() if line.startswith("snr_db=")]
    snrs = [re.match(r"snr_db=(\S+) ", line).group(1) for line in shown]
    assert len(shown) >= 2
    # a record does not depend on the other points of its sweep, so the shown
    # points alone reproduce their lines
    config = str(ROOT / "src" / "dstbc_ofdm" / "configs" / "iqi_baseline.cfg")
    assert main(["simulate", "--config", config, "--snr", ",".join(snrs)]) == 0
    assert capsys.readouterr().out.splitlines() == shown
