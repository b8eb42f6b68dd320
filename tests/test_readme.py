"""The README "CLI" section against the code and the fixture cases it documents."""

from pathlib import Path

from test_cli_fixtures import CASES

from bnl import cli

README = Path(__file__).parent.parent / "README.md"


def cli_section() -> str:
    text = README.read_text()
    start = text.index("\n## CLI\n")
    return text[start:text.index("\n## ", start + 1)]


def render(reads: dict) -> str:
    """A ``SOURCES`` entry as its README table cell: each flag, with its value when not given."""
    flags = []
    for dest, default in reads.items():
        flag = "--" + dest.replace("_", "-")
        flags.append(f"`{flag}`" if default is None or default is False else f"`{flag} {default}`")
    return ", ".join(flags) or "none"


def test_source_table_equals_cli_sources():
    rows = [line.strip("| ").split(" | ") for line in cli_section().splitlines() if line.startswith("| `")]
    assert {source.strip("`"): flags for source, flags in rows} == {
        source: render(reads) for source, reads in cli.SOURCES.items()
    }
    prose = " ".join(cli_section().split())
    for (command, source), sweep in cli.SWEEPS.items():
        name = "entanglement witness" if command == "witness" else command
        assert f"`{name} {source}` (`--steps {sweep['steps']}`)" in prose


def test_sh_example_lists_exactly_the_readme_cases():
    section = cli_section()
    start = section.index("```sh\n") + len("```sh\n")
    block = section[start:section.index("```", start)]
    documented = [line.removeprefix("bnl ") for line in block.splitlines()]
    assert sorted(documented) == sorted(case["argv"] for case in CASES if case["name"].startswith("readme-"))
