"""The README "CLI" section against the code and the fixture cases it documents."""

from pathlib import Path

from test_cli_fixtures import CASES

from bnl import cli

README = Path(__file__).parent.parent / "README.md"


def cli_section() -> str:
    text = README.read_text()
    start = text.index("\n## CLI\n")
    return text[start:text.index("\n## ", start + 1)]


def flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def render(reads: dict) -> list[str]:
    """A ``SOURCES`` entry as its two README table cells: the flags it needs, and each other flag it
    reads, with its value when not given."""
    needed = [f"`{flag(dest)}`" for dest, default in reads.items() if default is cli.NEEDED]
    others = [
        f"`{flag(dest)}`" if default is None or default is False else f"`{flag(dest)} {default}`"
        for dest, default in reads.items() if default is not cli.NEEDED
    ]
    return [", ".join(needed) or "none", ", ".join(others) or "none"]


def test_source_table_equals_cli_sources():
    rows = [line.strip("| ").split(" | ") for line in cli_section().splitlines() if line.startswith("| `")]
    assert {source.strip("`"): cells for source, *cells in rows} == {
        source: render(reads) for source, (reads, _) in cli.SOURCES.items()
    }
    prose = " ".join(cli_section().split())
    for (command, source), sweep in cli.SWEEPS.items():
        name = "entanglement witness" if command == "witness" else command
        assert f"`{name} {source}` (`--steps {sweep['steps']}`)" in prose


def usage_pairs() -> dict[tuple[str, str], set[str]]:
    """The error lines of the ``usage-*`` cases of each (state command, source) pair."""
    pairs: dict[tuple[str, str], set[str]] = {}
    for case in CASES:
        argv = case["argv"].split()
        if case["name"].startswith("usage-") and argv[:1] in (["contextuality"], ["bell"], ["entanglement"]):
            pair = (argv[1], argv[2]) if argv[0] == "entanglement" else (argv[0], argv[1])
            pairs.setdefault(pair, set()).add(case["error"])
    return pairs


def needs_message(command: str, source: str, dest: str) -> str:
    also = " or --gamma-min/--gamma-max" if (command, source) in cli.SWEEPS else ""
    return f"bnl: error: {source} source needs {flag(dest)}{also}"


def test_every_refusal_the_tables_make_has_a_usage_case():
    """Each needed flag of each source, and each command's beam rule, has a case whose error line is
    that rule's message, so no refusal made from ``SOURCES`` and ``COMMANDS`` goes unchecked."""
    pairs = usage_pairs()
    for source, (reads, _) in cli.SOURCES.items():
        for dest in [dest for dest, default in reads.items() if default is cli.NEEDED]:
            assert any(
                needs_message(command, source, dest) in errors for (command, name), errors in pairs.items()
                if name == source
            ), (source, dest)
    for command, (beams, _) in cli.COMMANDS.items():
        if beams is not None:
            message = f"bnl: error: {command} takes a {'two' if beams == 2 else 'three'}-beam state"
            assert any(message in errors for (name, _), errors in pairs.items() if name == command), command


def test_sh_example_lists_exactly_the_readme_cases():
    section = cli_section()
    start = section.index("```sh\n") + len("```sh\n")
    block = section[start:section.index("```", start)]
    documented = [line.removeprefix("bnl ") for line in block.splitlines()]
    assert sorted(documented) == sorted(case["argv"] for case in CASES if case["name"].startswith("readme-"))
