"""The README's command-line tour, replayed line by line through cli.main."""

import shlex
from pathlib import Path

from hedgehog import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def tour_commands() -> list[list[str]]:
    """The argv of every `hedgehog ...` line in the fenced block under the
    "Command-line tour" heading, in order."""
    text = README.read_text()
    block = text[text.index("## Command-line tour") :].split("```")[1]
    return [
        shlex.split(line)[1:]
        for line in block.splitlines()
        if line.startswith("hedgehog ")
    ]


def test_readme_tour_runs_with_the_documented_exit_codes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "jobs.txt").write_text("verify embedding --in r.hcol --cert r.cert\n")
    commands = tour_commands()
    assert commands and commands[-1][0] == "batch"
    for argv in commands:
        # at n = 6 the exhaustive search finds a 2-colouring of the complete
        # 3-graph with no monochromatic hedgehog: a counterexample, exit 2;
        # at n = 7 it holds, exit 0
        expect = 2 if argv[:2] == ["search", "exhaustive"] and argv[-2:] == ["-n", "6"] else 0
        assert cli.main(argv) == expect, (argv, capsys.readouterr())
