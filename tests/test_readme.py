"""The README's contract: its Python example runs and scores, the parser
takes every command and common flag of its Command line section, and
every line of that section runs as shown."""

import re
import shlex
from pathlib import Path

from qkml import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
COMMON_FLAGS = ("--config", "--out", "--seed", "--threads", "--synthetic")


def _section(heading):
    return README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def _blocks(text, lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.S | re.M)


def test_the_python_example_runs_and_scores_at_least_080():
    (block,) = _blocks(README, "python")
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert scope["accuracy"] >= 0.80


def _cli_lines():
    (block,) = _blocks(_section("Command line"), "sh")
    return [shlex.split(line) for line in block.splitlines() if line.startswith("qkml ")]


def test_the_parser_takes_every_command_and_common_flag_shown():
    section = _section("Command line")
    lines = _cli_lines()
    parser = cli.build_parser()
    commands = set()
    for argv in lines:
        assert parser.parse_args(argv[1:]).command == argv[1]
        commands.add(argv[1])
    assert commands == {"ingest", "benchmark", "kernel", "hybrid", "report"}
    values = ("c.json", "o", "3", "2", "moons")
    for flag in COMMON_FLAGS:
        assert f"`{flag} <" in section
    for command in sorted(commands - {"report"}):
        args = parser.parse_args([command, *(x for pair in zip(COMMON_FLAGS, values) for x in pair)])
        assert (args.config, args.out, args.seed, args.threads, args.synthetic) == (
            "c.json", "o", 3, 2, "moons")


def test_every_command_line_shown_runs_in_order(tmp_path, monkeypatch):
    # cfg.json is the README's own example config, its comments removed.
    (example,) = _blocks(_section("Command line"), "jsonc")
    (tmp_path / "cfg.json").write_text(re.sub(r"//.*", "", example))
    monkeypatch.chdir(tmp_path)
    lines = _cli_lines()
    # At least one smoke run needs no config at all.
    assert [argv for argv in lines if "--config" not in argv and "--synthetic" in argv]
    for argv in lines:
        assert cli.main(argv[1:]) == 0, " ".join(argv)
