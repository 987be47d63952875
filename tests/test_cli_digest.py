"""``tools/cli_digest.py`` digests a fixed list of well-formed command lines, the same way each time."""

import importlib.util
from pathlib import Path

from detstrata import cli

SPEC = importlib.util.spec_from_file_location("cli_digest", Path(__file__).parents[1] / "tools" / "cli_digest.py")
cli_digest = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(cli_digest)


def test_reads_every_listed_command_but_the_refusals():
    commands = cli_digest.commands()
    assert commands[-len(cli_digest.REFUSALS):] == cli_digest.REFUSALS
    unread = [argv for argv in commands[:-len(cli_digest.REFUSALS)] if cli._read(argv) is None]
    assert unread == []
    assert {argv[0] for argv in commands} == set(cli.COMMANDS)


def test_digesting_twice_gives_the_same_lines():
    some = [cli_digest.commands()[0], *cli_digest.REFUSALS]
    first = list(map(cli_digest.digest, some))
    assert list(map(cli_digest.digest, some)) == first
    assert [line.split()[0] for line in first] == ["0", "2", "2", "2", "2", "2"]
    assert [line.split(maxsplit=3)[3] for line in first] == [" ".join(argv) for argv in some]
