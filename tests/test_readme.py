"""The README's CLI block: every command parses, and every file it reads was
written by an earlier line.  Nothing is run; the block takes tens of seconds."""

import re
import shlex
from pathlib import Path

from rainbowconn.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def cli_block() -> list[str]:
    """The lines of the first ``sh`` block under the README's CLI heading."""
    text = README.read_text()
    section = text[text.index("\n## CLI\n"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S)
    return [line for line in block.group(1).splitlines() if line.strip()]


def test_cli_block_parses_and_reads_only_written_files():
    parse = build_parser().parse_args
    written: set[str] = set()
    commands = 0
    for line in cli_block():
        words = shlex.split(line, comments=True)
        if ">" in words:
            written.add(words[words.index(">") + 1])
        if words[0] != "rainbowconn":
            continue
        commands += 1
        try:
            args = parse(words[1:])
        except SystemExit:
            raise AssertionError(f"README line does not parse: {line}") from None
        for read in (getattr(args, "infile", None), getattr(args, "coloring", None)):
            assert read is None or read in written, f"{read} is not written before: {line}"
        written.update(path for path in (getattr(args, "out", None),
                                         getattr(args, "witness_out", None)) if path)
    assert commands
