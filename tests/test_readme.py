"""The README's examples stay runnable: its Python block runs, and every `uradon` line of its
shell blocks parses and reads only files that an earlier line writes."""

import re
import shlex
from pathlib import Path

from uradon.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def shell_commands():
    """Each command of the shell blocks as argv, its continuation lines joined and its
    comment dropped."""
    text = "\n".join(blocks("sh")).replace("\\\n", " ")
    return [argv for line in text.splitlines() if (argv := shlex.split(line, comments=True))]


def test_library_example_runs(capsys):
    example, = blocks("python")
    exec(compile(example, "README.md", "exec"), {})
    printed = capsys.readouterr().out
    # every metric prints as a plain Python number
    assert "'flagged_pixels': 0," in printed and "np." not in printed


def test_cli_lines_parse():
    lines = [argv for argv in shell_commands() if argv[0] == "uradon"]
    assert {argv[1] for argv in lines} == {"phantom", "radon", "fst-check", "invert",
                                           "holonomy", "defect", "hybrid"}
    for argv in lines:
        build_parser().parse_args(argv[1:])   # a refusal exits


def test_cli_block_writes_every_file_it_reads():
    written = set()
    for argv in shell_commands():
        if argv[0] == "uradon":
            args = vars(build_parser().parse_args(argv[1:]))
            for flag in ("scene", "image", "sinogram", "reference"):
                assert args.get(flag) in written | {None}, (flag, argv)
            written.add(args.get("out"))
        elif ">" in argv:
            written.add(argv[argv.index(">") + 1])
