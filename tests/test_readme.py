"""README's examples run as written and print what they say they print."""

import contextlib
import io as stdio
import re
import shlex
from pathlib import Path

from graphfair import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_block(after: str, lang: str) -> list[str]:
    """Lines of the first ```lang block that follows the line `after`."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(f"```{lang}", lines.index(after))
    end = lines.index("```", start + 1)
    return lines[start + 1 : end]


def test_library_use_prints_its_comments():
    block = fenced_block("## Library use", "python")
    claimed = [m.group(1) for line in block if (m := re.match(r"print\(.*\)\s+# (.+)$", line))]
    assert claimed == ["2", "3", "1 True"]
    out = stdio.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile("\n".join(block), str(README), "exec"), {})
    assert out.getvalue().splitlines() == claimed


def test_round_trip_transcript_replays(tmp_path, monkeypatch, capsys):
    block = fenced_block("A full round trip:", "sh")
    steps: list[tuple[list[str], list[str]]] = []
    for line in block:
        if line.startswith("$ "):
            argv = shlex.split(line[2:])
            assert argv[0] == "graphfair"
            steps.append((argv[1:], []))
        else:
            steps[-1][1].append(line)
    assert [argv[0] for argv, _ in steps] == ["gen", "recognize", "mms", "allocate", "verify"]
    monkeypatch.chdir(tmp_path)
    for argv, expected in steps:
        assert cli.main(argv) == 0, argv
        captured = capsys.readouterr()
        # allocate writes its file and reports the certificate on stderr
        got = captured.out.splitlines() + captured.err.splitlines()
        assert got == expected, argv
