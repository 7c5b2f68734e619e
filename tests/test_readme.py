"""The command-line examples in README.md, run in process.

Every ``$ arakelov-rr ...`` line in a fenced block is one example; the
lines after it, up to the next command or the end of the block, are its
expected stdout, byte for byte.  A line holding only ``...`` stands for
any run of lines.  Examples that write files (``--out``, ``--svg``) run in
a temporary directory.
"""

import shlex
from pathlib import Path

import pytest

from arakelov_rr import cli

README = Path(__file__).resolve().parent.parent / "README.md"
PROMPT = "$ arakelov-rr "


def readme_examples():
    """(argv, expected stdout lines) for each example, in README order."""
    examples = []
    in_block = False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_block = not in_block
        elif in_block and line.startswith(PROMPT):
            examples.append((shlex.split(line[len(PROMPT):]), []))
        elif in_block and examples:
            examples[-1][1].append(line)
    for _, expected in examples:
        while expected and not expected[-1]:
            expected.pop()
    return examples


def matches(expected, actual):
    """Whether actual equals expected, each ``...`` line matching any run."""
    if not expected:
        return not actual
    if expected[0] == "...":
        return any(matches(expected[1:], actual[i:]) for i in range(len(actual) + 1))
    return bool(actual) and actual[0] == expected[0] and matches(expected[1:], actual[1:])


def run(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == cli.EXIT_OK
    assert err == ""
    return out


def test_readme_has_every_example():
    assert len(readme_examples()) == 12


@pytest.mark.parametrize(
    "argv, expected",
    [pytest.param(argv, expected, id=" ".join(argv)) for argv, expected in readme_examples()],
)
def test_readme_example(argv, expected, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    out = run(argv, capsys)
    if "..." in expected:
        assert matches(expected, out.splitlines()), out
    else:
        assert out == "".join(line + "\n" for line in expected)
    if "--svg" in argv:
        svg = (tmp_path / argv[argv.index("--svg") + 1]).read_text()
        assert svg.startswith("<svg")
    if "--out" in argv:
        i = argv.index("--out")
        written = (tmp_path / argv[i + 1]).read_text()
        assert written == run(argv[:i] + argv[i + 2:], capsys)
