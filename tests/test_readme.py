"""The README's examples run as written: the ``## Library`` block on a
synthetic piece named as the example names it, and each command of the
``## Command line`` block through ``cli.main``, at a reduced size."""

import glob
import re
import shlex
from pathlib import Path

from tonaltension import cli

README = Path(__file__).resolve().parent.parent / "README.md"

# the corpus and training sizes of the command-line block, reduced
SMALLER = {"--pieces": "5", "--length": "24", "--epochs": "1"}


def code_block(section: str, language: str) -> str:
    text = README.read_text().split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", text, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch):
    assert cli.main(["synth", "--pieces", "1", "--length", "12", "--seed", "3",
                     "--out-dir", str(tmp_path)]) == 0
    [score] = tmp_path.glob("*.score.tsv")
    [match] = tmp_path.glob("*.match.tsv")
    score.rename(tmp_path / "piece.score.tsv")
    match.rename(tmp_path / "piece.match.tsv")
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(code_block("Library", "python"), scope)
    assert len(scope["track"]) == len(scope["frames"]) > 0
    assert len(scope["rows"]) > 0


def test_command_line_example_runs(tmp_path, monkeypatch):
    """Each command runs once, its ``*`` patterns expanded and sorted as
    the shell does."""
    monkeypatch.chdir(tmp_path)
    block = code_block("Command line", "sh").replace("\\\n", " ")
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv for argv in commands if argv]
    assert [argv[0] for argv in commands] == ["tonaltension"] * len(commands)
    assert {argv[1] for argv in commands} == {"synth", "extract", "mi", "eval", "train",
                                              "sensitivity"}
    for _, *argv in commands:
        argv = [SMALLER.get(prev, arg) for prev, arg in zip([None] + argv, argv)]
        argv = [p for arg in argv for p in (sorted(glob.glob(arg)) if "*" in arg else [arg])]
        assert cli.main(argv) == 0, argv
    assert len(list(Path("features").glob("*.features.csv"))) == int(SMALLER["--pieces"])
