"""The README's ``## Library`` example runs as written, on a synthetic piece
named as the example names it."""

import re
from pathlib import Path

from tonaltension import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch):
    assert cli.main(["synth", "--pieces", "1", "--length", "12", "--seed", "3",
                     "--out-dir", str(tmp_path)]) == 0
    [score] = tmp_path.glob("*.score.tsv")
    [match] = tmp_path.glob("*.match.tsv")
    score.rename(tmp_path / "piece.score.tsv")
    match.rename(tmp_path / "piece.match.tsv")
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(library_block(), scope)
    assert len(scope["track"]) == len(scope["frames"]) > 0
    assert len(scope["rows"]) > 0
