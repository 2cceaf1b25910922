"""The extract outputs of three committed pieces are byte-equal to the
digests in ``fixtures/extract/digests.json``.

The pieces cover what the synthetic corpus does not: a meter map with
four entries (one starting between two onsets), a score with no ``#key``
line (so the key is estimated), ``-`` spellings derived from the key, an
onset whose notes are all deleted in the match, and notes listed out of
onset order. Extraction draws no random numbers, so unlike
``test_golden.py`` this test holds under every numpy version and never
skips. The targets sum floats left to right, not with ``sum()``, which
Python 3.12 made compensated, so the bytes hold on Python 3.10 to 3.13.

To take the table again after a deliberate output change, run
``PYTHONPATH=src python tests/test_extract_fixtures.py`` and commit the
file it writes.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from tonaltension import cli

FIXTURES = Path(__file__).parent / "fixtures" / "extract"
DIGESTS = FIXTURES / "digests.json"
PIECES = ("meters", "unkeyed", "dashes")

# case name -> (extra flags, with --match)
CASES = {
    "default": ([], True),
    "groups-P": (["--groups", "P"], True),
    "groups-T": (["--groups", "T"], True),
    "onset-only-window-2": (["--onset-only", "--window", "2"], True),
    "no-match": ([], False),
}


def _scores(pieces):
    return [str(FIXTURES / f"{p}.score.tsv") for p in pieces]


def _matches(pieces):
    return [str(FIXTURES / f"{p}.match.tsv") for p in pieces]


def _digests(out: Path, case: str) -> dict[str, str]:
    return {f"{case}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir()) if path.suffix != ".json"}


def run_case(case: str, tmp: Path) -> dict[str, str]:
    """Digests of every non-manifest file ``case`` writes: one extract call
    per piece, or one call on all three for the case ``multi-score``."""
    out = tmp / case
    if case == "multi-score":
        calls = [_scores(PIECES) + ["--match"] + _matches(PIECES)]
    else:
        flags, with_match = CASES[case]
        calls = [_scores([p]) + (["--match"] + _matches([p]) if with_match else []) + flags
                 for p in PIECES]
    for argv in calls:
        assert cli.main(["extract", *argv, "--out-dir", str(out)]) == 0
    return _digests(out, case)


ALL_CASES = tuple(CASES) + ("multi-score",)


@pytest.mark.parametrize("case", ALL_CASES)
def test_extract_outputs_match_committed_digests(case, tmp_path):
    want = {k: v for k, v in json.loads(DIGESTS.read_text()).items()
            if k.startswith(f"{case}/")}
    assert want, f"no committed digests for case {case}"
    assert run_case(case, tmp_path) == want


if __name__ == "__main__":
    table = {"_about": json.loads(DIGESTS.read_text())["_about"]}
    with tempfile.TemporaryDirectory() as tmp:
        for case in ALL_CASES:
            table.update(run_case(case, Path(tmp)))
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(table) - 1} digests to {DIGESTS}", file=sys.stderr)
