"""The synth and extract outputs of one small seeded run are byte-equal to
digests committed in ``golden_digests.json``.

Every other output test compares two runs of the same code; this one pins
the bytes themselves, so a change to the random stream ``synth`` draws
or to the arithmetic of extraction fails here. The digests hold for the
numpy version they were taken under (Generator streams are not promised
across numpy releases), so the test skips under any other. The synth and
extract outputs do not depend on the BLAS or the CPU type (they use no
BLAS product), so there is no such skip. They do depend on the summation
kind of Python's ``sum()``, which the targets use, so the file keeps one
table per kind, as ``test_extract_fixtures.py`` does.

The compensated table was taken by writing the synth corpus under
Python 3.11 with that numpy, then running the same extract calls on it
under Python 3.12 and 3.13 (extract calls no numpy function); both gave
the same bytes.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from tonaltension import cli

from conftest import SUM_KIND

GOLDEN = json.loads((Path(__file__).parent / "golden_digests.json").read_text())


def test_synth_and_extract_outputs_match_golden_digests(tmp_path):
    if np.__version__ != GOLDEN["numpy"]:
        pytest.skip(f"digests taken under numpy {GOLDEN['numpy']}, "
                    f"running numpy {np.__version__}")
    got = {}
    for rule in ("t_cd-slow", "none"):
        out = tmp_path / rule
        assert cli.main(["synth", "--pieces", "3", "--length", "40", "--seed", "7",
                         "--rule", rule, "--out-dir", str(out)]) == 0
        for i in range(3):
            stem = out / f"piece{i:03d}"
            assert cli.main(["extract", f"{stem}.score.tsv", "--match", f"{stem}.match.tsv",
                             "--groups", "P,M,T", "--out-dir", str(out)]) == 0
        for path in sorted(out.iterdir()):
            if path.suffix != ".json":
                got[f"{rule}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == GOLDEN["sha256"][SUM_KIND]
