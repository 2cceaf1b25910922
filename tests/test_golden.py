"""The synth and extract outputs of one small seeded run are byte-equal to
digests committed in ``golden_digests.json``.

Every other output test compares two runs of the same code; this one pins
the bytes themselves, so a change to the random stream ``synth`` draws
or to the arithmetic of extraction fails here. The digests hold for the
numpy version they were taken under (Generator streams are not promised
across numpy releases), so the test skips under any other. The synth and
extract outputs do not depend on the BLAS or the CPU type (they use no
BLAS product), so there is no such skip. Nor do they depend on the
Python version: the targets sum floats left to right, not with
``sum()``, which Python 3.12 made compensated. On a corpus written
under Python 3.11, the extract calls gave the table's bytes under
Python 3.10 to 3.13 (extract calls no numpy function, so it ran there
without this numpy).

The model side (``mi``, ``eval``, ``train`` and ``sensitivity`` of one
small seeded chain) is pinned too. Its BLAS products change bytes with
the OpenBLAS core type, so the chain runs in a subprocess with the core
forced to the recorded one (Haswell), which any x86-64 CPU with AVX2
runs; numpy's AVX-512 loops give the same bytes as its AVX2 ones there.
The test skips on other CPUs and under other numpy, scipy or BLAS
versions.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tonaltension import cli

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
    assert got == GOLDEN["sha256"]


# the chain of GOLDEN["model"], run in a fresh interpreter; prints the
# OpenBLAS core name (None when it cannot be read) and the digests
MODEL_CHAIN = """if True:
    import ctypes, glob, hashlib, json, os, sys
    from pathlib import Path

    import numpy as np

    from tonaltension import cli

    core = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    if len(libs) == 1:  # the library numpy loaded: dlopen hands back the same one
        corename = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes = []
            corename.restype = ctypes.c_char_p
            core = corename().decode()
    out = Path(sys.argv[1])
    corpus, feats, results = out / "corpus", out / "features", out / "results"
    stems = [corpus / f"piece{i:03d}" for i in range(6)]
    for argv in (
            ["synth", "--pieces", "6", "--length", "40", "--seed", "7",
             "--out-dir", str(corpus)],
            ["extract", *(f"{s}.score.tsv" for s in stems),
             "--match", *(f"{s}.match.tsv" for s in stems), "--out-dir", str(feats)],
            ["mi", "--corpus", str(feats), "--fs-seed", "7", "--out-dir", str(results)],
            ["eval", "--corpus", str(feats), "--targets", "bpr,vel", "--folds", "3",
             "--epochs", "4", "--include-fs", "--seed", "7", "--out-dir", str(results)],
            ["train", "--corpus", str(feats), "--target", "bpr", "--epochs", "4",
             "--seed", "7", "--out-dir", str(results)],
            ["sensitivity", "--model", str(results / "model.txt"), "--corpus", str(feats),
             "--radius", "2", "--out-dir", str(results)]):
        if cli.main(argv) != 0:
            sys.exit(f"{argv[0]} failed")
    print(json.dumps({"core": core, "sha256": {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(results.iterdir()) if p.suffix != ".json"}}))
"""


def model_key_mismatch() -> str | None:
    """Why the model-side digests cannot hold here, or None."""
    import scipy

    want = GOLDEN["model"]
    if np.__version__ != GOLDEN["numpy"]:
        return f"model digests taken under numpy {GOLDEN['numpy']}, running {np.__version__}"
    if scipy.__version__ != GOLDEN["scipy"]:
        return f"model digests taken under scipy {GOLDEN['scipy']}, running {scipy.__version__}"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
    if blas != want["blas"]:
        return f"model digests taken under BLAS {want['blas']}, running {blas}"
    from numpy._core._multiarray_umath import __cpu_features__ as cpu

    if platform.machine().lower() not in ("x86_64", "amd64") or not (
            cpu.get("AVX2") and cpu.get("FMA3")):
        return f"OpenBLAS core {want['openblas_core']} needs an x86-64 CPU with AVX2 and FMA3"
    return None


def test_model_outputs_match_golden_digests(tmp_path):
    reason = model_key_mismatch()
    if reason:
        pytest.skip(reason)
    want = GOLDEN["model"]
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, OPENBLAS_CORETYPE=want["openblas_core"],
               PYTHONPATH=os.pathsep.join(filter(None, [str(src),
                                                         os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", MODEL_CHAIN, str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    if report["core"] is None:
        pytest.skip("cannot read the OpenBLAS core name through numpy.libs' "
                    "scipy_openblas_get_corename64_")
    assert report["core"] == want["openblas_core"]
    assert report["sha256"] == want["sha256"]
