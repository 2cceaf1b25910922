"""Mutated input files either load or fail with one clean error.

Hypothesis edits the text of a model file, of a features or targets CSV,
and of a score or match file: characters replaced, deleted or inserted (digits, signs, separators,
letters of nan/inf, newlines, a byte that is not UTF-8), lines deleted or duplicated. Loading the
result must succeed or raise ValueError; a command on it must exit 0, or
exit 1 printing exactly one ``error:`` line and no traceback. When the
file does not load, that line names it.
"""

import contextlib
import io
import shutil

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from tonaltension import cli
from tonaltension.features import CANONICAL_ORDER
from tonaltension.model import dumps_model, init_model, loads_model
from tonaltension.symbolic import parse_performance, parse_score

# "\udcff" is written as the byte 0xff (surrogateescape), which is not UTF-8
ALPHABET = "0123456789.-+eE, naif#x\n\udcff"
OPS = ("replace", "delete", "insert", "drop_line", "dup_line")

# one to three edits (operation, position, width, new text); a position
# wraps round the length of the text, or its number of lines
edits = st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 2 ** 16), st.integers(1, 4),
                           st.text(ALPHABET, min_size=1, max_size=4)),
                 min_size=1, max_size=3)
NOT_UTF8 = [("insert", 0, 1, "\udcff")]


def mutated(text: str, edits) -> str:
    for op, pos, width, new in edits:
        if op in ("drop_line", "dup_line"):
            lines = text.splitlines(keepends=True)
            if lines:
                k = pos % len(lines)
                lines[k:k + 1] = [] if op == "drop_line" else [lines[k], lines[k]]
                text = "".join(lines)
            continue
        pos %= max(len(text), 1)
        if op == "replace":
            text = text[:pos] + new + text[pos + width:]
        elif op == "delete":
            text = text[:pos] + text[pos + width:]
        else:
            text = text[:pos] + new + text[pos:]
    return text


def write(path, text: str) -> None:
    path.write_text(text, errors="surrogateescape")


def run_main(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    return rc, err.getvalue()


def assert_clean_exit(rc: int, err: str, must_fail: bool, path) -> None:
    assert "Traceback" not in err
    assert rc in (0, 1) and not (must_fail and rc == 0), (rc, err)
    if rc == 1:
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert not must_fail or path.name in lines[0], err


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    base = tmp_path_factory.mktemp("mutation")
    assert run_main(["synth", "--pieces", 2, "--length", 12, "--seed", 4,
                     "--out-dir", base / "corpus"])[0] == 0
    for stem in ("piece000", "piece001"):
        assert run_main(["extract", base / "corpus" / f"{stem}.score.tsv",
                         "--match", base / "corpus" / f"{stem}.match.tsv",
                         "--out-dir", base / "feats"])[0] == 0
    model = base / "model.txt"
    model.write_text(dumps_model(init_model(len(CANONICAL_ORDER), seed=0), {
        "target": "bpr",
        "feature_names": ",".join(CANONICAL_ORDER),
        "feature_mean": ",".join("0.0" for _ in CANONICAL_ORDER),
        "feature_std": ",".join("1.0" for _ in CANONICAL_ORDER)}))
    return base


MUTATION_SETTINGS = settings(max_examples=60, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])


@MUTATION_SETTINGS
@given(edits=edits)
@example(edits=NOT_UTF8)
def test_mutated_model_file(corpus, edits):
    path = corpus / "mutated-model.txt"
    write(path, mutated((corpus / "model.txt").read_text(), edits))
    try:
        loads_model(path.read_text())
        loaded = True
    except ValueError:
        loaded = False
    rc, err = run_main(["sensitivity", "--model", path, "--corpus", corpus / "feats",
                        "--radius", 1, "--out-dir", corpus / "sens"])
    assert_clean_exit(rc, err, must_fail=not loaded, path=path)


@MUTATION_SETTINGS
@given(kind=st.sampled_from(["features", "targets"]), edits=edits)
@example(kind="features", edits=NOT_UTF8)
@example(kind="targets", edits=NOT_UTF8)
def test_mutated_corpus_csv(corpus, kind, edits):
    feats = corpus / "mutated-feats"
    shutil.rmtree(feats, ignore_errors=True)
    shutil.copytree(corpus / "feats", feats)
    target = feats / f"piece000.{kind}.csv"
    write(target, mutated(target.read_text(), edits))
    try:
        cli.load_corpus(str(feats))
        loaded = True
    except ValueError:
        loaded = False
    rc, err = run_main(["train", "--corpus", feats, "--target", "bpr", "--seed", 1,
                        "--epochs", 1, "--out-dir", corpus / "trained"])
    assert_clean_exit(rc, err, must_fail=not loaded, path=target)


@MUTATION_SETTINGS
@given(kind=st.sampled_from(["score", "match"]), edits=edits)
@example(kind="score", edits=NOT_UTF8)
@example(kind="match", edits=NOT_UTF8)
def test_mutated_score_or_match(corpus, kind, edits):
    paths = {k: corpus / "corpus" / f"piece000.{k}.tsv" for k in ("score", "match")}
    target = corpus / f"mutated.{kind}.tsv"
    write(target, mutated(paths[kind].read_text(), edits))
    paths[kind] = target
    # the file that fails to load: the score, or the match file read against it
    try:
        failed = paths["score"]
        score = parse_score(failed.read_text())
        failed = paths["match"]
        parse_performance(failed.read_text(), score)
        failed = None
    except ValueError:
        pass
    rc, err = run_main(["extract", paths["score"], "--match", paths["match"],
                        "--out-dir", corpus / "extracted"])
    assert_clean_exit(rc, err, must_fail=failed is not None, path=failed)
