"""Mutated input files either load or fail with one clean error.

Hypothesis edits the text of a model file, of a features or targets CSV,
and of a score or match file: characters replaced, deleted or inserted (digits, signs, separators,
letters of nan/inf, newlines), lines deleted or duplicated. Loading the
result must succeed or raise ValueError; a command on it must exit 0, or
exit 1 printing exactly one ``error:`` line and no traceback. When the
file does not load, that line names it.
"""

import contextlib
import io
import shutil

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tonaltension import cli
from tonaltension.features import CANONICAL_ORDER
from tonaltension.model import dumps_model, init_model, loads_model
from tonaltension.symbolic import parse_performance, parse_score

ALPHABET = "0123456789.-+eE, naif#x\n"


@st.composite
def mutated(draw, text):
    for _ in range(draw(st.integers(1, 3))):
        lines = text.splitlines(keepends=True)
        op = draw(st.sampled_from(["replace", "delete", "insert", "drop_line", "dup_line"]))
        if op in ("drop_line", "dup_line"):
            k = draw(st.integers(0, len(lines) - 1))
            lines[k:k + 1] = [] if op == "drop_line" else [lines[k], lines[k]]
            text = "".join(lines)
            continue
        pos = draw(st.integers(0, max(len(text) - 1, 0)))
        width = draw(st.integers(1, 4))
        new = draw(st.text(ALPHABET, min_size=1, max_size=4))
        if op == "replace":
            text = text[:pos] + new + text[pos + width:]
        elif op == "delete":
            text = text[:pos] + text[pos + width:]
        else:
            text = text[:pos] + new + text[pos:]
    return text


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
@given(data=st.data())
def test_mutated_model_file(corpus, data):
    text = data.draw(mutated((corpus / "model.txt").read_text()))
    try:
        loads_model(text)
        loaded = True
    except ValueError:
        loaded = False
    path = corpus / "mutated-model.txt"
    path.write_text(text)
    rc, err = run_main(["sensitivity", "--model", path, "--corpus", corpus / "feats",
                        "--radius", 1, "--out-dir", corpus / "sens"])
    assert_clean_exit(rc, err, must_fail=not loaded, path=path)


@MUTATION_SETTINGS
@given(kind=st.sampled_from(["features", "targets"]), data=st.data())
def test_mutated_corpus_csv(corpus, kind, data):
    feats = corpus / "mutated-feats"
    shutil.rmtree(feats, ignore_errors=True)
    shutil.copytree(corpus / "feats", feats)
    target = feats / f"piece000.{kind}.csv"
    target.write_text(data.draw(mutated(target.read_text())))
    try:
        cli.load_corpus(str(feats))
        loaded = True
    except ValueError:
        loaded = False
    rc, err = run_main(["train", "--corpus", feats, "--target", "bpr", "--seed", 1,
                        "--epochs", 1, "--out-dir", corpus / "trained"])
    assert_clean_exit(rc, err, must_fail=not loaded, path=target)


@MUTATION_SETTINGS
@given(kind=st.sampled_from(["score", "match"]), data=st.data())
def test_mutated_score_or_match(corpus, kind, data):
    paths = {k: corpus / "corpus" / f"piece000.{k}.tsv" for k in ("score", "match")}
    target = corpus / f"mutated.{kind}.tsv"
    target.write_text(data.draw(mutated(paths[kind].read_text())))
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
