import argparse
import itertools
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from tonaltension import cli
from tonaltension.model import dumps_model, init_model, load_model
from tonaltension.symbolic import parse_score
from tonaltension.targets import TARGET_NAMES


def run_cli(*args):
    return cli.main([str(a) for a in args])


def make_corpus(tmp_path, pieces=5, length=30, seed=11):
    corpus = tmp_path / "corpus"
    feats = tmp_path / "feats"
    feats.mkdir()
    assert run_cli("synth", "--pieces", pieces, "--length", length,
                   "--seed", seed, "--out-dir", corpus) == 0
    stems = sorted(f[:-len(".score.tsv")] for f in os.listdir(corpus)
                   if f.endswith(".score.tsv"))
    for stem in stems:
        assert run_cli("extract", corpus / f"{stem}.score.tsv",
                       "--match", corpus / f"{stem}.match.tsv",
                       "--out-dir", feats) == 0
    return corpus, feats


class TestExtract:
    def test_score_only_writes_features_only(self, tmp_path):
        corpus, _ = make_corpus(tmp_path, pieces=1, length=10)
        out = tmp_path / "solo"
        assert run_cli("extract", corpus / "piece000.score.tsv", "--out-dir", out) == 0
        names = os.listdir(out)
        assert "piece000.features.csv" in names
        assert "piece000.targets.csv" not in names

    def test_score_and_match_write_both(self, tmp_path):
        _, feats = make_corpus(tmp_path, pieces=1, length=10)
        names = os.listdir(feats)
        assert "piece000.features.csv" in names
        assert "piece000.targets.csv" in names

    def test_rows_share_frame_alignment(self, tmp_path):
        _, feats = make_corpus(tmp_path, pieces=1, length=12)
        _, fcols, frows = cli.read_csv(str(feats / "piece000.features.csv"))
        _, tcols, trows = cli.read_csv(str(feats / "piece000.targets.csv"))
        assert fcols[:2] == tcols[:2] == ["frame", "beat"]
        assert [r[0] for r in frows] == [r[0] for r in trows]
        assert tcols[2:] == list(TARGET_NAMES)

    def test_groups_flag_limits_columns(self, tmp_path):
        corpus, _ = make_corpus(tmp_path, pieces=1, length=8)
        out = tmp_path / "ponly"
        assert run_cli("extract", corpus / "piece000.score.tsv",
                       "--groups", "P", "--out-dir", out) == 0
        _, cols, _ = cli.read_csv(str(out / "piece000.features.csv"))
        assert cols == ["frame", "beat", "pitch_h", "pitch_l", "pitch_m",
                        "vic1", "vic2", "vic3"]

    def test_tension_only_extract_matches_interface(self, tmp_path):
        # groups=T yields the bare tension table: frame,beat,t_cd,t_cm,t_ts
        corpus, _ = make_corpus(tmp_path, pieces=1, length=8)
        out = tmp_path / "tension"
        assert run_cli("extract", corpus / "piece000.score.tsv",
                       "--groups", "T", "--out-dir", out) == 0
        meta, cols, rows = cli.read_csv(str(out / "piece000.features.csv"))
        assert cols == ["frame", "beat", "t_cd", "t_cm", "t_ts"]
        assert "spiral.chord_weights" in meta
        assert "window.width_beats" in meta
        assert float(rows[0][3]) == 0.0  # first-frame momentum

    def test_spiral_config_override(self, tmp_path):
        corpus, _ = make_corpus(tmp_path, pieces=1, length=8)
        cfg = tmp_path / "spiral.cfg"
        cfg.write_text("spiral.r=2.0\nspiral.h=0.73029674334022143\n"
                       "spiral.chord_weights=0.536,0.274,0.19\n"
                       "spiral.key_weights=0.5165165165165166,"
                       "0.3153153153153153,0.16816816816816818\n")
        a, b = tmp_path / "default", tmp_path / "scaled"
        for out, extra in ((a, []), (b, ["--spiral-config", str(cfg)])):
            assert run_cli("extract", corpus / "piece000.score.tsv",
                           "--groups", "T", "--out-dir", out, *extra) == 0
        meta_a, _, rows_a = cli.read_csv(str(a / "piece000.features.csv"))
        meta_b, _, rows_b = cli.read_csv(str(b / "piece000.features.csv"))
        assert meta_a["spiral.r"] == "1.0" and meta_b["spiral.r"] == "2.0"
        # the override scales r and h jointly, so features are unchanged
        for ra, rb in zip(rows_a, rows_b):
            for va, vb in zip(ra[2:], rb[2:]):
                assert float(va) == pytest.approx(float(vb), abs=1e-9)

    def test_bad_path_fails_with_stderr(self, tmp_path, capsys):
        assert run_cli("extract", tmp_path / "missing.score.tsv",
                       "--out-dir", tmp_path) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,problem", [
        ("spiral.chord_weights", "0.5,0.3", "expected 3 weights"),
        ("spiral.h", "nan", "rise per fifth must be positive"),
        ("spiral.key_weights", None, "missing ['spiral.key_weights']"),
    ], ids=["weights", "nan-h", "missing-key"])
    def test_bad_spiral_config_names_the_file(self, tmp_path, capsys, key, value, problem):
        corpus, _ = make_corpus(tmp_path, pieces=1, length=8)
        items = {"spiral.r": "1.0", "spiral.h": "0.5",
                 "spiral.chord_weights": "0.5,0.3,0.2",
                 "spiral.key_weights": "0.5,0.3,0.2", key: value}
        cfg = tmp_path / "spiral.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in items.items() if v is not None))
        capsys.readouterr()
        assert run_cli("extract", corpus / "piece000.score.tsv", "--spiral-config", cfg,
                       "--out-dir", tmp_path / "out") == 1
        line = single_error_line(capsys)
        assert line.startswith(f"error: {cfg}: ") and problem in line
        assert not (tmp_path / "out").exists()

    def test_headers_carry_manifest_and_spiral_config(self, tmp_path):
        _, feats = make_corpus(tmp_path, pieces=1, length=8)
        meta, _, _ = cli.read_csv(str(feats / "piece000.features.csv"))
        assert "manifest" in meta
        assert "spiral.h" in meta
        assert "window.width_beats" in meta

    def test_exit_codes_via_subprocess(self, tmp_path):
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(repo, "src"))
        good = subprocess.run(
            [sys.executable, "-m", "tonaltension.cli", "--version"],
            capture_output=True, text=True, env=env)
        assert good.returncode == 0
        bad = subprocess.run(
            [sys.executable, "-m", "tonaltension.cli", "extract", "nope.score.tsv"],
            capture_output=True, text=True, env=env)
        assert bad.returncode == 1
        assert "error:" in bad.stderr
        assert bad.stdout == ""


class TestSynth:
    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert run_cli("synth", "--pieces", 3, "--length", 12,
                           "--seed", 9, "--out-dir", d) == 0
        for name in sorted(os.listdir(a)):
            if name.endswith(".json"):
                continue
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_zero_pieces_rejected(self, tmp_path, capsys):
        assert run_cli("synth", "--pieces", 0, "--length", 12,
                       "--seed", 1, "--out-dir", tmp_path) == 1
        assert "pieces" in capsys.readouterr().err

    def test_scores_parse_back(self, tmp_path):
        corpus, _ = make_corpus(tmp_path, pieces=2, length=10)
        score = parse_score((corpus / "piece001.score.tsv").read_text())
        assert len(score.notes) >= 10

    def test_tempo_rule_couples_bpr_to_cloud_diameter(self, tmp_path):
        _, feats = make_corpus(tmp_path, pieces=4, length=60, seed=21)
        t_cd_all, bpr_all = [], []
        stems = sorted(n[:-len(".features.csv")] for n in os.listdir(feats)
                       if n.endswith(".features.csv"))
        for stem in stems:
            _, fcols, frows = cli.read_csv(str(feats / f"{stem}.features.csv"))
            _, tcols, trows = cli.read_csv(str(feats / f"{stem}.targets.csv"))
            t_cd_all += [float(r[fcols.index("t_cd")]) for r in frows]
            bpr_all += [float(r[tcols.index("bpr")]) for r in trows]
        r = np.corrcoef(t_cd_all, bpr_all)[0, 1]
        assert r > 0.5


class TestMi:
    def test_writes_raw_and_normalized(self, tmp_path):
        _, feats = make_corpus(tmp_path)
        out = tmp_path / "mi"
        assert run_cli("mi", "--corpus", feats, "--fs-seed", 2, "--out-dir", out) == 0
        _, cols, rows = cli.read_csv(str(out / "mi_raw.csv"))
        assert cols == ["feature"] + list(TARGET_NAMES)
        assert len(rows) == 13
        _, _, nrows = cli.read_csv(str(out / "mi_normalized.csv"))
        for j in range(1, 5):
            col = [float(r[j]) for r in nrows]
            assert max(col) == pytest.approx(1.0)
            assert min(col) >= 0.0


class TestTrain:
    def test_zero_learning_rate_keeps_init(self, tmp_path):
        _, feats = make_corpus(tmp_path, pieces=3, length=12)
        out = tmp_path / "model"
        assert run_cli("train", "--corpus", feats, "--target", "bpr",
                       "--seed", 13, "--epochs", 3, "--lr", 0.0,
                       "--out-dir", out) == 0
        params, meta = load_model(out / "model.txt")
        assert np.array_equal(params.flatten(), init_model(13, seed=13).flatten())
        assert meta["target"] == "bpr"

    def test_model_reloads_with_standardization(self, tmp_path):
        _, feats = make_corpus(tmp_path, pieces=3, length=12)
        out = tmp_path / "model"
        assert run_cli("train", "--corpus", feats, "--target", "d_vel",
                       "--seed", 5, "--epochs", 4, "--out-dir", out) == 0
        params, meta = load_model(out / "model.txt")
        names = meta["feature_names"].split(",")
        assert len(names) == params.input_dim == 13
        mean = [float(v) for v in meta["feature_mean"].split(",")]
        assert len(mean) == 13


class TestEval:
    def test_results_table_shape(self, tmp_path):
        _, feats = make_corpus(tmp_path, pieces=5, length=16)
        out = tmp_path / "eval"
        assert run_cli("eval", "--corpus", feats, "--targets", "vel",
                       "--seed", 3, "--epochs", 2, "--folds", 5,
                       "--out-dir", out) == 0
        _, cols, rows = cli.read_csv(str(out / "results.csv"))
        assert cols == ["target", "feature_set", "mean_r2", "mean_r2_plus_T",
                        "p_value", "cohens_d"]
        assert [r[1] for r in rows] == ["empty", "P", "M", "PM"]
        assert all(r[0] == "vel" for r in rows)
        assert rows[0][4] == ""  # no significance test against the empty set

    def test_include_fs_appends_row(self, tmp_path):
        _, feats = make_corpus(tmp_path, pieces=5, length=16)
        out = tmp_path / "evalfs"
        assert run_cli("eval", "--corpus", feats, "--targets", "vel",
                       "--seed", 3, "--epochs", 2, "--folds", 5,
                       "--include-fs", "--fs-count", 4, "--out-dir", out) == 0
        _, _, rows = cli.read_csv(str(out / "results.csv"))
        assert rows[-1][1] == "FS"


class TestSensitivity:
    def test_zero_output_model_gives_zero_matrix(self, tmp_path):
        _, feats = make_corpus(tmp_path, pieces=2, length=14)
        params = init_model(13, seed=0)
        params.tensors()["out.v"][:] = 0.0
        model_path = tmp_path / "zero.txt"
        from tonaltension.features import CANONICAL_ORDER
        model_path.write_text(dumps_model(params, {
            "target": "bpr",
            "feature_names": ",".join(CANONICAL_ORDER),
            "feature_mean": ",".join("0.0" for _ in CANONICAL_ORDER),
            "feature_std": ",".join("1.0" for _ in CANONICAL_ORDER)}))
        out = tmp_path / "sens"
        assert run_cli("sensitivity", "--model", model_path, "--corpus", feats,
                       "--radius", 3, "--out-dir", out) == 0
        _, cols, rows = cli.read_csv(str(out / "sensitivity.csv"))
        assert cols == ["feature", "offset", "value"]
        assert len(rows) == 13 * 7
        assert all(float(r[2]) == 0.0 for r in rows)

    def test_offsets_span_radius(self, tmp_path):
        _, feats = make_corpus(tmp_path, pieces=2, length=20)
        out_model = tmp_path / "m"
        assert run_cli("train", "--corpus", feats, "--target", "bpr",
                       "--seed", 1, "--epochs", 2, "--out-dir", out_model) == 0
        out = tmp_path / "sens2"
        assert run_cli("sensitivity", "--model", out_model / "model.txt",
                       "--corpus", feats, "--radius", 2, "--out-dir", out) == 0
        _, _, rows = cli.read_csv(str(out / "sensitivity.csv"))
        offsets = sorted({int(r[1]) for r in rows})
        assert offsets == [-2, -1, 0, 1, 2]

    def test_radius_leaving_no_interior_frame_fails(self, tmp_path, capsys):
        # a mean over zero positions is undefined, so no matrix is written
        _, feats = make_corpus(tmp_path, pieces=3, length=10)
        longest = max(len(cli.read_csv(str(feats / name))[2])
                      for name in os.listdir(feats) if name.endswith(".features.csv"))
        capsys.readouterr()
        out = tmp_path / "sens"
        # a huge radius fails before any (2 * radius + 1)-wide offset table exists
        for radius in ((longest + 1) // 2, 10 ** 15):
            assert run_cli("sensitivity", "--model", canonical_model(tmp_path / "m.txt"),
                           "--corpus", feats, "--radius", radius, "--out-dir", out) == 1
            line = single_error_line(capsys)
            assert line.startswith("error: --radius must be below half")
            assert f" {longest} frames" in line
            assert not out.exists()
        assert run_cli("sensitivity", "--model", canonical_model(tmp_path / "m.txt"),
                       "--corpus", feats, "--radius", (longest - 1) // 2,
                       "--out-dir", out) == 0


def canonical_model(path, seed=0):
    from tonaltension.features import CANONICAL_ORDER
    path.write_text(dumps_model(init_model(len(CANONICAL_ORDER), seed=seed), {
        "target": "bpr",
        "feature_names": ",".join(CANONICAL_ORDER),
        "feature_mean": ",".join("0.0" for _ in CANONICAL_ORDER),
        "feature_std": ",".join("1.0" for _ in CANONICAL_ORDER)}))
    return path


def single_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


def poison_cell(csv_path, frame, column, text):
    """Replace one cell of a headered CSV, keyed by frame and column name."""
    lines = csv_path.read_text().splitlines()
    header = next(i for i, ln in enumerate(lines) if ln.startswith("frame,"))
    col = lines[header].split(",").index(column)
    for i in range(header + 1, len(lines)):
        cells = lines[i].split(",")
        if cells[0] == str(frame):
            if text is None:
                del cells[col]
            else:
                cells[col] = text
            lines[i] = ",".join(cells)
            break
    else:
        raise AssertionError(f"no frame {frame} in {csv_path}")
    csv_path.write_text("\n".join(lines) + "\n")


class TestBadInputs:
    def test_each_missing_tensor_fails_cleanly(self, tmp_path, capsys):
        _, feats = make_corpus(tmp_path, pieces=1, length=12)
        good = canonical_model(tmp_path / "good.txt").read_text().splitlines()
        tensor_lines = [k for k, ln in enumerate(good) if ln.startswith("tensor ")]
        assert len(tensor_lines) == 14  # six per direction, out.v, out.bias
        for k in tensor_lines:
            name = good[k].split(" ")[1]
            path = tmp_path / f"no-{name}.txt"
            path.write_text("\n".join(good[:k] + good[k + 1:]) + "\n")
            assert run_cli("sensitivity", "--model", path, "--corpus", feats,
                           "--out-dir", tmp_path / "s") == 1
            line = single_error_line(capsys)
            assert str(path) in line and f"missing tensor {name}" in line

    @pytest.mark.parametrize("command", ["train", "sensitivity"])
    def test_non_finite_feature_cell_fails_at_load(self, tmp_path, capsys, command):
        _, feats = make_corpus(tmp_path, pieces=2, length=12)
        csv_path = feats / "piece001.features.csv"
        poison_cell(csv_path, 3, "t_cd", "nan")
        if command == "train":
            argv = ["train", "--corpus", feats, "--target", "bpr", "--seed", 1,
                    "--epochs", 1]
        else:
            argv = ["sensitivity", "--model", canonical_model(tmp_path / "m.txt"),
                    "--corpus", feats]
        capsys.readouterr()
        assert run_cli(*argv, "--out-dir", tmp_path / "out") == 1
        line = single_error_line(capsys)
        assert str(csv_path) in line and "frame 3" in line and "column t_cd" in line
        assert not (tmp_path / "out").exists()

    def test_ragged_target_row_fails_at_load(self, tmp_path, capsys):
        _, feats = make_corpus(tmp_path, pieces=1, length=12)
        csv_path = feats / "piece000.targets.csv"
        poison_cell(csv_path, 2, "vel", None)
        capsys.readouterr()
        assert run_cli("train", "--corpus", feats, "--target", "bpr", "--seed", 1,
                       "--epochs", 1, "--out-dir", tmp_path / "out") == 1
        line = single_error_line(capsys)
        assert str(csv_path) in line and "frame 2" in line

    @pytest.mark.parametrize("kind,old,new", [
        ("features", "frame,beat,", "frame,bt,"), ("targets", "frame,beat,", "beat,frame,"),
        ("targets", ",bpr", ",tempo"), ("targets", "\n3,", "\n99,")])
    def test_bad_pair_names_the_file_at_fault(self, tmp_path, capsys, kind, old, new):
        _, feats = make_corpus(tmp_path, pieces=1, length=12)
        csv_path = feats / f"piece000.{kind}.csv"
        text = csv_path.read_text()
        assert old in text
        csv_path.write_text(text.replace(old, new, 1))
        capsys.readouterr()
        assert run_cli("train", "--corpus", feats, "--target", "bpr", "--seed", 1,
                       "--epochs", 1, "--out-dir", tmp_path / "out") == 1
        line = single_error_line(capsys)
        other = feats / f"piece000.{'features' if kind == 'targets' else 'targets'}.csv"
        assert str(csv_path) in line
        # only a row misalignment is the fault of both files
        assert (str(other) in line) == (old == "\n3,"), line

    @pytest.mark.parametrize("key,value", [
        ("feature_std", "0.0"), ("feature_std", "-1.0"), ("feature_mean", "nan"),
        ("feature_mean", "x"), ("feature_std", "1.0,1.0")])
    def test_bad_standardization_metadata_fails_at_load(self, tmp_path, capsys, key, value):
        _, feats = make_corpus(tmp_path, pieces=1, length=12)
        path = canonical_model(tmp_path / "m.txt")
        lines = path.read_text().splitlines()
        k = next(i for i, ln in enumerate(lines) if ln.startswith(f"meta {key} "))
        cells = lines[k].split(" ", 2)[2].split(",")
        cells[4:5] = value.split(",")
        lines[k] = f"meta {key} " + ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("sensitivity", "--model", path, "--corpus", feats,
                       "--out-dir", tmp_path / "s") == 1
        line = single_error_line(capsys)
        assert str(path) in line and f"meta {key}" in line

    def test_other_hidden_size_fails_at_load(self, tmp_path, capsys):
        _, feats = make_corpus(tmp_path, pieces=1, length=12)
        # a self-consistent model file, every tensor shaped for 3 hidden units
        H, D = 3, 13
        lines = canonical_model(tmp_path / "m.txt").read_text().splitlines()
        lines = [ln for ln in lines if not ln.startswith(("hidden ", "tensor "))]
        shapes = [(f"{d}.{n}", shape) for d in ("fwd", "bwd")
                  for n, shape in (("W", (4 * H, D)), ("U", (4 * H, H)), ("alpha", (4 * H,)),
                                   ("beta1", (4 * H,)), ("beta2", (4 * H,)),
                                   ("bias", (4 * H,)))]
        shapes += [("out.v", (2 * H,)), ("out.bias", (1,))]
        lines.insert(2, f"hidden {H}")
        lines += [f"tensor {name} {'x'.join(map(str, shape))} "
                  + " ".join(["0.1"] * int(np.prod(shape))) for name, shape in shapes]
        path = tmp_path / "hidden3.txt"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("sensitivity", "--model", path, "--corpus", feats,
                       "--out-dir", tmp_path / "s") == 1
        line = single_error_line(capsys)
        assert str(path) in line and "'hidden'" in line

    @pytest.mark.parametrize("key,value,problem", [
        ("feature_names", "pitch_h,pitch_l", "lists 2 features but input_dim is 13"),
        ("feature_mean", None, "lacks feature standardization metadata"),
    ], ids=["names", "no-mean"])
    def test_bad_model_metadata_names_the_model(self, tmp_path, capsys, key, value,
                                                problem):
        _, feats = make_corpus(tmp_path, pieces=1, length=12)
        path = canonical_model(tmp_path / "m.txt")
        lines = path.read_text().splitlines()
        k = next(i for i, ln in enumerate(lines) if ln.startswith(f"meta {key} "))
        lines[k:k + 1] = [] if value is None else [f"meta {key} {value}"]
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("sensitivity", "--model", path, "--corpus", feats,
                       "--out-dir", tmp_path / "s") == 1
        line = single_error_line(capsys)
        assert line.startswith(f"error: {path}: ") and problem in line

    def test_inconsistent_spelling_names_file_and_line(self, tmp_path, capsys):
        score = tmp_path / "bad.score.tsv"
        score.write_text("#meter 0 4 4 duple\nn1\t0\t1\t60\tC\t0\t4\t0\n"
                         "n2\t1\t1\t61\tC\t0\t4\t0\n")
        assert run_cli("extract", score, "--out-dir", tmp_path / "out") == 1
        line = single_error_line(capsys)
        assert line.startswith(f"error: {score}: line 3: ") and "implies midi 60" in line
        assert not (tmp_path / "out").exists()

    def test_duplicate_note_id_names_file_and_line(self, tmp_path, capsys):
        score = tmp_path / "dup.score.tsv"
        score.write_text("#meter 0 4 4 duple\nn1\t0\t1\t60\tC\t0\t4\t0\n"
                         "n2\t0\t1\t64\tE\t0\t4\t0\nn1\t1\t1\t62\tD\t0\t4\t0\n")
        assert run_cli("extract", score, "--out-dir", tmp_path / "out") == 1
        assert single_error_line(capsys) \
            == f"error: {score}: line 4: duplicate note id 'n1'"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line2,problem", [
        (f"#key {10 ** 400} major", "key tpc"),
        (f"n1\t0\t1\t60\tC\t{12 * 10 ** 400}\t{4 - 10 ** 400}\t0", "alter"),
    ], ids=["huge-key", "huge-alter-offset-by-octave"])
    def test_out_of_range_spelling_names_file_and_line(self, tmp_path, capsys, line2,
                                                       problem):
        score = tmp_path / "huge.score.tsv"
        score.write_text(f"#meter 0 4 4 duple\n{line2}\nn2\t1\t1\t61\t-\t-\t-\t0\n")
        assert run_cli("extract", score, "--out-dir", tmp_path / "out") == 1
        line = single_error_line(capsys)
        assert line.startswith(f"error: {score}: line 2: {problem} ") and "outside" in line
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["", "#key 0 major\n"], ids=["meter", "meter-key"])
    def test_score_without_notes_fails_at_load(self, tmp_path, capsys, key):
        score = tmp_path / "empty.score.tsv"
        score.write_text("#meter 0 4 4 duple\n" + key)
        assert run_cli("extract", score, "--out-dir", tmp_path / "out") == 1
        line = single_error_line(capsys)
        assert str(score) in line and "no notes" in line
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("meter,lineno,problem", [
        ("#meter 0 inf 4 duple\n", 1, "beats per bar"),
        ("#meter 0 nan 4 duple\n", 1, "beats per bar"),
        ("#meter inf 4 4 duple\n", 1, "meter start"),
        ("#meter -1 4 4 duple\n", 1, "meter start"),
        ("#meter 0 4 4 duple\n#meter nan 3 4 triple\n", 2, "meter start"),
    ], ids=["inf-beats", "nan-beats", "inf-start", "negative-start", "nan-second-start"])
    def test_bad_meter_names_file_and_line(self, tmp_path, capsys, meter, lineno, problem):
        score = tmp_path / "meter.score.tsv"
        score.write_text(meter + "n1\t0\t1\t60\tC\t0\t4\t0\nn2\t1\t1\t62\tD\t0\t4\t0\n")
        assert run_cli("extract", score, "--out-dir", tmp_path / "out") == 1
        line = single_error_line(capsys)
        assert line.startswith(f"error: {score}: line {lineno}: {problem} must be a finite")
        assert not (tmp_path / "out").exists()

    def test_missing_model_column_names_piece_and_column(self, tmp_path, capsys):
        corpus, _ = make_corpus(tmp_path, pieces=1, length=12)
        feats = tmp_path / "p_only"
        assert run_cli("extract", corpus / "piece000.score.tsv",
                       "--match", corpus / "piece000.match.tsv",
                       "--groups", "P", "--out-dir", feats) == 0
        capsys.readouterr()
        assert run_cli("sensitivity", "--model", canonical_model(tmp_path / "m.txt"),
                       "--corpus", feats, "--out-dir", tmp_path / "s") == 1
        line = single_error_line(capsys)
        assert "piece000" in line and "t_cd" in line

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_divergence_names_the_piece(self, tmp_path, capsys, command):
        _, feats = make_corpus(tmp_path, pieces=5, length=12)
        argv = {"train": ["train", "--target", "bpr"],
                "eval": ["eval", "--targets", "bpr"]}[command]
        capsys.readouterr()
        assert run_cli(*argv, "--corpus", feats, "--seed", 1, "--epochs", 2,
                       "--lr", 1e200, "--out-dir", tmp_path / "out") == 1
        line = single_error_line(capsys)  # no numpy overflow warnings
        assert re.fullmatch(r"error: non-finite loss at epoch \d+, piece (\w+)", line)
        stems = {n[:-len(".features.csv")] for n in os.listdir(feats)
                 if n.endswith(".features.csv")}
        assert line.rsplit(" ", 1)[1] in stems


@pytest.mark.parametrize("argv,flag", [
    (["eval", "--targets", "bpr", "--seed", "1", "--epochs", "1", "--folds", "0"], "--folds"),
    (["eval", "--targets", "bpr", "--seed", "1", "--epochs", "1", "--folds", "1"], "--folds"),
    (["eval", "--targets", "bpr", "--seed", "1", "--epochs", "1", "--include-fs",
      "--fs-fraction", "3"], "--fs-fraction"),
    (["mi", "--fs-seed", "1", "--fs-fraction", "0"], "--fs-fraction"),
    (["train", "--target", "bpr", "--seed", "1", "--epochs", "-1"], "--epochs"),
    (["eval", "--targets", "bpr", "--seed", "1", "--epochs", "-1"], "--epochs"),
    (["train", "--target", "bpr", "--seed", "1", "--lr", "nan"], "--lr"),
    (["train", "--target", "bpr", "--seed", "1", "--lr", "-0.1"], "--lr"),
    (["mi", "--fs-seed", "1", "--fs-k", "0"], "--fs-k"),
    (["mi", "--fs-seed", "1", "--fs-k", "-1"], "--fs-k"),
    (["eval", "--targets", "bpr", "--seed", "1", "--epochs", "1", "--include-fs",
      "--fs-k", "-1"], "--fs-k"),
    (["eval", "--targets", ",", "--seed", "1", "--epochs", "1"], "--targets"),
    (["eval", "--targets", "", "--seed", "1", "--epochs", "1"], "--targets"),
    (["eval", "--targets", "bpr", "--seed", "1", "--epochs", "1", "--include-fs",
      "--fs-count", "-2"], "--fs-count"),
    (["eval", "--targets", "bpr", "--seed", "1", "--epochs", "1", "--include-fs",
      "--fs-count", "0"], "--fs-count"),
    (["train", "--target", "bpr", "--seed", "1", "--patience", "0"], "--patience"),
    (["eval", "--targets", "bpr", "--seed", "1", "--epochs", "1", "--patience", "-3"],
     "--patience"),
    (["train", "--target", "bpr", "--seed", "1", "--epochs", "1", "--groups", "P,X"],
     "--groups"),
    (["eval", "--targets", "bpr", "--seed", "1", "--epochs", "1", "--folds", "6"], "--folds"),
    (["mi", "--fs-seed", "1", "--fs-k", "50"], "--fs-k"),
    (["eval", "--targets", "bpr", "--seed", "1", "--epochs", "1", "--include-fs",
      "--fs-k", "50"], "--fs-k"),
    (["eval", "--targets", "bpr,foo", "--seed", "1", "--epochs", "1"], "--targets"),
    (["train", "--target", "bpr", "--seed", "1", "--epochs", "1", "--groups", ","],
     "--groups"),
    (["eval", "--targets", "bpr,vel,bpr", "--seed", "1", "--epochs", "1"], "--targets"),
    (["train", "--target", "bpr", "--seed", "-1", "--epochs", "1"], "--seed"),
    (["eval", "--targets", "bpr", "--seed", "-1", "--epochs", "1"], "--seed"),
    (["mi", "--fs-seed", "-1"], "--fs-seed"),
])
def test_out_of_range_setting_names_its_flag(tmp_path, capsys, argv, flag):
    _, feats = make_corpus(tmp_path, pieces=5, length=10)
    capsys.readouterr()
    assert run_cli(*argv, "--corpus", feats, "--out-dir", tmp_path / "out") == 1
    line = single_error_line(capsys)
    assert line.startswith(f"error: {flag} must")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,flag", [
    (["sensitivity", "--radius", "-1"], "--radius"),
    (["extract", "--window", "0"], "--window"),
    (["extract", "--window", "nan"], "--window"),
    (["synth", "--window", "0", "--pieces", "2", "--length", "5", "--seed", "1"], "--window"),
    (["synth", "--window", "nan", "--pieces", "2", "--length", "5", "--seed", "1"],
     "--window"),
    (["synth", "--pieces", "0", "--length", "5", "--seed", "1"], "--pieces"),
    (["synth", "--pieces", "2", "--length", "1", "--seed", "1"], "--length"),
    (["extract", "--groups", "X"], "--groups"),
    (["extract", "--groups", ""], "--groups"),
    (["synth", "--pieces", "2", "--length", "5", "--seed", "-1"], "--seed"),
])
def test_out_of_range_input_setting_names_its_flag(tmp_path, capsys, argv, flag):
    corpus, feats = make_corpus(tmp_path, pieces=1, length=12)
    inputs = {"sensitivity": ["--model", canonical_model(tmp_path / "m.txt"),
                              "--corpus", feats],
              "extract": [corpus / "piece000.score.tsv",
                          "--match", corpus / "piece000.match.tsv"],
              "synth": []}[argv[0]]
    capsys.readouterr()
    assert run_cli(*argv, *inputs, "--out-dir", tmp_path / "out") == 1
    line = single_error_line(capsys)
    assert line.startswith(f"error: {flag} must")
    assert not (tmp_path / "out").exists()


# flags that name a file or directory the command reads
INPUT_FLAGS = {"score", "match", "spiral_config", "model", "corpus"}


def test_digest_covers_every_setting_and_input(tmp_path):
    """Setting any flag of any command, other than --out-dir and the input
    flags, to a second valid value changes the manifest digest; so does a
    change to the content of any input file. The cases are checked against
    the parser, so a flag without one fails."""
    corpus, feats = make_corpus(tmp_path, pieces=4, length=12)
    spiral = tmp_path / "spiral.cfg"
    spiral.write_text("spiral.r=1.0\nspiral.h=0.5\nspiral.chord_weights=0.5,0.3,0.2\n"
                      "spiral.key_weights=0.5,0.3,0.2\n")
    model = canonical_model(tmp_path / "m.txt")
    base = {
        "extract": [corpus / "piece000.score.tsv", "--match", corpus / "piece000.match.tsv",
                    "--spiral-config", spiral],
        "synth": ["--pieces", 2, "--length", 5, "--seed", 1, "--spiral-config", spiral],
        "mi": ["--corpus", feats, "--fs-seed", 1],
        "train": ["--corpus", feats, "--target", "bpr", "--seed", 1, "--epochs", 1],
        "eval": ["--corpus", feats, "--targets", "vel", "--seed", 1, "--epochs", 1,
                 "--folds", 2],
        "sensitivity": ["--model", model, "--corpus", feats, "--radius", 1],
    }
    # appended to the base command line, where the last value of a flag wins
    second = {
        ("extract", "groups"): ["--groups", "P,M"],
        ("extract", "window"): ["--window", 2.0],
        ("extract", "onset_only"): ["--onset-only"],
        ("synth", "pieces"): ["--pieces", 3],
        ("synth", "length"): ["--length", 6],
        ("synth", "rule"): ["--rule", "none"],
        ("synth", "window"): ["--window", 2.0],
        ("synth", "onset_only"): ["--onset-only"],
        ("synth", "seed"): ["--seed", 2],
        ("mi", "fs_fraction"): ["--fs-fraction", 0.5],
        ("mi", "fs_k"): ["--fs-k", 2],
        ("mi", "fs_seed"): ["--fs-seed", 2],
        ("train", "target"): ["--target", "vel"],
        ("train", "groups"): ["--groups", "P,M"],
        ("train", "model_name"): ["--model-name", "other.txt"],
        ("train", "epochs"): ["--epochs", 2],
        ("train", "lr"): ["--lr", 0.01],
        ("train", "patience"): ["--patience", 5],
        ("train", "seed"): ["--seed", 2],
        ("eval", "targets"): ["--targets", "bpr"],
        ("eval", "folds"): ["--folds", 3],
        ("eval", "include_fs"): ["--include-fs"],
        ("eval", "fs_fraction"): ["--fs-fraction", 0.5],
        ("eval", "fs_k"): ["--fs-k", 2],
        ("eval", "fs_count"): ["--fs-count", 5],
        ("eval", "epochs"): ["--epochs", 2],
        ("eval", "lr"): ["--lr", 0.01],
        ("eval", "patience"): ["--patience", 5],
        ("eval", "seed"): ["--seed", 2],
        ("sensitivity", "radius"): ["--radius", 2],
    }
    # the file whose content changes, for each input flag
    edited = {"score": corpus / "piece000.score.tsv", "match": corpus / "piece000.match.tsv",
              "spiral_config": spiral, "model": model, "corpus": feats / "piece003.targets.csv"}

    [commands] = [a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    flags = {(command, a.dest): a.option_strings[-1] if a.option_strings else a.dest
             for command, p in commands.choices.items()
             for a in p._actions if a.dest not in ("help", "out_dir")}
    assert set(flags) == set(second) | {key for key in flags if key[1] in INPUT_FLAGS}

    runs = itertools.count()

    def digest(command, extra=()):
        out = tmp_path / f"run{next(runs)}"
        assert run_cli(command, *base[command], *extra, "--out-dir", out) == 0
        return json.loads((out / f"{command}.manifest.json").read_text())["digest"]

    unchanged = []
    for command in base:
        before = digest(command)
        for (cmd, dest), name in flags.items():
            if cmd != command:
                continue
            if dest in INPUT_FLAGS:
                original = edited[dest].read_bytes()
                edited[dest].write_bytes(original + b"# edited\n")
                after = digest(command)
                edited[dest].write_bytes(original)
            else:
                after = digest(command, second[(cmd, dest)])
            if after == before:
                unchanged.append(f"{command} {name}")
    assert not unchanged, f"digest unchanged by: {', '.join(unchanged)}"


def test_run_pipeline_script_smoke(tmp_path):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(repo, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(repo, "scripts", "run_pipeline.py"),
         "--work-dir", str(tmp_path / "work"), "--pieces", "5", "--length", "20",
         "--epochs", "1", "--radius", "1"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "=== normalized mutual information" in proc.stdout
    assert "=== cross-validation R2" in proc.stdout
    assert (tmp_path / "work" / "results" / "sensitivity.csv").exists()
