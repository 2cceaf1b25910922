"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line and enforcing its runtime budget (run with ``pytest -s``
to see the lines)."""

import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from tonaltension import cli
from tonaltension.evaluate import (Piece, paired_t_test, r2, run_cv,
                                   sensitivity, standardize_stats)
from tonaltension.features import (CANONICAL_ORDER, assemble_features,
                                   vertical_intervals, pitch_features)
from tonaltension.mi import estimate_mi, mi_table, select_features
from tonaltension.model import TrainConfig, init_model, loss_and_gradient, train
from tonaltension.spiral import SpiralParams, enharmonic_unit, make_cloud
from tonaltension.symbolic import group_onsets
from tonaltension.synth import SynthConfig, generate_corpus
from tonaltension.targets import targets as extract_targets
from tonaltension.tension import WindowConfig, cloud_diameter, tension_track

from conftest import build_score, metronomic_performance, note

P = SpiralParams()
CFG = WindowConfig()


@contextmanager
def criterion(number, description, budget_sec):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_sec, (
        f"criterion {number} took {elapsed:.1f}s, budget {budget_sec}s")
    print(f"ACCEPTANCE {number} PASS: {description} "
          f"({elapsed:.1f}s < {budget_sec}s)")


def oracle_corpus(n_pieces, n_frames, seed, coef=0.8, noise_sd=0.05):
    """Synthetic corpus whose d_vel target is coef * t_cd + Gaussian noise."""
    rng = np.random.default_rng(seed + 999)
    pieces = []
    for pid, score, _ in generate_corpus(SynthConfig(n_pieces, n_frames, seed)):
        frames = group_onsets(score)
        track = tension_track(score, CFG, P, frames)
        rows = assemble_features(score, track, {"P", "M", "T"}, frames)
        feats = np.array([r.values for r in rows])
        t_cd = feats[:, CANONICAL_ORDER.index("t_cd")]
        targets = np.zeros((len(t_cd), 4))
        targets[:, 3] = coef * t_cd + rng.normal(0.0, noise_sd, size=len(t_cd))
        pieces.append(Piece(pid, feats, tuple(CANONICAL_ORDER), targets))
    return pieces


def test_criterion_1_paper_worked_example():
    with criterion(1, "C-major triad feature vector (60/127, 4/11, 7/11, 0)", 1.0):
        score = build_score([note("c", 0.0, 1.0, 0, 4), note("e", 0.0, 1.0, 4, 4),
                             note("g", 0.0, 1.0, 1, 4)])
        frame = group_onsets(score)[0]
        pitch_l = pitch_features(frame)[1]
        vic = vertical_intervals(frame)
        assert pitch_l == 60 / 127
        assert vic == (4 / 11, 7 / 11, 0.0)


def test_criterion_2_geometry_suite():
    with criterion(2, "spiral geometry invariants", 5.0):
        # enharmonic unit is exactly 12h
        assert abs(enharmonic_unit(P) - 12.0 * P.h) <= 1e-12
        assert abs(enharmonic_unit(SpiralParams(h=1.0)) - 12.0) <= 1e-12

        # single-tpc clouds have exactly zero diameter
        for tpc in range(-12, 13):
            cloud = make_cloud([(tpc, 1.0), (tpc, 0.5)], P)
            assert cloud_diameter(cloud, P) == 0.0

        # tension features invariant under global fifth transposition
        base_notes = [note("a", 0.0, 1.0, 0), note("b", 0.0, 1.0, 4),
                      note("c", 1.0, 1.0, 1), note("d", 1.0, 2.0, 7),
                      note("e", 2.0, 1.0, -3), note("f", 3.0, 0.5, 2)]
        base_score = build_score(base_notes)
        base_frames = group_onsets(base_score)
        base = tension_track(base_score, CFG, P, base_frames)
        for shift in (-6, -1, 1, 3, 6):
            moved_notes = [note(n.id, n.onset, n.duration, n.tpc + shift,
                                n.midi_pitch // 12 - 1) for n in base_score.notes]
            moved_score = build_score(moved_notes, key=(shift, "major"))
            moved = tension_track(moved_score, CFG, P, group_onsets(moved_score))
            for a, b in zip(base, moved):
                assert abs(a.t_cd - b.t_cd) < 1e-9
                assert abs(a.t_cm - b.t_cm) < 1e-9
                assert abs(a.t_ts - b.t_ts) < 1e-9

        # joint (r, h) scaling leaves all three features unchanged
        for c in (0.25, 3.0, 17.5):
            scaled = tension_track(base_score, CFG, SpiralParams(r=P.r * c, h=P.h * c),
                                   base_frames)
            for a, b in zip(base, scaled):
                assert abs(a.t_cd - b.t_cd) < 1e-9
                assert abs(a.t_cm - b.t_cm) < 1e-9
                assert abs(a.t_ts - b.t_ts) < 1e-9


def test_criterion_3_expressive_parameter_suite():
    with criterion(3, "BPR extraction properties on 100 synthetic pieces", 10.0):
        # metronomic performance gives BPR = 1, dBPR = 0 everywhere
        score = build_score([note(f"n{i}", i * 0.5, 0.5, i % 3) for i in range(12)])
        rows = extract_targets(metronomic_performance(score), group_onsets(score))
        assert all(abs(r.bpr - 1.0) < 1e-12 for r in rows)
        assert all(r.d_bpr == 0.0 for r in rows)

        corpus = generate_corpus(SynthConfig(pieces=100, frames=20, seed=31))
        for _, piece_score, perf in corpus:
            piece_rows = extract_targets(perf, group_onsets(piece_score))
            bpr = [r.bpr for r in piece_rows]
            assert abs(np.mean(bpr) - 1.0) <= 1e-9

        # uniform time scaling leaves BPR unchanged
        _, sc, pf = corpus[0]
        scaled = type(pf)(tuple(
            type(n)(n.score_id, 3.0 * n.onset_sec, 3.0 * n.duration_sec, n.velocity)
            for n in pf.notes))
        frames = group_onsets(sc)
        a = [r.bpr for r in extract_targets(pf, frames)]
        b = [r.bpr for r in extract_targets(scaled, frames)]
        assert max(abs(x - y) for x, y in zip(a, b)) < 1e-9


def test_criterion_4_gradient_check():
    with criterion(4, "BPTT gradient vs central finite differences", 30.0):
        input_dim, eps = 4, 1e-5
        worst = 0.0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            params = init_model(input_dim, seed=seed)
            theta = params.flat + rng.normal(scale=0.3, size=params.flat.size)
            batch = [(rng.normal(size=(3, input_dim)), rng.normal(size=3))]
            _, (grad,) = loss_and_gradient(theta[None], input_dim, batch)
            fd = np.zeros_like(grad)
            for i in range(theta.size):
                up, down = theta.copy(), theta.copy()
                up[i] += eps
                down[i] -= eps
                (lu,), _ = loss_and_gradient(up[None], input_dim, batch)
                (ld,), _ = loss_and_gradient(down[None], input_dim, batch)
                fd[i] = (lu - ld) / (2 * eps)
            denom = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-6)
            worst = max(worst, float((np.abs(grad - fd) / denom).max()))
        assert worst < 1e-4, f"max relative error {worst:.2e}"


def test_criterion_5_learning_sanity():
    with criterion(5, "5-fold CV: R2 with T >= 0.8, with M <= 0.2", 300.0):
        corpus = oracle_corpus(20, 200, seed=123)
        cfg = TrainConfig(learning_rate=2e-3, epochs=60, early_stop_patience=8, seed=0)
        with_t, with_m = run_cv(corpus, [("d_vel", "T"), ("d_vel", "M")], cfg, seed=77)
        print(f"  [criterion 5] mean R2: T={with_t.mean_r2:.3f} M={with_m.mean_r2:.3f}")
        assert with_t.mean_r2 >= 0.8
        assert with_m.mean_r2 <= 0.2


def test_criterion_6_mutual_information_suite():
    with criterion(6, "MI estimator against closed-form oracles", 30.0):
        rng = np.random.default_rng(0)
        x, y = rng.uniform(size=1000), rng.uniform(size=1000)
        assert estimate_mi(x, y, seed=1) < 0.05

        rho = 0.9
        xy = rng.multivariate_normal([0, 0], [[1, rho], [rho, 1]], size=5000)
        oracle = -0.5 * math.log(1 - rho ** 2)  # 0.8304 nats
        assert abs(estimate_mi(xy[:, 0], xy[:, 1], seed=1) - oracle) <= 0.1

        t = rng.uniform(size=800)
        feats = np.column_stack([t + rng.normal(scale=s, size=800)
                                 for s in np.linspace(0.05, 2.0, 12)])
        names = tuple(f"f{i}" for i in range(12))
        table = mi_table(feats, names, t[:, None], ("y",), seed=2)
        full = select_features(table, "y", 12)
        assert select_features(table, "y", 10) == full[:10]


def test_criterion_7_statistics_oracles():
    with criterion(7, "hand-arithmetic statistics oracles", 1.0):
        assert r2([0.0, 1.0, 1.0], [0.0, 1.0, 2.0]) == 0.5
        p, d = paired_t_test([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])  # t = 3.464, 2 dof
        assert abs(p - 0.0742) <= 1e-3
        assert abs(d - 2.0) <= 1e-9


def test_criterion_8_sensitivity():
    with criterion(8, "sensitivity: zero model and t_cd dominance >= 5x", 120.0):
        feats_all = []
        for _, score, _ in generate_corpus(SynthConfig(pieces=10, frames=80, seed=5)):
            frames = group_onsets(score)
            track = tension_track(score, CFG, P, frames)
            rows = assemble_features(score, track, {"P", "M", "T"}, frames)
            feats_all.append(np.array([r.values for r in rows]))
        mean, std = standardize_stats(np.vstack(feats_all))
        sequences = [(f - mean) / std for f in feats_all]
        i_tcd = CANONICAL_ORDER.index("t_cd")

        # zero output weights: the prediction is constant, so the matrix is 0
        zero = init_model(13, seed=0)
        zero.tensors()["out.v"][:] = 0.0
        assert np.all(sensitivity(zero, sequences[:3], radius=5).matrix == 0.0)

        # model trained to reproduce the current cloud diameter
        dataset = [(x, f[:, i_tcd]) for x, f in zip(sequences, feats_all)]
        cfg = TrainConfig(learning_rate=3e-3, epochs=150, early_stop_patience=25, seed=3)
        params, _ = train(dataset, cfg)
        result = sensitivity(params, sequences, radius=5)
        magnitude = np.abs(result.matrix)
        center = magnitude[i_tcd, 5]
        rest = magnitude.copy()
        rest[i_tcd, 5] = 0.0
        ratio = center / rest.max()
        print(f"  [criterion 8] (t_cd, 0) dominance ratio {ratio:.1f}x")
        assert ratio >= 5.0


def test_criterion_9_pipeline_determinism(tmp_path):
    with criterion(9, "synth->extract->mi->train->eval->sensitivity byte-identical", 600.0):
        def pipeline(root):
            corpus = root / "corpus"
            feats = root / "feats"
            out = root / "out"
            feats.mkdir(parents=True)
            assert cli.main(["synth", "--pieces", "6", "--length", "40",
                             "--seed", "11", "--out-dir", str(corpus)]) == 0
            stems = sorted(f[:-len(".score.tsv")] for f in os.listdir(corpus)
                           if f.endswith(".score.tsv"))
            for stem in stems:
                assert cli.main(["extract", str(corpus / f"{stem}.score.tsv"),
                                 "--match", str(corpus / f"{stem}.match.tsv"),
                                 "--out-dir", str(feats)]) == 0
            assert cli.main(["mi", "--corpus", str(feats), "--fs-seed", "3",
                             "--out-dir", str(out)]) == 0
            assert cli.main(["train", "--corpus", str(feats), "--target", "d_vel",
                             "--seed", "5", "--epochs", "8",
                             "--out-dir", str(out)]) == 0
            assert cli.main(["eval", "--corpus", str(feats), "--targets", "d_vel",
                             "--seed", "5", "--epochs", "4",
                             "--out-dir", str(out)]) == 0
            assert cli.main(["sensitivity", "--model", str(out / "model.txt"),
                             "--corpus", str(feats), "--radius", "3",
                             "--out-dir", str(out)]) == 0
            return corpus, feats, out

        first = pipeline(tmp_path / "run1")
        second = pipeline(tmp_path / "run2")
        compared = 0
        for d1, d2 in zip(first, second):
            for name in sorted(os.listdir(d1)):
                if name.endswith(".manifest.json"):
                    continue  # records absolute paths by design
                a = (d1 / name).read_bytes()
                b = (d2 / name).read_bytes()
                assert a == b, f"{name} differs between runs"
                compared += 1
        assert compared >= 20
