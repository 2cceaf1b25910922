import numpy as np
import pytest
from hypothesis import given, strategies as st

from tonaltension.errors import TrainingDiverged, ValidationError
from tonaltension.evaluate import (Piece, columns, fit, fs_select,
                                   make_folds, mi_subset, paired_t_test, r2,
                                   run_cv, sensitivity, standardize_stats)
from tonaltension.features import CANONICAL_ORDER
from tonaltension.model import TrainConfig, init_model, train


class TestMakeFolds:
    def test_ten_pieces_five_even_folds(self):
        folds = make_folds([f"p{i}" for i in range(10)], k=5, seed=0)
        assert [len(f) for f in folds] == [2, 2, 2, 2, 2]

    def test_remainder_spread_one_each(self):
        folds = make_folds([f"p{i}" for i in range(11)], k=5, seed=0)
        assert sorted(len(f) for f in folds) == [2, 2, 2, 2, 3]

    @given(st.integers(min_value=5, max_value=40), st.integers(min_value=0, max_value=99))
    def test_folds_partition_the_corpus(self, n, seed):
        ids = [f"p{i}" for i in range(n)]
        seen = [pid for fold in make_folds(ids, k=5, seed=seed) for pid in fold]
        assert sorted(seen) == sorted(ids)

    def test_too_few_pieces_rejected(self):
        with pytest.raises(ValueError):
            make_folds(["a", "b"], k=5, seed=0)

    def test_deterministic(self):
        ids = [f"p{i}" for i in range(9)]
        assert make_folds(ids, seed=4) == make_folds(ids, seed=4)


class TestR2:
    def test_perfect_prediction(self):
        assert r2([0.0, 1.0, 2.0], [0.0, 1.0, 2.0]) == 1.0

    def test_mean_prediction_scores_zero(self):
        actual = [0.0, 1.0, 2.0]
        assert r2([1.0, 1.0, 1.0], actual) == 0.0

    def test_worked_example(self):
        assert r2([0.0, 1.0, 1.0], [0.0, 1.0, 2.0]) == 0.5

    def test_constant_actual_rejected(self):
        with pytest.raises(ValueError):
            r2([0.0, 1.0], [2.0, 2.0])


class TestPairedT:
    def test_worked_example(self):
        # t = 2 / (1 / sqrt(3)) = 3.464 on 2 degrees of freedom
        p, _ = paired_t_test([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        assert p == pytest.approx(0.0742, abs=1e-3)

    def test_symmetric_differences_give_t_zero(self):
        p, d = paired_t_test([1.0, -1.0, 1.0, -1.0], [0.0, 0.0, 0.0, 0.0])
        assert p == 1.0
        assert d == 0.0

    def test_constant_shift_degenerate(self):
        with pytest.raises(ValueError, match="identical"):
            paired_t_test([1.0, 2.0, 3.0], [0.0, 1.0, 2.0])

    @given(st.lists(st.floats(min_value=-5, max_value=5), min_size=3, max_size=20),
           st.integers(min_value=0, max_value=20))
    def test_p_in_unit_interval(self, base, seed):
        rng = np.random.default_rng(seed)
        a = np.asarray(base)
        b = a + rng.normal(size=a.size)
        if np.std(a - b, ddof=1) == 0:
            return
        p, _ = paired_t_test(a, b)
        assert 0.0 < p <= 1.0


class TestCohensD:
    """The effect size that paired_t_test returns beside p."""

    def test_worked_example(self):
        _, d = paired_t_test([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        assert d == pytest.approx(2.0, abs=1e-9)

    def test_identical_samples_degenerate(self):
        with pytest.raises(ValueError, match="identical"):
            paired_t_test([1.0, 2.0], [1.0, 2.0])

    def test_scale_invariant(self):
        a = np.array([0.3, 0.5, 0.9, 0.2])
        b = np.array([0.1, 0.6, 0.4, 0.25])
        assert paired_t_test(3.7 * a, 3.7 * b)[1] == pytest.approx(paired_t_test(a, b)[1],
                                                                   abs=1e-12)


class TestStandardize:
    def test_constant_feature_passes_through_unscaled(self):
        rows = np.column_stack([np.arange(5.0), np.full(5, 2.0)])
        mean, std = standardize_stats(rows)
        assert std[1] == 1.0
        assert mean[1] == 2.0

    def test_moving_a_piece_changes_the_stats(self):
        a = np.random.default_rng(0).normal(size=(30, 3))
        b = np.random.default_rng(1).normal(loc=2.0, size=(30, 3))
        with_b = standardize_stats(np.vstack([a, b]))
        without_b = standardize_stats(a)
        assert not np.allclose(with_b[0], without_b[0])


def toy_corpus(n_pieces=6, frames=30, seed=0, coupled=True):
    """Tiny corpus whose d_vel target is an affine function of t_cd."""
    rng = np.random.default_rng(seed)
    pieces = []
    for i in range(n_pieces):
        feats = rng.uniform(size=(frames, len(CANONICAL_ORDER)))
        t_cd = feats[:, CANONICAL_ORDER.index("t_cd")]
        targets = rng.normal(size=(frames, 4)) * 0.1
        if coupled:
            targets[:, 3] = 0.8 * t_cd + rng.normal(scale=0.02, size=frames)
        pieces.append(Piece(f"p{i}", feats, tuple(CANONICAL_ORDER), targets))
    return pieces


FAST = TrainConfig(learning_rate=3e-3, epochs=12, early_stop_patience=12, seed=0)


class TestCorpusToModel:
    def test_columns_follow_the_requested_order(self):
        piece = toy_corpus(n_pieces=1)[0]
        got = columns(piece, ("t_cd", "pitch_h"))
        assert np.array_equal(got[:, 0], piece.features[:, CANONICAL_ORDER.index("t_cd")])
        assert np.array_equal(got[:, 1], piece.features[:, 0])
        assert columns(piece, ()).shape == (piece.features.shape[0], 0)

    def test_missing_columns_all_named_with_the_piece(self):
        piece = toy_corpus(n_pieces=1)[0]
        with pytest.raises(ValidationError, match="piece p0 .* t_xx,t_yy"):
            columns(piece, ("t_cd", "t_xx", "t_yy"))

    def test_fit_is_train_on_standardized_columns(self):
        corpus = toy_corpus(n_pieces=3)
        names = ("t_cd", "vic1")
        params, log, mean, std = fit(corpus, names, "d_vel", FAST)
        X = [columns(p, names) for p in corpus]
        ref_mean, ref_std = standardize_stats(np.vstack(X))
        assert np.array_equal(mean, ref_mean) and np.array_equal(std, ref_std)
        ref, ref_log = train([((x - mean) / std, p.targets[:, 3])
                              for x, p in zip(X, corpus)], FAST)
        assert np.array_equal(params.flatten(), ref.flatten()) and log == ref_log

    def test_divergence_names_the_piece(self):
        # a NaN target diverges training on exactly that piece; the piece
        # held out for validation diverges as a non-finite validation loss
        kinds = []
        for bad in range(4):
            corpus = toy_corpus(n_pieces=4, frames=8)
            targets = corpus[bad].targets.copy()
            targets[2, 3] = np.nan
            corpus[bad] = Piece(f"x{bad}", corpus[bad].features,
                                corpus[bad].feature_names, targets)
            with pytest.raises(TrainingDiverged) as info:
                fit(corpus, ("t_cd",), "d_vel", FAST)
            assert info.value.index == bad
            assert str(info.value).endswith(f"epoch 0, piece x{bad}")
            kinds.append(info.value.what)
        assert sorted(kinds) == ["loss"] * 3 + ["validation loss"]

    def test_mi_subset_rejects_mixed_layouts(self):
        corpus = toy_corpus(n_pieces=4)
        p = corpus[3]
        corpus[3] = Piece(p.id, p.features[:, :6], tuple(CANONICAL_ORDER[:6]), p.targets)
        with pytest.raises(ValidationError, match="p3"):
            mi_subset(corpus, 0.25, 3, seed=0)

    def test_mi_subset_pools_the_sampled_pieces(self):
        subset, table = mi_subset(toy_corpus(n_pieces=8), 0.5, 3, seed=2)
        assert len(subset) == 4
        assert table.rows == tuple(CANONICAL_ORDER) and table.values.shape == (13, 4)


class TestRunCv:
    def test_deterministic(self):
        corpus = toy_corpus()
        a = run_cv(corpus, [("d_vel", "T")], FAST, seed=5)
        b = run_cv(corpus, [("d_vel", "T")], FAST, seed=5)
        assert a == b

    def test_every_piece_scored_once(self):
        corpus = toy_corpus()
        [res] = run_cv(corpus, [("d_vel", "PM")], FAST, seed=5)
        assert sorted(res.per_piece_r2) == sorted(p.id for p in corpus)
        assert res.mean_r2 == pytest.approx(np.mean(list(res.per_piece_r2.values())))

    def test_empty_feature_set_near_zero_on_shuffled_targets(self):
        rng = np.random.default_rng(3)
        corpus = []
        for p in toy_corpus(coupled=False):
            shuffled = p.targets.copy()
            rng.shuffle(shuffled[:, 3])
            corpus.append(Piece(p.id, p.features, p.feature_names, shuffled))
        cfg = TrainConfig(learning_rate=3e-3, epochs=40, early_stop_patience=40, seed=0)
        [res] = run_cv(corpus, [("d_vel", "")], cfg, seed=5)
        assert abs(res.mean_r2) < 0.1

    def test_first_fold_validation_divergence_wins(self):
        # the first fold holds the NaN piece out for validation and diverges
        # at the end of epoch 0; the folds that train on it diverge earlier
        # in that epoch, but training fold by fold would report fold 0
        corpus = toy_corpus(n_pieces=5, frames=8)
        test_ids = make_folds([p.id for p in corpus], k=5, seed=5)[0]
        fold0 = [p for p in corpus if p.id not in test_ids]
        held_out = fold0[int(np.random.default_rng(FAST.seed).permutation(len(fold0))[0])]
        held_out.targets[2, 3] = np.nan
        with pytest.raises(TrainingDiverged, match="non-finite validation loss at epoch 0, "
                                                   f"piece {held_out.id}$"):
            run_cv(corpus, [("d_vel", "T")], FAST, seed=5)

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError):
            run_cv(toy_corpus(), [("loudness", "T")], FAST, seed=0)

    def test_fs_uses_top_ranked_columns(self):
        corpus = toy_corpus(n_pieces=8, frames=60)
        cols = fs_select(corpus, "d_vel", seed=2, fraction=0.5, count=3)
        assert len(cols) == 3
        assert "t_cd" in cols  # the target is a function of t_cd
        [res] = run_cv(corpus, [("d_vel", "FS")], FAST, seed=2, fs_count=3,
                       fs_fraction=0.5)
        assert set(res.per_piece_r2) == {p.id for p in corpus}


class TestSensitivity:
    def test_zero_output_weights_give_zero_matrix(self):
        params = init_model(4, seed=0)
        params.tensors()["out.v"][:] = 0.0
        seqs = [np.random.default_rng(0).normal(size=(20, 4))]
        res = sensitivity(params, seqs, radius=3)
        assert np.all(res.matrix == 0.0)

    def test_shape_is_features_by_offsets(self):
        params = init_model(3, seed=1)
        res = sensitivity(params, [np.zeros((15, 3))], radius=4)
        assert res.matrix.shape == (3, 9)
        assert res.offsets == tuple(range(-4, 5))

    def test_short_pieces_skipped_and_counted(self):
        params = init_model(2, seed=0)
        res = sensitivity(params, [np.zeros((5, 2)), np.zeros((20, 2))], radius=5)
        assert res.used_positions == 10  # only interior times of the long piece
        assert res.skipped_positions == 15

    def test_matches_direct_finite_difference(self):
        rng = np.random.default_rng(7)
        params = init_model(2, seed=3)
        flat = params.flat + rng.normal(scale=0.3, size=params.flat.size)
        from tonaltension.model import ModelParams, forward
        params = ModelParams(2, flat)
        xs = rng.normal(size=(9, 2))
        res = sensitivity(params, [xs], radius=1)
        # independent oracle: perturb one input cell by hand
        tau, f, d = 4, 1, -1
        up, down = xs.copy(), xs.copy()
        up[tau + d, f] += 1e-4
        down[tau + d, f] -= 1e-4
        direct = (forward(params, up)[tau] - forward(params, down)[tau]) / 2e-4
        taus = np.arange(1, 8)
        cells = []
        for t in taus:
            u, v = xs.copy(), xs.copy()
            u[t + d, f] += 1e-4
            v[t + d, f] -= 1e-4
            cells.append((forward(params, u)[t] - forward(params, v)[t]) / 2e-4)
        assert res.matrix[f, 0] == pytest.approx(np.mean(cells), abs=1e-9)
        assert cells[3] == pytest.approx(direct, abs=1e-12)
