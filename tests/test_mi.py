import numpy as np
import pytest
from hypothesis import given, strategies as st

from tonaltension.errors import SettingError
from tonaltension.mi import (MiTable, estimate_mi, mi_table, select_features,
                             subsample_pieces)


class TestEstimateMi:
    def test_independent_uniforms_near_zero(self, rng):
        x = rng.uniform(size=1000)
        y = rng.uniform(size=1000)
        assert estimate_mi(x, y, seed=1) < 0.05

    def test_correlated_gaussian_matches_closed_form(self, rng):
        rho = 0.9
        xy = rng.multivariate_normal([0, 0], [[1, rho], [rho, 1]], size=5000)
        oracle = -0.5 * np.log(1 - rho ** 2)  # 0.8304 nats
        assert estimate_mi(xy[:, 0], xy[:, 1], seed=1) == pytest.approx(oracle, abs=0.1)

    def test_identity_dominates_noisy_copy(self, rng):
        x = rng.uniform(size=2000)
        noisy = x + rng.normal(scale=0.3, size=2000)
        assert estimate_mi(x, x, seed=2) >= estimate_mi(noisy, x, seed=2)

    def test_symmetric_in_arguments(self, rng):
        x = rng.normal(size=400)
        y = x + rng.normal(scale=0.5, size=400)
        assert abs(estimate_mi(x, y, seed=7) - estimate_mi(y, x, seed=7)) < 1e-9

    def test_discrete_continuous_symmetric_too(self, rng):
        u = rng.uniform(size=500)
        b = (u > 0.4).astype(float)
        assert abs(estimate_mi(b, u, seed=3) - estimate_mi(u, b, seed=3)) < 1e-9

    def test_constant_variable_gives_zero(self, rng):
        assert estimate_mi(np.ones(100), rng.uniform(size=100), seed=0) == 0.0

    def test_never_negative(self, rng):
        for seed in range(5):
            x = rng.normal(size=200)
            y = rng.normal(size=200)
            assert estimate_mi(x, y, seed=seed) >= 0.0

    def test_binary_determined_by_continuous(self, rng):
        u = rng.uniform(size=3000)
        b = (u > 0.5).astype(float)
        # b is a function of u, so MI(b, u) = H(b) = ln 2
        assert estimate_mi(b, u, seed=2) == pytest.approx(np.log(2), abs=0.05)

    def test_binary_independent_of_continuous(self, rng):
        u = rng.uniform(size=3000)
        b = (rng.uniform(size=3000) > 0.5).astype(float)
        assert estimate_mi(b, u, seed=2) < 0.05

    def test_two_binary_variables_plugin(self, rng):
        b = (rng.uniform(size=4000) > 0.5).astype(float)
        assert estimate_mi(b, b, seed=0) == pytest.approx(np.log(2), abs=0.05)
        c = (rng.uniform(size=4000) > 0.5).astype(float)
        assert estimate_mi(b, c, seed=0) < 0.01

    def test_monotone_transform_changes_little(self, rng):
        rho = 0.9
        xy = rng.multivariate_normal([0, 0], [[1, rho], [rho, 1]], size=5000)
        direct = estimate_mi(xy[:, 0], xy[:, 1], seed=4)
        rx = np.argsort(np.argsort(xy[:, 0])).astype(float)
        ry = np.argsort(np.argsort(xy[:, 1])).astype(float)
        assert abs(estimate_mi(rx, ry, seed=4) - direct) < 0.05

    def test_deterministic_given_seed(self, rng):
        x = rng.normal(size=300)
        y = rng.normal(size=300)
        assert estimate_mi(x, y, seed=9) == estimate_mi(x, y, seed=9)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            estimate_mi(np.arange(7.0), np.arange(7.0), k=3)  # needs 2k+2

    def test_zero_neighbors_rejected(self, rng):
        # mi_table, estimate_mi's one caller, checks k
        x = rng.normal(size=50)
        feats = np.column_stack([x, x + rng.normal(size=50)])
        with pytest.raises(SettingError, match="at least 1 neighbor") as info:
            mi_table(feats, ("a", "b"), x[:, None], ("y",), k=0)
        assert info.value.name == "mi_k"


class TestMiTable:
    def make_table(self, rng):
        n = 600
        t = rng.uniform(size=n)
        feats = np.column_stack([t, rng.uniform(size=n), np.full(n, 0.3)])
        targs = t[:, None]
        return mi_table(feats, ("copy", "noise", "const"), targs, ("y",), seed=5)

    def test_identical_feature_normalizes_to_one(self, rng):
        table = self.make_table(rng)
        norm = table.normalized()
        assert norm[0, 0] == 1.0

    def test_constant_feature_zero(self, rng):
        table = self.make_table(rng)
        assert table.values[2, 0] == 0.0

    def test_independent_feature_much_smaller(self, rng):
        table = self.make_table(rng)
        assert table.values[1, 0] < 0.2 * table.values[0, 0]

    def test_all_zero_column_stays_zero(self):
        table = MiTable(("a",), ("y",), np.zeros((1, 1)))
        assert table.normalized()[0, 0] == 0.0


class TestSelectFeatures:
    def table(self, values):
        return MiTable(tuple(f"f{i}" for i in range(len(values))), ("y",),
                       np.array(values)[:, None])

    def test_full_ranking(self):
        t = self.table([0.1, 0.9, 0.5])
        assert select_features(t, "y", 3) == ["f1", "f2", "f0"]

    def test_top_one(self, rng):
        n = 600
        y = rng.uniform(size=n)
        feats = np.column_stack([y, rng.uniform(size=n)])
        t = mi_table(feats, ("f1", "f2"), y[:, None], ("y",), seed=1)
        assert select_features(t, "y", 1) == ["f1"]

    def test_tie_break_by_canonical_order(self):
        t = self.table([0.5, 0.5, 0.9])
        assert select_features(t, "y", 3) == ["f2", "f0", "f1"]

    @given(st.lists(st.floats(min_value=0, max_value=2), min_size=1, max_size=8),
           st.data())
    def test_selection_is_prefix_of_full_ranking(self, values, data):
        t = self.table(values)
        n = data.draw(st.integers(min_value=1, max_value=len(values)))
        assert select_features(t, "y", n) == select_features(t, "y", len(values))[:n]

    @pytest.mark.parametrize("n", [0, -2])
    def test_fewer_than_one_rejected(self, n):
        with pytest.raises(SettingError, match="fs_count"):
            select_features(self.table([0.1, 0.2, 0.3]), "y", n)


class TestSubsample:
    def test_deterministic(self):
        ids = [f"p{i}" for i in range(10)]
        assert subsample_pieces(ids, 0.2, seed=3) == subsample_pieces(ids, 0.2, seed=3)

    def test_at_least_one(self):
        assert len(subsample_pieces(["a", "b"], 0.01, seed=0)) == 1

    def test_fraction_rounds(self):
        assert len(subsample_pieces(list("abcdefghij"), 0.2, seed=1)) == 2
