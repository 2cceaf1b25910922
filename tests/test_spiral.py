import math
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tonaltension.spiral import (DEFAULT_H, SpiralParams, center_of_effect,
                                 distance, enharmonic_unit, key_coe,
                                 cloud_coe, pitch_position, read_calibration)

P = SpiralParams()

tpcs = st.integers(min_value=-20, max_value=20)
weights = st.floats(min_value=0.01, max_value=10.0, allow_nan=False)
member_lists = st.lists(st.tuples(tpcs, weights), min_size=1, max_size=8)


def xyz(point):
    return np.array(point)


def oracle_position(tpc, params=P):
    # independent arithmetic for the helix
    return np.array([params.r * math.sin(tpc * math.pi / 2),
                     params.r * math.cos(tpc * math.pi / 2),
                     tpc * params.h])


class TestPitchPosition:
    def test_c_sits_on_positive_y(self):
        p = pitch_position(0, P)
        assert p == (0.0, P.r, 0.0)

    def test_g_is_a_quarter_turn_up(self):
        p = pitch_position(1, P)
        assert p[0] == pytest.approx(P.r, abs=1e-15)
        assert p[1] == pytest.approx(0.0, abs=1e-15)
        assert p[2] == pytest.approx(P.h, abs=1e-15)

    def test_twelve_fifths_share_xy(self):
        a, b = pitch_position(0, P), pitch_position(12, P)
        assert a[:2] == pytest.approx(b[:2], abs=1e-12)
        assert b[2] - a[2] == pytest.approx(12 * P.h, abs=1e-12)

    @given(tpcs)
    def test_four_fifths_is_one_turn(self, k):
        a, b = pitch_position(k, P), pitch_position(k + 4, P)
        assert a[0] == pytest.approx(b[0], abs=1e-9)
        assert a[1] == pytest.approx(b[1], abs=1e-9)
        assert b[2] - a[2] == pytest.approx(4 * P.h, abs=1e-12)


class TestCenterOfEffect:
    def test_single_member_is_its_position(self):
        c = center_of_effect([(3, 2.5)], P)
        assert np.allclose(xyz(c), oracle_position(3), atol=1e-15)

    def test_two_equal_weights_give_midpoint(self):
        c = center_of_effect([(0, 1.0), (4, 1.0)], P)
        mid = (oracle_position(0) + oracle_position(4)) / 2
        assert np.allclose(xyz(c), mid, atol=1e-15)

    def test_weighted_triad_matches_dot_product_oracle(self):
        w1, w2, w3 = P.chord_weights
        members = [(0, w1), (1, w2), (4, w3)]  # C major as root/fifth/third
        expect = (w1 * oracle_position(0) + w2 * oracle_position(1)
                  + w3 * oracle_position(4)) / (w1 + w2 + w3)
        assert np.allclose(xyz(center_of_effect(members, P)), expect, atol=1e-12)

    @given(member_lists)
    def test_coe_within_member_bounding_box(self, members):
        pts = np.array([oracle_position(t) for t, _ in members])
        c = xyz(center_of_effect(members, P))
        assert np.all(c >= pts.min(axis=0) - 1e-9)
        assert np.all(c <= pts.max(axis=0) + 1e-9)

    @given(member_lists, st.integers(min_value=-6, max_value=6))
    def test_transposition_rotates_and_lifts(self, members, shift):
        base = xyz(center_of_effect(members, P))
        moved = xyz(center_of_effect([(t + shift, w) for t, w in members], P))
        expect = base.copy()
        for _ in range(shift % 4):
            expect = np.array([expect[1], -expect[0], expect[2]])
        expect[2] += shift * P.h
        assert np.allclose(moved, expect, atol=1e-9)


class TestKeyCoe:
    def test_c_major_matches_hand_composed_oracle(self):
        w1, w2, w3 = P.chord_weights
        k1, k2, k3 = P.key_weights

        def triad(root, third):
            return (w1 * oracle_position(root) + w2 * oracle_position(root + 1)
                    + w3 * oracle_position(third)) / (w1 + w2 + w3)

        expect = (k1 * triad(0, 4) + k2 * triad(1, 5) + k3 * triad(-1, 3)) / (k1 + k2 + k3)
        assert np.allclose(xyz(key_coe(0, "major", P)), expect, atol=1e-12)

    def test_a_minor_uses_minor_tonic_major_dominant_minor_subdominant(self):
        w1, w2, w3 = P.chord_weights
        k1, k2, k3 = P.key_weights

        def triad(root, third):
            return (w1 * oracle_position(root) + w2 * oracle_position(root + 1)
                    + w3 * oracle_position(third)) / (w1 + w2 + w3)

        tonic = 3  # A
        expect = (k1 * triad(tonic, tonic - 3) + k2 * triad(tonic + 1, tonic + 5)
                  + k3 * triad(tonic - 1, tonic - 4)) / (k1 + k2 + k3)
        assert np.allclose(xyz(key_coe(tonic, "minor", P)), expect, atol=1e-12)

    @given(st.integers(min_value=-8, max_value=8),
           st.sampled_from(["major", "minor"]))
    def test_transposing_the_tonic_rotates_by_a_quarter_turn(self, tonic, mode):
        a = xyz(key_coe(tonic, mode, P))
        b = xyz(key_coe(tonic + 1, mode, P))
        rotated = np.array([a[1], -a[0], a[2] + P.h])
        assert np.allclose(b, rotated, atol=1e-9)

    def test_member_order_does_not_matter(self):
        members = [(0, 0.5), (4, 0.3), (1, 0.2)]
        a = xyz(center_of_effect(members, P))
        b = xyz(center_of_effect(list(reversed(members)), P))
        assert np.allclose(a, b, atol=1e-12)


class TestDistance:
    def test_zero_for_equal_points(self):
        p = pitch_position(5, P)
        assert distance(p, p) == 0.0

    def test_enharmonic_pair_is_twelve_h(self):
        d = distance(pitch_position(0, P), pitch_position(12, P))
        assert d == pytest.approx(12 * P.h, abs=1e-12)

    def test_adjacent_fifth_distance(self):
        d = distance(pitch_position(0, P), pitch_position(1, P))
        assert d == pytest.approx(math.sqrt(2 * P.r ** 2 + P.h ** 2), abs=1e-12)

    @given(tpcs, tpcs, st.integers(min_value=-6, max_value=6))
    def test_invariant_under_joint_transposition(self, a, b, shift):
        d0 = distance(pitch_position(a, P), pitch_position(b, P))
        d1 = distance(pitch_position(a + shift, P), pitch_position(b + shift, P))
        assert d1 == pytest.approx(d0, abs=1e-9)


class TestEnharmonicUnit:
    def test_default_calibration_value(self):
        # oracle: direct evaluation of the distance between C# and Db
        oracle = np.linalg.norm(oracle_position(7) - oracle_position(-5))
        assert enharmonic_unit(P) == pytest.approx(oracle, abs=1e-12)
        assert enharmonic_unit(P) == pytest.approx(12 * math.sqrt(2 / 15), abs=1e-12)

    def test_h_one_gives_twelve(self):
        assert enharmonic_unit(SpiralParams(h=1.0)) == 12.0

    def test_exactly_twelve_h(self):
        assert enharmonic_unit(P) == 12.0 * P.h

    @given(tpcs)
    def test_matches_distance_for_any_spelling(self, tpc):
        d = distance(pitch_position(tpc, P), pitch_position(tpc + 12, P))
        assert d == pytest.approx(enharmonic_unit(P), abs=1e-9)


class TestSpiralParams:
    def test_defaults_satisfy_weight_contracts(self):
        assert abs(sum(P.chord_weights) - 1.0) <= 1e-12
        assert abs(sum(P.key_weights) - 1.0) <= 1e-12
        assert P.h == pytest.approx(DEFAULT_H)

    def test_unnormalized_weights_rejected(self):
        with pytest.raises(ValueError):
            SpiralParams(key_weights=(0.516, 0.315, 0.168))

    def test_unordered_weights_rejected(self):
        with pytest.raises(ValueError):
            SpiralParams(chord_weights=(0.2, 0.5, 0.3))

    def test_bad_radius_rejected(self):
        with pytest.raises(ValueError):
            SpiralParams(r=0.0)

    def test_header_round_trip(self):
        text = "".join(f"{key}={value}\n" for key, value in P.header_items())
        assert read_calibration(text) == P

    # the farthest pair of tpc -15..19 is -15 and 19: 2r apart across the
    # circle and 34h apart in height. A ** 2 of either gap past the largest
    # float's square root overflows, and at r = 1 a tiny h makes the
    # distance of about 2 over the enharmonic unit 12h overflow.
    @pytest.mark.parametrize("field,edge,past", [
        ("r", math.sqrt(sys.float_info.max) / 2, 1.0),
        ("h", math.sqrt(sys.float_info.max) / 34, 1.0),
        ("h", 1.0 / 6.0 / sys.float_info.max, -1.0),
    ], ids=["large-r", "large-h", "small-h"])
    def test_overflowing_calibration_rejected_past_its_edge(self, field, edge, past):
        kept = SpiralParams(**{field: edge * (1.0 - past * 1e-9)})
        far = (pitch_position(-15, kept), pitch_position(19, kept))
        assert math.isfinite(distance(*far) / enharmonic_unit(kept))
        with pytest.raises(ValueError, match="out of float range"):
            SpiralParams(**{field: edge * (1.0 + past * 1e-9)})

    def test_cloud_merges_duplicate_tpcs(self):
        coe = cloud_coe([(4, 1.0), (0, 1.0), (0, 2.0)], P)
        assert coe == center_of_effect([(0, 3.0), (4, 1.0)], P)
