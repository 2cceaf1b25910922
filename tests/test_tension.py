import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tonaltension.spiral import (SpiralParams, distance, enharmonic_unit,
                                 key_coe, make_cloud as cloud_of,
                                 pitch_position)
from tonaltension.tension import (WindowConfig, cloud_diameter, cloud_momentum,
                                  estimate_key, tensile_strain, tension_track,
                                  window_cloud)
from tonaltension.symbolic import group_onsets

from conftest import build_score, note

P = SpiralParams()
CFG = WindowConfig()


def weights_of(cloud):
    return dict(cloud.members)


class TestMakeCloud:
    def test_isolated_whole_note(self):
        score = build_score([note("a", 0.0, 1.0, tpc=0)])
        cloud = window_cloud(score.notes, group_onsets(score)[0], CFG, P)
        assert weights_of(cloud) == {0: 1.0}

    def test_triad_of_quarters_equal_weights(self):
        score = build_score([note("a", 0.0, 1.0, 0), note("b", 0.0, 1.0, 1),
                             note("c", 0.0, 1.0, 4)])
        cloud = window_cloud(score.notes, group_onsets(score)[0], CFG, P)
        assert weights_of(cloud) == {0: 1.0, 1: 1.0, 4: 1.0}

    def test_held_bass_weighted_by_overlap(self):
        # bass starts at 0 with duration 1.5: overlaps [1, 2) by 0.5
        score = build_score([note("bass", 0.0, 1.5, 0, octave=2),
                             note("top", 1.0, 1.0, 1)])
        frames = group_onsets(score)
        cloud = window_cloud(score.notes, frames[1], CFG, P)
        # oracle: interval intersection arithmetic
        assert weights_of(cloud) == {0: min(1.5, 2.0) - 1.0, 1: 1.0}

    def test_onset_only_excludes_held_notes(self):
        score = build_score([note("bass", 0.0, 4.0, 0), note("top", 1.0, 1.0, 1)])
        frames = group_onsets(score)
        cloud = window_cloud(score.notes, frames[1], WindowConfig(include_held=False), P)
        assert weights_of(cloud) == {1: 1.0}

    def test_duplicate_tpcs_merge(self):
        score = build_score([note("a", 0.0, 1.0, 0, octave=3),
                             note("b", 0.0, 1.0, 0, octave=4)])
        cloud = window_cloud(score.notes, group_onsets(score)[0], CFG, P)
        assert weights_of(cloud) == {0: 2.0}

    def test_window_shorter_than_notes(self):
        score = build_score([note("a", 0.0, 2.0, 0)])
        cloud = window_cloud(score.notes, group_onsets(score)[0],
                             WindowConfig(width_beats=0.5), P)
        assert weights_of(cloud) == {0: 0.5}

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ValueError):
            WindowConfig(width_beats=0.0)


class TestCloudDiameter:
    def test_singleton_zero(self):
        assert cloud_diameter(cloud_of([(3, 1.0)], P), P) == 0.0

    def test_merged_unison_zero(self):
        assert cloud_diameter(cloud_of([(0, 1.0), (0, 2.0)], P), P) == 0.0

    def test_major_triad_matches_pairwise_oracle(self):
        members = [(0, 1.0), (1, 1.0), (4, 1.0)]
        pts = [np.array([P.r * math.sin(t * math.pi / 2),
                         P.r * math.cos(t * math.pi / 2), t * P.h]) for t, _ in members]
        oracle = max(np.linalg.norm(pts[i] - pts[j])
                     for i in range(3) for j in range(i + 1, 3)) / (12 * P.h)
        assert cloud_diameter(cloud_of(members, P), P) == pytest.approx(oracle, abs=1e-12)

    @given(st.integers(min_value=-12, max_value=12),
           st.lists(st.floats(min_value=0.1, max_value=4.0), min_size=1, max_size=5))
    def test_single_tpc_cloud_is_exactly_zero(self, tpc, ws):
        assert cloud_diameter(cloud_of([(tpc, w) for w in ws], P), P) == 0.0


class TestCloudMomentum:
    def test_first_frame_zero(self):
        assert cloud_momentum(None, cloud_of([(0, 1.0)], P), P) == 0.0

    def test_identical_clouds_zero(self):
        c = cloud_of([(0, 1.0), (4, 0.5)], P)
        assert cloud_momentum(c, c, P) == 0.0

    def test_c_to_g_matches_formula(self):
        c0 = cloud_of([(0, 1.0)], P)
        c1 = cloud_of([(1, 1.0)], P)
        oracle = math.sqrt(2 * P.r ** 2 + P.h ** 2) / (12 * P.h)
        assert cloud_momentum(c0, c1, P) == pytest.approx(oracle, abs=1e-12)


class TestTensileStrain:
    def test_zero_when_cloud_sits_on_key_center(self):
        cloud = cloud_of([(0, 1.0), (4, 1.0)], P)
        assert tensile_strain(cloud, cloud.coe, P) == 0.0

    def test_c_cloud_against_c_major_key(self):
        cloud = cloud_of([(0, 1.0)], P)
        oracle = distance(pitch_position(0, P), key_coe(0, "major", P)) / enharmonic_unit(P)
        assert tensile_strain(cloud, key_coe(0, "major", P), P) == pytest.approx(oracle, abs=1e-12)

    @given(st.integers(min_value=-6, max_value=6))
    def test_invariant_when_cloud_and_key_move_together(self, shift):
        members = [(0, 1.0), (2, 0.5), (4, 0.25)]
        base = tensile_strain(cloud_of(members, P), key_coe(0, "major", P), P)
        moved = tensile_strain(cloud_of([(t + shift, w) for t, w in members], P),
                               key_coe(shift, "major", P), P)
        assert moved == pytest.approx(base, abs=1e-9)


def two_chord_score():
    return build_score([
        note("c1", 0.0, 1.0, 0, 4), note("e1", 0.0, 1.0, 4, 4), note("g1", 0.0, 1.0, 1, 4),
        note("g2", 1.0, 1.0, 1, 4), note("b2", 1.0, 1.0, 5, 4), note("d2", 1.0, 1.0, 2, 5),
    ])


class TestTensionTrack:
    def test_single_frame(self):
        score = build_score([note("a", 0.0, 1.0, 0)])
        track = tension_track(score, CFG, P, group_onsets(score))
        assert len(track) == 1
        assert track[0].t_cm == 0.0

    def test_repeated_chord_constant(self):
        notes = []
        for i in range(4):
            notes += [note(f"c{i}", float(i), 1.0, 0), note(f"e{i}", float(i), 1.0, 4)]
        score = build_score(notes)
        track = tension_track(score, CFG, P, group_onsets(score))
        assert all(t.t_cm == pytest.approx(0.0, abs=1e-12) for t in track[1:])
        assert len({round(t.t_cd, 12) for t in track}) == 1

    def test_two_chord_progression_composes_per_op_oracles(self):
        score = two_chord_score()
        frames = group_onsets(score)
        c0 = window_cloud(score.notes, frames[0], CFG, P)
        c1 = window_cloud(score.notes, frames[1], CFG, P)
        key_center = key_coe(0, "major", P)
        track = tension_track(score, CFG, P, frames)
        assert track[0].t_cd == pytest.approx(cloud_diameter(c0, P), abs=1e-12)
        assert track[1].t_cd == pytest.approx(cloud_diameter(c1, P), abs=1e-12)
        assert track[0].t_cm == 0.0
        assert track[1].t_cm == pytest.approx(cloud_momentum(c0, c1, P), abs=1e-12)
        assert track[1].t_ts == pytest.approx(tensile_strain(c1, key_center, P), abs=1e-12)

    def test_track_length_matches_frames(self):
        score = two_chord_score()
        frames = group_onsets(score)
        assert len(tension_track(score, CFG, P, frames)) == len(frames)

    def test_empty_score_empty_track(self):
        from tonaltension.symbolic import Score, MeterEntry
        empty = Score((), (MeterEntry(0.0, 4.0, 4, "duple"),), None)
        assert tension_track(empty, CFG, P, group_onsets(empty)) == []

    @settings(deadline=None, max_examples=20)
    @given(st.integers(min_value=-5, max_value=5))
    def test_invariant_under_global_fifth_transposition(self, shift):
        score = two_chord_score()
        base = tension_track(score, CFG, P, group_onsets(score))
        notes = [note(n.id, n.onset, n.duration, n.tpc + shift,
                      n.midi_pitch // 12 - 1) for n in score.notes]
        moved_score = build_score(notes, key=(shift, "major"))
        moved = tension_track(moved_score, CFG, P, group_onsets(moved_score))
        for a, b in zip(base, moved):
            assert b.t_cd == pytest.approx(a.t_cd, abs=1e-9)
            assert b.t_cm == pytest.approx(a.t_cm, abs=1e-9)
            assert b.t_ts == pytest.approx(a.t_ts, abs=1e-9)

    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_invariant_under_joint_scaling(self, c):
        scaled = SpiralParams(r=P.r * c, h=P.h * c)
        score = two_chord_score()
        frames = group_onsets(score)
        base = tension_track(score, CFG, P, frames)
        moved = tension_track(score, CFG, scaled, frames)
        for a, b in zip(base, moved):
            assert b.t_cd == pytest.approx(a.t_cd, abs=1e-9)
            assert b.t_cm == pytest.approx(a.t_cm, abs=1e-9)
            assert b.t_ts == pytest.approx(a.t_ts, abs=1e-9)

    def test_key_fallback_used_when_unkeyed(self):
        score = build_score([note(f"n{i}", float(i), 1.0, t) for i, t in
                             enumerate([0, 1, 4, 0, -1, 1, 0])], key=None)
        tonic, mode = estimate_key(score, P)
        assert (tonic, mode) == (0, "major")
        frames = group_onsets(score)
        keyed = tension_track(build_score(list(score.notes), key=(0, "major")), CFG, P, frames)
        fallback = tension_track(score, CFG, P, frames)
        assert [t.t_ts for t in keyed] == [t.t_ts for t in fallback]
