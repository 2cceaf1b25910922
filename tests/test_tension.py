import inspect
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tonaltension.spiral import (SpiralParams, center_of_effect, distance,
                                 enharmonic_unit, key_coe, pitch_position)
from tonaltension.tension import WindowConfig, estimate_key, tension_track
from tonaltension.symbolic import Score, group_onsets
from tonaltension.synth import generate_score

from conftest import build_score, note

P = SpiralParams()
CFG = WindowConfig()


def track(notes, cfg=CFG, key=(0, "major")):
    score = build_score(notes, key=key)
    return tension_track(score, cfg, P, group_onsets(score))


def strain_of(weights, key=(0, "major")):
    """t_ts of a cloud with these merged tpc weights: the distance from its
    center of effect to the key's, over the enharmonic unit."""
    return (distance(center_of_effect(sorted(weights.items()), P), key_coe(*key, P))
            / enharmonic_unit(P))


class TestMakeCloud:
    """A frame's cloud weights, seen through its tensile strain: the sweep
    merges the same weights in the same order as ``center_of_effect`` of
    the expected weights, so the strain is equal, not close."""

    def test_isolated_whole_note(self):
        t = track([note("a", 0.0, 1.0, tpc=0)])[0]
        assert (t.t_cd, t.t_ts) == (0.0, strain_of({0: 1.0}))

    def test_triad_of_quarters_equal_weights(self):
        t = track([note("a", 0.0, 1.0, 0), note("b", 0.0, 1.0, 1), note("c", 0.0, 1.0, 4)])[0]
        assert t.t_ts == strain_of({0: 1.0, 1: 1.0, 4: 1.0})

    def test_held_bass_weighted_by_overlap(self):
        # bass starts at 0 with duration 1.5: overlaps [1, 2) by 0.5
        t = track([note("bass", 0.0, 1.5, 0, octave=2), note("top", 1.0, 1.0, 1)])[1]
        # oracle: interval intersection arithmetic
        assert t.t_ts == strain_of({0: min(1.5, 2.0) - 1.0, 1: 1.0})

    def test_onset_only_excludes_held_notes(self):
        notes = [note("bass", 0.0, 4.0, 0), note("top", 1.0, 1.0, 1)]
        onset_only = track(notes, WindowConfig(include_held=False))[1]
        assert (onset_only.t_cd, onset_only.t_ts) == (0.0, strain_of({1: 1.0}))
        assert track(notes)[1].t_ts == strain_of({0: 1.0, 1: 1.0})

    def test_duplicate_tpcs_merge(self):
        t = track([note("a", 0.0, 1.0, 0, octave=3), note("b", 0.0, 1.0, 0, octave=4)])[0]
        assert (t.t_cd, t.t_ts) == (0.0, strain_of({0: 2.0}))

    def test_window_shorter_than_notes(self):
        notes = [note("a", 0.0, 2.0, 0), note("b", 0.0, 0.25, 4)]
        assert track(notes, WindowConfig(width_beats=0.5))[0].t_ts \
            == strain_of({0: 0.5, 4: 0.25})
        assert track(notes)[0].t_ts == strain_of({0: 1.0, 4: 0.25})

    def test_overflowing_weights_fail_as_non_finite_center(self):
        # notes ending past the largest float under an infinite window
        # weigh inf, and the weighted mean is nan
        notes = [note("a", 1e308, 1e308, 0), note("b", 1e308, 1e308, 4)]
        with pytest.raises(ValueError, match=r"^non-finite spiral coordinates: "
                                             r"\(nan, nan, nan\)$"):
            track(notes, WindowConfig(width_beats=math.inf))

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ValueError):
            WindowConfig(width_beats=0.0)


class TestCloudDiameter:
    def test_singleton_zero(self):
        assert track([note("a", 0.0, 1.0, 3)])[0].t_cd == 0.0

    def test_merged_unison_zero(self):
        assert track([note("a", 0.0, 1.0, 0, octave=3),
                      note("b", 0.0, 2.0, 0, octave=4)])[0].t_cd == 0.0

    def test_major_triad_matches_pairwise_oracle(self):
        tpcs = (0, 1, 4)
        pts = [np.array([P.r * math.sin(t * math.pi / 2),
                         P.r * math.cos(t * math.pi / 2), t * P.h]) for t in tpcs]
        oracle = max(np.linalg.norm(pts[i] - pts[j])
                     for i in range(3) for j in range(i + 1, 3)) / (12 * P.h)
        t = track([note(f"n{t}", 0.0, 1.0, t) for t in tpcs])[0]
        assert t.t_cd == pytest.approx(oracle, abs=1e-12)

    @settings(deadline=None)
    @given(st.integers(min_value=-12, max_value=12),
           st.lists(st.floats(min_value=0.1, max_value=4.0), min_size=1, max_size=5))
    def test_single_tpc_cloud_is_exactly_zero(self, tpc, ws):
        notes = [note(f"n{i}", 0.0, w, tpc, octave=2 + i) for i, w in enumerate(ws)]
        assert track(notes)[0].t_cd == 0.0


class TestCloudMomentum:
    def test_first_frame_zero(self):
        assert track([note("a", 0.0, 1.0, 0)])[0].t_cm == 0.0

    def test_identical_clouds_zero(self):
        chord = [(0, 1.0), (4, 0.5)]
        notes = [note(f"n{beat}{tpc}", float(beat), w, tpc)
                 for beat in (0, 1) for tpc, w in chord]
        assert track(notes)[1].t_cm == 0.0

    def test_c_to_g_matches_formula(self):
        t = track([note("c", 0.0, 1.0, 0), note("g", 1.0, 1.0, 1)])[1]
        oracle = math.sqrt(2 * P.r ** 2 + P.h ** 2) / (12 * P.h)
        assert t.t_cm == pytest.approx(oracle, abs=1e-12)


def key_weights(tonic):
    """The weight of each tpc in the center of effect of the major key on
    ``tonic``: key weight times chord weight, summed over the tonic,
    dominant and subdominant triads, each as (root, fifth, third)."""
    (k1, k2, k3), (c1, c2, c3) = P.key_weights, P.chord_weights
    weights = {}
    for k, root in ((k1, tonic), (k2, tonic + 1), (k3, tonic - 1)):
        for c, tpc in ((c1, root), (c2, root + 1), (c3, root + 4)):
            weights[tpc] = weights.get(tpc, 0.0) + k * c
    return weights


class TestTensileStrain:
    def test_zero_when_cloud_sits_on_key_center(self):
        # one note per tpc, held for its weight in the major key's center
        notes = [note(f"n{tpc}", 0.0, w, tpc) for tpc, w in key_weights(0).items()]
        assert track(notes)[0].t_ts == pytest.approx(0.0, abs=1e-12)

    def test_c_cloud_against_c_major_key(self):
        oracle = distance(pitch_position(0, P), key_coe(0, "major", P)) / enharmonic_unit(P)
        assert track([note("c", 0.0, 1.0, 0)])[0].t_ts == pytest.approx(oracle, abs=1e-12)

    @settings(deadline=None)
    @given(st.integers(min_value=-6, max_value=6))
    def test_invariant_when_cloud_and_key_move_together(self, shift):
        members = [(0, 1.0), (2, 0.5), (4, 0.25)]

        def strain(s):
            return track([note(f"n{t}", 0.0, w, t + s) for t, w in members],
                         key=(s, "major"))[0].t_ts

        assert strain(shift) == pytest.approx(strain(0), abs=1e-9)


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
        unit = enharmonic_unit(P)
        # each chord fills its one-beat window alone, every note weighing 1
        tpcs0, tpcs1 = (0, 1, 4), (1, 2, 5)
        coe0 = center_of_effect([(t, 1.0) for t in tpcs0], P)
        coe1 = center_of_effect([(t, 1.0) for t in tpcs1], P)

        def diameter(tpcs):
            pts = [pitch_position(t, P) for t in tpcs]
            return max(distance(a, b) for i, a in enumerate(pts) for b in pts[i + 1:]) / unit

        got = tension_track(score, CFG, P, group_onsets(score))
        assert got[0].t_cd == pytest.approx(diameter(tpcs0), abs=1e-12)
        assert got[1].t_cd == pytest.approx(diameter(tpcs1), abs=1e-12)
        assert got[0].t_cm == 0.0
        assert got[1].t_cm == pytest.approx(distance(coe0, coe1) / unit, abs=1e-12)
        assert got[1].t_ts == pytest.approx(
            distance(coe1, key_coe(0, "major", P)) / unit, abs=1e-12)

    def test_track_length_matches_frames(self):
        score = two_chord_score()
        frames = group_onsets(score)
        assert len(tension_track(score, CFG, P, frames)) == len(frames)

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

    def test_sweep_work_is_linear_in_notes(self):
        # the sweep visits each active span once per frame it stays active:
        # a synth score took 597 visits and the same score played twice, the
        # copy shifted by the score's length, 1198 (ratio 2.007). A sweep that
        # kept ended notes active reads a ratio of 3.93; the bound is today's
        # ratio plus a margin of about 0.1
        lines, first = inspect.getsourcelines(tension_track)
        line = first + next(i for i, text in enumerate(lines)
                            if "onset, end, tpc = span" in text)

        def visits(score):
            count = 0

            def local(frame, event, arg):
                nonlocal count
                count += event == "line" and frame.f_lineno == line
                return local

            frames = group_onsets(score)
            outer = sys.gettrace()
            sys.settrace(lambda frame, event, arg:
                         local if frame.f_code is tension_track.__code__ else None)
            try:
                tension_track(score, CFG, P, frames)
            finally:
                sys.settrace(outer)
            return count

        score = generate_score(np.random.default_rng(1), 80)
        length = max(n.onset + n.duration for n in score.notes)
        twice = Score(score.notes + tuple(n._replace(id=f"{n.id}b", onset=n.onset + length)
                                          for n in score.notes),
                      score.meter_map, score.key)
        once = visits(score)
        assert once > len(score.notes)
        assert visits(twice) / once <= 2.1
