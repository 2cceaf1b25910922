import pytest
from hypothesis import given, strategies as st

from tonaltension.features import (CANONICAL_ORDER, assemble_features,
                                   feature_names, metrical_features,
                                   pitch_features, vertical_intervals)
from tonaltension.spiral import SpiralParams
from tonaltension.symbolic import MeterEntry, group_onsets
from tonaltension.tension import WindowConfig, tension_track

from conftest import METER_44, build_score, note

METER_68 = MeterEntry(0.0, 6.0, 8, "duple")
METER_34 = MeterEntry(0.0, 3.0, 4, "triple")


def triad_at_c4(melody=False):
    return build_score([note("c", 0.0, 1.0, 0, 4), note("e", 0.0, 1.0, 4, 4),
                        note("g", 0.0, 1.0, 1, 4, melody=melody)])


def frame0(score):
    return group_onsets(score)[0]


class TestPitchFeatures:
    def test_single_melody_note(self):
        score = build_score([note("c", 0.0, 1.0, 0, 4, melody=True)])
        assert pitch_features(frame0(score)) == (60 / 127, 60 / 127, 60 / 127)

    def test_triad_without_melody_flag(self):
        score = triad_at_c4()
        assert pitch_features(frame0(score)) == (67 / 127, 60 / 127, 0.0)

    def test_lowest_note_matches_worked_example(self):
        score = triad_at_c4()
        assert pitch_features(frame0(score))[1] == 60 / 127

    def test_highest_of_several_melody_notes_wins(self):
        score = build_score([note("a", 0.0, 1.0, 0, 4, melody=True),
                             note("b", 0.0, 1.0, 2, 5, melody=True)])
        top = max(n.midi_pitch for n in score.notes)
        assert pitch_features(frame0(score))[2] == top / 127


class TestVerticalIntervals:
    def test_c_major_triad_worked_example(self):
        score = triad_at_c4()
        assert vertical_intervals(frame0(score)) == (4 / 11, 7 / 11, 0.0)

    def test_single_note_has_no_intervals(self):
        score = build_score([note("c", 0.0, 1.0, 0, 4)])
        assert vertical_intervals(frame0(score)) == (0.0, 0.0, 0.0)

    def test_octave_excluded(self):
        score = build_score([note("c4", 0.0, 1.0, 0, 4), note("c5", 0.0, 1.0, 0, 5)])
        assert vertical_intervals(frame0(score)) == (0.0, 0.0, 0.0)

    def test_pitch_class_repetition_excluded(self):
        score = build_score([note("c4", 0.0, 1.0, 0, 4), note("e4", 0.0, 1.0, 4, 4),
                             note("e5", 0.0, 1.0, 4, 5)])
        assert vertical_intervals(frame0(score)) == (4 / 11, 0.0, 0.0)

    def test_more_than_three_keeps_smallest(self):
        score = build_score([
            note("c", 0.0, 1.0, 0, 4), note("d", 0.0, 1.0, 2, 4),
            note("e", 0.0, 1.0, 4, 4), note("g", 0.0, 1.0, 1, 4),
            note("b", 0.0, 1.0, 5, 4)])
        assert vertical_intervals(frame0(score)) == (2 / 11, 4 / 11, 7 / 11)


class TestMetricalFeatures:
    def make(self, beat, meter):
        return metrical_features(beat, meter)

    def test_downbeat(self):
        assert self.make(0.0, METER_44) == (0.0, 1.0, 0.0, 0.0)

    def test_secondary_strong_beat_in_four_four(self):
        # the worked example: quarter-note 3 of 4/4, half way through the bar
        assert self.make(2.0, METER_44) == (0.5, 0.0, 1.0, 0.0)

    def test_weak_beat(self):
        assert self.make(1.0, METER_44) == (0.25, 0.0, 0.0, 1.0)

    def test_six_eight_secondary_on_fourth_eighth(self):
        assert self.make(3.0, METER_68) == (0.5, 0.0, 1.0, 0.0)

    def test_triple_meter_has_no_secondary_strong(self):
        b_phi, b_d, b_s, b_w = self.make(1.5, METER_34)
        assert (b_s, b_w) == (0.0, 1.0)
        assert b_phi == 0.5

    def test_later_bars_wrap(self):
        assert self.make(8.0, METER_44) == (0.0, 1.0, 0.0, 0.0)

    def test_meter_change_resets_grid(self):
        meters = (MeterEntry(0.0, 4.0, 4, "duple"), MeterEntry(8.0, 3.0, 4, "triple"))
        score = build_score([note("a", 0.0, 1.0, 0), note("b", 9.0, 1.0, 0)],
                            meter=meters)
        rows = assemble_features(score, None, {"M"}, group_onsets(score))
        b_phi, b_d, b_s, b_w = rows[1].values
        # beat 9 is one beat into the 3/4 segment that starts at beat 8
        assert b_phi == pytest.approx(1 / 3)
        assert (b_d, b_s, b_w) == (0.0, 0.0, 1.0)

    @given(st.integers(min_value=0, max_value=64),
           st.sampled_from([(4.0, 4, "duple"), (3.0, 4, "triple"),
                            (6.0, 8, "duple"), (2.0, 4, "duple")]))
    def test_exactly_one_strength_flag(self, eighths, meter):
        b_phi, b_d, b_s, b_w = metrical_features(eighths / 2.0, MeterEntry(0.0, *meter))
        assert b_d + b_s + b_w == 1.0
        assert {b_d, b_s, b_w} <= {0.0, 1.0}
        assert 0.0 <= b_phi < 1.0


class TestAssemble:
    def score(self):
        return build_score([
            note("c", 0.0, 1.0, 0, 4, melody=True), note("e", 0.0, 1.0, 4, 4),
            note("g", 1.0, 1.0, 1, 4), note("d", 2.5, 0.5, 2, 5)])

    def rows(self, groups):
        score = self.score()
        return assemble_features(score, None, groups, group_onsets(score))

    def test_empty_group_set_gives_zero_columns(self):
        rows = self.rows(set())
        assert all(r.values == () for r in rows)
        assert feature_names(set()) == ()

    def test_pitch_only_six_columns(self):
        rows = self.rows({"P"})
        assert all(len(r.values) == 6 for r in rows)

    def test_all_groups_thirteen_canonical_columns(self):
        score = self.score()
        frames = group_onsets(score)
        track = tension_track(score, WindowConfig(), SpiralParams(), frames)
        rows = assemble_features(score, track, {"P", "M", "T"}, frames)
        assert feature_names({"P", "M", "T"}) == CANONICAL_ORDER
        assert all(len(r.values) == 13 for r in rows)

    def test_unknown_group_rejected(self):
        with pytest.raises(ValueError):
            feature_names({"X"})

    def test_all_values_in_unit_interval(self):
        score = self.score()
        frames = group_onsets(score)
        track = tension_track(score, WindowConfig(), SpiralParams(), frames)
        for row in assemble_features(score, track, {"P", "M"}, frames):
            assert all(0.0 <= v <= 1.0 for v in row.values)

    def test_pitch_high_at_least_low(self):
        rows = self.rows({"P"})
        names = feature_names({"P"})
        hi, lo = names.index("pitch_h"), names.index("pitch_l")
        for row in rows:
            assert row.values[hi] >= row.values[lo]

    def test_vic_nondecreasing_before_padding(self):
        rows = self.rows({"P"})
        names = feature_names({"P"})
        idx = [names.index(f"vic{i}") for i in (1, 2, 3)]
        for row in rows:
            vic = [row.values[i] for i in idx]
            nonzero = [v for v in vic if v > 0]
            assert nonzero == sorted(nonzero)
