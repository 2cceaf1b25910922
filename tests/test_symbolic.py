import pytest
from hypothesis import given, strategies as st

from tonaltension.errors import ParseError, ValidationError
from tonaltension.symbolic import (ONSET_TOLERANCE, Score, derive_tpc, group_onsets,
                                   parse_performance, parse_score,
                                   serialize_performance, serialize_score)

from conftest import build_score, note

ONE_NOTE = "#meter 0 4 4 duple\nn1\t0\t1\t60\tC\t0\t4\t0\n"

TRIAD = (
    "#meter 0 4 4 duple\n"
    "#key 0 major\n"
    "n1\t0\t1\t60\tC\t0\t4\t0\n"
    "n2\t0\t1\t64\tE\t0\t4\t0\n"
    "n3\t0\t1\t67\tG\t0\t4\t1\n"
)


def spelled_note(step, alter, octave, midi):
    """The one note of a score file that spells ``midi`` as step/alter/octave."""
    return parse_score(f"#meter 0 4 4 duple\nn1\t0\t1\t{midi}\t{step}\t{alter}"
                       f"\t{octave}\t0\n").notes[0]


class TestSpelling:
    def test_line_of_fifths_indices(self):
        assert spelled_note("C", 0, 4, 60).tpc == 0
        assert spelled_note("G", 0, 4, 67).tpc == 1
        assert spelled_note("F", 0, 4, 65).tpc == -1
        assert spelled_note("B", 0, 4, 71).tpc == 5
        assert spelled_note("C", 1, 4, 61).tpc == 7  # C sharp
        assert spelled_note("D", -1, 4, 61).tpc == -5  # D flat

    def test_enharmonics_differ_by_twelve(self):
        cs = spelled_note("C", 1, 4, 61)
        db = spelled_note("D", -1, 4, 61)
        assert cs.midi_pitch == db.midi_pitch == 61
        assert cs.tpc - db.tpc == 12

    @given(st.integers(min_value=-15, max_value=15), st.integers(min_value=1, max_value=6))
    def test_tpc_spelling_round_trips(self, tpc, octave):
        score = build_score([note("n1", 0.0, 1.0, tpc, octave)])
        again = parse_score(serialize_score(score)).notes[0]
        assert (again.tpc, again.midi_pitch) == (tpc, score.notes[0].midi_pitch)

    def test_derive_tpc_prefers_near_key(self):
        assert derive_tpc(61, key_tpc=0) == -5  # Db is closer to C than C#
        assert derive_tpc(61, key_tpc=3) == 7  # in A major the same pc is C#

    def test_derive_tpc_tie_goes_sharp(self):
        # pc 6 sits six fifths from C either way; sharp side wins
        assert derive_tpc(66, key_tpc=0) == 6


class TestParseScore:
    def test_minimal_file(self):
        score = parse_score(ONE_NOTE)
        assert len(score.notes) == 1
        assert score.notes[0].tpc == 0
        assert score.notes[0].duration == 1.0
        assert score.key is None

    def test_zero_duration_rejected(self):
        with pytest.raises(ValidationError, match="duration"):
            parse_score("#meter 0 4 4 duple\nn1\t0\t0\t60\tC\t0\t4\t0\n")

    @pytest.mark.parametrize("onset,duration,field", [
        ("nan", "1", "onset"), ("inf", "1", "onset"),
        ("0", "inf", "duration"), ("0", "nan", "duration")])
    def test_non_finite_time_rejected(self, onset, duration, field):
        with pytest.raises(ValidationError, match=field):
            parse_score(f"#meter 0 4 4 duple\nn1\t{onset}\t{duration}\t60\tC\t0\t4\t0\n")

    def test_triad_shares_onset(self):
        score = parse_score(TRIAD)
        assert len(score.notes) == 3
        assert {n.onset for n in score.notes} == {0.0}
        assert score.key == (0, "major")
        assert [n.is_melody for n in score.notes] == [False, False, True]

    def test_duplicate_id_rejected(self):
        text = ONE_NOTE + "n1\t1\t1\t62\tD\t0\t4\t0\n"
        with pytest.raises(ValidationError, match="duplicate"):
            parse_score(text)

    def test_missing_meter_rejected(self):
        with pytest.raises(ValidationError, match="meter"):
            parse_score("n1\t0\t1\t60\tC\t0\t4\t0\n")

    def test_malformed_line_reports_number(self):
        text = "#meter 0 4 4 duple\nn1\t0\t1\t60\tC\t0\t4\t0\nn2\tbroken\t1\t62\tD\t0\t4\t0\n"
        with pytest.raises(ParseError, match="line 3"):
            parse_score(text)

    def test_unspelled_note_gets_key_aware_tpc(self):
        text = "#meter 0 4 4 duple\n#key 3 major\nn1\t0\t1\t61\t-\t-\t-\t0\n"
        assert parse_score(text).notes[0].tpc == 7  # C# in A major

    def test_spelling_midi_mismatch_rejected(self):
        text = "#meter 0 4 4 duple\nn1\t0\t1\t61\tC\t0\t4\t0\n"
        with pytest.raises(ValidationError, match="implies midi"):
            parse_score(text)

    def test_tpc_midi_mismatch_rejected_in_memory(self):
        with pytest.raises(ValidationError, match="cannot spell midi pitch 61"):
            build_score([note("n1", 0.0, 1.0, tpc=0, midi=61)])

    def test_notes_sorted_by_onset_then_pitch(self):
        text = ("#meter 0 4 4 duple\n"
                "n2\t1\t1\t62\tD\t0\t4\t0\n"
                "n1\t0\t1\t67\tG\t0\t4\t0\n"
                "n0\t0\t1\t60\tC\t0\t4\t0\n")
        score = parse_score(text)
        assert [n.id for n in score.notes] == ["n0", "n1", "n2"]


note_tuples = st.lists(
    st.tuples(st.integers(min_value=0, max_value=16),  # onset quarters
              st.integers(min_value=1, max_value=8),  # duration quarters
              st.integers(min_value=-10, max_value=10),  # tpc
              st.integers(min_value=2, max_value=6),  # octave
              st.booleans()),
    min_size=1, max_size=12)


class TestRoundTrip:
    @given(note_tuples, st.booleans())
    def test_serialize_parse_round_trip(self, tuples, with_key):
        notes = [note(f"n{i}", o / 4.0, d / 4.0, tpc, octave, melody)
                 for i, (o, d, tpc, octave, melody) in enumerate(tuples)]
        score = build_score(notes, key=(2, "minor") if with_key else None)
        again = parse_score(serialize_score(score))
        assert again == score


class TestGroupOnsets:
    def test_triad_plus_note(self):
        score = parse_score(TRIAD + "n4\t1\t1\t72\tC\t0\t5\t0\n")
        frames = group_onsets(score)
        assert [len(f.note_ids) for f in frames] == [3, 1]
        assert [f.beat for f in frames] == [0.0, 1.0]
        assert [f.index for f in frames] == [0, 1]

    def test_empty_score(self):
        score = Score((), (build_score([note("x", 0, 1)]).meter_map), None)
        assert group_onsets(score) == []

    def test_tolerance_merges_near_onsets(self):
        notes = [note("a", 0.0, 1.0, 0), note("b", 5e-7, 1.0, 1)]
        frames = group_onsets(build_score(notes))
        assert len(frames) == 1
        assert frames[0].note_ids == frozenset({"a", "b"})

    @given(note_tuples)
    def test_frames_partition_all_notes(self, tuples):
        notes = [note(f"n{i}", o / 4.0, d / 4.0, tpc, octave)
                 for i, (o, d, tpc, octave, _) in enumerate(tuples)]
        score = build_score(notes)
        frames = group_onsets(score)
        seen = [nid for f in frames for nid in f.note_ids]
        assert sorted(seen) == sorted(n.id for n in score.notes)
        beats = [f.beat for f in frames]
        assert beats == sorted(beats)
        assert all(b - a > ONSET_TOLERANCE for a, b in zip(beats, beats[1:]))


class TestParsePerformance:
    def test_full_match(self, caplog):
        score = parse_score(TRIAD)
        text = "n1\t0.0\t0.5\t60\nn2\t0.01\t0.5\t64\nn3\t0.02\t0.5\t70\n"
        with caplog.at_level("WARNING", logger="tonaltension.symbolic"):
            perf = parse_performance(text, score)
        assert len(perf.notes) == 3
        assert not caplog.records

    def test_unknown_id_named_in_error(self):
        score = parse_score(TRIAD)
        with pytest.raises(ValidationError, match="n99"):
            parse_performance("n99\t0\t0.5\t64\n", score)

    def test_deletion_reported(self, caplog):
        score = parse_score(TRIAD)
        with caplog.at_level("WARNING", logger="tonaltension.symbolic"):
            perf = parse_performance("n1\t0.0\t0.5\t60\nn3\t0.02\t0.5\t70\n", score)
        assert len(perf.notes) == 2
        assert [r.getMessage() for r in caplog.records] \
            == ["1 score note(s) unmatched in performance: n2"]

    def test_velocity_out_of_range(self):
        score = parse_score(TRIAD)
        with pytest.raises(ValidationError, match="velocity"):
            parse_performance("n1\t0\t0.5\t128\n", score)

    @pytest.mark.parametrize("onset,duration", [
        ("nan", "0.5"), ("inf", "0.5"), ("-0.1", "0.5"), ("0", "nan"), ("0", "inf"), ("0", "0")])
    def test_non_finite_or_negative_times_rejected(self, onset, duration):
        score = parse_score(TRIAD)
        with pytest.raises(ValidationError, match="line 1"):
            parse_performance(f"n1\t{onset}\t{duration}\t64\n", score)

    def test_double_match_rejected(self):
        score = parse_score(TRIAD)
        with pytest.raises(ValidationError, match="twice"):
            parse_performance("n1\t0\t0.5\t64\nn1\t0.1\t0.5\t64\n", score)

    def test_round_trip(self):
        score = parse_score(TRIAD)
        text = "n1\t0.0\t0.5\t60\nn2\t0.01\t0.5\t64\nn3\t0.02\t0.5\t70\n"
        perf = parse_performance(text, score)
        assert parse_performance(serialize_performance(perf), score) == perf

