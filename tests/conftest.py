"""Shared builders for test scores and performances."""

import numpy as np
import pytest

from tonaltension.symbolic import (MeterEntry, Performance, PerformedNote, Score,
                                   ScoreNote)

METER_44 = MeterEntry(0.0, 4.0, 4, "duple")


def midi_of_tpc(tpc: int, octave: int = 4) -> int:
    return 12 * (octave + 1) + (7 * tpc) % 12


def note(nid, onset, dur, tpc=0, octave=4, melody=False):
    return ScoreNote(nid, onset, dur, midi_of_tpc(tpc, octave), tpc, melody)


def build_score(notes, meter=METER_44, key=(0, "major")):
    notes = sorted(notes, key=lambda n: (n.onset, n.midi_pitch))
    meters = meter if isinstance(meter, tuple) else (meter,)
    return Score(tuple(notes), meters, key)


def metronomic_performance(score, beat_period=0.5, velocity=80):
    """Exact mechanical rendition: seconds proportional to beats."""
    performed = [
        PerformedNote(n.id, n.onset * beat_period,
                      max(1e-3, n.duration * beat_period), velocity)
        for n in score.notes
    ]
    return Performance(tuple(performed))


@pytest.fixture
def rng():
    return np.random.default_rng(0)
