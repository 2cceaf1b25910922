"""Low-level score features per onset frame: pitch group (P), vertical
interval classes, and metrical group (M); assembly with the tension
group (T) into model input rows. The onset frames come from the caller,
which groups the score once for all of extraction. Frame beats only
increase, so assembly walks the meter map alongside the frames instead
of searching it for each frame."""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import SettingError
from .symbolic import ONSET_TOLERANCE, MeterEntry, OnsetFrame, Score
from .tension import TensionFrame

PITCH_FEATURES = ("pitch_h", "pitch_l", "pitch_m", "vic1", "vic2", "vic3")
METRICAL_FEATURES = ("b_phi", "b_d", "b_s", "b_w")
TENSION_FEATURES = ("t_cd", "t_cm", "t_ts")
CANONICAL_ORDER = PITCH_FEATURES + METRICAL_FEATURES + TENSION_FEATURES

GROUPS = {"P": PITCH_FEATURES, "M": METRICAL_FEATURES, "T": TENSION_FEATURES}


class FeatureRow(NamedTuple):
    frame_index: int
    beat: float
    values: tuple[float, ...]  # aligned with the group subset's columns


def feature_names(groups) -> tuple[str, ...]:
    """Canonical column names for a subset of feature groups."""
    groups = set(groups)
    unknown = groups - set(GROUPS)
    if unknown:
        raise SettingError("groups", f"must name feature groups among P, M, T, "
                                     f"got unknown {sorted(unknown)}")
    return tuple(n for n in CANONICAL_ORDER
                 if any(n in GROUPS[g] for g in groups))


def pitch_features(frame: OnsetFrame) -> tuple[float, float, float]:
    """(highest, lowest, melody) MIDI pitches / 127; melody is 0 when the
    frame has no melody note, the highest such note otherwise."""
    midis = [n.midi_pitch for n in frame.notes]
    melody = [n.midi_pitch for n in frame.notes if n.is_melody]
    pitch_m = max(melody) / 127.0 if melody else 0.0
    return max(midis) / 127.0, min(midis) / 127.0, pitch_m


def vertical_intervals(frame: OnsetFrame) -> tuple[float, float, float]:
    """Up to three distinct interval classes above the frame's bass note,
    octaves and unisons excluded, each divided by 11; zero-padded."""
    midis = [n.midi_pitch for n in frame.notes]
    bass = min(midis)
    classes = sorted({(m - bass) % 12 for m in midis})  # classes[0] is the bass's 0
    return (tuple([c / 11.0 for c in classes[1:4]]) + (0.0, 0.0, 0.0))[:3]


def metrical_features(beat: float, meter: MeterEntry) -> tuple[float, float, float, float]:
    """(b_phi, b_d, b_s, b_w) at ``beat`` under ``meter``, the meter map
    entry active there: position within the bar as a fraction, and
    one-hot metrical strength (downbeat / secondary strong / weak).

    Bar position is measured from the active meter segment's start so the
    grid survives mid-piece meter changes. The secondary strong beat is
    B/2 in duple meters (beat 3 of 4/4; with 6/8 encoded as six eighth
    beats, eighth 4).
    """
    bar_len = meter.beats_per_bar
    pos = math.fmod(beat - meter.start_beat, bar_len)
    if pos < 0:
        pos += bar_len
    if bar_len - pos < ONSET_TOLERANCE:
        pos = 0.0
    b_phi = pos / bar_len
    if abs(b_phi) < ONSET_TOLERANCE:
        return 0.0, 1.0, 0.0, 0.0
    if meter.meter_class == "duple" and abs(pos - bar_len / 2.0) < ONSET_TOLERANCE:
        return b_phi, 0.0, 1.0, 0.0
    return b_phi, 0.0, 0.0, 1.0


def assemble_features(score: Score, tension: list[TensionFrame] | None,
                      groups, frames: list[OnsetFrame]) -> list[FeatureRow]:
    """Stack the requested feature groups into rows, one per frame of
    ``frames`` (the caller's ``group_onsets(score)``), in canonical column
    order; excluded groups contribute no columns.

    The active meter of a frame is the last map entry starting no later
    than ONSET_TOLERANCE after its beat."""
    want_p, want_m, want_t = "P" in groups, "M" in groups, "T" in groups
    meters = score.meter_map
    active = 0
    rows = []
    for frame in frames:
        # canonical order is P, then M, then T, so each group's block
        # follows the one before
        values: tuple[float, ...] = ()
        if want_p:
            values = pitch_features(frame) + vertical_intervals(frame)
        if want_m:
            beat = frame.beat
            while (active + 1 < len(meters)
                   and meters[active + 1].start_beat <= beat + ONSET_TOLERANCE):
                active += 1
            values += metrical_features(beat, meters[active])
        if want_t:
            t = tension[frame.index]
            values += (t.t_cd, t.t_cm, t.t_ts)
        rows.append(FeatureRow(frame.index, frame.beat, values))
    return rows
