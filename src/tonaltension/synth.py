"""Synthetic desk-scale corpora.

Generates random tonal scores (mixed chord sizes, occasional chromatic
alterations and held notes, random enharmonic respellings so the tension
features are not collinear with the pitch features) plus performances
whose tempo curve optionally follows a tension-to-tempo rule:

* ``t_cd-slow``: the local beat period stretches with the cloud diameter,
  so wider pitch clouds are played slower (BPR correlates with t_cd);
* ``none``: tempo is a smooth random walk unrelated to the features.

Velocities follow a smooth random walk in both cases. Everything is
driven by one seed; the generator's other settings are the constants
``TEMPO_GAIN``, ``NOISE``, ``RESPELL_PROB`` and ``BASE_BEAT_PERIOD``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SettingError
from .spiral import SpiralParams
from .symbolic import (MeterEntry, Performance, PerformedNote, Score, ScoreNote,
                       derive_tpc, group_onsets)
from .tension import WindowConfig, tension_track

RULES = ("t_cd-slow", "none")
TEMPO_GAIN = 0.8  # beat-period stretch per unit of cloud diameter
NOISE = 0.05  # relative sd of the tempo noise
RESPELL_PROB = 0.35  # chance that a note takes an enharmonic spelling
BASE_BEAT_PERIOD = 0.5  # seconds per beat

_METERS = (
    MeterEntry(0.0, 4.0, 4, "duple"),
    MeterEntry(0.0, 3.0, 4, "triple"),
    MeterEntry(0.0, 2.0, 4, "duple"),
    MeterEntry(0.0, 6.0, 8, "duple"),
)
_CHORD_INTERVALS = (3, 4, 7, 8, 9, 10, 14, 16)


@dataclass(frozen=True)
class SynthConfig:
    pieces: int
    frames: int
    seed: int
    rule: str = "t_cd-slow"

    def __post_init__(self):
        if self.pieces <= 0:
            raise SettingError("pieces", f"must be positive, got {self.pieces}")
        if self.frames < 2:
            raise SettingError("frames", f"must be at least 2 per piece, got {self.frames}")
        if self.seed < 0:
            raise SettingError("seed", f"must be >= 0, got {self.seed}")
        if self.rule not in RULES:
            raise ValueError(f"unknown rule {self.rule!r}; choose from {RULES}")


def _respell(tpc: int, rng: np.random.Generator) -> int:
    if rng.random() >= RESPELL_PROB:
        return tpc
    shifted = tpc + int(rng.choice((-12, 12)))
    # keep accidentals readable (|alter| <= 2)
    return shifted if abs((shifted + 1) // 7) <= 2 else tpc


def generate_score(rng: np.random.Generator, frames: int) -> Score:
    """Random score with ``frames`` distinct onsets and a declared key."""
    meter = _METERS[rng.integers(len(_METERS))]
    key_tpc = int(rng.integers(-3, 4))
    step_choices = (0.5, 1.0) if meter.beat_unit == 4 else (1.0, 2.0)
    notes = []
    beat = 0.0
    center = int(rng.integers(55, 75))
    for fi in range(frames):
        step = float(rng.choice(step_choices))
        size = int(rng.choice((1, 2, 3, 4), p=(0.35, 0.2, 0.3, 0.15)))
        center = int(np.clip(center + rng.integers(-4, 5), 40, 84))
        midis = {center}
        while len(midis) < size:
            midis.add(center + int(rng.choice(_CHORD_INTERVALS)))
        # occasional chromatic neighbor widens the pitch cloud
        if rng.random() < 0.3:
            midis.add(max(midis) + 1)
        top = max(midis)
        for midi in sorted(midis):
            dur = step if rng.random() < 0.8 else 2.0 * step
            notes.append(ScoreNote(
                id=f"n{len(notes)}", onset=beat, duration=dur, midi_pitch=midi,
                tpc=_respell(derive_tpc(midi, key_tpc), rng), is_melody=midi == top))
        beat += step
    score = Score(tuple(notes), (meter,), (key_tpc, "major"))
    score.validate()
    return score


def generate_performance(rng: np.random.Generator, score: Score,
                         cfg: SynthConfig, spiral: SpiralParams,
                         window: WindowConfig) -> Performance:
    """Performance realizing the configured tempo rule plus noise."""
    frames = group_onsets(score)
    beats = np.array([f.beat for f in frames])
    if cfg.rule == "t_cd-slow":
        t_cd = np.array([t.t_cd for t in tension_track(score, window, spiral, frames)])
        shape = 1.0 + TEMPO_GAIN * (t_cd - t_cd.mean())
    else:
        walk = np.cumsum(rng.normal(0.0, 0.02, size=len(frames)))
        shape = 1.0 + (walk - walk.mean())
    bp = BASE_BEAT_PERIOD * shape
    bp += rng.normal(0.0, NOISE * BASE_BEAT_PERIOD, size=len(frames))
    bp = np.maximum(bp, 0.1 * BASE_BEAT_PERIOD)

    onset_sec = np.zeros(len(frames))
    for i in range(1, len(frames)):
        onset_sec[i] = onset_sec[i - 1] + bp[i - 1] * (beats[i] - beats[i - 1])

    vel_walk = np.clip(np.round(
        72 + np.cumsum(rng.normal(0.0, 2.0, size=len(frames)))), 30, 110).astype(int)

    frame_of = {}
    for frame in frames:
        for nid in frame.note_ids:
            frame_of[nid] = frame.index
    performed = []
    for n in score.notes:
        fi = frame_of[n.id]
        dur = float(max(0.05, 0.9 * n.duration * bp[fi]))
        vel = int(np.clip(vel_walk[fi] + rng.integers(-3, 4), 1, 127))
        performed.append(PerformedNote(n.id, float(onset_sec[fi]), dur, vel))
    return Performance(tuple(performed))


def generate_corpus(cfg: SynthConfig, spiral: SpiralParams | None = None,
                    window: WindowConfig | None = None):
    """List of (piece_id, Score, Performance), deterministic in the seed."""
    spiral = spiral or SpiralParams()
    window = window or WindowConfig()
    rng = np.random.default_rng(cfg.seed)
    out = []
    for i in range(cfg.pieces):
        score = generate_score(rng, cfg.frames)
        perf = generate_performance(rng, score, cfg, spiral, window)
        out.append((f"piece{i:03d}", score, perf))
    return out
