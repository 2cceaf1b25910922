"""Tonal tension features per score-onset frame.

For every frame a duration-weighted pitch cloud is collected from a
sliding window starting at the frame's beat. Three features are derived
from the spiral-array embedding of that cloud, each divided by the
distance between enharmonically equivalent spellings so the numbers are
commensurate with the other score features:

* cloud diameter: largest pairwise distance among the cloud's pitches;
* cloud momentum: distance from the previous frame's center of effect;
* tensile strain: distance from the key's center of effect.

``tension_track`` takes the onset frames from its caller, which groups
the score once for all of extraction, and computes all three in one loop
over the frames. A forward pointer admits notes that start before the
window ends, and an active list drops notes that end before the window
starts (frame beats only increase), so the sweep costs
O(notes + frames x cloud size), not O(notes x frames).

Centers of effect and distances come from ``spiral.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import SettingError
from .spiral import SpiralParams
from .spiral import (cloud_coe, distance, enharmonic_unit, key_coe, pitch_position,
                     weighted_mean)
from .symbolic import OnsetFrame, Score


@dataclass(frozen=True)
class WindowConfig:
    """Cloud window: width in beats; whether notes held into the window
    from earlier onsets are included."""

    width_beats: float = 1.0
    include_held: bool = True

    def __post_init__(self):
        if not self.width_beats > 0:
            raise SettingError("width_beats", f"must be positive, got {self.width_beats}")

    def header_items(self) -> list[tuple[str, str]]:
        return [
            ("window.width_beats", repr(self.width_beats)),
            ("window.include_held", "1" if self.include_held else "0"),
        ]


class TensionFrame(NamedTuple):
    t_cd: float
    t_cm: float
    t_ts: float


def estimate_key(score: Score, params: SpiralParams) -> tuple[int, str]:
    """Whole-piece fallback: the key whose center of effect is nearest the
    duration-weighted cloud of all notes. Tonics range over tpc -6..+6,
    both modes; ties pick the lower tonic, major first."""
    whole = cloud_coe([(n.tpc, n.duration) for n in score.notes], params)
    best = None
    for tonic in range(-6, 7):
        for mode in ("major", "minor"):
            d = distance(whole, key_coe(tonic, mode, params))
            if best is None or d < best[0]:
                best = (d, tonic, mode)
    return best[1], best[2]


def tension_track(score: Score, cfg: WindowConfig, params: SpiralParams,
                  frames: list[OnsetFrame]) -> list[TensionFrame]:
    """One TensionFrame per frame of ``frames``, the caller's
    ``group_onsets(score)``, in frame order.

    A note contributes to a frame's cloud the length of its overlap with
    ``[beat, beat + width)``; with ``include_held`` off only notes
    starting inside the window count. Equal tpcs merge, summed in score
    order. When rounding against a huge beat leaves no overlap, the
    frame's own notes are weighted by ``min(duration, width)`` instead,
    merged in id order.
    """
    tonic, mode = score.key if score.key is not None else estimate_key(score, params)
    key_center = key_coe(tonic, mode, params)
    unit = enharmonic_unit(params)
    width = cfg.width_beats
    held = cfg.include_held

    coords: dict[int, tuple[float, float, float]] = {}
    # (onset, end, tpc) in score order, so clouds merge in that order
    spans = [(n.onset, n.onset + n.duration, n.tpc) for n in score.notes]
    admitted = 0
    active: list[tuple[float, float, int]] = []
    out = []
    prev = None  # previous frame's center of effect
    for frame in frames:
        beat = frame.beat
        w_end = beat + width
        while admitted < len(spans) and spans[admitted][0] < w_end:
            active.append(spans[admitted])
            admitted += 1
        kept = []
        merged: dict[int, float] = {}
        for span in active:
            onset, end, tpc = span
            if end > beat:
                kept.append(span)
                if held or not onset < beat - 1e-12:
                    # min(end, w_end) - max(onset, beat), as the builtins pick
                    overlap = ((w_end if w_end < end else end)
                               - (beat if beat > onset else onset))
                    if overlap > 0:
                        merged[tpc] = merged.get(tpc, 0.0) + overlap
        active = kept
        if not merged:
            for n in sorted(frame.notes, key=lambda n: n.id):
                merged[n.tpc] = merged.get(n.tpc, 0.0) + min(n.duration, width)

        tpcs = sorted(merged)
        for tpc in tpcs:
            if tpc not in coords:
                coords[tpc] = pitch_position(tpc, params)
        points = [coords[tpc] for tpc in tpcs]
        center = weighted_mean(points, [merged[tpc] for tpc in tpcs])

        # largest squared distance between two members; its square root is
        # the largest distance bit for bit, since sqrt is correctly rounded
        # and monotone
        widest = 0.0
        for i, (ax, ay, az) in enumerate(points):
            for bx, by, bz in points[i + 1:]:
                d2 = (ax - bx) ** 2 + (ay - by) ** 2 + (az - bz) ** 2
                if d2 > widest:
                    widest = d2
        t_cm = 0.0 if prev is None else distance(prev, center) / unit
        out.append(TensionFrame(math.sqrt(widest) / unit, t_cm,
                                distance(center, key_center) / unit))
        prev = center
    return out
