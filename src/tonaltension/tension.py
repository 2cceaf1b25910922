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

Each frame's cloud, center of effect and distances are computed inline
on plain coordinate tuples, one per tpc, taken from ``pitch_position``
once per call. They run the float operations of
``spiral.cloud_coe`` and ``spiral.distance`` in the same order, so the
numbers are identical. The diameter is the square root of the largest
squared pair distance, which equals the largest distance bit for bit
because the square root is correctly rounded and monotone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import SettingError
from .spiral import SpiralParams, SpiralPoint
from .spiral import cloud_coe, distance, enharmonic_unit, key_coe, pitch_position
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
    kx, ky, kz = key_center.x, key_center.y, key_center.z
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

        # center of effect: weighted mean of member points in tpc order
        points = []
        sx = sy = sz = total = 0.0
        for tpc in sorted(merged):
            w = merged[tpc]
            point = coords.get(tpc)
            if point is None:
                p = pitch_position(tpc, params)
                point = coords[tpc] = (p.x, p.y, p.z)
            points.append(point)
            sx += w * point[0]
            sy += w * point[1]
            sz += w * point[2]
            total += w
        cx, cy, cz = sx / total, sy / total, sz / total
        if not (math.isfinite(cx) and math.isfinite(cy) and math.isfinite(cz)):
            SpiralPoint(cx, cy, cz)  # raises the non-finite coordinates error

        widest = 0.0  # largest squared distance between two members
        for i, (ax, ay, az) in enumerate(points):
            for bx, by, bz in points[i + 1:]:
                d2 = (ax - bx) ** 2 + (ay - by) ** 2 + (az - bz) ** 2
                if d2 > widest:
                    widest = d2
        if prev is None:
            t_cm = 0.0
        else:
            px, py, pz = prev
            t_cm = math.sqrt((px - cx) ** 2 + (py - cy) ** 2 + (pz - cz) ** 2) / unit
        out.append(TensionFrame(
            math.sqrt(widest) / unit, t_cm,
            math.sqrt((cx - kx) ** 2 + (cy - ky) ** 2 + (cz - kz) ** 2) / unit))
        prev = (cx, cy, cz)
    return out
