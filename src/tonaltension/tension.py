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
the score once for all of extraction. It sweeps the onset-sorted notes
once: a forward pointer admits notes that start before the window ends,
and an active list drops notes that end before the window starts (frame
beats only increase). The sweep costs O(notes + frames x cloud size),
not O(notes x frames).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SettingError
from .spiral import Cloud, SpiralParams, SpiralPoint
from .spiral import distance, enharmonic_unit, key_coe, make_cloud as _merge_cloud
from .spiral import pitch_position
from .symbolic import OnsetFrame, Score, ScoreNote


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


@dataclass(frozen=True)
class TensionFrame:
    t_cd: float
    t_cm: float
    t_ts: float


def window_cloud(candidates, frame: OnsetFrame, cfg: WindowConfig,
                 params: SpiralParams) -> Cloud:
    """Duration-weighted pitch cloud for the window starting at the frame.

    ``candidates`` must hold, in score order, every note that overlaps the
    window (all of ``score.notes`` will do). A note contributes the length
    of its overlap with ``[frame.beat, frame.beat + width)``; with
    ``include_held`` off only notes starting inside the window count.
    Equal tpcs merge.
    """
    w_start = frame.beat
    w_end = frame.beat + cfg.width_beats
    members = []
    for n in candidates:
        if not cfg.include_held and n.onset < w_start - 1e-12:
            continue
        overlap = min(n.onset + n.duration, w_end) - max(n.onset, w_start)
        if overlap > 0:
            members.append((n.tpc, overlap))
    if not members:
        # reached only when the width or the anchor note's duration is
        # lost in rounding against the frame's beat
        members = [(n.tpc, min(n.duration, cfg.width_beats))
                   for n in sorted(frame.notes, key=lambda n: n.id)]
    return _merge_cloud(members, params)


def cloud_diameter(cloud: Cloud, params: SpiralParams) -> float:
    """Max pairwise member distance over the enharmonic unit; 0 for a
    single merged pitch class."""
    pts = [pitch_position(tpc, params) for tpc, _ in cloud.members]
    best = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = distance(pts[i], pts[j])
            if d > best:
                best = d
    return best / enharmonic_unit(params)


def cloud_momentum(prev: Cloud | None, cur: Cloud, params: SpiralParams) -> float:
    """Distance between consecutive centers of effect; 0 at the first frame."""
    if prev is None:
        return 0.0
    return distance(prev.coe, cur.coe) / enharmonic_unit(params)


def tensile_strain(cloud: Cloud, key_center: SpiralPoint, params: SpiralParams) -> float:
    """Distance from the cloud's center of effect to the key's."""
    return distance(cloud.coe, key_center) / enharmonic_unit(params)


def estimate_key(score: Score, params: SpiralParams) -> tuple[int, str]:
    """Whole-piece fallback: the key whose center of effect is nearest the
    duration-weighted cloud of all notes. Tonics range over tpc -6..+6,
    both modes; ties pick the lower tonic, major first."""
    if not score.notes:
        raise ValueError("cannot estimate a key for an empty score")
    whole = _merge_cloud([(n.tpc, n.duration) for n in score.notes], params)
    best = None
    for tonic in range(-6, 7):
        for mode in ("major", "minor"):
            d = distance(whole.coe, key_coe(tonic, mode, params))
            if best is None or d < best[0]:
                best = (d, tonic, mode)
    return best[1], best[2]


def tension_track(score: Score, cfg: WindowConfig, params: SpiralParams,
                  frames: list[OnsetFrame]) -> list[TensionFrame]:
    """One TensionFrame per frame of ``frames``, the caller's
    ``group_onsets(score)``, in frame order."""
    if not frames:
        return []
    tonic, mode = score.key if score.key is not None else estimate_key(score, params)
    key_center = key_coe(tonic, mode, params)
    notes = score.notes
    admitted = 0
    active: list[ScoreNote] = []  # score order, so clouds merge in that order
    out = []
    prev: Cloud | None = None
    for frame in frames:
        w_end = frame.beat + cfg.width_beats
        while admitted < len(notes) and notes[admitted].onset < w_end:
            active.append(notes[admitted])
            admitted += 1
        active = [n for n in active if n.onset + n.duration > frame.beat]
        cloud = window_cloud(active, frame, cfg, params)
        out.append(TensionFrame(
            t_cd=cloud_diameter(cloud, params),
            t_cm=cloud_momentum(prev, cloud, params),
            t_ts=tensile_strain(cloud, key_center, params),
        ))
        prev = cloud
    return out
