"""Expressive target parameters per onset frame.

From a score-aligned performance, each surviving frame gets four numbers:

* bpr: local beat period (slope of averaged performed onsets against
  score beats, forward difference, last value repeated) divided by the
  piece's mean beat period, so the per-piece mean is exactly 1;
* d_bpr: backward difference of bpr with respect to score position;
* vel: loudest MIDI velocity at the frame, divided by 127;
* d_vel: backward difference of vel.

The onset frames come from the caller, which groups the score once for
all of extraction. Frames whose every note was deleted in the alignment
are dropped (with a warning) and must be excluded from the feature rows
as well; TargetRow keeps the original frame index so callers can join
on it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from .symbolic import OnsetFrame, Performance

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TargetRow:
    frame_index: int
    beat: float
    bpr: float
    d_bpr: float
    vel: float
    d_vel: float


TARGET_NAMES = ("bpr", "d_bpr", "vel", "d_vel")


def _matched_frames(performance: Performance, frames: list[OnsetFrame]):
    """Frames paired with their matched performed notes, in score order;
    empty frames dropped with one warning."""
    by_id = performance.by_score_id()
    kept = []
    dropped = []
    for frame in frames:
        notes = [by_id[n.id] for n in frame.notes if n.id in by_id]
        if notes:
            kept.append((frame, notes))
        else:
            dropped.append(frame.index)
    if dropped:
        log.warning("dropping %d frame(s) with no matched notes: %s",
                    len(dropped), dropped[:10])
    return kept


def _mean_onsets(kept) -> list[float]:
    onsets = [sum(n.onset_sec for n in notes) / len(notes) for _, notes in kept]
    for i in range(1, len(onsets)):
        if onsets[i] <= onsets[i - 1]:
            raise ValueError(
                f"averaged onsets not increasing at frame {kept[i][0].index} "
                f"({onsets[i - 1]} -> {onsets[i]}); alignment is defective")
    return onsets


def average_onsets(performance: Performance, frames: list[OnsetFrame]) -> list[float]:
    """Mean performed onset seconds per surviving frame, in frame order."""
    return _mean_onsets(_matched_frames(performance, frames))


def compute_bpr(onsets_sec: list[float], beats: list[float]) -> list[float]:
    """Beat period ratio series; mean is 1 by construction."""
    n = len(onsets_sec)
    if n != len(beats):
        raise ValueError(f"length mismatch: {n} onsets vs {len(beats)} beats")
    if n < 2:
        raise ValueError("beat period ratio needs at least 2 frames")
    bp = []
    for i in range(n - 1):
        gap = beats[i + 1] - beats[i]
        if not gap > 0:
            raise ValueError(f"beats not strictly increasing at index {i}")
        bp.append((onsets_sec[i + 1] - onsets_sec[i]) / gap)
        if not bp[-1] > 0:
            raise ValueError(f"beat period at index {i} is {bp[-1]!r}, not > 0")
    bp.append(bp[-1])
    total = sum(bp)
    if not math.isfinite(total):
        raise ValueError(f"beat periods sum to {total!r}, not a finite number")
    mean = total / n
    return [b / mean for b in bp]


def derivative(series: list[float], beats: list[float]) -> list[float]:
    """Backward difference with respect to score position; 0 at index 0."""
    if len(series) != len(beats):
        raise ValueError(f"length mismatch: {len(series)} values vs {len(beats)} beats")
    out = [0.0]
    for i in range(1, len(series)):
        out.append((series[i] - series[i - 1]) / (beats[i] - beats[i - 1]))
    return out


def targets(performance: Performance, frames: list[OnsetFrame]) -> list[TargetRow]:
    """The four expressive parameters for the surviving frames of
    ``frames``, the caller's ``group_onsets(score)``."""
    kept = _matched_frames(performance, frames)
    if len(kept) < 2:
        raise ValueError("target extraction needs at least 2 matched frames")
    beats = [frame.beat for frame, _ in kept]
    bpr = compute_bpr(_mean_onsets(kept), beats)
    vel = [max(n.velocity for n in notes) / 127.0 for _, notes in kept]
    d_bpr = derivative(bpr, beats)
    d_vel = derivative(vel, beats)
    return [
        TargetRow(frame.index, frame.beat, bpr[i], d_bpr[i], vel[i], d_vel[i])
        for i, (frame, _) in enumerate(kept)
    ]
