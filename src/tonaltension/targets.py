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
from functools import reduce
from operator import add
from typing import NamedTuple

from .symbolic import OnsetFrame, Performance

log = logging.getLogger(__name__)


class TargetRow(NamedTuple):
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
    performed = performance.by_score_id().get
    kept = []
    dropped = []
    for frame in frames:
        notes = [p for n in frame.notes if (p := performed(n.id)) is not None]
        if notes:
            kept.append((frame, notes))
        else:
            dropped.append(frame.index)
    if dropped:
        log.warning("dropping %d frame(s) with no matched notes: %s",
                    len(dropped), dropped[:10])
    return kept


def _mean_onsets(kept) -> list[float]:
    # reduce, not sum(): Python 3.12 made sum() of floats compensated; a
    # left-to-right sum gives the same bits on every Python
    onsets = [reduce(add, [n.onset_sec for n in notes], 0) / len(notes) for _, notes in kept]
    for i, (before, after) in enumerate(zip(onsets, onsets[1:]), start=1):
        if after <= before:
            raise ValueError(
                f"averaged onsets not increasing at frame {kept[i][0].index} "
                f"({before} -> {after}); alignment is defective")
    return onsets


def average_onsets(performance: Performance, frames: list[OnsetFrame]) -> list[float]:
    """Mean performed onset seconds per surviving frame, in frame order."""
    return _mean_onsets(_matched_frames(performance, frames))


def compute_bpr(onsets_sec: list[float], beats: list[float]) -> list[float]:
    """Beat period ratio series; mean is 1 by construction. ``beats``
    strictly increase, as frame beats do."""
    bp = []
    for i, (b0, b1, t0, t1) in enumerate(zip(beats, beats[1:], onsets_sec, onsets_sec[1:])):
        period = (t1 - t0) / (b1 - b0)
        if not period > 0:
            raise ValueError(f"beat period at index {i} is {period!r}, not > 0")
        bp.append(period)
    bp.append(bp[-1])
    total = reduce(add, bp, 0)  # left to right, as in _mean_onsets
    if not math.isfinite(total):
        raise ValueError(f"beat periods sum to {total!r}, not a finite number")
    mean = total / len(bp)
    return [b / mean for b in bp]


def derivative(series: list[float], beats: list[float]) -> list[float]:
    """Backward difference with respect to score position; 0 at index 0."""
    return [0.0] + [(s1 - s0) / (b1 - b0) for s0, s1, b0, b1
                    in zip(series, series[1:], beats, beats[1:])]


def targets(performance: Performance, frames: list[OnsetFrame]) -> list[TargetRow]:
    """The four expressive parameters for the surviving frames of
    ``frames``, the caller's ``group_onsets(score)``."""
    kept = _matched_frames(performance, frames)
    if len(kept) < 2:
        raise ValueError("target extraction needs at least 2 matched frames")
    beats = [frame.beat for frame, _ in kept]
    bpr = compute_bpr(_mean_onsets(kept), beats)
    vel = [max([n.velocity for n in notes]) / 127.0 for _, notes in kept]
    d_bpr = derivative(bpr, beats)
    d_vel = derivative(vel, beats)
    return list(map(TargetRow, [frame.index for frame, _ in kept], beats,
                    bpr, d_bpr, vel, d_vel))
