"""Spiral-array pitch geometry.

Pitch classes live on a helix indexed by their line-of-fifths position k
(C=0, sharpward positive):

    P(k) = (r * sin(k*pi/2), r * cos(k*pi/2), k * h)

so adjacent fifths are a quarter turn apart and enharmonic respellings
(k vs k+12) sit exactly 12*h apart on the same vertical. Chords and keys
are weighted means ("centers of effect") of pitch points; tonal closeness
is plain Euclidean distance in this space. Points are plain ``(x, y, z)``
tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

HALF_PI = math.pi / 2.0

# Published spiral-array calibration. The key-weight triple from the
# literature sums to 0.999, so it is renormalized here to satisfy the
# sum-to-one contract; centers of effect divide by the weight sum, so the
# geometry is unchanged. The weight sum is written out left to right, not
# taken with sum() (see targets._mean_onsets).
DEFAULT_R = 1.0
DEFAULT_H = math.sqrt(2.0 / 15.0)
DEFAULT_CHORD_WEIGHTS = (0.536, 0.274, 0.190)
_KW = (0.516, 0.315, 0.168)
DEFAULT_KEY_WEIGHTS = tuple(w / (_KW[0] + _KW[1] + _KW[2]) for w in _KW)


def _check_weights(name: str, w: tuple[float, float, float]) -> None:
    w1, w2, w3 = w
    if not (w1 >= w2 >= w3 > 0):
        raise ValueError(f"{name} must satisfy w1 >= w2 >= w3 > 0, got {w}")
    if abs(w1 + w2 + w3 - 1.0) > 1e-12:
        raise ValueError(f"{name} must sum to 1 within 1e-12, got sum {w1 + w2 + w3!r}")


@dataclass(frozen=True)
class SpiralParams:
    """Helix calibration plus chord/key weighting triples; a frozen value
    that holds no cache."""

    r: float = DEFAULT_R
    h: float = DEFAULT_H
    chord_weights: tuple[float, float, float] = DEFAULT_CHORD_WEIGHTS
    key_weights: tuple[float, float, float] = DEFAULT_KEY_WEIGHTS

    def __post_init__(self):
        if not (self.r > 0 and math.isfinite(self.r)):
            raise ValueError(f"radius must be positive, got {self.r}")
        if not (self.h > 0 and math.isfinite(self.h)):
            raise ValueError(f"rise per fifth must be positive, got {self.h}")
        _check_weights("chord_weights", tuple(self.chord_weights))
        _check_weights("key_weights", tuple(self.key_weights))

    def header_items(self) -> list[tuple[str, str]]:
        """Flat key=value pairs for embedding in CSV comment headers."""
        cw = ",".join(repr(w) for w in self.chord_weights)
        kw = ",".join(repr(w) for w in self.key_weights)
        return [
            ("spiral.r", repr(self.r)),
            ("spiral.h", repr(self.h)),
            ("spiral.chord_weights", cw),
            ("spiral.key_weights", kw),
        ]

    @classmethod
    def from_header_items(cls, items: dict[str, str]) -> "SpiralParams":
        def triple(s):
            parts = tuple(float(p) for p in s.split(","))
            if len(parts) != 3:
                raise ValueError(f"expected 3 weights, got {s!r}")
            return parts

        missing = [k for k in ("spiral.r", "spiral.h", "spiral.chord_weights",
                               "spiral.key_weights") if k not in items]
        if missing:
            raise ValueError(f"spiral calibration is missing {missing}")
        return cls(
            r=float(items["spiral.r"]),
            h=float(items["spiral.h"]),
            chord_weights=triple(items["spiral.chord_weights"]),
            key_weights=triple(items["spiral.key_weights"]),
        )


Point = tuple[float, float, float]


def pitch_position(tpc: int, params: SpiralParams) -> Point:
    """Position of line-of-fifths index ``tpc`` on the helix."""
    angle = tpc * HALF_PI
    return (params.r * math.sin(angle), params.r * math.cos(angle), tpc * params.h)


def weighted_mean(points, weights) -> Point:
    """Weight-normalized mean of ``points``, summed in the order given;
    raises ValueError if the mean is not finite."""
    sx = sy = sz = total = 0.0
    for (x, y, z), w in zip(points, weights):
        sx += w * x
        sy += w * y
        sz += w * z
        total += w
    center = (sx / total, sy / total, sz / total)
    if not (math.isfinite(center[0]) and math.isfinite(center[1])
            and math.isfinite(center[2])):
        raise ValueError(f"non-finite spiral coordinates: {center}")
    return center


def center_of_effect(members, params: SpiralParams) -> Point:
    """Weight-normalized mean position of ``(tpc, weight)`` pairs."""
    return weighted_mean([pitch_position(tpc, params) for tpc, _ in members],
                         [w for _, w in members])


def cloud_coe(members, params: SpiralParams) -> Point:
    """Center of effect of a pitch cloud: ``(tpc, weight)`` pairs whose
    equal tpcs are first merged by summing their weights in the order
    given, then weighted in tpc order."""
    merged: dict[int, float] = {}
    for tpc, w in members:
        merged[tpc] = merged.get(tpc, 0.0) + w
    return center_of_effect(sorted(merged.items()), params)


def _triad_coe(root_tpc: int, minor: bool, params: SpiralParams) -> Point:
    # chord weights apply to (root, fifth, third); thirds sit at root+4
    # (major) or root-3 (minor) on the line of fifths
    third = root_tpc - 3 if minor else root_tpc + 4
    members = (root_tpc, root_tpc + 1, third)
    return weighted_mean([pitch_position(tpc, params) for tpc in members],
                         params.chord_weights)


def key_coe(tonic_tpc: int, mode: str, params: SpiralParams) -> Point:
    """Center of effect of a key: key-weighted mean of the tonic, dominant
    and subdominant triad centers.

    Minor keys use a minor tonic triad, a major dominant triad and a minor
    subdominant triad.
    """
    minors = (True, False, True) if mode == "minor" else (False, False, False)
    return weighted_mean([_triad_coe(tonic_tpc, minors[0], params),
                          _triad_coe(tonic_tpc + 1, minors[1], params),
                          _triad_coe(tonic_tpc - 1, minors[2], params)],
                         params.key_weights)


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two spiral-array points."""
    return math.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2)


def enharmonic_unit(params: SpiralParams) -> float:
    """Distance between enharmonically equivalent spellings (12 fifths),
    used as the global normalizer for tension features."""
    return 12.0 * params.h
