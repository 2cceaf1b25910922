"""Spiral-array pitch geometry.

Pitch classes live on a helix indexed by their line-of-fifths position k
(C=0, sharpward positive):

    P(k) = (r * sin(k*pi/2), r * cos(k*pi/2), k * h)

so adjacent fifths are a quarter turn apart and enharmonic respellings
(k vs k+12) sit exactly 12*h apart on the same vertical. Chords and keys
are weighted means ("centers of effect") of pitch points; tonal closeness
is plain Euclidean distance in this space.
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


@dataclass(frozen=True)
class SpiralPoint:
    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise ValueError(f"non-finite spiral coordinates: {self}")


def pitch_position(tpc: int, params: SpiralParams) -> SpiralPoint:
    """Position of line-of-fifths index ``tpc`` on the helix."""
    angle = tpc * HALF_PI
    return SpiralPoint(params.r * math.sin(angle), params.r * math.cos(angle), tpc * params.h)


def _weighted_mean(pairs) -> SpiralPoint:
    """Weight-normalized mean of ``(point, weight)`` pairs."""
    sx = sy = sz = total = 0.0
    for p, w in pairs:
        sx += w * p.x
        sy += w * p.y
        sz += w * p.z
        total += w
    return SpiralPoint(sx / total, sy / total, sz / total)


def center_of_effect(members, params: SpiralParams) -> SpiralPoint:
    """Weight-normalized mean position of ``(tpc, weight)`` pairs."""
    return _weighted_mean((pitch_position(tpc, params), w) for tpc, w in members)


def cloud_coe(members, params: SpiralParams) -> SpiralPoint:
    """Center of effect of a pitch cloud: ``(tpc, weight)`` pairs whose
    equal tpcs are first merged by summing their weights in the order
    given, then weighted in tpc order."""
    merged: dict[int, float] = {}
    for tpc, w in members:
        merged[tpc] = merged.get(tpc, 0.0) + w
    return center_of_effect(sorted(merged.items()), params)


def _triad_coe(root_tpc: int, minor: bool, params: SpiralParams) -> SpiralPoint:
    # chord weights apply to (root, fifth, third); thirds sit at root+4
    # (major) or root-3 (minor) on the line of fifths
    w1, w2, w3 = params.chord_weights
    third = root_tpc - 3 if minor else root_tpc + 4
    return center_of_effect(
        [(root_tpc, w1), (root_tpc + 1, w2), (third, w3)], params
    )


def key_coe(tonic_tpc: int, mode: str, params: SpiralParams) -> SpiralPoint:
    """Center of effect of a key: key-weighted mean of the tonic, dominant
    and subdominant triad centers.

    Minor keys use a minor tonic triad, a major dominant triad and a minor
    subdominant triad.
    """
    minors = (True, False, True) if mode == "minor" else (False, False, False)
    k1, k2, k3 = params.key_weights
    return _weighted_mean([
        (_triad_coe(tonic_tpc, minors[0], params), k1),
        (_triad_coe(tonic_tpc + 1, minors[1], params), k2),
        (_triad_coe(tonic_tpc - 1, minors[2], params), k3),
    ])


def distance(a: SpiralPoint, b: SpiralPoint) -> float:
    """Euclidean distance between two spiral-array points."""
    return math.sqrt((a.x - b.x) ** 2 + (a.y - b.y) ** 2 + (a.z - b.z) ** 2)


def enharmonic_unit(params: SpiralParams) -> float:
    """Distance between enharmonically equivalent spellings (12 fifths),
    used as the global normalizer for tension features."""
    return 12.0 * params.h
