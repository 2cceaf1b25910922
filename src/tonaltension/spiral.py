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


# the SpiralParams lengths, by field, and their names in errors
_LENGTHS = {"r": "radius", "h": "rise per fifth"}


def _check_length(name: str, value: float) -> None:
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive, got {value}")


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
        _check_length(_LENGTHS["r"], self.r)
        _check_length(_LENGTHS["h"], self.h)
        _check_weights("chord_weights", tuple(self.chord_weights))
        _check_weights("key_weights", tuple(self.key_weights))
        # Every tpc extraction places lies in -15..19 (see
        # symbolic.parse_score), and -15 and 19 are its farthest pair:
        # opposite on the circle, at the two ends of the rise. Centers of
        # effect are weighted means of such points, so no distance that
        # extraction takes exceeds theirs; if theirs, over the enharmonic
        # unit, is finite, so is every tension feature.
        try:
            span = (distance(pitch_position(-15, self), pitch_position(19, self))
                    / enharmonic_unit(self))
        except OverflowError:  # from a ** 2 in distance
            span = math.inf
        if not math.isfinite(span):
            raise ValueError(f"radius {self.r} and rise per fifth {self.h} put spiral "
                             f"distances over the enharmonic unit out of float range")

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


def read_calibration(text: str) -> SpiralParams:
    """The SpiralParams of a calibration file's text: ``key=value`` lines
    that set each key ``header_items`` writes once, between blank and
    ``#`` comment lines. Raises ValueError naming the line at fault, or
    the keys missing."""
    known = {key: key.removeprefix("spiral.") for key, _ in SpiralParams().header_items()}
    values, lines = {}, {}
    # only "\n" ends a line, as in iterating over a text-mode file
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if "=" not in line:
                raise ValueError(f"expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in known:
                raise ValueError(f"unknown key {key!r}, expected one of {list(known)}")
            if key in lines:
                raise ValueError(f"{key} repeats the key of line {lines[key]}")
            field = known[key]
            try:
                parsed = (float(value) if field in _LENGTHS
                          else tuple(float(p) for p in value.split(",")))
            except ValueError:
                raise ValueError(f"bad {key} value {value!r}") from None
            if field in _LENGTHS:
                _check_length(_LENGTHS[field], parsed)
            elif len(parsed) != 3:
                raise ValueError(f"expected 3 weights, got {value!r}")
            else:
                _check_weights(field, parsed)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        values[field], lines[key] = parsed, lineno
    missing = [key for key in known if key not in lines]
    if missing:
        raise ValueError(f"spiral calibration is missing {missing}")
    try:
        return SpiralParams(**values)
    except ValueError as exc:
        # each value passed its own check, so the two lengths together
        # overflow: blame the line that completed the pair
        raise ValueError(f"line {max(lines['spiral.r'], lines['spiral.h'])}: {exc}") from None


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
