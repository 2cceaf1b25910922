"""The one-pass extraction against the whole-score scans it replaced.

The oracle below is the per-frame code as it stood before the sweep: every
frame rescans every note of the score and the whole meter map, and every
cloud is a ``Cloud`` whose center of effect is an ``(x, y, z)`` tuple
built from freshly built member points. The oracle keeps its own copies
of that record, of the per-frame helpers (the window cloud, its
diameter, momentum and strain), of the Euclidean distance and of the
meter map search. Outputs must be equal, not close, because the sweep keeps
the overlap expression, the merge order, the float operations of each
distance and mean, and the meter search's tolerance.
"""

import math
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from tonaltension import cli
from tonaltension.features import (METRICAL_FEATURES, PITCH_FEATURES,
                                   assemble_features, feature_names,
                                   metrical_features)
from tonaltension.spiral import (SpiralParams, enharmonic_unit, key_coe,
                                 pitch_position)
from tonaltension.symbolic import (ONSET_TOLERANCE, MeterEntry, group_onsets,
                                   parse_performance, parse_score)
from tonaltension.targets import compute_bpr, derivative
from tonaltension.tension import (TensionFrame, WindowConfig, estimate_key,
                                  tension_track)

from conftest import build_score, note

P = SpiralParams()


# ---------------------------------------------------------------------------
# reference oracle: whole-score scans per frame


class Cloud(NamedTuple):
    """Merged ``(tpc, weight)`` members in tpc order, and their center of
    effect."""

    members: tuple[tuple[int, float], ...]
    coe: tuple[float, float, float]


def merge_cloud(members, params):
    """Equal tpcs merged, tpc order, and the weighted mean of freshly built
    member points as the center of effect."""
    merged = {}
    for tpc, w in members:
        merged[tpc] = merged.get(tpc, 0.0) + w
    items = tuple(sorted(merged.items()))
    sx = sy = sz = total = 0.0
    for tpc, w in items:
        x, y, z = pitch_position(tpc, params)
        sx += w * x
        sy += w * y
        sz += w * z
        total += w
    return Cloud(items, (sx / total, sy / total, sz / total))


def distance(a, b):
    """Euclidean distance between two points."""
    return math.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2)


def cloud_diameter(cloud, params):
    """Max pairwise distance of freshly built member points, over the
    enharmonic unit."""
    pts = [pitch_position(tpc, params) for tpc, _ in cloud.members]
    best = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = distance(pts[i], pts[j])
            if d > best:
                best = d
    return best / enharmonic_unit(params)


def cloud_momentum(prev, cur, params):
    """Distance between consecutive centers of effect; 0 at the first frame."""
    if prev is None:
        return 0.0
    return distance(prev.coe, cur.coe) / enharmonic_unit(params)


def tensile_strain(cloud, key_center, params):
    """Distance from the cloud's center of effect to the key's."""
    return distance(cloud.coe, key_center) / enharmonic_unit(params)


def meter_at(score, beat):
    """The last meter map entry starting no later than ONSET_TOLERANCE
    after ``beat``, by a scan of the whole map."""
    if beat < score.meter_map[0].start_beat:
        raise ValueError(f"beat {beat} precedes the meter map")
    active = score.meter_map[0]
    for entry in score.meter_map:
        if entry.start_beat <= beat + ONSET_TOLERANCE:
            active = entry
        else:
            break
    return active


def oracle_cloud(score, frame, cfg, params):
    w_start = frame.beat
    w_end = frame.beat + cfg.width_beats
    members = []
    for n in score.notes:
        if not cfg.include_held and n.onset < w_start - 1e-12:
            continue
        overlap = min(n.onset + n.duration, w_end) - max(n.onset, w_start)
        if overlap > 0:
            members.append((n.tpc, overlap))
    if not members:
        by_id = {n.id: n for n in score.notes}
        members = [
            (by_id[i].tpc, min(by_id[i].duration, cfg.width_beats))
            for i in sorted(n.id for n in frame.notes)
        ]
    return merge_cloud(members, params)


def oracle_track(score, cfg, params):
    frames = group_onsets(score)
    if not frames:
        return []
    tonic, mode = score.key if score.key is not None else estimate_key(score, params)
    key_center = key_coe(tonic, mode, params)
    out = []
    prev = None
    for frame in frames:
        cloud = oracle_cloud(score, frame, cfg, params)
        out.append(TensionFrame(cloud_diameter(cloud, params),
                                cloud_momentum(prev, cloud, params),
                                tensile_strain(cloud, key_center, params)))
        prev = cloud
    return out


def oracle_pitch(frame, score):
    ids = {n.id for n in frame.notes}
    notes = [n for n in score.notes if n.id in ids]
    midis = [n.midi_pitch for n in notes]
    melody = [n.midi_pitch for n in notes if n.is_melody]
    pitch_m = max(melody) / 127.0 if melody else 0.0
    return max(midis) / 127.0, min(midis) / 127.0, pitch_m


def oracle_intervals(frame, score):
    ids = {n.id for n in frame.notes}
    midis = sorted(n.midi_pitch for n in score.notes if n.id in ids)
    bass = midis[0]
    classes = sorted({(m - bass) % 12 for m in midis[1:]} - {0})
    vic = [c / 11.0 for c in classes[:3]]
    return tuple(vic + [0.0] * (3 - len(vic)))


def oracle_features(score, track):
    """(frame, beat, *values) rows for groups P,M,T."""
    names = feature_names({"P", "M", "T"})
    rows = []
    for frame in group_onsets(score):
        values = dict(zip(PITCH_FEATURES, oracle_pitch(frame, score)
                          + oracle_intervals(frame, score)))
        values.update(zip(METRICAL_FEATURES,
                          metrical_features(frame.beat, meter_at(score, frame.beat))))
        t = track[frame.index]
        values.update(t_cd=t.t_cd, t_cm=t.t_cm, t_ts=t.t_ts)
        rows.append((frame.index, frame.beat) + tuple(values[n] for n in names))
    return rows


def oracle_targets(score, performance):
    """(frame, beat, bpr, d_bpr, vel, d_vel) rows; notes in score order."""
    by_id = performance.by_score_id()
    kept = []
    for frame in group_onsets(score):
        ids = {n.id for n in frame.notes}
        notes = [by_id[n.id] for n in score.notes if n.id in ids and n.id in by_id]
        if notes:
            kept.append((frame, notes))
    beats = [frame.beat for frame, _ in kept]
    onsets = [sum(n.onset_sec for n in notes) / len(notes) for _, notes in kept]
    vel = [max(n.velocity for n in notes) / 127.0 for _, notes in kept]
    bpr = compute_bpr(onsets, beats)
    d_bpr, d_vel = derivative(bpr, beats), derivative(vel, beats)
    return [(frame.index, frame.beat, bpr[i], d_bpr[i], vel[i], d_vel[i])
            for i, (frame, _) in enumerate(kept)]


# ---------------------------------------------------------------------------
# random scores: long held notes, onsets at and around the grouping tolerance

_JITTER = (0.0, 0.0, 0.0, 1e-12, 5e-7, 1e-6, 1.0000001e-6, 2e-6, 1e-3)
_DURATIONS = (0.05, 0.25, 0.5, 1.0, 1.5, 3.0, 7.75, 16.0)
_METER_OFFSETS = (0.0, 0.0, 0.125, -2e-6, -1e-6, -5e-7, 5e-7, 1e-6, 1.0000001e-6)
_BAR_LENGTHS = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0)


@st.composite
def scores(draw):
    count = draw(st.integers(1, 40))
    notes = []
    grid = 0
    for i in range(count):
        grid += draw(st.integers(0, 3))
        onset = grid * 0.25 + draw(st.sampled_from(_JITTER))
        dur = draw(st.sampled_from(_DURATIONS) | st.floats(1e-3, 20.0))
        tpc = draw(st.integers(-10, 14))
        notes.append(note(f"n{i}", onset, dur, tpc, octave=draw(st.integers(2, 6)),
                          melody=draw(st.booleans())))
    key = draw(st.none() | st.tuples(st.integers(-6, 6),
                                     st.sampled_from(("major", "minor"))))
    # later meter entries start on, near or between the onset grid's beats
    starts = sorted({g * 0.25 + draw(st.sampled_from(_METER_OFFSETS))
                     for g in draw(st.lists(st.integers(1, grid + 2), max_size=5))})
    meters = tuple(MeterEntry(start, draw(st.sampled_from(_BAR_LENGTHS)),
                              draw(st.sampled_from((4, 8))),
                              draw(st.sampled_from(("duple", "triple", "other"))))
                   for start in [0.0] + starts)
    return build_score(notes, meter=meters, key=key)


windows = st.builds(WindowConfig, width_beats=st.floats(0.1, 8.0),
                    include_held=st.booleans())


class TestSweepMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(scores(), windows, st.sets(st.sampled_from("PMT"), min_size=1))
    def test_tension_and_features_equal(self, score, cfg, groups):
        frames = group_onsets(score)
        track = tension_track(score, cfg, P, frames)
        assert track == oracle_track(score, cfg, P)
        names = feature_names(groups)
        columns = [2 + feature_names({"P", "M", "T"}).index(n) for n in names]
        rows = assemble_features(score, track, groups, frames)
        assert [(r.frame_index, r.beat) + r.values for r in rows] \
            == [row[:2] + tuple(row[c] for c in columns)
                for row in oracle_features(score, track)]

    def test_fallback_when_window_rounds_away(self):
        # at beat 2**60 adding a one-beat width or a short duration is lost
        # in rounding, so no note overlaps and the frame's own notes are
        # weighted instead, merged in id order (a, b, c), not score order
        beat = 2.0 ** 60
        score = build_score([note("a", beat, 0.1, 0, octave=4),
                             note("b", beat, 0.2, 0, octave=3),
                             note("c", beat, 0.3, 0, octave=2),
                             note("d", beat, 0.5, 1, octave=5)])
        assert [n.id for n in score.notes] == ["c", "b", "a", "d"]
        frames = group_onsets(score)
        assert oracle_cloud(score, frames[0], WindowConfig(), P).members \
            == ((0, 0.1 + 0.2 + 0.3), (1, 0.5))
        assert tension_track(score, WindowConfig(), P, frames) \
            == oracle_track(score, WindowConfig(), P)


# ---------------------------------------------------------------------------
# whole command on a synthetic corpus


def _numeric_rows(path):
    _, _, rows = cli.read_csv(str(path))
    return [(int(r[0]),) + tuple(float(v) for v in r[1:]) for r in rows]


@pytest.mark.parametrize("rule", ["t_cd-slow", "none"])
def test_extract_csvs_equal_oracle(tmp_path, rule):
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    assert cli.main(["synth", "--pieces", "1", "--length", "60", "--seed", "5",
                     "--rule", rule, "--out-dir", str(corpus)]) == 0
    score_path, match_path = corpus / "piece000.score.tsv", corpus / "piece000.match.tsv"
    assert cli.main(["extract", str(score_path), "--match", str(match_path),
                     "--groups", "P,M,T", "--out-dir", str(out)]) == 0

    score = parse_score(score_path.read_text())
    perf = parse_performance(match_path.read_text(), score)
    want_targets = oracle_targets(score, perf)
    surviving = {row[0] for row in want_targets}
    want_features = [row for row in oracle_features(score, oracle_track(score, WindowConfig(), P))
                     if row[0] in surviving]

    features = _numeric_rows(out / "piece000.features.csv")
    targets = _numeric_rows(out / "piece000.targets.csv")
    assert len(features) == len(targets) == len(want_targets)
    assert features == want_features
    assert targets == want_targets
