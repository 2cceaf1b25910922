"""Symbolic score and performance I/O.

Two line-oriented TSV formats:

* ``.score.tsv``: ``#meter <start_beat> <B> <unit> <class>`` header lines
  (repeatable), an optional ``#key <tpc> <major|minor>`` line, then one
  note per line ``id  onset  duration  midi  step  alter  octave  melody``.
  A note stores its MIDI pitch and its line-of-fifths index (tpc), the
  two pitch facts that extraction reads; ``step/alter/octave`` is the
  file form of the tpc. They may all be ``-``, in which case the tpc
  nearest the key on the line of fifths is derived.
* ``.match.tsv``: one performed note per line
  ``score_id  onset_sec  duration_sec  velocity``. Score notes missing
  from the match are allowed (deletions); performed notes referencing
  unknown ids are not.

All values are immutable after construction; parsing different pieces can
proceed concurrently without coordination.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from .errors import ParseError, ValidationError

log = logging.getLogger(__name__)

ONSET_TOLERANCE = 1e-6  # beats; guards float-parsed rationals

_STEP_TPC = {"F": -1, "C": 0, "G": 1, "D": 2, "A": 3, "E": 4, "B": 5}
_STEP_SEMITONE = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}
_TPC_LETTERS = ("F", "C", "G", "D", "A", "E", "B")


def derive_tpc(midi_pitch: int, key_tpc: int = 0) -> int:
    """Spell a bare MIDI pitch: take the line-of-fifths index of its pitch
    class closest to the key tonic, ties resolved toward the sharp side."""
    base = (7 * midi_pitch) % 12
    # candidates are base + 12*m; exactly one falls within (key-6, key+6]
    m = round((key_tpc - base) / 12.0)
    cand = base + 12 * m
    if cand - key_tpc > 6:
        cand -= 12
    elif cand - key_tpc <= -6:
        cand += 12
    return cand


@dataclass(frozen=True)
class ScoreNote:
    id: str
    onset: float
    duration: float
    midi_pitch: int
    tpc: int  # line-of-fifths index, C=0, sharps positive; one sharp = +7
    is_melody: bool = False


def _check_note(n: ScoreNote, seen: set[str], where: str = "") -> None:
    """Raise a ValidationError starting with ``where`` if ``n`` breaks a
    per-note rule; ``seen`` holds the ids before it and gains its own."""
    if n.id in seen:
        raise ValidationError(f"{where}duplicate note id {n.id!r}")
    seen.add(n.id)
    # extraction sweeps notes in onset order, which needs real numbers
    if not math.isfinite(n.onset) or n.onset < 0:
        raise ValidationError(f"{where}note {n.id!r}: onset must be finite and >= 0, got {n.onset}")
    if not (math.isfinite(n.duration) and n.duration > 0):
        raise ValidationError(f"{where}note {n.id!r}: duration must be finite and > 0, got {n.duration}")
    if not 0 <= n.midi_pitch <= 127:
        raise ValidationError(f"{where}note {n.id!r}: midi pitch {n.midi_pitch} out of range")
    if (7 * n.tpc - n.midi_pitch) % 12:
        raise ValidationError(
            f"{where}note {n.id!r}: tpc {n.tpc} cannot spell midi pitch {n.midi_pitch}")


@dataclass(frozen=True)
class MeterEntry:
    start_beat: float
    beats_per_bar: float
    beat_unit: int
    meter_class: str  # duple | triple | other


@dataclass(frozen=True)
class Score:
    notes: tuple[ScoreNote, ...]
    meter_map: tuple[MeterEntry, ...]
    key: tuple[int, str] | None = None  # (tonic tpc, mode)

    def validate(self) -> None:
        """Check a score built in memory (parse_score checks notes per line)."""
        seen: set[str] = set()
        for n in self.notes:
            _check_note(n, seen)
        self._check_layout()

    def _check_layout(self) -> None:
        if not self.meter_map:
            raise ValidationError("meter map is empty")
        if self.meter_map[0].start_beat != 0.0:
            raise ValidationError("meter map must start at beat 0")
        starts = [m.start_beat for m in self.meter_map]
        if starts != sorted(starts):
            raise ValidationError("meter map entries out of order")
        onsets = [n.onset for n in self.notes]
        if onsets != sorted(onsets):
            raise ValidationError("notes not sorted by onset")

    def meter_at(self, beat: float) -> MeterEntry:
        if beat < self.meter_map[0].start_beat:
            raise ValidationError(f"beat {beat} precedes the meter map")
        active = self.meter_map[0]
        for entry in self.meter_map:
            if entry.start_beat <= beat + ONSET_TOLERANCE:
                active = entry
            else:
                break
        return active


@dataclass(frozen=True)
class PerformedNote:
    score_id: str
    onset_sec: float
    duration_sec: float
    velocity: int


@dataclass(frozen=True)
class Performance:
    notes: tuple[PerformedNote, ...]

    def by_score_id(self) -> dict[str, PerformedNote]:
        return {n.score_id: n for n in self.notes}


@dataclass(frozen=True)
class OnsetFrame:
    index: int
    beat: float
    notes: tuple[ScoreNote, ...]  # in score order

    @property
    def note_ids(self) -> frozenset[str]:
        return frozenset(n.id for n in self.notes)


# ---------------------------------------------------------------------------
# score file


def _parse_float(token: str, what: str, lineno: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"line {lineno}: bad {what} {token!r}") from None


def _parse_int(token: str, what: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"line {lineno}: bad {what} {token!r}") from None


def parse_score(text: str) -> Score:
    """Parse ``.score.tsv`` content into a validated Score."""
    meter_map: list[MeterEntry] = []
    key: tuple[int, str] | None = None
    raw_notes: list[tuple[int, list[str]]] = []

    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith("#meter"):
            fields = line.split()
            if len(fields) != 5:
                raise ParseError(f"line {lineno}: #meter expects 4 fields, got {len(fields) - 1}")
            start = _parse_float(fields[1], "meter start", lineno)
            beats = _parse_float(fields[2], "beats per bar", lineno)
            unit = _parse_int(fields[3], "beat unit", lineno)
            mclass = fields[4]
            if mclass not in ("duple", "triple", "other"):
                raise ParseError(f"line {lineno}: unknown meter class {mclass!r}")
            if not (math.isfinite(start) and start >= 0):
                raise ParseError(f"line {lineno}: meter start must be a finite number >= 0, "
                                 f"got {fields[1]!r}")
            if not (math.isfinite(beats) and beats > 0):
                raise ParseError(f"line {lineno}: beats per bar must be a finite number > 0, "
                                 f"got {fields[2]!r}")
            meter_map.append(MeterEntry(start, beats, unit, mclass))
        elif line.startswith("#key"):
            fields = line.split()
            if len(fields) != 3 or fields[2] not in ("major", "minor"):
                raise ParseError(f"line {lineno}: #key expects '<tpc> <major|minor>'")
            tonic = _parse_int(fields[1], "key tpc", lineno)
            # -9..13 holds every real key; derived spellings then stay
            # within -15..19, which serialize_score writes with |alter| <= 2
            if not -9 <= tonic <= 13:
                raise ValidationError(f"line {lineno}: key tpc {tonic} outside -9..13")
            key = (tonic, fields[2])
        elif line.startswith("#"):
            continue  # comment
        else:
            fields = line.split("\t")
            if len(fields) != 8:
                raise ParseError(f"line {lineno}: expected 8 tab-separated fields, got {len(fields)}")
            raw_notes.append((lineno, fields))

    if not meter_map:
        raise ValidationError("score file has no #meter line")
    if not raw_notes:
        raise ValidationError("score file has no notes")

    key_tpc = key[0] if key else 0
    notes = []
    seen: set[str] = set()
    for lineno, f in raw_notes:
        nid = f[0]
        onset = _parse_float(f[1], "onset", lineno)
        duration = _parse_float(f[2], "duration", lineno)
        midi = _parse_int(f[3], "midi pitch", lineno)
        if f[4] == "-" or f[5] == "-" or f[6] == "-":
            tpc = derive_tpc(midi, key_tpc)
        else:
            step = f[4].upper()
            if step not in _STEP_TPC:
                raise ParseError(f"line {lineno}: bad step {f[4]!r}")
            alter = _parse_int(f[5], "alter", lineno)
            if not -2 <= alter <= 2:
                raise ValidationError(f"line {lineno}: alter {alter} outside -2..2")
            octave = _parse_int(f[6], "octave", lineno)
            implied = 12 * (octave + 1) + _STEP_SEMITONE[step] + alter
            if implied != midi:
                raise ValidationError(f"line {lineno}: spelling {step} {alter} {octave} "
                                      f"implies midi {implied}, stored {midi}")
            tpc = _STEP_TPC[step] + 7 * alter
        if f[7] not in ("0", "1"):
            raise ParseError(f"line {lineno}: melody flag must be 0 or 1, got {f[7]!r}")
        notes.append(ScoreNote(nid, onset, duration, midi, tpc, f[7] == "1"))
        _check_note(notes[-1], seen, f"line {lineno}: ")

    notes.sort(key=lambda n: (n.onset, n.midi_pitch))
    score = Score(tuple(notes), tuple(sorted(meter_map, key=lambda m: m.start_beat)), key)
    score._check_layout()
    return score


def _spelling(tpc: int, midi_pitch: int) -> tuple[str, int, int]:
    """The (step, alter, octave) that write ``tpc`` at ``midi_pitch``; the
    caller guarantees that their pitch classes agree."""
    step = _TPC_LETTERS[(tpc + 1) % 7]
    alter = (tpc + 1) // 7
    return step, alter, (midi_pitch - _STEP_SEMITONE[step] - alter) // 12 - 1


def serialize_score(score: Score) -> str:
    """Inverse of parse_score; reparsing yields a field-wise equal Score."""
    lines = []
    for m in score.meter_map:
        lines.append(f"#meter {float(m.start_beat)!r} {float(m.beats_per_bar)!r} {int(m.beat_unit)} {m.meter_class}")
    if score.key is not None:
        lines.append(f"#key {score.key[0]} {score.key[1]}")
    for n in score.notes:
        step, alter, octave = _spelling(n.tpc, n.midi_pitch)
        lines.append(
            f"{n.id}\t{float(n.onset)!r}\t{float(n.duration)!r}\t{int(n.midi_pitch)}"
            f"\t{step}\t{alter}\t{octave}\t{1 if n.is_melody else 0}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# match file


def parse_performance(text: str, score: Score) -> Performance:
    """Parse ``.match.tsv`` content against an already parsed score.

    Unmatched score notes are reported as deletions; performed notes with
    unknown ids are rejected.
    """
    valid_ids = {n.id for n in score.notes}
    matched: dict[str, PerformedNote] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise ParseError(f"line {lineno}: expected 4 tab-separated fields, got {len(fields)}")
        sid = fields[0]
        if sid not in valid_ids:
            raise ValidationError(f"line {lineno}: unknown score id {sid!r}")
        if sid in matched:
            raise ValidationError(f"line {lineno}: score id {sid!r} matched twice")
        onset = _parse_float(fields[1], "onset seconds", lineno)
        duration = _parse_float(fields[2], "duration seconds", lineno)
        velocity = _parse_int(fields[3], "velocity", lineno)
        if not (math.isfinite(onset) and onset >= 0):
            raise ValidationError(f"line {lineno}: onset must be finite and >= 0, got {onset}")
        if not (math.isfinite(duration) and duration > 0):
            raise ValidationError(f"line {lineno}: duration must be finite and > 0")
        if not 1 <= velocity <= 127:
            raise ValidationError(f"line {lineno}: velocity {velocity} outside 1..127")
        matched[sid] = PerformedNote(sid, onset, duration, velocity)

    missing = tuple(n.id for n in score.notes if n.id not in matched)
    if missing:
        log.warning("%d score note(s) unmatched in performance: %s",
                    len(missing), ", ".join(missing[:8]))
    return Performance(tuple(matched.values()))


def serialize_performance(perf: Performance) -> str:
    lines = [
        f"{n.score_id}\t{float(n.onset_sec)!r}\t{float(n.duration_sec)!r}\t{int(n.velocity)}"
        for n in perf.notes
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# onset frames


def group_onsets(score: Score) -> list[OnsetFrame]:
    """Partition notes into frames of equal score onset.

    A note joins the current frame when its onset is within
    ONSET_TOLERANCE of the frame's anchor beat (the first note's onset).
    Each frame carries its notes, so per-frame lookups never rescan the
    score.
    """
    groups: list[list[ScoreNote]] = []
    for n in score.notes:  # already sorted by onset
        if groups and n.onset - groups[-1][0].onset <= ONSET_TOLERANCE:
            groups[-1].append(n)
        else:
            groups.append([n])
    return [OnsetFrame(i, g[0].onset, tuple(g)) for i, g in enumerate(groups)]

