"""Symbolic score and performance I/O.

Two line-oriented TSV formats:

* ``.score.tsv``: ``#meter <start_beat> <B> <unit> <class>`` header lines
  (repeatable), at most one ``#key <tpc> <major|minor>`` line, then one
  note per line ``id  onset  duration  midi  step  alter  octave  melody``.
  A note stores its MIDI pitch and its line-of-fifths index (tpc), the
  two pitch facts that extraction reads; ``step/alter/octave`` is the
  file form of the tpc. They may all be ``-``, in which case the tpc
  nearest the key on the line of fifths is derived.
* ``.match.tsv``: one performed note per line
  ``score_id  onset_sec  duration_sec  velocity``. Score notes missing
  from the match are allowed (deletions); performed notes referencing
  unknown ids are not.

``parse_score`` and ``parse_performance`` are where score and match
files are checked, as every file and flag is checked where a command
reads it. Library functions take in-memory values as given: a ``Score``
built in memory, as ``synth`` builds its scores, is trusted as it is.

All values are immutable after construction. The records made once per
note or per frame (``ScoreNote``, ``PerformedNote``, ``OnsetFrame``) are
named tuples, which cost about a third of a frozen dataclass to build.
The parsers convert a line's numbers (a note's onset, duration and MIDI
pitch; a performed note's times and velocity; a meter's three numbers)
in one ``try`` and work out which field is bad only when that fails.
``parse_score`` reads a score in one pass: it checks each line and
builds each note's ``ScoreNote`` where it reads the line, so the first
fault in line order is the one reported; only ``-`` spellings wait for
the end, since a ``#key`` line may follow the notes. It keeps the
``#meter`` entries sorted by start as it reads them, so a repeated start
is found among a line's neighbours there.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

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


class ScoreNote(NamedTuple):
    id: str
    onset: float
    duration: float
    midi_pitch: int
    tpc: int  # line-of-fifths index, C=0, sharps positive; one sharp = +7
    is_melody: bool = False


def _check_note(nid: str, onset: float, duration: float, midi: int,
                seen: set[str], lineno: int) -> None:
    """Raise a ValueError naming line ``lineno`` if the note's fields break
    a per-note rule; ``seen`` holds the ids before it and gains its own."""
    if nid in seen:
        problem = f"duplicate note id {nid!r}"
    # extraction sweeps notes in onset order, which needs real numbers
    elif not math.isfinite(onset) or onset < 0:
        problem = f"note {nid!r}: onset must be finite and >= 0, got {onset}"
    elif not (math.isfinite(duration) and duration > 0):
        problem = f"note {nid!r}: duration must be finite and > 0, got {duration}"
    elif not 0 <= midi <= 127:
        problem = f"note {nid!r}: midi pitch {midi} out of range"
    else:
        seen.add(nid)
        return
    raise ValueError(f"line {lineno}: {problem}")


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


class PerformedNote(NamedTuple):
    score_id: str
    onset_sec: float
    duration_sec: float
    velocity: int


@dataclass(frozen=True)
class Performance:
    notes: tuple[PerformedNote, ...]

    def by_score_id(self) -> dict[str, PerformedNote]:
        return {n.score_id: n for n in self.notes}


class OnsetFrame(NamedTuple):
    index: int
    beat: float
    notes: tuple[ScoreNote, ...]  # in score order


# ---------------------------------------------------------------------------
# score file


def _bad_number(lineno: int, *fields) -> str:
    """The message for the first ``(token, what, convert)`` of ``fields``,
    in line order, whose token ``convert`` rejects. Called when converting
    the same tokens in one ``try`` failed, so one of them is rejected."""
    for token, what, convert in fields:
        try:
            convert(token)
        except ValueError:
            break
    return f"line {lineno}: bad {what} {token!r}"


def _repeated_line(meters: list[tuple[float, int, MeterEntry]], i: int,
                   start: float) -> int | None:
    """The first line of ``meters``, ``(start, line, entry)`` sorted by
    start, whose start lies within ONSET_TOLERANCE of ``start``, which
    sorts in at index ``i``; None if there is none. The starts in
    ``meters`` are more than the tolerance apart (a repeat fails at once),
    so only the two neighbours of index ``i`` can be that close."""
    close = [line for stored, line, _ in meters[max(i - 1, 0):i + 1]
             if abs(stored - start) <= ONSET_TOLERANCE]
    return min(close, default=None)


def parse_score(text: str) -> Score:
    """Parse ``.score.tsv`` content into a Score, raising a ValueError
    that names the line of the first fault."""
    meters: list[tuple[float, int, MeterEntry]] = []  # (start, line, entry) by start
    key: tuple[int, str] | None = None
    key_line = 0
    notes: list[ScoreNote] = []
    unspelled: list[int] = []  # indices into notes of "-" spellings
    seen: set[str] = set()

    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.startswith("#"):
            fields = line.split()
            if fields[0] == "#meter":
                if len(fields) != 5:
                    raise ValueError(f"line {lineno}: #meter expects 4 fields, "
                                     f"got {len(fields) - 1}")
                try:
                    start, beats, unit = float(fields[1]), float(fields[2]), int(fields[3])
                except ValueError:
                    raise ValueError(_bad_number(lineno, (fields[1], "meter start", float),
                                                 (fields[2], "beats per bar", float),
                                                 (fields[3], "beat unit", int))) from None
                mclass = fields[4]
                if mclass not in ("duple", "triple", "other"):
                    raise ValueError(f"line {lineno}: unknown meter class {mclass!r}")
                if not (math.isfinite(start) and start >= 0):
                    raise ValueError(f"line {lineno}: meter start must be a finite number >= 0, "
                                     f"got {fields[1]!r}")
                if not (math.isfinite(beats) and beats > 0):
                    raise ValueError(f"line {lineno}: beats per bar must be a finite number > 0, "
                                     f"got {fields[2]!r}")
                i = bisect_left(meters, (start,))
                earlier = _repeated_line(meters, i, start)
                if earlier is not None:
                    raise ValueError(f"line {lineno}: meter start {fields[1]!r} repeats "
                                     f"the start of line {earlier}")
                meters.insert(i, (start, lineno, MeterEntry(start, beats, unit, mclass)))
            elif fields[0] == "#key":
                if key is not None:
                    raise ValueError(f"line {lineno}: #key repeats the key of "
                                     f"line {key_line}")
                if len(fields) != 3 or fields[2] not in ("major", "minor"):
                    raise ValueError(f"line {lineno}: #key expects '<tpc> <major|minor>'")
                try:
                    tonic = int(fields[1])
                except ValueError:
                    raise ValueError(f"line {lineno}: bad key tpc {fields[1]!r}") from None
                # -9..13 holds every real key; derived spellings then stay
                # within -15..19, which serialize_score writes with |alter| <= 2
                if not -9 <= tonic <= 13:
                    raise ValueError(f"line {lineno}: key tpc {tonic} outside -9..13")
                key, key_line = (tonic, fields[2]), lineno
            # any other line starting with "#" is a comment
        elif line.strip():
            fields = line.split("\t")
            if len(fields) != 8:
                raise ValueError(f"line {lineno}: expected 8 tab-separated fields, "
                                 f"got {len(fields)}")
            nid, onset, duration, midi, spelled_step, alter, octave, melody = fields
            try:
                onset, duration, midi = float(onset), float(duration), int(midi)
            except ValueError:
                raise ValueError(_bad_number(lineno, (onset, "onset", float),
                                             (duration, "duration", float),
                                             (midi, "midi pitch", int))) from None
            if spelled_step == "-" or alter == "-" or octave == "-":
                tpc = 0  # derived from the key after the loop
                unspelled.append(len(notes))
            else:
                step = spelled_step.upper()
                if step not in _STEP_TPC:
                    raise ValueError(f"line {lineno}: bad step {spelled_step!r}")
                try:
                    alter = int(alter)
                except ValueError:
                    raise ValueError(f"line {lineno}: bad alter {alter!r}") from None
                if not -2 <= alter <= 2:
                    raise ValueError(f"line {lineno}: alter {alter} outside -2..2")
                try:
                    octave = int(octave)
                except ValueError:
                    raise ValueError(f"line {lineno}: bad octave {octave!r}") from None
                implied = 12 * (octave + 1) + _STEP_SEMITONE[step] + alter
                if implied != midi:
                    raise ValueError(f"line {lineno}: spelling {step} {alter} {octave} "
                                     f"implies midi {implied}, stored {midi}")
                tpc = _STEP_TPC[step] + 7 * alter
            if melody not in ("0", "1"):
                raise ValueError(f"line {lineno}: melody flag must be 0 or 1, got {melody!r}")
            _check_note(nid, onset, duration, midi, seen, lineno)
            notes.append(ScoreNote(nid, onset, duration, midi, tpc, melody == "1"))

    if not meters:
        raise ValueError("score file has no #meter line")
    if not notes:
        raise ValueError("score file has no notes")
    # a #key line may follow the notes, so "-" spellings wait for the loop's end
    key_tpc = key[0] if key else 0
    for i in unspelled:
        notes[i] = notes[i]._replace(tpc=derive_tpc(notes[i].midi_pitch, key_tpc))

    notes.sort(key=itemgetter(1, 3))  # (onset, midi_pitch)
    first_start, first_line, _ = meters[0]
    if first_start != 0.0:
        raise ValueError(f"line {first_line}: meter map must start at beat 0, "
                         f"got {first_start}")
    return Score(tuple(notes), tuple(entry for _, _, entry in meters), key)


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
            raise ValueError(f"line {lineno}: expected 4 tab-separated fields, got {len(fields)}")
        sid = fields[0]
        if sid not in valid_ids:
            raise ValueError(f"line {lineno}: unknown score id {sid!r}")
        if sid in matched:
            raise ValueError(f"line {lineno}: score id {sid!r} matched twice")
        try:
            onset, duration, velocity = float(fields[1]), float(fields[2]), int(fields[3])
        except ValueError:
            raise ValueError(_bad_number(lineno, (fields[1], "onset seconds", float),
                                         (fields[2], "duration seconds", float),
                                         (fields[3], "velocity", int))) from None
        if not (math.isfinite(onset) and onset >= 0):
            raise ValueError(f"line {lineno}: onset must be finite and >= 0, got {onset}")
        if not (math.isfinite(duration) and duration > 0):
            raise ValueError(f"line {lineno}: duration must be finite and > 0")
        if not 1 <= velocity <= 127:
            raise ValueError(f"line {lineno}: velocity {velocity} outside 1..127")
        matched[sid] = PerformedNote(sid, onset, duration, velocity)

    missing = [n.id for n in score.notes if n.id not in matched]
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
    anchor = 0.0
    for n in score.notes:  # already sorted by onset
        if groups and n.onset - anchor <= ONSET_TOLERANCE:
            groups[-1].append(n)
        else:
            anchor = n.onset
            groups.append([n])
    return [OnsetFrame(i, g[0].onset, tuple(g)) for i, g in enumerate(groups)]
