"""Symbolic score and performance I/O.

Two line-oriented TSV formats plus a Standard MIDI File reader:

* ``.score.tsv``: ``#meter <start_beat> <B> <unit> <class>`` header lines
  (repeatable), an optional ``#key <tpc> <major|minor>`` line, then one
  note per line ``id  onset  duration  midi  step  alter  octave  melody``.
  ``step/alter/octave`` may all be ``-`` for unspelled notes, in which case
  a key-aware nearest-on-the-line-of-fifths spelling is derived.
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
from dataclasses import dataclass, field

from .errors import ParseError, ValidationError

log = logging.getLogger(__name__)

ONSET_TOLERANCE = 1e-6  # beats; guards float-parsed rationals

_STEP_TPC = {"F": -1, "C": 0, "G": 1, "D": 2, "A": 3, "E": 4, "B": 5}
_STEP_SEMITONE = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}
_TPC_LETTERS = ("F", "C", "G", "D", "A", "E", "B")


@dataclass(frozen=True)
class SpelledPitch:
    step: str
    alter: int
    octave: int

    @property
    def tpc(self) -> int:
        """Line-of-fifths index, C=0, sharps positive; one sharp = +7."""
        return _STEP_TPC[self.step] + 7 * self.alter

    @property
    def midi_pitch(self) -> int:
        return 12 * (self.octave + 1) + _STEP_SEMITONE[self.step] + self.alter


def spelled_from_tpc(tpc: int, midi_pitch: int) -> SpelledPitch:
    """Reconstruct an explicit spelling from a line-of-fifths index.

    The octave is chosen so the spelling's implied MIDI pitch equals
    ``midi_pitch`` (caller guarantees the pitch classes agree).
    """
    step = _TPC_LETTERS[(tpc + 1) % 7]
    alter = (tpc + 1) // 7
    octave = (midi_pitch - _STEP_SEMITONE[step] - alter) // 12 - 1
    sp = SpelledPitch(step, alter, octave)
    if sp.midi_pitch != midi_pitch:
        raise ValueError(f"tpc {tpc} cannot spell midi pitch {midi_pitch}")
    return sp


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
    spelled: SpelledPitch | None = None
    is_melody: bool = False

    @property
    def tpc(self) -> int:
        if self.spelled is None:
            raise ValidationError(f"note {self.id!r} has no spelling")
        return self.spelled.tpc


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
        if not self.meter_map:
            raise ValidationError("meter map is empty")
        if self.meter_map[0].start_beat != 0.0:
            raise ValidationError("meter map must start at beat 0")
        starts = [m.start_beat for m in self.meter_map]
        if starts != sorted(starts):
            raise ValidationError("meter map entries out of order")
        seen = set()
        for n in self.notes:
            if n.id in seen:
                raise ValidationError(f"duplicate note id {n.id!r}")
            seen.add(n.id)
            # extraction sweeps notes in onset order, which needs real numbers
            if not math.isfinite(n.onset) or n.onset < 0:
                raise ValidationError(f"note {n.id!r}: onset must be finite and >= 0, got {n.onset}")
            if not (math.isfinite(n.duration) and n.duration > 0):
                raise ValidationError(f"note {n.id!r}: duration must be finite and > 0, got {n.duration}")
            if not 0 <= n.midi_pitch <= 127:
                raise ValidationError(f"note {n.id!r}: midi pitch {n.midi_pitch} out of range")
            if n.spelled is not None and n.spelled.midi_pitch != n.midi_pitch:
                raise ValidationError(
                    f"note {n.id!r}: spelling {n.spelled} implies midi "
                    f"{n.spelled.midi_pitch}, stored {n.midi_pitch}"
                )
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
    missing: tuple[str, ...] = ()  # score ids deleted in the alignment

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
            if beats <= 0:
                raise ParseError(f"line {lineno}: beats per bar must be positive")
            meter_map.append(MeterEntry(start, beats, unit, mclass))
        elif line.startswith("#key"):
            fields = line.split()
            if len(fields) != 3 or fields[2] not in ("major", "minor"):
                raise ParseError(f"line {lineno}: #key expects '<tpc> <major|minor>'")
            key = (_parse_int(fields[1], "key tpc", lineno), fields[2])
        elif line.startswith("#"):
            continue  # comment
        else:
            fields = line.split("\t")
            if len(fields) != 8:
                raise ParseError(f"line {lineno}: expected 8 tab-separated fields, got {len(fields)}")
            raw_notes.append((lineno, fields))

    if not meter_map:
        raise ValidationError("score file has no #meter line")

    key_tpc = key[0] if key else 0
    notes = []
    for lineno, f in raw_notes:
        nid = f[0]
        onset = _parse_float(f[1], "onset", lineno)
        duration = _parse_float(f[2], "duration", lineno)
        midi = _parse_int(f[3], "midi pitch", lineno)
        if f[4] == "-" or f[5] == "-" or f[6] == "-":
            spelled = spelled_from_tpc(derive_tpc(midi, key_tpc), midi)
        else:
            step = f[4].upper()
            if step not in _STEP_TPC:
                raise ParseError(f"line {lineno}: bad step {f[4]!r}")
            spelled = SpelledPitch(step, _parse_int(f[5], "alter", lineno),
                                   _parse_int(f[6], "octave", lineno))
        if f[7] not in ("0", "1"):
            raise ParseError(f"line {lineno}: melody flag must be 0 or 1, got {f[7]!r}")
        notes.append(ScoreNote(nid, onset, duration, midi, spelled, f[7] == "1"))

    notes.sort(key=lambda n: (n.onset, n.midi_pitch))
    score = Score(tuple(notes), tuple(sorted(meter_map, key=lambda m: m.start_beat)), key)
    score.validate()
    return score


def serialize_score(score: Score) -> str:
    """Inverse of parse_score; reparsing yields a field-wise equal Score."""
    lines = []
    for m in score.meter_map:
        lines.append(f"#meter {float(m.start_beat)!r} {float(m.beats_per_bar)!r} {int(m.beat_unit)} {m.meter_class}")
    if score.key is not None:
        lines.append(f"#key {score.key[0]} {score.key[1]}")
    for n in score.notes:
        sp = n.spelled
        step, alter, octave = (sp.step, str(sp.alter), str(sp.octave)) if sp else ("-", "-", "-")
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
        if onset < 0:
            raise ValidationError(f"line {lineno}: negative onset {onset}")
        if not duration > 0:
            raise ValidationError(f"line {lineno}: duration must be > 0")
        if not 1 <= velocity <= 127:
            raise ValidationError(f"line {lineno}: velocity {velocity} outside 1..127")
        matched[sid] = PerformedNote(sid, onset, duration, velocity)

    missing = tuple(n.id for n in score.notes if n.id not in matched)
    if missing:
        log.warning("%d score note(s) unmatched in performance: %s",
                    len(missing), ", ".join(missing[:8]))
    return Performance(tuple(matched.values()), missing)


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


# ---------------------------------------------------------------------------
# Standard MIDI Files


class _ByteReader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def remaining(self) -> int:
        return len(self.data) - self.pos

    def read(self, n: int) -> bytes:
        if self.remaining() < n:
            raise ParseError(f"truncated MIDI file at byte {self.pos}")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u8(self) -> int:
        return self.read(1)[0]

    def u16(self) -> int:
        b = self.read(2)
        return (b[0] << 8) | b[1]

    def u32(self) -> int:
        b = self.read(4)
        return (b[0] << 24) | (b[1] << 16) | (b[2] << 8) | b[3]

    def vlq(self) -> int:
        value = 0
        for _ in range(4):
            b = self.u8()
            value = (value << 7) | (b & 0x7F)
            if not b & 0x80:
                return value
        raise ParseError(f"overlong variable-length quantity at byte {self.pos}")


def import_midi(data: bytes) -> list[tuple[float, float, int, int]]:
    """Read a format 0/1 SMF into ``(onset_sec, duration_sec, pitch,
    velocity)`` tuples, honoring the tempo map; channels are merged.

    Note-on events with velocity 0 close the corresponding note. Note-ons
    left open at end of track are an error.
    """
    r = _ByteReader(data)
    if r.read(4) != b"MThd":
        raise ParseError("not a Standard MIDI File (missing MThd)")
    header_len = r.u32()
    if header_len < 6:
        raise ParseError(f"bad MThd length {header_len}")
    fmt = r.u16()
    ntrks = r.u16()
    division = r.u16()
    r.read(header_len - 6)
    if fmt not in (0, 1):
        raise ParseError(f"unsupported SMF format {fmt}")
    if division & 0x8000:
        raise ParseError("SMPTE time division is not supported")
    if division == 0:
        raise ParseError("zero ticks per quarter note")

    # (tick, track order, event) triples; event is ('tempo', us_per_qn) or
    # ('on'/'off', channel, pitch, velocity)
    events: list[tuple[int, int, tuple]] = []
    order = 0
    for _ in range(ntrks):
        if r.read(4) != b"MTrk":
            raise ParseError("expected MTrk chunk")
        length = r.u32()
        end = r.pos + length
        if end > len(r.data):
            raise ParseError("truncated track chunk")
        tick = 0
        status = None
        while r.pos < end:
            tick += r.vlq()
            b = r.u8()
            if b == 0xFF:
                meta = r.u8()
                mlen = r.vlq()
                payload = r.read(mlen)
                if meta == 0x51:
                    if mlen != 3:
                        raise ParseError(f"bad tempo meta length {mlen}")
                    us = (payload[0] << 16) | (payload[1] << 8) | payload[2]
                    events.append((tick, order, ("tempo", us)))
                    order += 1
                status = None  # meta events cancel running status
                continue
            if b in (0xF0, 0xF7):
                r.read(r.vlq())
                status = None
                continue
            if b & 0x80:
                status = b
                d0 = r.u8()
            else:
                if status is None:
                    raise ParseError(f"dangling data byte at byte {r.pos - 1}")
                d0 = b
            kind = status & 0xF0
            channel = status & 0x0F
            if kind in (0x80, 0x90, 0xA0, 0xB0, 0xE0):
                d1 = r.u8()
            else:
                d1 = 0
            if kind == 0x90 and d1 > 0:
                events.append((tick, order, ("on", channel, d0, d1)))
                order += 1
            elif kind == 0x80 or (kind == 0x90 and d1 == 0):
                events.append((tick, order, ("off", channel, d0)))
                order += 1
        if r.pos != end:
            raise ParseError("track events overran the declared chunk length")

    events.sort(key=lambda e: (e[0], e[1]))

    # tick -> seconds via the tempo map (default 120 bpm)
    tempo_changes = [(0, 500000)]
    for tick, _, ev in events:
        if ev[0] == "tempo":
            if tempo_changes and tempo_changes[-1][0] == tick:
                tempo_changes[-1] = (tick, ev[1])
            else:
                tempo_changes.append((tick, ev[1]))

    def tick_to_sec(tick: int) -> float:
        sec = 0.0
        for i, (t0, us) in enumerate(tempo_changes):
            t1 = tempo_changes[i + 1][0] if i + 1 < len(tempo_changes) else None
            if t1 is None or tick <= t1:
                return sec + (tick - t0) * us / 1e6 / division
            sec += (t1 - t0) * us / 1e6 / division
        return sec

    notes: list[tuple[float, float, int, int]] = []
    open_notes: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for tick, _, ev in events:
        if ev[0] == "on":
            _, channel, pitch, vel = ev
            open_notes.setdefault((channel, pitch), []).append((tick, vel))
        elif ev[0] == "off":
            _, channel, pitch = ev
            queue = open_notes.get((channel, pitch))
            if queue:
                on_tick, vel = queue.pop(0)
                onset = tick_to_sec(on_tick)
                notes.append((onset, tick_to_sec(tick) - onset, pitch, vel))
            # stray note-off: ignore (common in real files)

    dangling = [(ch, pitch, t) for (ch, pitch), q in open_notes.items() for t, _ in q]
    if dangling:
        desc = ", ".join(f"ch{ch} pitch {p} @tick {t}" for ch, p, t in dangling)
        raise ParseError(f"unresolved note-on events at end of track: {desc}")

    notes.sort(key=lambda n: n[0])
    return notes
