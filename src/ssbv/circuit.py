"""Timed circuit representation and the single-run duration model.

All scheduling lives on an integer grid of dt ticks; conversion to seconds
happens only at analysis boundaries, so gap detection and serialization
stay bit-exact.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property

TWO_PI = 2.0 * math.pi

# Backend sampling interval (2/9 ns), kept as an exact rational.
DT_SECONDS = Fraction(2, 9_000_000_000)


class GateKind(Enum):
    H = "H"
    X = "X"
    CNOT = "CNOT"
    PHASED_PI = "PHASED_PI"


@dataclass(frozen=True)
class Bitstring:
    """Immutable 0/1 string; index 0 is the most significant bit."""

    bits: tuple[int, ...]
    weight: int = field(init=False)

    def __post_init__(self) -> None:
        bits = tuple(int(b) for b in self.bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"bits must be 0/1, got {bits}")
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "weight", sum(bits))

    @classmethod
    def from_str(cls, s: str) -> Bitstring:
        return cls(tuple(int(c) for c in s))

    @classmethod
    def from_int(cls, value: int, length: int) -> Bitstring:
        if value < 0 or value >= 1 << length:
            raise ValueError(f"value {value} does not fit in {length} bits")
        return cls(tuple((value >> (length - 1 - i)) & 1 for i in range(length)))

    def to01(self) -> str:
        return "".join(str(b) for b in self.bits)

    def to_int(self) -> int:
        v = 0
        for b in self.bits:
            v = (v << 1) | b
        return v

    def __len__(self) -> int:
        return len(self.bits)

    def __getitem__(self, i: int) -> int:
        return self.bits[i]

    def __str__(self) -> str:
        return self.to01()


@dataclass(frozen=True)
class GateEvent:
    """One scheduled gate: kind, qubit(s), start and duration in dt ticks."""

    kind: GateKind
    qubits: tuple[int, ...]
    start: int
    duration: int
    phase: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubits", tuple(self.qubits))
        n_expected = 2 if self.kind is GateKind.CNOT else 1
        if len(self.qubits) != n_expected:
            raise ValueError(f"{self.kind.value} takes {n_expected} qubit(s), got {self.qubits}")
        if self.kind is GateKind.CNOT and self.qubits[0] == self.qubits[1]:
            raise ValueError("CNOT qubits must be distinct")
        if self.start < 0:
            raise ValueError("start must be nonnegative")
        if self.duration <= 0:
            raise ValueError("gate duration must be positive")
        if self.kind is GateKind.PHASED_PI:
            object.__setattr__(self, "phase", self.phase % TWO_PI)
        elif self.phase != 0.0:
            raise ValueError("phase is only meaningful for PHASED_PI")

    @property
    def end(self) -> int:
        return self.start + self.duration


@dataclass(frozen=True)
class TimedCircuit:
    """A set of timed gate events on num_qubits wires plus a readout window."""

    num_qubits: int
    events: tuple[GateEvent, ...]
    readout_duration: int = 0
    dt: Fraction | float = DT_SECONDS

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        if self.num_qubits < 0:
            raise ValueError("num_qubits must be nonnegative")
        if self.readout_duration < 0:
            raise ValueError("readout_duration must be nonnegative")

    @property
    def total_duration(self) -> int:
        """Last event end in dt ticks (excludes readout)."""
        return max((ev.end for ev in self.events), default=0)

    @cached_property
    def _events_by_qubit(self) -> dict[int, list[GateEvent]]:
        """Each qubit's events in (start, end) order, ties in event order:
        one stable sort of every event, then split by qubit."""
        out: dict[int, list[GateEvent]] = {}
        for ev in sorted(self.events, key=lambda ev: (ev.start, ev.end)):
            for q in ev.qubits:
                out.setdefault(q, []).append(ev)
        return out

    def events_on(self, qubit: int) -> list[GateEvent]:
        return list(self._events_by_qubit.get(qubit, ()))


@dataclass(frozen=True)
class Violation:
    """First scheduling problem found by validate_circuit."""

    kind: str
    qubit: int
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} on qubit {self.qubit}: {self.detail}"


def validate_circuit(circuit: TimedCircuit) -> Violation | None:
    """Return the first out-of-range or per-qubit overlap violation, or None."""
    for ev in circuit.events:
        for q in ev.qubits:
            if q < 0 or q >= circuit.num_qubits:
                return Violation("qubit-out-of-range", q, f"event {ev.kind.value} at t={ev.start}")
    for q in range(circuit.num_qubits):
        prev = None
        for ev in circuit.events_on(q):
            if prev is not None and ev.start < prev.end:
                return Violation(
                    "overlap", q,
                    f"{prev.kind.value}@[{prev.start},{prev.end}) overlaps "
                    f"{ev.kind.value}@[{ev.start},{ev.end})")
            if prev is None or ev.end > prev.end:
                prev = ev
    return None


def circuit_duration(circuit: TimedCircuit) -> int:
    """Total single-run duration in dt ticks: last event end plus readout."""
    return circuit.total_duration + circuit.readout_duration


@dataclass(frozen=True)
class DurationModel:
    """Single-run time t_r(n) = slope*n + tau_0 in seconds, with an
    optional exact per-n table overriding the linear law at small sizes."""

    slope: float
    tau_0: float
    exact_table: dict[int, float] | None = None

    def __post_init__(self) -> None:
        if self.slope <= 0:
            raise ValueError("slope must be positive")
        if self.tau_0 < 0:
            raise ValueError("tau_0 must be nonnegative")
        if self.exact_table:
            items = sorted(self.exact_table.items())
            for (n0, t0), (n1, t1) in zip(items, items[1:]):
                if t1 <= t0:
                    raise ValueError(f"exact_table not strictly increasing at n={n1}")

    def run_time(self, n: int) -> float:
        """Single-run time in seconds for problem size n."""
        if n < 0:
            raise ValueError("problem size must be nonnegative")
        if self.exact_table and n in self.exact_table:
            return self.exact_table[n]
        return self.slope * n + self.tau_0


# -- text files ---------------------------------------------------------------

def read_fields(text: str | list[tuple[int, str]],
                schema: dict[str, Callable[[str], object]], optional=(),
                records: bool = False
                ) -> tuple[dict[str, object], list[tuple[int, str]]]:
    """Read the leading 'key value' fields of a text file against a schema.

    ``text`` is the text, or the numbered lines a previous call returned;
    blank lines and '#' comments are skipped.  Every name not in ``optional``
    must appear.  With ``records`` the fields end at the first other key, and
    the (file line number, line) pairs from there on are returned; without,
    that key is an unknown field.  Raises ValueError("line N: ...").
    """
    if isinstance(text, str):
        stripped = (ln.split("#", 1)[0].strip() for ln in text.splitlines())
        text = [(lineno, ln) for lineno, ln in enumerate(stripped, 1) if ln]
    values: dict[str, object] = {}
    n_fields = 0
    for lineno, ln in text:
        key, _, raw = ln.partition(" ")
        if key not in schema:
            if records:
                break
            raise ValueError(f"line {lineno}: unknown field {key!r}")
        try:
            values[key] = schema[key](raw.strip())
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"line {lineno}: bad value for {key}: "
                             f"{raw.strip()!r}") from None
        n_fields += 1
    rest = text[n_fields:]
    missing = [key for key in schema if key not in values and key not in optional]
    if missing:
        where = f"line {rest[0][0]}" if rest else "end of text"
        raise ValueError(f"{where}: missing field {', '.join(missing)}")
    return values, rest


# Circuit files: a header, then one event per record:
#   KIND phase q0 [q1] start duration
# phase is '-' except for PHASED_PI.  dt is stored as an exact 'num/den'
# fraction of seconds so round-trips are lossless.

_HEADER = "# ssbv circuit v1"


def _dt_to_text(dt: Fraction | float) -> str:
    if isinstance(dt, Fraction):
        return f"{dt.numerator}/{dt.denominator}"
    return repr(float(dt))


_CIRCUIT_FIELDS = {"num_qubits": int,
                   "dt": lambda s: Fraction(s) if "/" in s else float(s),
                   "readout_duration": int, "events": int}


def circuit_to_text(circuit: TimedCircuit) -> str:
    lines = [_HEADER,
             f"num_qubits {circuit.num_qubits}",
             f"dt {_dt_to_text(circuit.dt)}",
             f"readout_duration {circuit.readout_duration}",
             f"events {len(circuit.events)}"]
    for ev in circuit.events:
        phase = repr(ev.phase) if ev.kind is GateKind.PHASED_PI else "-"
        qubits = " ".join(str(q) for q in ev.qubits)
        lines.append(f"{ev.kind.value} {phase} {qubits} {ev.start} {ev.duration}")
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str) -> TimedCircuit:
    head, records = read_fields(text, _CIRCUIT_FIELDS, records=True)
    events = []
    for lineno, ln in records:
        try:
            kind, phase, *ints = ln.split()
            *qubits, start, duration = (int(p) for p in ints)
            events.append(GateEvent(GateKind(kind), tuple(qubits), start, duration,
                                    0.0 if phase == "-" else float(phase)))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad event {ln!r}: {exc}") from None
    if len(events) != head["events"]:
        raise ValueError(f"expected {head['events']} events, found {len(events)}")
    return TimedCircuit(head["num_qubits"], tuple(events),
                        head["readout_duration"], head["dt"])


def save_circuit(circuit: TimedCircuit, path) -> None:
    with open(path, "w") as fh:
        fh.write(circuit_to_text(circuit))


def load_circuit(path) -> TimedCircuit:
    with open(path) as fh:
        return circuit_from_text(fh.read())
