"""Oracle specifications, logical BV circuits, and shot-count tables.

The guessing-game oracle for hidden string b applies a CNOT from data
qubit i to the ancilla iff b_i = 1, between two Hadamard layers.  The
ancilla is always logical qubit n and is prepared in |1> via X then H.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .circuit import (DT_SECONDS, Bitstring, GateEvent, GateKind, TimedCircuit,
                      read_fields)

# Enumerating all 2^n oracles is opt-in and memory-guarded.
ALL_ORACLES_CAP = 12
# The most data bits one int64 data index (ReadoutMap.data_index) holds.
MAX_DATA_BITS = 62


@dataclass(frozen=True)
class OracleSpec:
    """Hidden string b on n data qubits; the ancilla is logical qubit n."""

    b: Bitstring

    @property
    def n(self) -> int:
        return len(self.b)

    @property
    def k(self) -> int:
        return self.b.weight

    @property
    def marked(self) -> tuple[int, ...]:
        return tuple(i for i, bit in enumerate(self.b.bits) if bit)

    def is_representative(self) -> bool:
        """True iff b has the canonical 1^k 0^(n-k) form."""
        return self.b.bits == (1,) * self.k + (0,) * (self.n - self.k)

    def key(self) -> int:
        """Stable 32-bit id used to derive per-shot random streams."""
        return zlib.crc32(f"{self.n}:{self.b.to01()}".encode())

    @classmethod
    def representative(cls, n: int, k: int) -> OracleSpec:
        if not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
        return cls(Bitstring((1,) * k + (0,) * (n - k)))


@dataclass(frozen=True)
class ReadoutMap:
    """Where each logical data bit is read from: a wire index, or None for
    qubits physically absent from the circuit (reduced setup).  The one
    data-bit layout: logical bit 0 is most significant, absent qubits read 0."""

    wire_of_logical: tuple[int | None, ...]

    @property
    def n(self) -> int:
        return len(self.wire_of_logical)

    @classmethod
    def identity(cls, n: int) -> ReadoutMap:
        return cls(tuple(range(n)))

    def data_index(self, basis: np.ndarray, num_wires: int) -> np.ndarray:
        """Data index of each register basis index (wire 0 most significant)."""
        if self.n > MAX_DATA_BITS:
            raise ValueError(f"{self.n} data bits do not fit a 64-bit data index")
        basis = np.asarray(basis, dtype=np.int64)
        index = np.zeros(basis.shape, dtype=np.int64)
        for w in self.wire_of_logical:
            index <<= 1
            if w is not None:
                index |= (basis >> (num_wires - 1 - w)) & 1
        return index

    def key(self, index: int) -> str:
        """Bitstring of one data index, logical bit 0 first."""
        return format(int(index), f"0{self.n}b")


@dataclass(frozen=True)
class ShotTable:
    """Histogram of measured data-qubit outputs for one oracle."""

    oracle: OracleSpec
    counts: dict[str, int]
    total_shots: int

    def __post_init__(self) -> None:
        n = self.oracle.n
        total = 0
        for key, c in self.counts.items():
            if len(key) != n or key.strip("01"):
                raise ValueError(f"bad counts key {key!r} for n={n}")
            if c < 0:
                raise ValueError(f"negative count for {key!r}")
            total += c
        if total != self.total_shots:
            raise ValueError(f"counts sum {total} != total_shots {self.total_shots}")

    @property
    def n(self) -> int:
        return self.oracle.n

    def success_count(self) -> int:
        return self.counts.get(self.oracle.b.to01(), 0)

    def success_prob(self) -> float:
        return self.success_count() / self.total_shots


def bv_logical_circuit(spec: OracleSpec, *,
                       dur_1q: int = 1, dur_2q: int = 1, readout_duration: int = 0,
                       dt: Fraction | float = DT_SECONDS) -> tuple[TimedCircuit, ReadoutMap]:
    """Logical (fully-connected) BV circuit for the given oracle.

    Layout: X on the ancilla, one aligned H layer on every wire, one CNOT
    per marked qubit onto the ancilla (ascending order), and a final
    aligned H layer.  With unit durations and k=n the depth is exactly
    n+3 layers.  Data qubit i is wire i and the ancilla is wire n.
    """
    n = ancilla = spec.n
    events = [GateEvent(GateKind.X, (ancilla,), 0, dur_1q)]
    h_start = dur_1q
    for w in range(n + 1):
        events.append(GateEvent(GateKind.H, (w,), h_start, dur_1q))
    t = h_start + dur_1q
    for logical in spec.marked:
        events.append(GateEvent(GateKind.CNOT, (logical, ancilla), t, dur_2q))
        t += dur_2q
    for w in range(n + 1):
        events.append(GateEvent(GateKind.H, (w,), t, dur_1q))

    circuit = TimedCircuit(n + 1, tuple(events), readout_duration, dt)
    return circuit, ReadoutMap.identity(n)


def representative_oracles(n: int) -> list[OracleSpec]:
    """The n+1 permutation representatives b = 1^k 0^(n-k), k = 0..n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [OracleSpec.representative(n, k) for k in range(n + 1)]


def all_oracles(n: int) -> list[OracleSpec]:
    """All 2^n oracles in lexicographic order; guarded by ALL_ORACLES_CAP."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > ALL_ORACLES_CAP:
        raise ValueError(f"n={n} exceeds the all-oracles cap of {ALL_ORACLES_CAP}")
    return [OracleSpec(Bitstring.from_int(v, n)) for v in range(1 << n)]


def classical_success_prob(n: int) -> float:
    """Best classical single-query success probability, 2^(1-n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 2.0 ** (1 - n)


def reduce_counts(table: ShotTable, m: int) -> ShotTable:
    """Trace the last n-m data qubits out of a representative-oracle table.

    Valid for b = 1^k 0^(n-k) with k <= m < n; the result is the table of
    the size-m oracle b = 1^k 0^(m-k) with the same total shot count.
    """
    spec = table.oracle
    if not spec.is_representative():
        raise ValueError(f"oracle {spec.b} is not of the form 1^k 0^(n-k)")
    k, n = spec.k, spec.n
    if m >= n:
        raise ValueError(f"target size m={m} must be smaller than n={n}")
    if m < k:
        raise ValueError(f"cannot trace out marked qubits: m={m} < k={k}")
    reduced: dict[str, int] = {}
    for key, c in table.counts.items():
        head = key[:m]
        reduced[head] = reduced.get(head, 0) + c
    return ShotTable(OracleSpec.representative(m, k), reduced, table.total_shots)


# -- persistence ---------------------------------------------------------------

_HEADER = "# ssbv counts v1"

_COUNTS_FIELDS = {"oracle": lambda s: OracleSpec(Bitstring.from_str(s)),
                  "total_shots": int, "records": int}


def counts_to_text(table: ShotTable) -> str:
    lines = [_HEADER,
             f"oracle {table.oracle.b.to01()}",
             f"total_shots {table.total_shots}",
             f"records {len(table.counts)}"]
    for key in sorted(table.counts):
        lines.append(f"{key} {table.counts[key]}")
    return "\n".join(lines) + "\n"


def counts_from_text(text: str) -> ShotTable:
    head, records = read_fields(text, _COUNTS_FIELDS, records=True)
    oracle = head["oracle"]
    counts: dict[str, int] = {}
    for lineno, ln in records:
        parts = ln.split()
        if len(parts) != 2 or len(parts[0]) != oracle.n or parts[0].strip("01") \
                or not parts[1].isdecimal():
            raise ValueError(f"line {lineno}: bad count record {ln!r} (n={oracle.n})")
        key, value = parts
        if key in counts:
            raise ValueError(f"line {lineno}: duplicate bitstring {key!r}")
        counts[key] = int(value)
    if len(counts) != head["records"]:
        raise ValueError(f"expected {head['records']} records, found {len(counts)}")
    return ShotTable(oracle, counts, head["total_shots"])


def save_counts(table: ShotTable, path) -> None:
    with open(path, "w") as fh:
        fh.write(counts_to_text(table))


def load_counts(path) -> ShotTable:
    with open(path) as fh:
        return counts_from_text(fh.read())
