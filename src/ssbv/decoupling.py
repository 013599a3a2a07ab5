"""Universally robust (UR) pulse sequences and their insertion into the
per-qubit idle gaps of a timed circuit.

A UR_n sequence is n pi rotations about equatorial axes with quadratic
phase progression; the ideal product of the n pulses is the identity up to
global phase, so a noiseless circuit is unchanged by insertion.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit import GateEvent, GateKind, TimedCircuit, TWO_PI

IDENTITY_TOL = 1e-10


@lru_cache(maxsize=1024)
def pulse_unitary(phase: float, flip_angle_eps: float = 0.0) -> np.ndarray:
    """Pi rotation about the equatorial axis at the given phase, with an
    optional systematic over-rotation by a factor (1 + eps).  Lowered once
    per (phase, eps); the shared matrix is read-only."""
    theta = math.pi * (1.0 + flip_angle_eps)
    axis = np.array([[0.0, np.exp(-1j * phase)],
                     [np.exp(1j * phase), 0.0]])  # cos(phi) X + sin(phi) Y
    u = np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * axis
    u.setflags(write=False)
    return u


def _sequence_product(phases) -> np.ndarray:
    u = np.eye(2, dtype=complex)
    for phi in phases:
        u = pulse_unitary(phi) @ u
    return u


@dataclass(frozen=True)
class DDSequence:
    """Named list of pulse phases; ideal pulses must compose to identity."""

    name: str
    phases: tuple[float, ...]

    def __post_init__(self) -> None:
        phases = tuple(p % TWO_PI for p in self.phases)
        object.__setattr__(self, "phases", phases)
        n = len(phases)
        if n < 4 or n % 2:
            raise ValueError(f"sequence length must be even and >= 4, got {n}")
        prod = _sequence_product(phases)
        if abs(abs(np.trace(prod)) - 2.0) > IDENTITY_TOL:
            raise ValueError(f"{self.name}: ideal pulse product is not identity "
                             f"(|trace| = {abs(np.trace(prod)):.3e})")

    def __len__(self) -> int:
        return len(self.phases)


def ur_phases(n: int) -> DDSequence:
    """The UR_n sequence: phi_k = (k-1)(k-2)/2 * Phi + (k-1) * Phi/2,
    with Phi = pi/m for n = 4m and Phi = 2m*pi/(2m+1) for n = 4m+2.

    phi_1 = 0 by convention and phi_2 = Phi/2, which makes UR_4 = XY4
    (phases 0, pi/2, 0, pi/2) and keeps the n-pulse product the identity
    for every even n.
    """
    if n < 4 or n % 2:
        raise ValueError(f"UR_n needs even n >= 4, got {n}")
    m, rem = divmod(n, 4)
    big_phi = math.pi / m if rem == 0 else 2 * m * math.pi / (2 * m + 1)
    phi2 = big_phi / 2
    phases = tuple((((k - 1) * (k - 2)) / 2 * big_phi + (k - 1) * phi2) % TWO_PI
                   for k in range(1, n + 1))
    return DDSequence(f"ur{n}", phases)


def sequence_from_name(name: str) -> DDSequence | None:
    """Parse a --dd value: none, or ur<n> with n in ASCII digits (ur4, ur14,
    ur18, ...); ``ur_phases`` refuses an odd n or one below 4."""
    if name == "none":
        return None
    digits = name[2:]
    if name.startswith("ur") and digits.isascii() and digits.isdecimal():
        return ur_phases(int(digits))
    raise ValueError(f"unknown DD sequence {name!r}")


@dataclass(frozen=True)
class GapSchedule:
    """Pulse placement inside one idle gap of one qubit."""

    qubit: int
    gap: tuple[int, int]
    pulse_starts: tuple[int, ...]
    sequence: DDSequence


def detect_gaps(circuit: TimedCircuit, include_edges: bool = False
                ) -> dict[int, list[tuple[int, int]]]:
    """Per-qubit maximal idle intervals between scheduled events.

    By default only gaps strictly between a qubit's first and last event
    count; include_edges extends to the leading idle from t=0 and the
    trailing idle up to the circuit's last event.
    """
    total = circuit.total_duration
    gaps: dict[int, list[tuple[int, int]]] = {}
    for q in range(circuit.num_qubits):
        events = circuit.events_on(q)
        out: list[tuple[int, int]] = []
        if not events:
            if include_edges and total > 0:
                out.append((0, total))
            gaps[q] = out
            continue
        if include_edges and events[0].start > 0:
            out.append((0, events[0].start))
        frontier = events[0].end
        for ev in events[1:]:
            if ev.start > frontier:
                out.append((frontier, ev.start))
            frontier = max(frontier, ev.end)
        if include_edges and frontier < total:
            out.append((frontier, total))
        gaps[q] = out
    return gaps


def _ladder(sequence: DDSequence) -> list[DDSequence]:
    """Fallback ladder: UR_n, UR_(n-4), ..., ending at XY4."""
    lengths = []
    n = len(sequence)
    while n > 4:
        lengths.append(n)
        n -= 4
    out = [sequence if m == len(sequence) else ur_phases(m) for m in lengths]
    out.append(ur_phases(4))
    return out


def plan_dd(circuit: TimedCircuit, sequence: DDSequence, pulse_duration: int,
            fallback: str = "ladder") -> list[GapSchedule]:
    """One sequence repetition per gap, pulse centers equally spaced.

    Gaps too short for the configured sequence either walk down the UR
    ladder toward XY4 (fallback='ladder') or stay idle ('idle').  Integer
    rounding is toward the gap start; a gap of exactly n*pulse_duration
    gets back-to-back pulses.
    """
    if pulse_duration <= 0:
        raise ValueError("pulse_duration must be positive")
    if fallback not in ("ladder", "idle"):
        raise ValueError(f"unknown fallback policy {fallback!r}")
    candidates = _ladder(sequence) if fallback == "ladder" else [sequence]
    plans: list[GapSchedule] = []
    for q, intervals in sorted(detect_gaps(circuit).items()):
        for g0, g1 in intervals:
            length = g1 - g0
            chosen = next((s for s in candidates
                           if length >= len(s) * pulse_duration), None)
            if chosen is None:
                continue
            m = len(chosen)
            starts = tuple(g0 + math.floor((i + 0.5) * length / m - pulse_duration / 2)
                           for i in range(m))
            plans.append(GapSchedule(q, (g0, g1), starts, chosen))
    return plans


def schedule_dd(circuit: TimedCircuit, sequence: DDSequence, pulse_duration: int,
                fallback: str = "ladder") -> TimedCircuit:
    """Insert DD pulses into every idle gap that can hold a repetition."""
    pulses: list[GateEvent] = []
    for plan in plan_dd(circuit, sequence, pulse_duration, fallback):
        for start, phase in zip(plan.pulse_starts, plan.sequence.phases):
            pulses.append(GateEvent(GateKind.PHASED_PI, (plan.qubit,),
                                    start, pulse_duration, phase))
    return TimedCircuit(circuit.num_qubits, circuit.events + tuple(pulses),
                        circuit.readout_duration, circuit.dt)
