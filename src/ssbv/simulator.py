"""Two execution backends over one compiled operation stream.

``compile_program`` lowers a timed circuit plus device/noise models into an
ordered list of primitive operations (unitaries, depolarizing channels, ZZ
phases, and one ``idle`` op per idle interval: damping, then dephasing,
then the detuning phase of a detuned wire), each wire's one-wire ops after
its last two-wire op moved up to follow that op.  The trajectory backend
samples one Kraus branch per channel application (exact in distribution)
on batched per-wire factors, along ``Program.walk``, a plan fixed per
program: two-wire ops merge the factors of their wires, and each wire is
measured and dropped right after its last op, so a BV circuit never holds
more than two live wires.  A merge puts the factor whose wires all leave
first on the low bits: the ops a merged factor runs are mostly the moved-up
tail of the wire that leaves next, and on the low bit their strided view
is one inner loop over the shots.  Each factor's views are built once,
when its array is made, for the in-place numpy kernels of ``_kernels``.
Each batch is screened once, in one expression over the smallest and
largest uniform of every channel: a Pauli channel that no shot of the
batch branches on is skipped, and damping tests for a jump only the shots
that can jump.  States are kept unnormalized (quantum jumps with
unnormalized states, Dalibard, Castin and Molmer, PRL 68, 580, 1992): an
idle moves the jumping shots' bit-1 half onto the bit-0 half, then
multiplies the bit-1 half once by the no-jump factor ``sqrt(1 - p)
exp(i delta t)``, on a detuned wire a row of a table computed once per
batch over the wire's distinct idle ops; a jump is a ratio of norms, and
only measurement renormalizes.

The exact backend walks the same stream on per-wire density factors: each
factor is a tensor with a branch axis, one Gauss-Hermite node axis per
open wire (a single node for a wire without detuning), then row bits and
column bits.  Each distinct op is lowered once to a
superoperator ``sum_K K (x) conj(K)`` whose Kraus operators come from
``noise`` (one Kraus operator for gates and ZZ; an idle's are the products
of its dephasing and damping ones); on a detuned wire an idle's
superoperator is then left-multiplied by a stack of per-node diagonals.
One-wire superoperators are multiplied per wire until
a two-wire op or the wire's end needs them, a two-wire op merges the
factors of its wires, and right after its last op a wire leaves its
factor: a data wire is read through its readout POVM onto a branch bit,
any other wire is traced out, and its node axis is averaged.  After a
merge or a wire's leaving, the branches whose node-weighted trace is below
1e-15 of their factor's are dropped.  Each detuned wire takes the smallest
rule that matches the Gaussian characteristic function over its total
detuned idle time.

Conventions: wire 0 is the most significant bit of serialized bitstrings;
gate errors follow their gate, idle decoherence is applied at the end of
each per-wire idle interval, and coherent detuning/ZZ phases accrue during
idles only.  The readout window contributes no idle decoherence; its
errors live in the confusion matrix, which one readout stage applies on
every output path (``ReadoutMap.data_index`` projects basis states onto
data bits, ``_readout_rates`` looks up each bit's rates by physical
qubit).  Each oracle's shots draw from one Philox keyed by (oracle key,
master_seed), shot i reading its own block of counters, so shot i's
uniforms and detuning normals are a pure function of (master_seed, oracle
key, i, program) and every split of the shots into batches produces
identical tables.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import _kernels as ker
from ._kernels import bit_view, columns
from .circuit import GateEvent, GateKind, TimedCircuit, validate_circuit
from .decoupling import detect_gaps, pulse_unitary
from .noise import (NOISELESS, PAULIS_1Q, DeviceModel, NoiseConfig,
                    amplitude_damping, dephasing, depolarizing, idle_params)
from .oracles import OracleSpec, ReadoutMap, ShotTable

# Most wires one factor of the trajectory executor may hold.
TRAJECTORY_MAX_WIRES = 21
# Bytes of widest factor, random streams and no-jump table per batch of
# trajectory shots.  Results do not depend on the batch size (batch
# invariance).
BATCH_BYTES = 32 << 20
# Largest 1-D Gauss-Hermite rule the detuning average may use.
GH_NODES_DEFAULT = 21
# Most complex entries one factor of the exact backend may hold (branches x
# detuning node points x 4^wires), and most branches of its distribution.
EXACT_MAX_ENTRIES = 1 << 22
# Largest error of a detuning rule on the Gaussian characteristic function.
EXACT_QUADRATURE_TOL = 1e-9

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
_PAULI_COLUMNS = tuple(columns(m) for m in PAULIS_1Q)


class SimulatorCapError(Exception):
    """Requested register exceeds the backend's qubit cap."""


@dataclass(frozen=True, slots=True)
class Op:
    """One primitive step of the compiled stream: a gate, a depolarizing
    channel after a gate, a ZZ phase, or one wire's idle, which damps with
    probability p, then dephases with probability q, then takes its
    detuning phase for t seconds when its wire is detuned."""

    kind: str                 # u1 | cnot | dep1 | dep2 | idle | zz
    wires: tuple[int, ...]
    p: float = 0.0            # dep1/dep2 probability; idle damping probability
    q: float = 0.0            # idle dephasing probability
    t: float = 0.0            # idle duration in seconds
    phase: complex = 0.0      # fixed relative phase (zz)
    matrix: np.ndarray | None = None  # u1


class Walk(NamedTuple):
    """The trajectory plan of one program.  ``steps``: (kind, slot of the
    factor, ...) with ``new, wires, strides``; ``merge, lo, wires, strides``
    (``lo`` on the low bits, then freed); ``measure, w, sw, wires,
    strides``; ``u1, sw, columns``; ``cnot | zz, sa, sb, phase``; ``dep,
    column, p, strides``; ``idle, sw, p, p column, q, q column, no-jump
    row`` (-1: no column, or no detuning).  A make step (new, merge,
    measure) gives the factor's wires after it, most significant first, and
    the strides its views take.  ``p`` and ``depolarizing``: each uniform
    column's probability, and whether it branches when u >= 1 - p (else an
    idle's, when u < p).  ``no_jump``: (index in ``Program.detuned_wires``,
    t, p) per table row."""

    steps: tuple[tuple, ...]
    p: np.ndarray
    depolarizing: np.ndarray
    no_jump: tuple[tuple[int, float, float], ...]


@dataclass(frozen=True)
class Program:
    """Compiled operation stream plus its randomness layout."""

    num_wires: int
    ops: tuple[Op, ...]
    detuned_wires: tuple[int, ...]

    @cached_property
    def last_op(self) -> dict[int, int]:
        """Index of each wire's last op, for the wires some op touches."""
        return {w: i for i, op in enumerate(self.ops) for w in op.wires}

    @cached_property
    def factors(self) -> tuple[frozenset[int], ...]:
        """Wires of the factor each two-wire op acts on, in op order: a
        two-wire op joins the factors of its wires, and a wire leaves its
        factor after its last op.  Only two-wire ops can widen a factor, so
        only they are walked, each dropping the wires whose last op is behind it."""
        last = self.last_op
        factor: dict[int, frozenset[int]] = {}
        out = []
        for i, op in enumerate(self.ops):
            if len(op.wires) == 2:
                a, b = op.wires
                joined = frozenset(w for w in factor.get(a, {a}) | factor.get(b, {b})
                                   if last[w] >= i)
                out.append(joined)
                for w in joined:
                    factor[w] = joined
        return tuple(out)

    @cached_property
    def width(self) -> int:
        """Most wires one factor holds (both executors factor alike)."""
        return max(map(len, self.factors), default=1)

    @cached_property
    def superops(self) -> tuple[np.ndarray, ...]:
        """Each op's exact-backend superoperator as a (4^k, 4^k) matrix on
        its k wires; an idle's is its damping then its dephasing, without
        the detuning phase, which depends on the detuning node.  Ops equal
        in (kind, wire count, p, q, phase, matrix) share one superoperator,
        lowered once per program."""
        lowered: dict[tuple, np.ndarray] = {}
        out = []
        for op in self.ops:
            key = (op.kind, len(op.wires), op.p, op.q, op.phase,
                   None if op.matrix is None else op.matrix.tobytes())
            if key not in lowered:
                lowered[key] = _superop(_kraus_operators(op))
            out.append(lowered[key])
        return tuple(out)

    @cached_property
    def n_uniform_ops(self) -> int:
        """Uniform columns the channels draw per shot."""
        return len(self.walk.p)

    @cached_property
    def walk(self) -> Walk:
        """The trajectory plan, in one pass over the ops.  Each touched
        wire's factor is made first; a two-wire op on two factors merges
        them, the one whose wires all leave first on the low bits; a wire
        is measured after its last op.  Channels take uniform columns in op
        order: a dep1 or dep2 one for p, an idle one for p > 0, then one for
        q > 0."""
        last, ops = self.last_op, self.ops
        detuned = {w: i for i, w in enumerate(self.detuned_wires)}
        # op index -> the wires whose last op it is, in op-wire order
        ends = {i: [w for w in ops[i].wires if last[w] == i] for i in set(last.values())}
        steps, p, dep_cols, rows, makes = [], [], [], [], []
        row_of, cols = {}, {}       # id(idle op) -> no-jump row; id(u1 matrix) -> columns
        # slot -> its factor's wires; wire -> slot; wire -> bit stride;
        # slot -> strides of its views
        wires, slot, sw_of, views = {}, {}, {}, {}

        def make(kind: str, at: int, *head) -> None:
            f = wires[at]
            for j, w in enumerate(f):
                sw_of[w] = 1 << (len(f) - 1 - j)
            views[at] = set()
            makes.append(len(steps))
            steps.append((kind, at, *head, tuple(f), views[at]))

        for w in sorted(last):
            slot[w], wires[w] = w, [w]
            make("new", w)
        for i, op in enumerate(ops):
            kind, w = op.kind, op.wires[0]
            at = slot[w]
            if kind == "u1":
                c = cols.get(id(op.matrix))
                if c is None:
                    c = cols[id(op.matrix)] = columns(op.matrix)
                views[at].add(sw_of[w])
                steps.append(("u1", at, sw_of[w], c))
            elif kind == "dep1":
                dep_cols.append(len(p))
                steps.append(("dep", at, len(p), op.p, (sw_of[w],)))
                p.append(op.p)
            elif kind == "idle":
                if w in detuned and id(op) not in row_of:
                    row_of[id(op)] = len(rows)
                    rows.append((detuned[w], op.t, op.p))
                pcol = qcol = -1
                if op.p > 0:
                    pcol = len(p)
                    p.append(op.p)
                if op.q > 0:
                    qcol = len(p)
                    p.append(op.q)
                views[at].add(sw_of[w])
                steps.append(("idle", at, sw_of[w], op.p, pcol, op.q, qcol,
                              row_of.get(id(op), -1)))
            else:           # cnot | dep2 | zz
                b = op.wires[1]
                if slot[b] != at:
                    hi, lo = at, slot[b]
                    if max(last[x] for x in wires[hi]) < max(last[x] for x in wires[lo]):
                        hi, lo = lo, hi
                    wires[hi] += wires.pop(lo)
                    slot.update((x, hi) for x in wires[hi])
                    del views[lo]
                    make("merge", hi, lo)
                    at = hi
                if kind == "dep2":
                    dep_cols.append(len(p))
                    steps.append(("dep", at, len(p), op.p, (sw_of[w], sw_of[b])))
                    p.append(op.p)
                else:
                    steps.append((kind, at, sw_of[w], sw_of[b], op.phase))
            for x in ends.get(i, ()):
                wires[at].remove(x)
                make("measure", at, x, sw_of[x])
        for j in makes:         # each factor's view strides, now complete
            steps[j] = steps[j][:-1] + (tuple(sorted(steps[j][-1])),)
        depolarizing = np.zeros(len(p), dtype=bool)
        depolarizing[dep_cols] = True
        return Walk(tuple(steps), np.array(p, dtype=float), depolarizing, tuple(rows))


@dataclass(frozen=True)
class TrajectoryPlan:
    """Shot budget and reproducibility contract for the trajectory backend.

    Shot i's stream is the block of counters it owns in one Philox keyed
    by (oracle key, master_seed) (see ``_shot_streams``), so the batch size,
    which ``BATCH_BYTES`` sets, never changes results.
    """

    shots: int
    master_seed: int

    def __post_init__(self) -> None:
        if self.shots <= 0:
            raise ValueError("shots must be positive")
        if not 0 <= self.master_seed < 1 << 64:
            raise ValueError(f"master_seed {self.master_seed} outside [0, 2**64)")


def _gate_matrix(ev: GateEvent, eps: float) -> np.ndarray:
    """Unitary of a one-qubit gate: H, X or PHASED_PI."""
    if ev.kind is GateKind.H:
        return _HADAMARD
    if ev.kind is GateKind.X:
        return PAULIS_1Q[1]
    return pulse_unitary(ev.phase, eps)


def _interval_overlaps(aa: list[tuple[int, int]], bb: list[tuple[int, int]]
                       ) -> list[tuple[int, int]]:
    return sorted((max(a0, b0), min(a1, b1)) for a0, a1 in aa for b0, b1 in bb
                  if min(a1, b1) > max(a0, b0))


def compile_program(circuit: TimedCircuit, device: DeviceModel | None,
                    noise: NoiseConfig, physical_of_wire) -> Program:
    """Lower a circuit to the primitive stream both backends execute.

    Ordering: operations sort by (time, phase, emission index) where idle
    ops carry phase 0 at their interval end and gates phase 1 at their
    start, so decoherence accrued before a gate is applied before it.  Then
    each wire's one-wire ops after its last two-wire op move up, in order,
    to follow that op; they commute with every op on other wires.  Equal
    gates share their ops, as do a wire's idles of equal length.  The
    ``noise`` flags alone decide which channels compile; ``device`` may be
    None only under ``NOISELESS``.  Wire w sits on physical qubit
    ``physical_of_wire[w]``.  Raises ValueError for an invalid circuit.
    """
    bad = validate_circuit(circuit)
    if bad is not None:
        raise ValueError(f"invalid circuit: {bad}")
    nw = circuit.num_qubits
    dt = float(circuit.dt)
    eps = noise.flip_angle_eps
    phys = physical_of_wire

    # Sort keys (time, phase, emission index) of groups of ops on the same
    # wires: a gate and its error, an idle, or a ZZ phase.  The
    # index is unique, so the groups themselves are never compared.
    entries: list[tuple[int, int, int, tuple[Op, ...]]] = []
    p_dep = ({"dep1": device.p_dep_1q, "dep2": device.p_dep_2q}
             if noise.depolarizing else {})
    gate_ops: dict[tuple, tuple[Op, ...]] = {}
    for ev in sorted(circuit.events, key=lambda e: (e.start, e.qubits)):
        key = (ev.kind, ev.qubits, ev.phase)
        if key not in gate_ops:
            if ev.kind is GateKind.CNOT:
                gate, channel = Op("cnot", ev.qubits), "dep2"
            else:
                gate, channel = Op("u1", ev.qubits, matrix=_gate_matrix(ev, eps)), "dep1"
            p = p_dep.get(channel, 0.0)
            gate_ops[key] = (gate, Op(channel, ev.qubits, p=p)) if p > 0 else (gate,)
        entries.append((ev.start, 1, len(entries), gate_ops[key]))

    idles = detect_gaps(circuit, include_edges=True)
    detuning = noise.detuning and noise.detuning_sigma > 0
    for w in range(nw):
        idle_ops: dict[int, tuple[Op, ...]] = {}     # by idle length
        for g0, g1 in idles[w]:
            if g1 - g0 not in idle_ops:
                t = (g1 - g0) * dt
                p_ad, p_z = (idle_params(device.t1[phys[w]], device.t2[phys[w]], t)
                             if noise.decoherence else (0.0, 0.0))
                idle_ops[g1 - g0] = ((Op("idle", (w,), p=p_ad, q=p_z, t=t),)
                                     if p_ad > 0 or p_z > 0 or detuning else ())
            if idle_ops[g1 - g0]:
                entries.append((g1, 0, len(entries), idle_ops[g1 - g0]))

    if noise.zz and noise.zz_rate > 0:
        wire_of = {phys[w]: w for w in range(nw)}
        for a, b in sorted(device.graph.edges):
            if a in wire_of and b in wire_of and device.graph.is_edge(a, b):
                wa, wb = wire_of[a], wire_of[b]
                for o0, o1 in _interval_overlaps(idles[wa], idles[wb]):
                    angle = noise.zz_rate * (o1 - o0) * dt
                    entries.append((o1, 0, len(entries),
                                    (Op("zz", (wa, wb), phase=np.exp(1j * angle)),)))

    entries.sort()
    # One pass: a wire's one-wire groups after its last two-wire group go,
    # in order, to tails[wire], the chunk that follows that group.
    last2 = {w: i for i, (_, _, _, group) in enumerate(entries)
             if len(group[0].wires) == 2 for w in group[0].wires}
    chunks, tails = [], {}
    for i, (_, _, _, group) in enumerate(entries):
        wires = group[0].wires
        if wires[0] in tails:       # no two-wire group on it is left
            tails[wires[0]].extend(group)
            continue
        chunks.append(group)
        if len(wires) == 2 and i in (last2[wires[0]], last2[wires[1]]):
            chunks.append(tail := [])
            tails.update((w, tail) for w in wires if last2[w] == i)
    ops = tuple(chain.from_iterable(chunks))
    return Program(nw, ops, tuple(w for w in range(nw) if detuning and idles[w]))


# -- trajectory backend ---------------------------------------------------------

def _stream_blocks(n_uniforms: int, n_normals: int) -> int:
    """Philox blocks (four doubles each) one shot's stream takes: its
    uniforms, then two uniforms per Box-Muller normal."""
    return -(-(n_uniforms + 2 * n_normals) // 4)


def _shot_streams(master_seed: int, oracle_key: int, lo: int, hi: int,
                  n_normals: int, n_uniforms: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-shot randomness for shots [lo, hi), drawn by one generator call.

    One Philox is keyed by (oracle_key, master_seed), and shot i owns the
    ``m = _stream_blocks(n_uniforms, n_normals)`` counter blocks after
    ``i * m``: its row is what ``Generator(Philox(key=..., counter=i * m))
    .random(4 * m)`` draws.  Columns [0, n_uniforms) are the uniforms; the
    next two groups of n_normals columns, a and b, give the normals by
    Box-Muller, ``sqrt(-2 log1p(-a)) cos(2 pi b)``, computed in place.  Both
    results are views into the one (hi - lo, 4m) draw.
    """
    m = _stream_blocks(n_uniforms, n_normals)
    key = np.array([oracle_key & 0xFFFFFFFF, int(master_seed)], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(counter=lo * m, key=key))
    draw = rng.random((hi - lo, 4 * m))
    a = draw[:, n_uniforms:n_uniforms + n_normals]
    b = draw[:, n_uniforms + n_normals:n_uniforms + 2 * n_normals]
    # Not np.negative: numpy 2.4 misreads a column of 64-byte stride in place.
    a *= -1.0
    np.log1p(a, out=a)
    a *= -2.0
    np.sqrt(a, out=a)
    b *= 2.0 * math.pi
    np.cos(b, out=b)
    a *= b
    return a, draw[:, :n_uniforms]


def _pauli_branches(u: np.ndarray, p: float, k: int) -> np.ndarray:
    """Per-wire Pauli index (1-3, or 0 for identity on that wire) of a k-wire
    depolarizing channel for shots whose uniform ``u`` is at least ``1 - p``,
    shape (k, len(u)): one of the 4**k - 1 non-identity Pauli strings,
    equally likely.  Shots below ``1 - p`` take the identity string."""
    m = 4 ** k - 1
    branch = 1 + np.minimum(((u - (1.0 - p)) / (p / m)).astype(np.int64), m - 1)
    return np.array([(branch >> 2 * (k - 1 - i)) & 3 for i in range(k)])


def _depolarize(state: np.ndarray, draw: np.ndarray, p: float, sws: tuple[int, ...]
                ) -> None:
    """A dep1 or dep2 channel in place: the shots whose uniform ``draw`` is
    at least ``1 - p`` take a Pauli on the wires of strides ``sws``."""
    hot = np.nonzero(draw >= 1.0 - p)[0]
    for sw, paulis in zip(sws, _pauli_branches(draw[hot], p, len(sws))):
        for j in (1, 2, 3):
            rows = hot[paulis == j]
            if len(rows):
                ker.apply_1q_rows(state, rows, sw, _PAULI_COLUMNS[j])


def _idle(state: np.ndarray, view: np.ndarray, sw: int, p: float, pcol: int, q: float,
          qcol: int, no_jump: np.ndarray | None, uniforms: np.ndarray, live: list[bool]
          ) -> None:
    """One wire's idle in place on the wire of stride ``sw`` (``view``: its
    ``bit_view``): the damping jump test, one multiplication of the bit-1
    half by the no-jump factor (the table row ``no_jump`` on a detuned
    wire, else ``sqrt(1 - p)`` through ``ampdamp``), then the dephasing
    flips.  ``pcol`` and ``qcol`` are the channels' columns, or -1."""
    jumps = ()
    if pcol >= 0 and live[pcol]:
        # A shot jumps when u < p * pop1 / norm2, so only shots with u < p can.
        u = uniforms[:, pcol]
        rows = np.nonzero(u < p)[0]
        sub = state[rows]
        jumps = rows[u[rows] * ker.norm2(sub) < p * ker.pop1(sub, sw)]
    if no_jump is not None:
        if len(jumps):
            ker.damp_jump(view, jumps)
        ker.phase_bit_pershot(view, no_jump)
    elif p > 0:
        ker.ampdamp(view, p, jumps)
    if qcol >= 0 and live[qcol]:
        ker.apply_1q_rows(state, np.nonzero(uniforms[:, qcol] < q)[0], sw, _PAULI_COLUMNS[3])


def _evolve(program: Program, uniforms: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Run a batch of shots along ``Program.walk``; return each shot's
    measured basis index.

    Each wire's factor starts in |0>; a merge is a per-shot outer product,
    and whenever a factor's array is made its ``bit_view`` is built once
    per stride its steps use.  Wire w is measured with ``uniforms[:,
    n_uniform_ops + w]`` into bit ``nw - 1 - w``; a wire no op touches
    reads 0.  The batch is screened once over every channel column: its
    smallest and largest uniform decide whether any shot can leave the
    identity branch.  A depolarizing op or dephasing no shot can branch on
    is skipped, and a damping no shot can jump on multiplies only.  An idle
    runs the jump test on the shots with u < p, moving each jumping shot's
    bit-1 half onto its bit-0 half, multiplies the bit-1 half once by
    ``sqrt(1 - p) exp(i delta t)`` (``sqrt(1 - p)`` without detuning),
    then flips the dephasing shots.  The detuned factors form the batch's
    no-jump table, one row per distinct idle op of a detuned wire, from
    ``deltas`` (one row per wire of ``Program.detuned_wires``).
    Measurement divides the kept half by its weight, so it leaves factors
    of norm 1.
    """
    nw = program.num_wires
    shots = len(uniforms)
    walk = program.walk
    n_u = len(walk.p)
    block = uniforms[:, :n_u]
    # dep1/dep2 branch when u >= 1 - p; an idle can jump, or dephases, only
    # when u < p.
    live = np.where(walk.depolarizing, block.max(axis=0) >= 1.0 - walk.p,
                    block.min(axis=0) < walk.p).tolist()
    table = None
    if walk.no_jump:
        wire, t, damp = map(np.array, zip(*walk.no_jump))
        table = (1j * deltas)[wire]         # in place: one table-sized array
        table *= t[:, None]
        np.exp(table, out=table)
        np.multiply(table, np.sqrt(1.0 - damp)[:, None], out=table,
                    where=damp[:, None] > 0)
    ket0 = np.zeros((shots, 2), dtype=complex)
    ket0[:, 0] = 1.0
    arrays: list[np.ndarray | None] = [None] * nw     # by slot
    views: list[dict | None] = [None] * nw            # by slot: stride -> bit_view
    outcomes = np.zeros(shots, dtype=np.int64)
    for step in walk.steps:
        kind, at = step[0], step[1]
        if kind == "u1":
            ker.apply_1q(views[at][step[2]], step[3])
        elif kind == "dep":
            if live[step[2]]:
                _depolarize(arrays[at], uniforms[:, step[2]], step[3], step[4])
        elif kind == "idle":
            _, _, sw, p, pcol, q, qcol, row = step
            _idle(arrays[at], views[at][sw], sw, p, pcol, q, qcol,
                  None if row < 0 else table[row], uniforms, live)
        elif kind == "cnot":
            ker.cnot(arrays[at], step[2], step[3])
        elif kind == "zz":
            ker.phase_zz(arrays[at], step[2], step[3], step[4])
        else:
            if kind == "measure":
                bits, state = ker.measure(arrays[at], step[3], uniforms[:, n_u + step[2]])
                outcomes |= bits << (nw - 1 - step[2])
            elif kind == "merge":
                state = np.einsum("si,sj->sij", arrays[at], arrays[step[2]]).reshape(shots, -1)
                arrays[step[2]] = views[step[2]] = None
            else:           # new
                state = ket0.copy()
            arrays[at] = state
            views[at] = {sw: bit_view(state, sw) for sw in step[-1]}
    return outcomes


def _readout_rates(readout: ReadoutMap, device: DeviceModel | None,
                   noise: NoiseConfig, phys) -> tuple[np.ndarray, np.ndarray] | None:
    """Per-logical-bit readout confusion rates (p01, p10) of the physical
    qubit each data bit is read from, or None when readout error is off.
    Absent qubits take physical qubit 0's rates."""
    if not noise.readout:
        return None
    qubits = [0 if w is None else phys[w] for w in readout.wire_of_logical]
    return device.ro_p01[qubits], device.ro_p10[qubits]


def _read_data(outcomes: np.ndarray, uniforms: np.ndarray, col0: int,
               readout: ReadoutMap, nw: int, rates) -> np.ndarray:
    """Data indices read from measured basis indices, after readout error.

    Logical bit i of shot s flips when ``uniforms[s, col0 + i]`` is below
    its rate: p10 if the bit is 1, else p01.
    """
    index = readout.data_index(outcomes, nw)
    if rates is not None:
        p01, p10 = rates
        for lq, shift in enumerate(range(readout.n - 1, -1, -1)):
            rate = np.where((index >> shift) & 1, p10[lq], p01[lq])
            index ^= (uniforms[:, col0 + lq] < rate).astype(np.int64) << shift
    return index


def simulate_shots(circuit: TimedCircuit | Program, device: DeviceModel | None,
                   noise: NoiseConfig, plan: TrajectoryPlan, oracle: OracleSpec,
                   readout: ReadoutMap, physical_of_wire=None) -> ShotTable:
    """Monte Carlo trajectory sampling; deterministic given the plan.  Takes
    a timed circuit, or the Program compile_program built from it with the
    same device, noise and physical_of_wire, which then runs as given."""
    nw = circuit.num_wires if isinstance(circuit, Program) else circuit.num_qubits
    phys = physical_of_wire if physical_of_wire is not None else list(range(nw))
    program = (circuit if isinstance(circuit, Program)
               else compile_program(circuit, device, noise, phys))
    if program.width > TRAJECTORY_MAX_WIRES:
        raise SimulatorCapError(f"widest factor of {program.width} wires exceeds "
                                f"trajectory cap {TRAJECTORY_MAX_WIRES}")
    rates = _readout_rates(readout, device, noise, phys)
    n_uniforms = program.n_uniform_ops + nw + readout.n  # ops, measures, readout
    n_normals = len(program.detuned_wires)
    # Widest factor, random streams, and the no-jump table (_evolve).
    per_shot = ((16 << program.width) + 32 * _stream_blocks(n_uniforms, n_normals)
                + 16 * len(program.walk.no_jump))
    batch = max(1, BATCH_BYTES // per_shot)
    reads = []
    for lo in range(0, plan.shots, batch):
        hi = min(lo + batch, plan.shots)
        normals, uniforms = _shot_streams(plan.master_seed, oracle.key(), lo, hi,
                                          n_normals, n_uniforms)
        outcomes = _evolve(program, uniforms, normals.T * noise.detuning_sigma)
        reads.append(_read_data(outcomes, uniforms, program.n_uniform_ops + nw,
                                readout, nw, rates))
    values, counts = np.unique(np.concatenate(reads), return_counts=True)
    return ShotTable(oracle, {readout.key(v): int(c) for v, c in zip(values, counts)},
                     plan.shots)


def noiseless_output(circuit: TimedCircuit, readout: ReadoutMap) -> dict[str, float]:
    """Exact noiseless output distribution over the data bits, compiled
    under ``NOISELESS`` with no device."""
    return simulate_exact(circuit, None, NOISELESS, readout)


# -- exact backend: per-wire density factors --------------------------------------

def _kraus_operators(op: Op) -> tuple[np.ndarray, ...]:
    """Kraus operators of one op on its wires, the first wire most significant."""
    if op.kind == "u1":
        return (op.matrix,)
    if op.kind == "cnot":
        return (_CNOT,)
    if op.kind == "zz":
        return (np.diag([1.0, op.phase, op.phase, 1.0]),)
    if op.kind == "idle":       # damping, then dephasing
        damp, deph = amplitude_damping(op.p).operators, dephasing(op.q).operators
        return tuple(z @ a for a in damp for z in deph)
    if op.kind in ("dep1", "dep2"):
        return depolarizing(op.p, len(op.wires)).operators
    raise ValueError(f"unknown op kind {op.kind!r}")


def _superop(kraus: tuple[np.ndarray, ...]) -> np.ndarray:
    """``sum_K K (x) conj(K)`` as a (4^k, 4^k) matrix whose row and column
    index both read (row bits, column bits) of the k wires."""
    stack = np.asarray(kraus)
    d = stack.shape[1]
    return np.einsum("nij,nkl->ikjl", stack, stack.conj()).reshape(d * d, d * d)


def _detuning_rules(program: Program, sigma: float, gh_nodes: int
                    ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Detunings and weights of each detuned wire's Gauss-Hermite rule: the
    smallest, of at most ``gh_nodes`` nodes, whose mean of cos(delta a)
    matches exp(-sigma^2 a^2 / 2) within EXACT_QUADRATURE_TOL at every a in
    [0, T_w] (T_w: the wire's total detuned idle time), checked at 8 points
    per radian of the rule's fastest cosine.  The detuning puts phases
    exp(i delta a) with |a| <= T_w on density-matrix entries; DD echoes keep
    |a| well below T_w, so under DD the rule is conservative.  Raises
    SimulatorCapError when a wire needs more than ``gh_nodes`` nodes."""
    total: dict[int, float] = {}
    for op in program.ops:
        if op.kind == "idle" and op.wires[0] in program.detuned_wires:
            total[op.wires[0]] = total.get(op.wires[0], 0.0) + op.t
    todo = sorted(total, key=total.get)
    rules = {}
    for size in range(1, gh_nodes + 1):
        if not todo:
            break
        x, weight = np.polynomial.hermite.hermgauss(size)
        x, weight = math.sqrt(2.0) * x, weight / math.sqrt(math.pi)
        top = sigma * total[todo[-1]]
        s = np.linspace(0.0, top, 2 + int(8 * top * max(1.0, x[-1])))
        bad = np.abs(np.cos(np.outer(s, x)) @ weight - np.exp(-s * s / 2)) > EXACT_QUADRATURE_TOL
        reach = s[bad.argmax()] if bad.any() else math.inf
        while todo and sigma * total[todo[0]] < reach:
            rules[todo.pop(0)] = (sigma * x, weight)
    if todo:
        raise SimulatorCapError(
            f"detuning of wire {todo[0]} (sigma*T = {sigma * total[todo[0]]:.3g}) needs "
            f"a Gauss-Hermite rule of more than gh_nodes={gh_nodes} nodes")
    return rules


# einsum letters of a factor's axes, by the wire's place in the factor; the
# entry cap keeps a factor below 13 wires.
_NODES, _ROWS, _COLS = "ABCDEFGHIJKLM", "abcdefghijklm", "nopqrstuvwxyz"


def _letters(wires: list[int]) -> dict[int, tuple[str, str, str]]:
    """Each wire's (node, row, column) letters."""
    return {w: (_NODES[i], _ROWS[i], _COLS[i]) for i, w in enumerate(wires)}


def _axes(branch: str, wires: list[int], letters) -> str:
    """Subscripts of a factor: branch, node axes, row bits, column bits."""
    return branch + "".join(letters[w][k] for k in range(3) for w in wires)


def _check_entries(entries: int, what: str) -> None:
    if entries > EXACT_MAX_ENTRIES:
        raise SimulatorCapError(f"{what} of {entries} entries exceeds exact-backend "
                                f"cap EXACT_MAX_ENTRIES={EXACT_MAX_ENTRIES}")


@dataclass
class _Factor:
    """Density tensor of one factor, axes (branch, one node axis per open
    wire, row bits, column bits), and each branch's data index so far."""

    t: np.ndarray
    wires: list[int]
    labels: np.ndarray

    def merge(self, other: _Factor, rules) -> _Factor:
        """Outer product of two factors (branches multiply), then pruned."""
        _check_entries(self.t.size * other.t.size, "factor")
        wires = self.wires + other.wires
        ab = _letters(wires)
        t = np.einsum(f"{_axes('Z', self.wires, ab)},{_axes('Y', other.wires, ab)}"
                      f"->ZY{_axes('', wires, ab)}", self.t, other.t)
        out = _Factor(t.reshape((-1,) + t.shape[2:]), wires,
                      (self.labels[:, None] | other.labels[None, :]).ravel())
        out.prune(rules)
        return out

    def apply(self, sop: np.ndarray, wires: tuple[int, ...]) -> None:
        """Apply a (4^k, 4^k) superoperator on k wires, or a stack of
        one-wire ones along the wire's node axis."""
        ab = _letters(self.wires)
        axes = _axes("Z", self.wires, ab)
        old = "".join(ab[w][1] for w in wires) + "".join(ab[w][2] for w in wires)
        new = "NOPQ"[:len(old)]
        node = ab[wires[0]][0] if sop.ndim == 3 else ""
        self.t = np.einsum(f"{node}{new}{old},{axes}->{axes.translate(str.maketrans(old, new))}",
                           sop.reshape(sop.shape[:-2] + (2,) * (2 * len(old))), self.t)

    def close(self, w: int, povm: np.ndarray, bits: np.ndarray, rules) -> None:
        """Take wire w out: contract its row and column axes with ``povm``
        (outcome, row*2 + column), or a stack of them along its node axis,
        and average its node axis with its rule's weights.  Each branch splits
        into one per outcome, its data index OR'd with that outcome's
        ``bits``; then the factor is pruned."""
        ab = _letters(self.wires)
        node, row, col = ab[w]
        axes = _axes("Z", self.wires, ab)
        _check_entries(self.t.size * len(bits) // (4 * len(rules[w][0])), "factor")
        t = np.einsum(f"{axes},{node if povm.ndim == 3 else ''}Y{row}{col},{node}->ZY"
                      + "".join(ch for ch in axes[1:] if ch not in (node, row, col)),
                      self.t, povm.reshape(povm.shape[:-1] + (2, 2)), rules[w][1])
        self.t = t.reshape((-1,) + t.shape[2:])
        self.labels = (self.labels[:, None] | bits[None, :]).ravel()
        self.wires.remove(w)
        self.prune(rules)

    def prune(self, rules) -> None:
        """Drop the branches whose node-weighted trace is below 1e-15 of the
        factor's."""
        ab = {w: (n, r, r) for w, (n, r, _) in _letters(self.wires).items()}
        traces = np.einsum(",".join([_axes("Z", self.wires, ab)]
                                    + [n for n, _, _ in ab.values()]) + "->Z",
                           self.t, *(rules[w][1] for w in self.wires)).real
        keep = traces >= 1e-15 * traces.sum()
        if not keep.all():
            self.t, self.labels = self.t[keep], self.labels[keep]


def _exact_distribution(program: Program, rules, readout: ReadoutMap, rates
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Data indices and probabilities of the output of ``program`` read
    through ``readout``, each wire's detuning averaged on its rule in
    ``rules`` (wire -> detunings, weights; one node at zero detuning for a
    wire without one), on per-wire density factors (see the module
    docstring).  A factor no wire is left in is a distribution over its
    data bits; the output is their product with the data bits no op
    touches.  Raises SimulatorCapError before the first op when one
    factor's node and wire axes would exceed EXACT_MAX_ENTRIES, and before
    each allocation its branches would take past it.
    """
    rules = {w: rules.get(w, (np.zeros(1), np.ones(1))) for w in range(program.num_wires)}
    _check_entries(max([math.prod(4 * len(rules[w][0]) for w in wires)
                        for wires in program.factors + tuple({w} for w in rules)]), "factor")
    p01, p10 = rates if rates is not None else (np.zeros(readout.n), np.zeros(readout.n))
    povm = {}       # data wire -> (POVM, data bits of its outcomes)
    out = _Factor(np.ones(1, dtype=complex), [], np.zeros(1, dtype=np.int64))
    for lq, w in enumerate(readout.wire_of_logical):
        read = (np.array([[1 - p01[lq], 0.0, 0.0, p10[lq]], [p01[lq], 0.0, 0.0, 1 - p10[lq]]]),
                np.array([0, 1 << (readout.n - 1 - lq)], dtype=np.int64))
        if w in program.last_op:
            povm[w] = read
        else:           # absent or untouched: reads |0>
            out = out.merge(_Factor(read[0][:, 0].astype(complex), [], read[1]), rules)

    def fresh(w: int) -> _Factor:     # |0><0| at every node
        t = np.zeros((1, len(rules[w][0]), 2, 2), dtype=complex)
        t[:, :, 0, 0] = 1.0
        return _Factor(t, [w], np.zeros(1, dtype=np.int64))

    factor: dict[int, _Factor] = {}
    pending: dict[int, np.ndarray] = {}
    for i, (op, sop) in enumerate(zip(program.ops, program.superops)):
        if op.kind == "idle" and op.wires[0] in program.detuned_wires:
            # per node: diag(exp(i delta t (row - column))) after the channels
            sop = np.exp(1j * np.outer(rules[op.wires[0]][0] * op.t, [0, -1, 1, 0])
                         )[:, :, None] * sop
        if len(op.wires) == 1:
            w = op.wires[0]
            pending[w] = sop @ pending[w] if w in pending else sop
        else:
            f, g = (factor.get(w) or fresh(w) for w in op.wires)
            if g is not f:
                f = f.merge(g, rules)
            for w in f.wires:
                factor[w] = f
            for w in op.wires:
                if w in pending:
                    f.apply(pending.pop(w), (w,))
            f.apply(sop, op.wires)
        for w in op.wires:
            if program.last_op[w] == i:
                f = factor.pop(w, None) or fresh(w)
                end, bits = povm.get(w, (np.array([[1.0, 0, 0, 1]]),     # trace
                                         np.zeros(1, dtype=np.int64)))
                if w in pending:
                    end = end @ pending.pop(w)
                f.close(w, end, bits, rules)
                if not f.wires:
                    out = out.merge(f, rules)
    return out.labels, out.t.real


def simulate_exact(circuit: TimedCircuit, device: DeviceModel | None,
                   noise: NoiseConfig, readout: ReadoutMap, physical_of_wire=None,
                   gh_nodes: int = GH_NODES_DEFAULT) -> dict[str, float]:
    """Exact output distribution over data bitstrings, on per-wire density
    factors, each wire's detuning averaged on its rule from
    ``_detuning_rules`` (``gh_nodes``: the largest rule allowed).  Only
    negative rounding residue is clipped: the result is not renormalized,
    and a mass more than 1e-9 from 1 raises RuntimeError."""
    nw = circuit.num_qubits
    phys = physical_of_wire if physical_of_wire is not None else list(range(nw))
    program = compile_program(circuit, device, noise, phys)
    rules = _detuning_rules(program, noise.detuning_sigma, gh_nodes)
    labels, probs = _exact_distribution(program, rules, readout,
                                        _readout_rates(readout, device, noise, phys))
    probs = np.maximum(probs, 0.0)
    if abs(probs.sum() - 1.0) > 1e-9:
        raise RuntimeError(f"exact distribution has mass {probs.sum()!r}, not 1")
    return {readout.key(i): float(p) for i, p in zip(labels, probs) if p > 1e-300}


def total_variation_distance(p: dict[str, float], q: dict[str, float]) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


# -- App-B style reduction equivalence -------------------------------------------

def check_reduction_equivalence(n: int, m: int, k: int, device: DeviceModel,
                                noise: NoiseConfig, dd=None) -> float:
    """Total variation distance between marginalized BV-n and direct BV-m
    on the exact backend.

    Uses the standard setup (unmarked qubits present with cancelling H
    pairs) on a chain coupling so ZZ crosstalk couples the marked and
    unmarked sectors.  With factorized noise (zz off) the two
    distributions agree to numerical precision; crosstalk breaks the
    equivalence and DD restores it.
    """
    from .decoupling import schedule_dd
    from .oracles import bv_logical_circuit
    from .routing import chain_graph

    if not k <= m < n < device.num_qubits:
        raise ValueError(f"need k <= m < n < {device.num_qubits}, the device's qubit count")

    def build(size: int):
        spec = OracleSpec.representative(size, k)
        circ, rmap = bv_logical_circuit(
            spec, dur_1q=device.dur_1q, dur_2q=device.dur_2q,
            readout_duration=device.dur_readout, dt=device.dt)
        if dd is not None:
            circ = schedule_dd(circ, dd, device.dur_dd_pulse)
        return circ, rmap, replace(device, graph=chain_graph(size + 1))

    circ_n, rmap_n, dev_n = build(n)
    circ_m, rmap_m, dev_m = build(m)
    dist_n = simulate_exact(circ_n, dev_n, noise, rmap_n)
    dist_m = simulate_exact(circ_m, dev_m, noise, rmap_m)
    marg: dict[str, float] = {}
    for key, pval in dist_n.items():
        head = key[:m]
        marg[head] = marg.get(head, 0.0) + pval
    return total_variation_distance(marg, dist_m)
