"""Two execution backends over one compiled operation stream.

``compile_program`` lowers a timed circuit plus device/noise models into an
ordered list of primitive operations (unitaries, Kraus channels, coherent
phases), each wire's one-wire ops after its last two-wire op moved up to
follow that op.  The trajectory backend samples one Kraus branch per
channel application (exact in distribution) on batched per-wire factors:
two-wire ops merge the factors of their wires, and each wire is measured
and dropped right after its last op, so a BV circuit never holds more than
two live wires.  Ops run through the in-place strided-view numpy kernels
of ``_kernels``.  Each batch is screened once, by the smallest and largest
uniform of each channel: a Pauli channel that no shot of the batch
branches on is skipped, and damp tests for a jump only the shots that can
jump.  States are kept unnormalized (quantum jumps with unnormalized
states, Dalibard, Castin and Molmer, PRL 68, 580, 1992): damp applies the
fixed no-jump diagonal, a jump is a ratio of norms, and only measurement
renormalizes.  The exact backend
applies the same stream to a density operator held as a 2n-axis tensor
(one axis per row bit, then one per column bit).  Each distinct op is
lowered once to a superoperator ``sum_K K (x) conj(K)`` whose Kraus
operators come from ``noise`` (one Kraus operator for gates and ZZ);
superoperators are multiplied together per wire and per wire pair before
they reach the density operator, and the quasi-static detuning is averaged
by a Smolyak sparse grid of Gauss-Hermite rules whose level rises until
three successive levels agree.

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

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels as ker
from .circuit import GateEvent, GateKind, TimedCircuit, validate_circuit
from .decoupling import detect_gaps, pulse_unitary
from .noise import (NOISELESS, PAULIS_1Q, DeviceModel, NoiseConfig,
                    amplitude_damping, dephasing, depolarizing, idle_params)
from .oracles import OracleSpec, ReadoutMap, ShotTable

EXACT_MAX_WIRES = 7
# Most wires one factor of the trajectory executor may hold.
TRAJECTORY_MAX_WIRES = 21
# Bytes of widest factor and random streams per batch of trajectory shots.
# Results do not depend on the batch size (batch invariance).
BATCH_BYTES = 32 << 20
# Largest 1-D Gauss-Hermite rule the detuning average may use.
GH_NODES_DEFAULT = 21
# Most distinct density-operator runs one simulate_exact call may make.
EXACT_MAX_RUNS = 21 ** 3
# Largest change in any basis-state probability, in each of the last two
# steps between sparse-grid levels, that the detuning average accepts.
EXACT_QUADRATURE_TOL = 1e-9

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]


class SimulatorCapError(Exception):
    """Requested register exceeds the backend's qubit cap."""


@dataclass(frozen=True)
class Op:
    """One primitive step of the compiled stream."""

    kind: str                 # u1 | cnot | dep1 | dep2 | deph | damp | detune | zz
    wires: tuple[int, ...]
    p: float = 0.0            # channel probability (dep1/dep2/deph/damp)
    t: float = 0.0            # idle duration in seconds (detune)
    phase: complex = 0.0      # fixed relative phase (zz)
    matrix: np.ndarray | None = None  # u1

    @property
    def draws_uniform(self) -> bool:
        return self.kind in ("dep1", "dep2", "deph", "damp")


@dataclass(frozen=True)
class Program:
    """Compiled operation stream plus its randomness layout."""

    num_wires: int
    ops: tuple[Op, ...]
    detuned_wires: tuple[int, ...]
    n_uniform_ops: int

    @cached_property
    def last_op(self) -> dict[int, int]:
        """Index of each wire's last op, for the wires some op touches."""
        return {w: i for i, op in enumerate(self.ops) for w in op.wires}

    @cached_property
    def width(self) -> int:
        """Most wires one factor of the trajectory executor holds: a two-wire
        op joins the factors of its wires, and a wire leaves its factor
        after its last op.  Only two-wire ops can widen a factor, so only
        they are walked; each drops the wires whose last op is behind it."""
        last = self.last_op
        factor: dict[int, set[int]] = {}
        widest = 1
        for i, op in enumerate(self.ops):
            if len(op.wires) == 2:
                a, b = op.wires
                joined = {w for w in factor.get(a, {a}) | factor.get(b, {b})
                          if last[w] >= i}
                widest = max(widest, len(joined))
                for w in joined:
                    factor[w] = joined
        return widest

    @cached_property
    def superops(self) -> tuple[np.ndarray | None, ...]:
        """Each op's exact-backend superoperator as a (4^k, 4^k) matrix on
        its k wires; None for detune ops, whose phase depends on the
        detuning node.  Ops equal in (kind, wire count, p, phase, matrix)
        share one superoperator, lowered once per program."""
        lowered: dict[tuple, np.ndarray] = {}
        out = []
        for op in self.ops:
            if op.kind == "detune":
                out.append(None)
                continue
            key = (op.kind, len(op.wires), op.p, op.phase,
                   None if op.matrix is None else op.matrix.tobytes())
            if key not in lowered:
                lowered[key] = _superop(_kraus_operators(op))
            out.append(lowered[key])
        return tuple(out)


@dataclass(frozen=True)
class TrajectoryPlan:
    """Shot budget and reproducibility contract for the trajectory backend.

    Shot i's stream is the block of counters it owns in one Philox keyed
    by (oracle key, master_seed) (see ``_shot_streams``); batch_size only
    controls memory, never results.
    """

    shots: int
    master_seed: int
    batch_size: int | None = None
    assertions: bool = False

    def __post_init__(self) -> None:
        if self.shots <= 0:
            raise ValueError("shots must be positive")


def _gate_matrix(ev: GateEvent, eps: float) -> np.ndarray | None:
    if ev.kind is GateKind.H:
        return _HADAMARD
    if ev.kind is GateKind.X:
        return PAULIS_1Q[1]
    if ev.kind is GateKind.PHASED_PI:
        return pulse_unitary(ev.phase, eps)
    return None


def _interval_overlaps(aa: list[tuple[int, int]], bb: list[tuple[int, int]]
                       ) -> list[tuple[int, int]]:
    out = []
    for a0, a1 in aa:
        for b0, b1 in bb:
            lo, hi = max(a0, b0), min(a1, b1)
            if hi > lo:
                out.append((lo, hi))
    return sorted(out)


def compile_program(circuit: TimedCircuit, device: DeviceModel | None,
                    noise: NoiseConfig, physical_of_wire=None) -> Program:
    """Lower a circuit to the primitive stream both backends execute.

    Ordering: operations sort by (time, phase, emission index) where idle
    ops carry phase 0 at their interval end and gates phase 1 at their
    start, so decoherence accrued before a gate is applied before it.  Then
    each wire's one-wire ops after its last two-wire op move up, in order,
    to follow that op; they commute with every op on other wires.  Raises
    ValueError for an invalid circuit.
    """
    bad = validate_circuit(circuit)
    if bad is not None:
        raise ValueError(f"invalid circuit: {bad}")
    nw = circuit.num_qubits
    dt = float(circuit.dt)
    eps = noise.flip_angle_eps
    phys = physical_of_wire if physical_of_wire is not None else list(range(nw))

    # Sort keys (time, phase, emission index); the index is unique, so the
    # ops themselves are never compared.
    entries: list[tuple[int, int, int, Op]] = []

    def push(time: int, order: int, *ops: Op) -> None:
        for op in ops:
            entries.append((time, order, len(entries), op))

    # Equal gates share their ops.
    p_dep = ({"dep1": device.p_dep_1q, "dep2": device.p_dep_2q}
             if noise.depolarizing and device is not None else {})
    gate_ops: dict[tuple, tuple[Op, ...]] = {}
    for ev in sorted(circuit.events, key=lambda e: (e.start, e.qubits)):
        if ev.kind is GateKind.DELAY:
            continue
        key = (ev.kind, ev.qubits, ev.phase)
        if key not in gate_ops:
            if ev.kind is GateKind.CNOT:
                gate, channel = Op("cnot", ev.qubits), "dep2"
            else:
                gate, channel = Op("u1", ev.qubits, matrix=_gate_matrix(ev, eps)), "dep1"
            p = p_dep.get(channel, 0.0)
            gate_ops[key] = (gate, Op(channel, ev.qubits, p=p)) if p > 0 else (gate,)
        push(ev.start, 1, *gate_ops[key])

    idles = detect_gaps(circuit, include_edges=True)
    detuning = noise.detuning and noise.detuning_sigma > 0
    detuned: list[int] = []
    if device is not None:
        for w in range(nw):
            q = phys[w]
            params: dict[int, tuple[float, float]] = {}     # by idle length
            for g0, g1 in idles[w]:
                t = (g1 - g0) * dt
                if noise.decoherence:
                    if g1 - g0 not in params:
                        params[g1 - g0] = idle_params(device.t1[q], device.t2[q], t)
                    p_ad, p_z = params[g1 - g0]
                    if p_ad > 0:
                        push(g1, 0, Op("damp", (w,), p=p_ad))
                    if p_z > 0:
                        push(g1, 0, Op("deph", (w,), p=p_z))
                if detuning:
                    push(g1, 0, Op("detune", (w,), t=t))
            if detuning and idles[w]:
                detuned.append(w)

        if noise.zz and noise.zz_rate > 0 and device.graph is not None:
            wire_of = {phys[w]: w for w in range(nw)}
            for a, b in sorted(device.graph.edges):
                if a in wire_of and b in wire_of and device.graph.is_edge(a, b):
                    wa, wb = wire_of[a], wire_of[b]
                    for o0, o1 in _interval_overlaps(idles[wa], idles[wb]):
                        angle = noise.zz_rate * (o1 - o0) * dt
                        push(o1, 0, Op("zz", (wa, wb), phase=np.exp(1j * angle)))

    entries.sort()
    ops = [op for _, _, _, op in entries]
    last2 = {w: i for i, op in enumerate(ops) if len(op.wires) == 2 for w in op.wires}
    slot = [min(i, last2.get(op.wires[0], i)) if len(op.wires) == 1 else i
            for i, op in enumerate(ops)]
    # sorted is stable: ops of one slot keep their order.
    ops = tuple(ops[i] for i in sorted(range(len(ops)), key=slot.__getitem__))
    n_uniform = sum(op.draws_uniform for op in ops)
    return Program(nw, ops, tuple(detuned), n_uniform)


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
    key = np.array([oracle_key & 0xFFFFFFFF, int(master_seed) & 0xFFFFFFFFFFFFFFFF],
                   dtype=np.uint64)
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


def _apply(op: Op, state: np.ndarray, wires: list[int], draw: np.ndarray | None = None) -> None:
    """Apply one op in place to a batch of states over ``wires`` (the first
    the most significant bit).  ``draw`` holds each shot's uniform for a
    channel op, or its detuning for a detune op.  A channel op without a
    draw takes its identity branch (for damp: no jump) on every shot."""
    d = state.shape[1]
    sws = [d >> (wires.index(w) + 1) for w in op.wires]
    sw = sws[0]
    if op.kind == "u1":
        ker.apply_1q(state, d // (2 * sw), sw, op.matrix)
    elif op.kind == "cnot":
        ker.cnot(state, *sws)
    elif op.kind in ("dep1", "dep2") and draw is not None:
        hot = np.nonzero(draw >= 1.0 - op.p)[0]
        for sw, paulis in zip(sws, _pauli_branches(draw[hot], op.p, len(sws))):
            for j in (1, 2, 3):
                rows = hot[paulis == j]
                if len(rows):
                    ker.apply_1q_rows(state, rows, d // (2 * sw), sw, PAULIS_1Q[j])
    elif op.kind == "deph" and draw is not None:
        ker.apply_1q_rows(state, np.nonzero(draw < op.p)[0], d // (2 * sw), sw, PAULIS_1Q[3])
    elif op.kind == "damp":
        # A shot jumps when u < p * pop1 / norm2, so only shots with u < p can.
        jumps = ()
        if draw is not None:
            rows = np.nonzero(draw < op.p)[0]
            sub = state[rows]
            jumps = rows[draw[rows] * ker.norm2(sub) < op.p * ker.pop1(sub, sw)]
        ker.ampdamp(state, sw, op.p, jumps)
    elif op.kind == "detune":
        ker.phase_bit_pershot(state, sw, np.exp(1j * draw * op.t))
    elif op.kind == "zz":
        ker.phase_zz(state, *sws, op.phase)


def _evolve(program: Program, uniforms: np.ndarray, deltas: dict[int, np.ndarray],
            assertions: bool = False) -> np.ndarray:
    """Run a batch of shots through the op stream; return each shot's
    measured basis index.

    Every wire starts as its own (shots, 2) factor in |0>.  A two-wire op
    on wires of two factors first merges them, by a per-shot outer product.
    Channel ops take the uniform columns in stream order; a detune op reads
    the per-shot detuning of its wire from ``deltas``.  Right after its
    last op, wire w is measured with ``uniforms[:, n_uniform_ops + w]`` and
    leaves its factor; a wire no op touches reads 0.

    The batch is screened once: the smallest and largest uniform of each
    channel column decide whether any shot can leave that channel's
    identity branch (for damp: can jump); a channel op no shot can branch
    on gets no draw.  Damp leaves factors unnormalized (quantum jumps with
    unnormalized states: the no-jump step is the fixed diagonal K0, a jump
    test a ratio of norms); measurement divides the kept half by its
    weight, so it leaves factors of norm 1.  With ``assertions``, each
    shot's squared norm after an op is checked against those the op may
    leave, and each factor a measurement leaves against 1.
    """
    nw = program.num_wires
    shots = len(uniforms)
    ket0 = np.zeros((shots, 2), dtype=complex)
    ket0[:, 0] = 1.0
    factor = {w: [ket0.copy(), [w]] for w in range(nw)}
    block = uniforms[:, :program.n_uniform_ops]
    lows, highs = block.min(axis=0), block.max(axis=0)
    column = 0
    outcomes = np.zeros(shots, dtype=np.int64)
    for i, op in enumerate(program.ops):
        f, g = factor[op.wires[0]], factor[op.wires[-1]]
        if g is not f:
            f[0] = np.einsum("si,sj->sij", f[0], g[0]).reshape(shots, -1)
            f[1] += g[1]
            for w in g[1]:
                factor[w] = f
        draw = None
        if op.kind == "detune":
            draw = deltas[op.wires[0]]
        elif op.draws_uniform:
            # dep1/dep2 branch when u >= 1 - p; deph branches and damp can
            # jump only when u < p.
            if (highs[column] >= 1.0 - op.p if op.kind in ("dep1", "dep2")
                    else lows[column] < op.p):
                draw = uniforms[:, column]
            column += 1
        if assertions:
            # Squared norms a shot may hold after the op: damp leaves n - p n1
            # (no jump) or n1 (jump), every other op leaves n.
            allowed = [ker.norm2(f[0])]
            if op.kind == "damp":
                n1 = ker.pop1(f[0], f[0].shape[1] >> (f[1].index(op.wires[0]) + 1))
                allowed = [allowed[0] - op.p * n1, n1]
        _apply(op, f[0], f[1], draw)
        if assertions:
            after = ker.norm2(f[0])
            if not np.any([np.isclose(after, n, rtol=1e-6, atol=0) for n in allowed],
                          axis=0).all():
                raise AssertionError(f"norm drift after op {i} ({op.kind})")
        for w in op.wires:
            if program.last_op[w] == i:
                bits, f[0] = ker.measure(f[0], f[0].shape[1] >> (f[1].index(w) + 1),
                                         uniforms[:, program.n_uniform_ops + w])
                f[1].remove(w)
                outcomes |= bits << (nw - 1 - w)
                if assertions and not np.allclose(ker.norm2(f[0]), 1.0, atol=1e-6):
                    raise AssertionError(f"measuring wire {w} left a factor of norm != 1")
    return outcomes


def _readout_rates(readout: ReadoutMap, device: DeviceModel | None,
                   noise: NoiseConfig, phys) -> tuple[np.ndarray, np.ndarray] | None:
    """Per-logical-bit readout confusion rates (p01, p10) of the physical
    qubit each data bit is read from, or None when readout error is off.
    Absent qubits take physical qubit 0's rates."""
    if not noise.readout or device is None:
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


def simulate_shots(circuit: TimedCircuit, device: DeviceModel | None,
                   noise: NoiseConfig, plan: TrajectoryPlan, oracle: OracleSpec,
                   readout: ReadoutMap | None = None,
                   physical_of_wire=None) -> ShotTable:
    """Monte Carlo trajectory sampling; deterministic given the plan."""
    nw = circuit.num_qubits
    if readout is None:
        readout = ReadoutMap.identity(oracle.n)
    phys = physical_of_wire if physical_of_wire is not None else list(range(nw))

    program = compile_program(circuit, device, noise, phys)
    if program.width > TRAJECTORY_MAX_WIRES:
        raise SimulatorCapError(f"widest factor of {program.width} wires exceeds "
                                f"trajectory cap {TRAJECTORY_MAX_WIRES}")
    rates = _readout_rates(readout, device, noise, phys)
    n_uniforms = program.n_uniform_ops + nw + readout.n  # ops, measures, readout
    n_normals = len(program.detuned_wires)
    per_shot = (16 << program.width) + 32 * _stream_blocks(n_uniforms, n_normals)
    batch = plan.batch_size or max(1, BATCH_BYTES // per_shot)
    reads = []
    for lo in range(0, plan.shots, batch):
        hi = min(lo + batch, plan.shots)
        normals, uniforms = _shot_streams(plan.master_seed, oracle.key(), lo, hi,
                                          n_normals, n_uniforms)
        deltas = dict(zip(program.detuned_wires, normals.T * noise.detuning_sigma))
        outcomes = _evolve(program, uniforms, deltas, plan.assertions)
        reads.append(_read_data(outcomes, uniforms, program.n_uniform_ops + nw,
                                readout, nw, rates))
    values, counts = np.unique(np.concatenate(reads), return_counts=True)
    return ShotTable(oracle, {readout.key(v): int(c) for v, c in zip(values, counts)},
                     plan.shots)


def noiseless_output(circuit: TimedCircuit, readout: ReadoutMap) -> dict[str, float]:
    """Exact noiseless output distribution over the data bits."""
    nw = circuit.num_qubits
    state = np.zeros((1, 1 << nw), dtype=complex)
    state[0, 0] = 1.0
    for op in compile_program(circuit, None, NOISELESS).ops:
        _apply(op, state, list(range(nw)))
    probs = np.abs(state[0]) ** 2
    index, inverse = np.unique(readout.data_index(np.arange(1 << nw), nw),
                               return_inverse=True)
    mass = np.bincount(inverse, weights=np.where(probs > 1e-300, probs, 0.0))
    return {readout.key(i): float(m) for i, m in zip(index, mass) if m > 0}


# -- exact density-operator backend ----------------------------------------------

def _kraus_operators(op: Op, delta: float = 0.0) -> tuple[np.ndarray, ...]:
    """Kraus operators of one op on its wires, the first wire most significant."""
    if op.kind == "u1":
        return (op.matrix,)
    if op.kind == "cnot":
        return (_CNOT,)
    if op.kind == "zz":
        return (np.diag([1.0, op.phase, op.phase, 1.0]),)
    if op.kind == "detune":
        return (np.diag([1.0, np.exp(1j * delta * op.t)]),)
    if op.kind == "damp":
        return amplitude_damping(op.p).operators
    if op.kind == "deph":
        return dephasing(op.p).operators
    if op.kind in ("dep1", "dep2"):
        return depolarizing(op.p, len(op.wires)).operators
    raise ValueError(f"unknown op kind {op.kind!r}")


def _superop(kraus: tuple[np.ndarray, ...]) -> np.ndarray:
    """``sum_K K (x) conj(K)`` as a (4^k, 4^k) matrix whose row and column
    index both read (row bits, column bits) of the k wires."""
    stack = np.asarray(kraus)
    d = stack.shape[1]
    return np.einsum("nij,nkl->ikjl", stack, stack.conj()).reshape(d * d, d * d)


def _apply_superop(rho: np.ndarray, sop: np.ndarray, wires: tuple[int, ...]
                   ) -> np.ndarray:
    """Apply a (4^k, 4^k) superoperator to the row and column axes of the k
    ``wires``."""
    nw = rho.ndim // 2
    k = len(wires)
    axes = list(wires) + [nw + w for w in wires]
    out = np.tensordot(sop.reshape((2,) * (4 * k)), rho,
                       axes=(range(2 * k, 4 * k), axes))
    return np.moveaxis(out, range(2 * k), axes)


_I4 = np.eye(4)


def _pair_superop(sa: np.ndarray, sb: np.ndarray) -> np.ndarray:
    """One-wire 4x4 superoperators on wires a and b as one 16x16 on the
    pair (a, b)."""
    return np.einsum("acAC,bdBD->abcdABCD", sa.reshape(2, 2, 2, 2),
                     sb.reshape(2, 2, 2, 2)).reshape(16, 16)


def _exact_run(program: Program, deltas: dict[int, float]) -> np.ndarray:
    """Evolve the density operator for one fixed detuning realization.

    Superoperators are multiplied together before rho sees them; ops on
    disjoint wires commute, so only each wire's order matters.  Successive
    one-wire ops of a wire make one pending 4x4.  A two-wire op absorbs the
    pending 4x4s of its wires and stays pending as a 16x16 until a
    two-wire op on another pair touches one of its wires or the stream
    ends; the next two-wire op on the same ordered pair multiplies into it.
    So rho takes one pass per run of two-wire ops on one ordered pair, plus
    one per wire left with a pending 4x4 and no pending pair at the end."""
    nw = program.num_wires
    rho = np.zeros((2,) * (2 * nw), dtype=complex)
    rho[(0,) * (2 * nw)] = 1.0
    one: dict[int, np.ndarray] = {}
    two: dict[tuple[int, int], np.ndarray] = {}
    for op, sop in zip(program.ops, program.superops):
        if sop is None:     # detune: diag(1, e^{iδt}) as a superoperator
            phase = np.exp(1j * deltas.get(op.wires[0], 0.0) * op.t)
            sop = np.diag([1.0, phase.conjugate(), phase, 1.0])
        if len(op.wires) == 1:
            w = op.wires[0]
            one[w] = sop @ one[w] if w in one else sop
            continue
        pair = op.wires
        for other in [q for q in two if q != pair and set(q) & set(pair)]:
            rho = _apply_superop(rho, two.pop(other), other)
        if pair[0] in one or pair[1] in one:
            sop = sop @ _pair_superop(one.pop(pair[0], _I4), one.pop(pair[1], _I4))
        two[pair] = sop @ two[pair] if pair in two else sop
    for pair, sop in two.items():
        if pair[0] in one or pair[1] in one:
            sop = _pair_superop(one.pop(pair[0], _I4), one.pop(pair[1], _I4)) @ sop
        rho = _apply_superop(rho, sop, pair)
    for w, sop in one.items():
        rho = _apply_superop(rho, sop, (w,))
    return rho.reshape(1 << nw, 1 << nw)


def _confuse_distribution(dist: np.ndarray, n: int, rates) -> np.ndarray:
    """Apply per-bit readout confusion to a 2^n distribution vector."""
    p01, p10 = rates
    tensor = dist.reshape((2,) * n)
    for bit in range(n):
        m = np.array([[1 - p01[bit], p10[bit]], [p01[bit], 1 - p10[bit]]])
        tensor = np.moveaxis(np.tensordot(m, tensor, axes=([1], [bit])), 0, bit)
    return tensor.reshape(-1)


def _gh_rule(level: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``level``-node Gauss-Hermite rule for a standard normal, as
    hermgauss nodes (scaled by sqrt(2)*sigma at use) and weights summing to 1.
    Every odd rule puts its middle node at exactly 0."""
    x, w = np.polynomial.hermite.hermgauss(level)
    return x, w / math.sqrt(math.pi)


def _sparse_grid(dim: int, level: int) -> dict[tuple[float, ...], float]:
    """Smolyak rule of ``level`` in ``dim`` dimensions by the combination
    technique (Gerstner and Griebel, 1998): the sum over level tuples with
    level <= |l| <= level+dim-1 of (-1)**(level+dim-1-|l|) *
    C(dim-1, level+dim-1-|l|) times the tensor product of the 1-D rules of
    levels l.  Maps each distinct node (hermgauss coordinates) to its summed
    weight."""
    top = level + dim - 1
    grid: dict[tuple[float, ...], float] = {}
    for levels in itertools.product(range(1, level + 1), repeat=dim):
        if not level <= sum(levels) <= top:
            continue
        coef = (-1) ** (top - sum(levels)) * math.comb(dim - 1, top - sum(levels))
        rules = [_gh_rule(l) for l in levels]
        for picks in itertools.product(*(range(len(x)) for x, _ in rules)):
            node = tuple(float(x[i]) for (x, _), i in zip(rules, picks))
            weight = coef * math.prod(float(w[i]) for (_, w), i in zip(rules, picks))
            grid[node] = grid.get(node, 0.0) + weight
    return grid


def _grid_runs(dim: int, level: int) -> int:
    """Distinct nodes of the sparse grids of levels 1..level, counted without
    building them.  In each dimension a node takes either the 0 shared by
    the odd rules or one of the 2*((k+1)//2) nonzero nodes of the rule of
    level k+1 (rules of different sizes share no other node), and the grids
    up to ``level`` hold exactly the nodes whose k sum to at most level-1."""
    ways = [1] + [0] * (level - 1)     # ways[s]: prefixes whose k sum to s
    for _ in range(dim):
        ways = [ways[s] + sum(2 * ((k + 1) // 2) * ways[s - k]
                              for k in range(1, s + 1))
                for s in range(level)]
    return sum(ways)


def _detuning_average(program: Program, sigma: float, gh_nodes: int) -> np.ndarray:
    """Basis-state probabilities averaged over Gaussian detuning of every
    detuned wire, on sparse grids of rising level.

    Level L combines 1-D rules of up to L nodes.  The top level is fixed
    before the first run: L <= gh_nodes, and at most EXACT_MAX_RUNS
    distinct nodes over levels 1..L.  Each node is run once; the average
    returns level L once the last two changes, L-2 to L-1 and L-1 to L, are
    both within EXACT_QUADRATURE_TOL (so L >= 3: one small change can be a
    coincidence of two wrong levels), and otherwise raises SimulatorCapError.
    """
    wires = program.detuned_wires
    top = 1
    while (top + 1 <= gh_nodes
           and _grid_runs(len(wires), top + 1) <= EXACT_MAX_RUNS):
        top += 1
    if top < 3:
        raise SimulatorCapError(
            f"detuning average over {len(wires)} wires needs a level-3 sparse grid "
            f"of 3-node rules and {_grid_runs(len(wires), 3)} runs; gh_nodes="
            f"{gh_nodes} and the exact-backend cap of {EXACT_MAX_RUNS} runs "
            f"allow only level {top}")

    diagonals: dict[tuple[float, ...], np.ndarray] = {}

    def average(level: int) -> np.ndarray:
        probs = np.zeros(1 << program.num_wires)
        for node, weight in _sparse_grid(len(wires), level).items():
            if node not in diagonals:
                deltas = {w: math.sqrt(2.0) * sigma * x for w, x in zip(wires, node)}
                diagonals[node] = np.real(np.diag(_exact_run(program, deltas)))
            probs += weight * diagonals[node]
        return probs

    previous, change = average(1), math.inf
    for level in range(2, top + 1):
        probs = average(level)
        last, change = change, float(np.abs(probs - previous).max())
        error = max(last, change)
        if error <= EXACT_QUADRATURE_TOL:
            return probs
        previous = probs
    raise SimulatorCapError(
        f"detuning average over {len(wires)} wires: levels {top - 2} to {top} "
        f"({len(diagonals)} runs) still change a probability by {error:.2e} "
        f"> {EXACT_QUADRATURE_TOL:g}; gh_nodes={gh_nodes} and the exact-backend "
        f"cap of {EXACT_MAX_RUNS} runs allow no higher level")


def simulate_exact(circuit: TimedCircuit, device: DeviceModel | None,
                   noise: NoiseConfig, readout: ReadoutMap | None = None,
                   physical_of_wire=None,
                   gh_nodes: int = GH_NODES_DEFAULT) -> dict[str, float]:
    """Exact output distribution over data bitstrings (density operator).

    Quasi-static detuning is averaged on Smolyak sparse grids of
    Gauss-Hermite rules over the detuned wires, raising the level until
    three successive levels agree: both of the last two changes are within
    EXACT_QUADRATURE_TOL in every basis-state probability.  ``gh_nodes``
    bounds the largest 1-D rule (a level-L grid uses rules of up to L
    nodes) and EXACT_MAX_RUNS the distinct density-operator runs;
    SimulatorCapError is raised before the first run when these allow no
    level above 2, and after the last allowed level when it has not
    converged.
    """
    nw = circuit.num_qubits
    if nw > EXACT_MAX_WIRES:
        raise SimulatorCapError(
            f"{nw} wires exceeds exact-backend cap {EXACT_MAX_WIRES}")
    if readout is None:
        readout = ReadoutMap.identity(nw - 1 if nw > 1 else nw)
    phys = physical_of_wire if physical_of_wire is not None else list(range(nw))
    program = compile_program(circuit, device, noise, phys)

    if program.detuned_wires and noise.detuning_sigma > 0:
        probs = _detuning_average(program, noise.detuning_sigma, gh_nodes)
    else:
        probs = np.real(np.diag(_exact_run(program, {})))
    probs = np.maximum(probs, 0.0)
    probs /= probs.sum()

    n = readout.n
    data = np.bincount(readout.data_index(np.arange(1 << nw), nw), weights=probs,
                       minlength=1 << n)
    rates = _readout_rates(readout, device, noise, phys)
    if rates is not None:
        data = _confuse_distribution(data, n, rates)

    return {readout.key(i): float(data[i]) for i in np.nonzero(data > 1e-300)[0]}


def total_variation_distance(p: dict[str, float], q: dict[str, float]) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


# -- App-B style reduction equivalence -------------------------------------------

@dataclass(frozen=True)
class ReductionReport:
    n: int
    m: int
    k: int
    tvd: float
    passed: bool
    crosstalk_free: bool


def check_reduction_equivalence(n: int, m: int, k: int, device: DeviceModel,
                                noise: NoiseConfig, dd=None,
                                gh_nodes: int = GH_NODES_DEFAULT) -> ReductionReport:
    """Compare marginalized BV-n against direct BV-m on the exact backend.

    Uses the standard setup (unmarked qubits present with cancelling H
    pairs) on a chain coupling so ZZ crosstalk couples the marked and
    unmarked sectors.  With factorized noise (zz off) the two
    distributions agree to numerical precision; crosstalk breaks the
    equivalence and DD restores it.
    """
    from .decoupling import schedule_dd
    from .oracles import bv_logical_circuit
    from .routing import chain_graph

    if not k <= m < n:
        raise ValueError("need k <= m < n")

    def build(size: int):
        spec = OracleSpec.representative(size, k)
        circ, rmap = bv_logical_circuit(
            spec, reduced=False, dur_1q=device.dur_1q, dur_2q=device.dur_2q,
            readout_duration=device.dur_readout, dt=device.dt)
        if dd is not None:
            circ = schedule_dd(circ, dd, device.dur_dd_pulse)
        dev = device.with_graph(chain_graph(size + 1))
        return circ, rmap, dev

    circ_n, rmap_n, dev_n = build(n)
    circ_m, rmap_m, dev_m = build(m)
    dist_n = simulate_exact(circ_n, dev_n, noise, rmap_n, gh_nodes=gh_nodes)
    dist_m = simulate_exact(circ_m, dev_m, noise, rmap_m, gh_nodes=gh_nodes)
    marg: dict[str, float] = {}
    for key, pval in dist_n.items():
        head = key[:m]
        marg[head] = marg.get(head, 0.0) + pval
    tvd = total_variation_distance(marg, dist_m)
    crosstalk_free = not (noise.zz and noise.zz_rate > 0)
    passed = tvd < 1e-9 if crosstalk_free else True
    return ReductionReport(n, m, k, tvd, passed, crosstalk_free)
