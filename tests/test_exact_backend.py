"""Exact backend (per-wire density factors) against a dense np.kron Kraus
reference on random programs, the lowering and pass counts of its
superoperators, and the kernels it must not call."""
import itertools
import math
from dataclasses import replace
from unittest.mock import patch

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ssbv import _kernels
from ssbv.noise import NOISELESS
from ssbv.oracles import ReadoutMap
from ssbv.simulator import (Op, Program, _exact_distribution, _Factor,
                            _kraus_operators, compile_program, noiseless_output,
                            simulate_exact)
from test_simulator import MONTREAL, routed_ur14, ur4_chain

SETTINGS = settings(max_examples=60, deadline=None)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (I2, X, Y, Z)


def embed(mat, w, nw):
    """Dense operator of a one-wire matrix on wire w (wire 0 = MSB)."""
    return np.kron(np.kron(np.eye(1 << w), mat), np.eye(1 << (nw - 1 - w)))


def embed2(mat, wa, wb, nw):
    """Dense operator of a 4x4 matrix on (wa, wb), wa the more significant
    bit of its index, expanded over the matrix units |i><k| (x) |j><l|."""
    out = np.zeros((1 << nw, 1 << nw), dtype=complex)
    for i, j, k, l in itertools.product((0, 1), repeat=4):
        unit_a = np.zeros((2, 2))
        unit_a[i, k] = 1.0
        unit_b = np.zeros((2, 2))
        unit_b[j, l] = 1.0
        out += mat[2 * i + j, 2 * k + l] * (embed(unit_a, wa, nw) @ embed(unit_b, wb, nw))
    return out


def reference_kraus(op, nw, deltas):
    """Dense Kraus operators of one op, written out independently of noise.py."""
    p = op.p
    if op.kind == "u1":
        return [embed(op.matrix, op.wires[0], nw)]
    if op.kind == "cnot":
        c, t = op.wires
        return [embed(np.diag([1.0, 0.0]), c, nw)
                + embed(np.diag([0.0, 1.0]), c, nw) @ embed(X, t, nw)]
    if op.kind == "zz":
        return [embed2(np.diag([1.0, op.phase, op.phase, 1.0]), *op.wires, nw)]
    if op.kind == "idle":
        # damping with p, then dephasing with q, then the detuning phase
        # (none on a wire that is not detuned, or detuned by zero)
        k0 = np.array([[1, 0], [0, math.sqrt(1 - p)]], dtype=complex)
        k1 = np.array([[0, math.sqrt(p)], [0, 0]], dtype=complex)
        z = (math.sqrt(1 - op.q) * I2, math.sqrt(op.q) * Z)
        detune = np.diag([1.0, np.exp(1j * deltas.get(op.wires[0], 0.0) * op.t)])
        return [embed(detune @ zk @ ak, op.wires[0], nw) for ak in (k0, k1) for zk in z]
    if op.kind == "dep1":
        return [math.sqrt(1 - p) * np.eye(1 << nw)] + \
            [math.sqrt(p / 3) * embed(pm, op.wires[0], nw) for pm in PAULIS[1:]]
    if op.kind == "dep2":
        wa, wb = op.wires
        return [math.sqrt(1 - p) * np.eye(1 << nw)] + \
            [math.sqrt(p / 15) * embed(PAULIS[i], wa, nw) @ embed(PAULIS[j], wb, nw)
             for i, j in itertools.product(range(4), range(4)) if (i, j) != (0, 0)]
    raise ValueError(f"unknown op kind {op.kind!r}")


def reference_run(program, deltas):
    nw = program.num_wires
    rho = np.zeros((1 << nw, 1 << nw), dtype=complex)
    rho[0, 0] = 1.0
    for op in program.ops:
        rho = sum(k @ rho @ k.conj().T for k in reference_kraus(op, nw, deltas))
    return rho


def random_unitary(rng):
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q


ONE_WIRE = ("u1", "dep1", "idle")
TWO_WIRE = ("cnot", "dep2", "zz")


@st.composite
def templates(draw, kinds, rng):
    """An op of one of ``kinds`` with its parameters and no wires yet."""
    kind = draw(st.sampled_from(kinds))
    if kind == "u1":
        return Op(kind, (), matrix=random_unitary(rng))
    if kind in ("dep1", "dep2"):
        return Op(kind, (), p=draw(st.floats(0.0, 1.0)))
    if kind == "idle":      # damping and dephasing each either off or random
        return Op(kind, (), p=draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0))),
                  q=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.5))),
                  t=rng.uniform(0.0, 1e-5))
    if kind == "zz":
        return Op(kind, (), phase=np.exp(1j * rng.uniform(-math.pi, math.pi)))
    return Op(kind, ())


@st.composite
def segments(draw, nw, pool1, pool2):
    """A few ops drawn from the pools: a lone op on random wires, or a run
    of two-wire ops on one pair in either order with one-wire ops of the
    pair between them, sometimes closed by a two-wire op that joins one
    wire of the pair to a third."""
    def one(w):
        return replace(draw(st.sampled_from(pool1)), wires=(w,))

    def two(a, b):
        return replace(draw(st.sampled_from(pool2)), wires=(a, b))

    if nw == 1 or draw(st.booleans()):
        if nw > 1 and draw(st.booleans()):
            return [two(*draw(st.permutations(range(nw)))[:2])]
        return [one(draw(st.integers(0, nw - 1)))]
    wires = draw(st.permutations(range(nw)))
    a, b = wires[:2]
    out = []
    for _ in range(draw(st.integers(1, 3))):
        out += [one(w) for w in draw(st.lists(st.sampled_from((a, b)), max_size=2))]
        out.append(two(a, b) if draw(st.booleans()) else two(b, a))
    if nw > 2 and draw(st.booleans()):
        c = wires[2]
        out.append(two(draw(st.sampled_from((a, b))), c) if draw(st.booleans())
                   else two(c, draw(st.sampled_from((a, b)))))
    return out


@st.composite
def programs(draw):
    nw = draw(st.integers(1, 4))
    # Hypothesis picks the structure and the channel probabilities; angles,
    # durations and detunings come from a seeded generator so they differ
    # from op to op.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Streams repeat ops from small pools, so that ops share one lowered
    # superoperator, on the same wires and on others.
    pool1 = draw(st.lists(templates(ONE_WIRE, rng), min_size=1, max_size=4))
    pool2 = draw(st.lists(templates(TWO_WIRE, rng), min_size=1, max_size=3))
    # A random unitary on every wire first, so that the stream acts on
    # coherences and populations of every wire.
    stream = [Op("u1", (w,), matrix=random_unitary(rng)) for w in range(nw)]
    for segment in draw(st.lists(segments(nw, pool1, pool2), min_size=1, max_size=8)):
        stream += segment
    stream = tuple(stream[:nw + 24])
    detuned = tuple(w for w in range(nw) if draw(st.booleans()))
    # Some detuned wires run at zero detuning.
    deltas = {w: rng.uniform(-1e6, 1e6) for w in detuned if draw(st.booleans())}
    return Program(nw, stream, detuned), deltas


H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
RX = np.array([[math.cos(0.5), -1j * math.sin(0.5)],
               [-1j * math.sin(0.5), math.cos(0.5)]])
# Idles that damp and dephase between u1s on the same wire: each u1 after
# an idle turns the coherence that the dephasing shrinks, and the detuning
# turns, into populations.  One wire detuned; then two wires, one detuned
# and one not, joined by a cnot and a dep2 between their idles.
INTERLEAVED = (
    (Program(1, (Op("u1", (0,), matrix=H), Op("idle", (0,), p=0.2, q=0.3, t=2e-6),
                 Op("u1", (0,), matrix=H), Op("idle", (0,), q=0.25, t=1e-6),
                 Op("u1", (0,), matrix=RX)), (0,)),
     {0: 3e5}),
    (Program(2, (Op("u1", (0,), matrix=H), Op("u1", (1,), matrix=RX),
                 Op("idle", (1,), p=0.1, q=0.2, t=3e-6), Op("u1", (1,), matrix=H),
                 Op("cnot", (0, 1)), Op("dep2", (0, 1), p=0.05),
                 Op("idle", (0,), p=0.15, q=0.35, t=1e-6), Op("u1", (0,), matrix=RX),
                 Op("idle", (1,), q=0.1, t=2e-6), Op("u1", (1,), matrix=H)), (1,)),
     {1: -4e5}),
)


@SETTINGS
@given(programs())
@example(INTERLEAVED[0])
@example(INTERLEAVED[1])
def test_exact_run_matches_dense_kraus_reference(case):
    # Every wire is a data wire, so the output is the distribution over all
    # wires; each detuning is pinned as a 1-node rule.
    program, deltas = case
    nw = program.num_wires
    rules = {w: (np.array([deltas.get(w, 0.0)]), np.ones(1))
             for w in program.detuned_wires}
    labels, probs = _exact_distribution(program, rules, ReadoutMap.identity(nw), None)
    got = np.zeros(1 << nw)
    got[labels] = probs
    want = np.real(np.diag(reference_run(program, deltas)))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert abs(probs.sum() - 1.0) <= 1e-9


def lowering_key(op):
    return (op.kind, len(op.wires), op.p, op.q, op.phase,
            None if op.matrix is None else op.matrix.tobytes())


def test_superops_lower_each_distinct_op_once():
    _, _, circ, device, phys = ur4_chain(6)
    program = compile_program(circ, device, MONTREAL.noise(), phys)
    assert program.num_wires == 7
    calls = []

    def counting(op):
        calls.append(lowering_key(op))
        return _kraus_operators(op)

    with patch("ssbv.simulator._kraus_operators", counting):
        superops = program.superops
    keys = {lowering_key(op) for op in program.ops}
    assert sorted(calls, key=repr) == sorted(keys, key=repr)
    assert len(calls) < len(program.ops) // 4
    first = {}
    for op, sop in zip(program.ops, superops):
        assert first.setdefault(lowering_key(op), sop) is sop


def test_exact_run_fuses_into_two_wire_passes():
    # 186 ops on the 7-wire UR4 chain, 20 of them two-wire: 10 cnot/dep2
    # pairs on 10 ordered wire pairs.  One-wire ops are multiplied per wire
    # and reach a factor only before a two-wire op or at the wire's end.
    # Here every wire's one-wire ops between two-wire ops come before its
    # first one, and those after its last fold into its close.  So the
    # density tensors take 20 two-wire passes, 7 one-wire passes, 7 closes
    # and 7 merges (6 as the chain joins one factor, 1 into the output):
    # 41 passes, not 242.
    _, routed, circ, device, phys = ur4_chain(6)
    program = compile_program(circ, device, replace(MONTREAL.noise(), detuning=False),
                              phys)
    program.superops
    passes = []

    def counting(name):
        method = getattr(_Factor, name)

        def count(self, *args):
            passes.append(name)
            return method(self, *args)
        return count

    with patch.multiple(_Factor, **{name: counting(name)
                                    for name in ("apply", "merge", "close")}):
        _exact_distribution(program, {}, routed.readout, None)
    assert sum(op.kind in ("cnot", "dep2") for op in program.ops) == 20
    assert sorted(passes) == ["apply"] * 27 + ["close"] * 7 + ["merge"] * 7


def test_exact_backend_calls_no_kernel():
    # The bench's kernel metrics are trajectory-only: its kernel observer
    # reads a statevector batch, never a density tensor.
    spec, routed, circ, device, phys = routed_ur14(5, 3)

    def refuse(*args, **kwargs):
        raise AssertionError("the exact backend called a kernel")

    names = [n for n in dir(_kernels) if callable(getattr(_kernels, n))
             and getattr(getattr(_kernels, n), "__module__", None) == _kernels.__name__]
    assert {"apply_1q", "cnot", "ampdamp", "measure"} <= set(names)
    with patch.multiple(_kernels, **{n: refuse for n in names}):
        full = simulate_exact(circ, device, MONTREAL.noise(), routed.readout, phys)
        clean = noiseless_output(circ, routed.readout)
    assert clean == simulate_exact(circ, None, NOISELESS, routed.readout)
    assert clean[spec.b.to01()] >= 1 - 1e-9
    assert abs(sum(full.values()) - 1.0) <= 1e-9
