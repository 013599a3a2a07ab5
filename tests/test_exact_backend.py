"""Exact backend against a dense np.kron Kraus reference on random programs."""
import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ssbv.simulator import Op, Program, _exact_run

SETTINGS = settings(max_examples=60, deadline=None)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (I2, X, Y, Z)
KINDS = ("u1", "cnot", "dep1", "dep2", "deph", "damp", "detune", "zz")


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
    if op.kind == "detune":
        w = op.wires[0]
        phase = np.exp(1j * deltas.get(w, 0.0) * op.t)
        return [embed(np.diag([1.0, phase]), w, nw)]
    if op.kind == "dep1":
        return [math.sqrt(1 - p) * np.eye(1 << nw)] + \
            [math.sqrt(p / 3) * embed(pm, op.wires[0], nw) for pm in PAULIS[1:]]
    if op.kind == "dep2":
        wa, wb = op.wires
        return [math.sqrt(1 - p) * np.eye(1 << nw)] + \
            [math.sqrt(p / 15) * embed(PAULIS[i], wa, nw) @ embed(PAULIS[j], wb, nw)
             for i, j in itertools.product(range(4), range(4)) if (i, j) != (0, 0)]
    if op.kind == "deph":
        return [math.sqrt(1 - p) * np.eye(1 << nw),
                math.sqrt(p) * embed(Z, op.wires[0], nw)]
    k0 = np.array([[1, 0], [0, math.sqrt(1 - p)]], dtype=complex)
    k1 = np.array([[0, math.sqrt(p)], [0, 0]], dtype=complex)
    return [embed(k0, op.wires[0], nw), embed(k1, op.wires[0], nw)]


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


@st.composite
def ops(draw, nw, rng):
    kind = draw(st.sampled_from(KINDS if nw > 1 else
                                [k for k in KINDS if k not in ("cnot", "dep2", "zz")]))
    if kind in ("cnot", "dep2", "zz"):
        wires = tuple(draw(st.permutations(range(nw)))[:2])
    else:
        wires = (draw(st.integers(0, nw - 1)),)
    if kind == "u1":
        return Op(kind, wires, matrix=random_unitary(rng))
    if kind in ("dep1", "dep2", "damp"):
        return Op(kind, wires, p=draw(st.floats(0.0, 1.0)))
    if kind == "deph":
        return Op(kind, wires, p=draw(st.floats(0.0, 0.5)))
    if kind == "detune":
        return Op(kind, wires, t=rng.uniform(0.0, 1e-5))
    if kind == "zz":
        return Op(kind, wires, phase=np.exp(1j * rng.uniform(-math.pi, math.pi)))
    return Op(kind, wires)


@st.composite
def programs(draw):
    nw = draw(st.integers(1, 4))
    # Hypothesis picks the structure and the channel probabilities; angles,
    # durations and detunings come from a seeded generator so they differ
    # from wire to wire.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # A random unitary on every wire first, so that the stream acts on
    # coherences and populations of every wire.
    stream = tuple(Op("u1", (w,), matrix=random_unitary(rng)) for w in range(nw))
    stream += tuple(draw(st.lists(ops(nw, rng), min_size=1, max_size=12)))
    detuned = tuple(sorted({op.wires[0] for op in stream if op.kind == "detune"}))
    # Some detuned wires get no node and run at zero detuning.
    deltas = {w: rng.uniform(-1e6, 1e6) for w in detuned if draw(st.booleans())}
    n_uniform = sum(op.kind in ("dep1", "dep2", "deph", "damp") for op in stream)
    return Program(nw, stream, detuned, n_uniform), deltas


@SETTINGS
@given(programs())
def test_exact_run_matches_dense_kraus_reference(case):
    program, deltas = case
    got = _exact_run(program, deltas)
    np.testing.assert_allclose(got, reference_run(program, deltas), rtol=0, atol=1e-12)
