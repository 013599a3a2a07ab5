"""Statevector kernels against dense np.kron references on random inputs."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssbv import _kernels as ker

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def batches(draw, min_wires=1):
    nw = draw(st.integers(min_wires, 7))
    shots = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = rng.standard_normal((shots, 1 << nw)) \
        + 1j * rng.standard_normal((shots, 1 << nw))
    state /= np.linalg.norm(state, axis=1, keepdims=True)
    return nw, state, rng


def embed(mat, w, nw):
    """Dense operator of a one-wire matrix on wire w (wire 0 = MSB)."""
    return np.kron(np.kron(np.eye(1 << w), mat), np.eye(1 << (nw - 1 - w)))


def bit_diag(w, nw):
    """Diagonal 0/1 vector of basis states whose wire-w bit is 1."""
    return np.diag(embed(np.diag([0.0, 1.0]), w, nw)).real


def random_unitary(rng):
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q


def stride(w, nw):
    return 1 << (nw - 1 - w)


def bit_view(state, w, nw):
    return ker.bit_view(state, stride(w, nw))


@SETTINGS
@given(batches(), st.data())
def test_apply_1q(batch, data):
    nw, state, rng = batch
    w = data.draw(st.integers(0, nw - 1))
    u = random_unitary(rng)
    want = state @ embed(u, w, nw).T
    ker.apply_1q(bit_view(state, w, nw), ker.columns(u))
    np.testing.assert_allclose(state, want, rtol=0, atol=1e-12)


@SETTINGS
@given(batches(), st.data())
def test_apply_1q_rows(batch, data):
    nw, state, rng = batch
    w = data.draw(st.integers(0, nw - 1))
    rows = np.nonzero(rng.random(len(state)) < 0.5)[0]
    u = random_unitary(rng)
    want = state.copy()
    want[rows] = state[rows] @ embed(u, w, nw).T
    ker.apply_1q_rows(state, rows, stride(w, nw), ker.columns(u))
    np.testing.assert_allclose(state, want, rtol=0, atol=1e-12)


@SETTINGS
@given(batches(min_wires=2), st.booleans(), st.data())
def test_cnot(batch, control_above, data):
    nw, state, _ = batch
    hi = data.draw(st.integers(1, nw - 1))
    lo = data.draw(st.integers(0, hi - 1))
    c, t = (lo, hi) if control_above else (hi, lo)
    proj1 = np.diag([0.0, 1.0])
    dense = (embed(np.eye(2) - proj1, c, nw)
             + embed(proj1, c, nw) @ embed(np.array([[0, 1], [1, 0]]), t, nw))
    want = state @ dense.T
    ker.cnot(state, 1 << (nw - 1 - c), 1 << (nw - 1 - t))
    np.testing.assert_array_equal(state, want)


@SETTINGS
@given(batches(), st.data())
def test_phase_bit_pershot(batch, data):
    nw, state, rng = batch
    w = data.draw(st.integers(0, nw - 1))
    phases = np.exp(1j * rng.uniform(-np.pi, np.pi, len(state)))
    hot = bit_diag(w, nw)
    want = state * np.where(hot > 0, phases[:, None], 1.0)
    ker.phase_bit_pershot(bit_view(state, w, nw), phases)
    np.testing.assert_allclose(state, want, rtol=0, atol=1e-12)


@SETTINGS
@given(batches(min_wires=2), st.data())
def test_phase_zz(batch, data):
    nw, state, rng = batch
    wa, wb = data.draw(st.lists(st.integers(0, nw - 1), min_size=2, max_size=2,
                                unique=True))
    phase = np.exp(1j * rng.uniform(-np.pi, np.pi))
    odd = (bit_diag(wa, nw) + bit_diag(wb, nw)) == 1
    want = state * np.where(odd, phase, 1.0)
    ker.phase_zz(state, 1 << (nw - 1 - wa), 1 << (nw - 1 - wb), phase)
    np.testing.assert_allclose(state, want, rtol=0, atol=1e-12)


@SETTINGS
@given(batches(), st.data())
def test_pop1(batch, data):
    nw, state, rng = batch
    state *= rng.uniform(0.1, 2.0, (len(state), 1))     # unnormalized rows
    w = data.draw(st.integers(0, nw - 1))
    want = np.abs(state) ** 2 @ bit_diag(w, nw)
    got = ker.pop1(state, 1 << (nw - 1 - w))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("with_jumps", [False, True])
@SETTINGS
@given(batch=batches(), data=st.data())
def test_ampdamp(with_jumps, batch, data):
    # Unnormalized: jump rows take K1 / sqrt(p), every other row K0.
    nw, state, rng = batch
    w = data.draw(st.integers(0, nw - 1))
    p = data.draw(st.floats(0.01, 0.99))
    jump = rng.random(len(state)) < 0.5 if with_jumps else np.zeros(len(state), bool)
    if with_jumps:
        jump[rng.integers(len(state))] = True
    k0 = embed(np.array([[1.0, 0.0], [0.0, np.sqrt(1 - p)]]), w, nw)
    k1 = embed(np.array([[0.0, np.sqrt(p)], [0.0, 0.0]]), w, nw)
    want = np.where(jump[:, None], state @ k1.T / np.sqrt(p), state @ k0.T)
    ker.ampdamp(bit_view(state, w, nw), p, np.nonzero(jump)[0])
    np.testing.assert_allclose(state, want, rtol=0, atol=1e-12)


@SETTINGS
@given(batches())
def test_measure_and_norm2(batch):
    nw, state, rng = batch
    w = int(rng.integers(nw))
    u = rng.random(len(state))
    probs = np.abs(state) ** 2
    # Dense projection onto each value of wire w's bit.
    proj = [state @ embed(np.diag(bit), w, nw) for bit in ([1.0, 0.0], [0.0, 1.0])]
    p0, p1 = (np.linalg.norm(v, axis=1) ** 2 for v in proj)
    want_bits = (u * (p0 + p1) > p0).astype(np.int64)
    keep = ((np.arange(1 << nw) >> (nw - 1 - w)) & 1)[None, :] == want_bits[:, None]
    want = np.where(want_bits[:, None], proj[1], proj[0])[keep].reshape(len(state), -1)
    want /= np.linalg.norm(want, axis=1, keepdims=True)
    bits, collapsed = ker.measure(state, 1 << (nw - 1 - w), u)
    np.testing.assert_array_equal(bits, want_bits)
    np.testing.assert_allclose(collapsed, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(ker.norm2(state), probs.sum(axis=1), rtol=0, atol=1e-12)


@SETTINGS
@given(batch=batches(), data=st.data())
def test_damp_jump(batch, data):
    # The jump half of ampdamp alone: jump rows take K1 / sqrt(p), the
    # other rows are left as they are.  ampdamp is this jump followed by the
    # no-jump diagonal on every row.
    nw, state, rng = batch
    w = data.draw(st.integers(0, nw - 1))
    p = data.draw(st.floats(0.01, 0.99))
    jump = rng.random(len(state)) < 0.5
    rows = np.nonzero(jump)[0]
    k1 = embed(np.array([[0.0, 1.0], [0.0, 0.0]]), w, nw)
    want = np.where(jump[:, None], state @ k1.T, state)
    damped = state.copy()
    ker.damp_jump(bit_view(state, w, nw), rows)
    np.testing.assert_array_equal(state, want)
    ker.ampdamp(bit_view(damped, w, nw), p, rows)
    state *= np.where(bit_diag(w, nw) > 0, np.sqrt(1 - p), 1.0)
    np.testing.assert_allclose(damped, state, rtol=0, atol=1e-15)
