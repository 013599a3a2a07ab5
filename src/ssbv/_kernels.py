"""Batched statevector kernels for the trajectory backend.

States are (shots, 2**n) complex arrays: one per-wire factor of the
trajectory executor (or a whole register), with its first wire as the most
significant bit.  The wire whose bit has stride ``sw`` is addressed
through ``state.reshape(s, a, 2, b)`` with ``b = sw`` and
``a = 2**n // (2*sw)``, so axis 2 is that wire's bit.  The one-wire
kernels that act on every shot take ``bit_view``, that view with the bit
axis first, which the executor builds once per factor and stride; the
others take the state and strides.  Two-wire kernels use the six-axis view
``(s, a, 2, m, 2, b)`` with one axis per bit.  Kernels work in place on
these strided views rather than gathering amplitudes with masks or index
arrays.
"""
from __future__ import annotations

import math

import numpy as np


def _wire_view(state: np.ndarray, sw: int) -> np.ndarray:
    s, d = state.shape
    return state.reshape(s, d // (2 * sw), 2, sw)


def bit_view(state: np.ndarray, sw: int) -> np.ndarray:
    """The (bit, shots, a, b) view of the wire of stride ``sw``: its two
    halves, each a (shots, a, b) array whose shots make the long inner loop
    when the wire is the low bit."""
    return _wire_view(state, sw).transpose(2, 0, 1, 3)


def _pair_view(state: np.ndarray, sa: int, sb: int) -> np.ndarray:
    """Six-axis view with the higher of the two bits on axis 2, the lower
    on axis 4."""
    s, d = state.shape
    hi, lo = max(sa, sb), min(sa, sb)
    return state.reshape(s, d // (2 * hi), 2, hi // (2 * lo), 2, lo)


def columns(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two columns of the 2x2 matrix ``u``, each shaped to broadcast
    against one half of a ``bit_view``."""
    return u[:, 0, None, None, None], u[:, 1, None, None, None]


def _mix(v: np.ndarray, cols: tuple[np.ndarray, np.ndarray]) -> None:
    """Apply the matrix of ``cols`` in place to the pairs ``(x0, x1) =
    (v[0], v[1])`` of a ``bit_view``: two broadcast products, each
    ``u[i, j] x_j`` for both i at once, and one add into ``v``."""
    np.add(cols[0] * v[0], cols[1] * v[1], out=v)


def apply_1q(view: np.ndarray, cols: tuple[np.ndarray, np.ndarray]) -> None:
    """Apply the 2x2 matrix of ``cols`` (see ``columns``) to the wire of a
    ``bit_view``."""
    _mix(view, cols)


def apply_1q_rows(state: np.ndarray, rows: np.ndarray, sw: int,
                  cols: tuple[np.ndarray, np.ndarray]) -> None:
    """``apply_1q`` on the listed shots only, for the wire of stride ``sw``.

    It shares ``_mix`` rather than calling ``apply_1q``, so a trace of the
    kernels counts each call once.
    """
    if len(rows) == 0:
        return
    sub = state[rows]
    _mix(bit_view(sub, sw), cols)
    state[rows] = sub


def cnot(state: np.ndarray, sc: int, st: int) -> None:
    """Swap the target's 0 and 1 amplitudes where the control bit is 1."""
    v = _pair_view(state, sc, st)
    if sc > st:
        x, y = v[:, :, 1, :, 0, :], v[:, :, 1, :, 1, :]
    else:
        x, y = v[:, :, 0, :, 1, :], v[:, :, 1, :, 1, :]
    tmp = x.copy()
    x[...] = y
    y[...] = tmp


def phase_bit_pershot(view: np.ndarray, phases: np.ndarray) -> None:
    """Multiply the bit-1 half of each shot of a ``bit_view`` by that
    shot's factor: a phase, or an idle's no-jump damping times its detuning
    phase."""
    view[1] *= phases[:, None, None]


def phase_zz(state: np.ndarray, sa: int, sb: int, phase: complex) -> None:
    """Multiply amplitudes whose two bits differ by ``phase``."""
    v = _pair_view(state, sa, sb)
    v[:, :, 0, :, 1, :] *= phase
    v[:, :, 1, :, 0, :] *= phase


def pop1(state: np.ndarray, sw: int) -> np.ndarray:
    """Per-shot squared norm of the wire's bit-1 half: the unnormalized
    weight of reading 1, which is the probability only for a unit state."""
    s, d = state.shape
    # Real view: each bit-1 half is a contiguous run of 2*sw floats.
    hot = state.view(state.real.dtype).reshape(s, d // (2 * sw), 2, 2 * sw)[:, :, 1, :]
    return np.einsum("sab,sab->s", hot, hot)


def _jump(v: np.ndarray, rows: np.ndarray) -> None:
    v[0, rows] = v[1, rows]
    v[1, rows] = 0.0


def damp_jump(view: np.ndarray, jump_rows: np.ndarray) -> None:
    """The jump branch of amplitude damping, ``K1 / sqrt(p)``, on the
    ``jump_rows`` of a ``bit_view``: their bit-1 half moves onto the bit-0
    half and the bit-1 half is zeroed.  A no-jump step that multiplies the
    bit-1 half after it leaves these rows as they are."""
    _jump(view, jump_rows)


def ampdamp(view: np.ndarray, p: float, jump_rows: np.ndarray) -> None:
    """One amplitude-damping branch per shot of a ``bit_view``, unnormalized.

    The ``jump_rows`` take ``K1 / sqrt(p)`` as in ``damp_jump`` (whose body
    it shares, so a trace of the kernels counts each call once).  Every row
    then takes the no-jump ``K0 = diag(1, sqrt(1-p))``, which leaves a jump
    row as it is.
    """
    if len(jump_rows):
        _jump(view, jump_rows)
    view[1] *= math.sqrt(1.0 - p)


def measure(state: np.ndarray, sw: int, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Measure the wire of stride ``sw``: shot s reads 1 when ``u[s]`` times
    its squared norm exceeds its probability of reading 0.  Returns the bits
    and the renormalized (shots, 2**(n-1)) states of the other wires."""
    v = _wire_view(state, sw)
    probs = np.einsum("sabc,sabc->sb", v, v.conj()).real
    bits = (u * probs.sum(axis=1) > probs[:, 0]).astype(np.int64)
    rows = np.arange(len(state))
    kept = v[rows, :, bits, :]
    kept /= np.sqrt(np.maximum(probs[rows, bits], 1e-300))[:, None, None]
    return bits, kept.reshape(len(state), -1)


def norm2(state: np.ndarray) -> np.ndarray:
    """Per-shot squared norm."""
    return np.einsum("si,si->s", state, state.conj()).real
