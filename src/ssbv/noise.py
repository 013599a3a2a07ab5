"""Device parameterization and noise-channel construction.

Decoherence enters through per-qubit T1/T2 idle channels, gate errors
through depolarizing channels after every gate, low-frequency dephasing
through a quasi-static per-trajectory detuning field, crosstalk through an
always-on ZZ coupling between idle neighbors, and measurement errors
through a per-qubit readout confusion matrix (the ``ro_p01``/``ro_p10``
rates of ``DeviceModel``, which the simulator looks up per data bit).
The Kraus channels below are the exact backend's only definition of each
channel.  The trajectory backend does not read them: it samples the same
channels from branch thresholds of its own in ``simulator``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

import numpy as np

from .circuit import DT_SECONDS, DurationModel, read_fields
from .routing import CouplingGraph

COMPLETENESS_TOL = 1e-12

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS_1Q = (_I2, _X, _Y, _Z)


@dataclass(frozen=True)
class KrausChannel:
    """CPTP map given by Kraus operators; completeness checked on build."""

    operators: tuple[np.ndarray, ...]
    arity: int

    def __post_init__(self) -> None:
        dim = 2 ** self.arity
        ops = tuple(np.asarray(k, dtype=complex) for k in self.operators)
        object.__setattr__(self, "operators", ops)
        for k in ops:
            if k.shape != (dim, dim):
                raise ValueError(f"operator shape {k.shape} != ({dim},{dim})")
        total = sum(k.conj().T @ k for k in ops)
        if np.linalg.norm(total - np.eye(dim)) > COMPLETENESS_TOL:
            raise ValueError("Kraus completeness violated: "
                             f"|sum K+K - I| = {np.linalg.norm(total - np.eye(dim)):.3e}")


def identity_channel(arity: int) -> KrausChannel:
    return KrausChannel((np.eye(2 ** arity, dtype=complex),), arity)


def amplitude_damping(p: float) -> KrausChannel:
    if not 0 <= p <= 1:
        raise ValueError(f"damping probability {p} outside [0,1]")
    k0 = np.array([[1, 0], [0, math.sqrt(1 - p)]], dtype=complex)
    k1 = np.array([[0, math.sqrt(p)], [0, 0]], dtype=complex)
    return KrausChannel((k0, k1), 1)


def dephasing(p: float) -> KrausChannel:
    """Phase flip with probability p; coherences shrink by (1-2p)."""
    if not 0 <= p <= 0.5 + 1e-15:
        raise ValueError(f"dephasing probability {p} outside [0, 1/2]")
    p = min(p, 0.5)
    return KrausChannel((math.sqrt(1 - p) * _I2, math.sqrt(p) * _Z), 1)


def idle_params(t1: float, t2: float, t: float) -> tuple[float, float]:
    """(p_amplitude_damping, p_phase_flip) for an idle of t seconds.

    Pure dephasing rate from 1/T_phi = 1/T2 - 1/(2*T1); T2 <= 2*T1 required.
    """
    if t < 0:
        raise ValueError("idle duration must be nonnegative")
    if t2 > 2 * t1:
        raise ValueError(f"unphysical T2 {t2} > 2*T1 {2 * t1}")
    p_ad = 0.0 if math.isinf(t1) else 1.0 - math.exp(-t / t1)
    inv_tphi = (0.0 if math.isinf(t2) else 1.0 / t2) - \
               (0.0 if math.isinf(t1) else 1.0 / (2.0 * t1))
    inv_tphi = max(inv_tphi, 0.0)
    p_z = (1.0 - math.exp(-t * inv_tphi)) / 2.0
    return p_ad, p_z


def depolarizing(p: float, arity: int) -> KrausChannel:
    """Uniform Pauli channel over the 3 (1q) or 15 (2q) non-identity Paulis."""
    if not 0 <= p <= 1:
        raise ValueError(f"depolarizing probability {p} outside [0,1]")
    if arity not in (1, 2):
        raise ValueError("arity must be 1 or 2")
    if p == 0:
        return identity_channel(arity)
    if arity == 1:
        paulis = PAULIS_1Q
    else:
        paulis = tuple(np.kron(a, b) for a in PAULIS_1Q for b in PAULIS_1Q)
    n_err = len(paulis) - 1
    ops = [math.sqrt(1 - p) * paulis[0]]
    ops += [math.sqrt(p / n_err) * pk for pk in paulis[1:]]
    return KrausChannel(tuple(ops), arity)


@dataclass(frozen=True)
class DeviceModel:
    """Coupling graph plus per-qubit decoherence, gate and readout figures.

    Every device has a graph; its per-qubit arrays are indexed by physical
    node.  Durations are in dt ticks; T1/T2 in seconds.  Per-qubit
    heterogeneity is supported through the arrays; the shipped profiles
    are homogeneous (the reference table gives only min/mean/max).
    """

    graph: CouplingGraph
    t1: np.ndarray
    t2: np.ndarray
    ro_p01: np.ndarray  # p(read 1 | prepared 0)
    ro_p10: np.ndarray  # p(read 0 | prepared 1)
    dur_1q: int
    dur_2q: int
    dur_readout: int
    dur_dd_pulse: int
    p_dep_1q: float
    p_dep_2q: float
    dt: Fraction | float = DT_SECONDS

    def __post_init__(self) -> None:
        for attr in ("t1", "t2", "ro_p01", "ro_p10"):
            object.__setattr__(self, attr, np.asarray(getattr(self, attr), dtype=float))
        if np.any(self.t2 > 2 * self.t1 + 1e-12):
            raise ValueError("unphysical device: T2 > 2*T1 somewhere")
        for attr in ("ro_p01", "ro_p10"):
            v = getattr(self, attr)
            if np.any((v < 0) | (v > 1)):
                raise ValueError(f"{attr} outside [0,1]")
        for attr in ("dur_1q", "dur_2q", "dur_readout", "dur_dd_pulse"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive")
        for attr in ("p_dep_1q", "p_dep_2q"):
            if not 0 <= getattr(self, attr) <= 1:
                raise ValueError(f"{attr} outside [0,1]")

    @property
    def num_qubits(self) -> int:
        return len(self.t1)

    def seconds(self, ticks: int) -> float:
        return float(self.dt) * ticks

    @classmethod
    def homogeneous(cls, graph: CouplingGraph, *, t1_us: float, t2_us: float,
                    ro_error: float, dur_1q: int, dur_2q: int, dur_readout: int,
                    dur_dd_pulse: int, p_dep_1q: float, p_dep_2q: float) -> DeviceModel:
        ones = np.ones(graph.num_physical)
        return cls(graph=graph, t1=ones * t1_us * 1e-6, t2=ones * t2_us * 1e-6,
                   ro_p01=ones * ro_error, ro_p10=ones * ro_error,
                   dur_1q=dur_1q, dur_2q=dur_2q, dur_readout=dur_readout,
                   dur_dd_pulse=dur_dd_pulse, p_dep_1q=p_dep_1q, p_dep_2q=p_dep_2q)


@dataclass(frozen=True)
class NoiseConfig:
    """Coherent-error knobs and per-channel enable flags."""

    detuning_sigma: float = 0.0   # rad/s, quasi-static per trajectory
    zz_rate: float = 0.0          # rad/s per coupled idle pair
    flip_angle_eps: float = 0.0   # systematic pi-pulse over-rotation
    decoherence: bool = True
    depolarizing: bool = True
    readout: bool = True
    detuning: bool = True
    zz: bool = True

    def __post_init__(self) -> None:
        if self.detuning_sigma < 0 or self.zz_rate < 0:
            raise ValueError("noise rates must be nonnegative")
        if abs(self.flip_angle_eps) >= 1:
            raise ValueError("|flip_angle_eps| must be < 1")


NOISELESS = NoiseConfig(decoherence=False, depolarizing=False, readout=False,
                        detuning=False, zz=False)


# -- device/noise profiles -----------------------------------------------------
#
# A profile file is line-oriented 'key value' text carrying both the device
# figures and the noise-config knobs.  Shipped profiles: montreal, cairo,
# noiseless.

_PROFILE_HEADER = "# ssbv device profile v1"

_PROFILE_FIELDS = {
    "name": str, "t1_us": float, "t2_us": float, "gate_error_1q": float,
    "gate_error_2q": float, "duration_1q_dt": int, "duration_2q_dt": int,
    "duration_readout_dt": int, "duration_dd_pulse_dt": int,
    "readout_error": float, "tts_slope_us": float, "tts_intercept_us": float,
    "detuning_sigma": float, "zz_rate": float, "flip_angle_eps": float,
    "decoherence": int, "depolarizing": int, "readout": int,
    "detuning": int, "zz": int,
}


@dataclass(frozen=True)
class Profile:
    """Parsed device/noise profile; turn into model objects via methods."""

    values: dict[str, object] = field(default_factory=dict)

    def device(self, graph: CouplingGraph) -> DeviceModel:
        v = self.values
        return DeviceModel.homogeneous(
            graph, t1_us=v["t1_us"], t2_us=v["t2_us"], ro_error=v["readout_error"],
            dur_1q=v["duration_1q_dt"], dur_2q=v["duration_2q_dt"],
            dur_readout=v["duration_readout_dt"],
            dur_dd_pulse=v["duration_dd_pulse_dt"],
            p_dep_1q=v["gate_error_1q"], p_dep_2q=v["gate_error_2q"])

    def duration_model(self) -> DurationModel:
        """The linear single-run time law from the profile's TTS figures."""
        v = self.values
        return DurationModel(v["tts_slope_us"] * 1e-6, v["tts_intercept_us"] * 1e-6)

    def noise(self) -> NoiseConfig:
        v = self.values
        return NoiseConfig(
            detuning_sigma=v["detuning_sigma"], zz_rate=v["zz_rate"],
            flip_angle_eps=v["flip_angle_eps"],
            decoherence=bool(v["decoherence"]), depolarizing=bool(v["depolarizing"]),
            readout=bool(v["readout"]), detuning=bool(v["detuning"]),
            zz=bool(v["zz"]))


def profile_from_text(text: str) -> Profile:
    return Profile(read_fields(text, _PROFILE_FIELDS)[0])


def profile_to_text(profile: Profile) -> str:
    lines = [_PROFILE_HEADER]
    for key in _PROFILE_FIELDS:
        lines.append(f"{key} {profile.values[key]}")
    return "\n".join(lines) + "\n"


def load_profile(name_or_path: str) -> Profile:
    """Load a shipped profile by name (montreal, cairo, noiseless) or any
    profile file by path."""
    shipped = resources.files("ssbv") / "profiles" / f"{name_or_path}.profile"
    if shipped.is_file():
        return profile_from_text(shipped.read_text())
    with open(name_or_path) as fh:
        return profile_from_text(fh.read())
