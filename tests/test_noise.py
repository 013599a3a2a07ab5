import math

import numpy as np
import pytest

from ssbv.circuit import GateEvent, GateKind, TimedCircuit
from ssbv.noise import (DeviceModel, KrausChannel, NoiseConfig,
                        amplitude_damping, dephasing, depolarizing,
                        idle_params, identity_channel, load_profile,
                        profile_from_text, profile_to_text)
from ssbv.oracles import OracleSpec, ReadoutMap
from ssbv.routing import chain_graph
from ssbv.simulator import TrajectoryPlan, simulate_shots


def completeness_defect(channel: KrausChannel) -> float:
    dim = 2 ** channel.arity
    total = sum(k.conj().T @ k for k in channel.operators)
    return float(np.linalg.norm(total - np.eye(dim)))


def idle_kraus(t1, t2, t):
    """Kraus operators of the idle op compile_program emits, without its
    detuning phase: damping, then phase flip."""
    p_ad, p_z = idle_params(t1, t2, t)
    return [d @ k for k in amplitude_damping(p_ad).operators
            for d in dephasing(p_z).operators]


def test_idle_channel_zero_time_is_identity():
    assert idle_params(100e-6, 80e-6, 0.0) == (0.0, 0.0)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = a @ a.conj().T
    out = sum(k @ rho @ k.conj().T for k in idle_kraus(100e-6, 80e-6, 0.0))
    np.testing.assert_allclose(out, rho, rtol=0, atol=1e-15)


def test_idle_channel_infinite_t1_is_pure_dephasing():
    t2 = 50e-6
    p_ad, p_z = idle_params(math.inf, t2, 10e-6)
    assert p_ad == 0.0
    assert p_z == pytest.approx((1 - math.exp(-10e-6 / t2)) / 2)
    # operators are diagonal: no population transfer
    for k in idle_kraus(math.inf, t2, 10e-6):
        assert abs(k[0, 1]) == 0 and abs(k[1, 0]) == 0


def test_idle_channel_device_mean_values():
    # p_ad = 1 - exp(-5.2/113.2); dephasing rate from 1/T2 - 1/(2 T1)
    t1, t2, t = 113.2e-6, 99.72e-6, 5.2e-6
    p_ad, p_z = idle_params(t1, t2, t)
    assert p_ad == pytest.approx(1 - math.exp(-5.2 / 113.2), rel=1e-12)
    assert p_ad == pytest.approx(0.0449, abs=5e-4)
    inv_tphi = 1 / t2 - 1 / (2 * t1)
    assert p_z == pytest.approx((1 - math.exp(-t * inv_tphi)) / 2, rel=1e-12)
    assert completeness_defect(amplitude_damping(p_ad)) < 1e-12
    assert completeness_defect(dephasing(p_z)) < 1e-12
    assert completeness_defect(KrausChannel(tuple(idle_kraus(t1, t2, t)), 1)) < 1e-12


def test_idle_channel_rejects_unphysical_t2():
    with pytest.raises(ValueError):
        idle_params(10e-6, 25e-6, 1e-6)


def test_depolarizing_structure():
    (op,) = depolarizing(0.0, 1).operators
    assert np.array_equal(op, np.eye(2))
    assert len(depolarizing(0.1, 1).operators) == 4
    assert len(depolarizing(0.1, 2).operators) == 16
    assert completeness_defect(depolarizing(0.0135, 2)) < 1e-12


def test_all_channels_complete():
    p_ad, p_z = idle_params(100e-6, 120e-6, 3e-6)
    for ch in (identity_channel(1), identity_channel(2),
               amplitude_damping(0.3), dephasing(0.2),
               amplitude_damping(p_ad), dephasing(p_z), depolarizing(0.25, 1),
               depolarizing(0.25, 2)):
        assert completeness_defect(ch) < 1e-12


def readout_device(n, ro_error):
    return DeviceModel.homogeneous(
        chain_graph(n), t1_us=math.inf, t2_us=math.inf, ro_error=ro_error, dur_1q=10,
        dur_2q=10, dur_readout=10, dur_dd_pulse=10, p_dep_1q=0, p_dep_2q=0)


READOUT_ONLY = NoiseConfig(decoherence=False, depolarizing=False, readout=True,
                           detuning=False, zz=False)


def prepared(bits, device):
    """Circuit preparing the basis state ``bits`` with X gates."""
    events = tuple(GateEvent(GateKind.X, (w,), 0, device.dur_1q)
                   for w, b in enumerate(bits) if b == "1")
    return TimedCircuit(len(bits), events, dt=device.dt)


def test_readout_sample_identity_and_certain_flip():
    spec = OracleSpec.representative(3, 0)
    rmap = ReadoutMap.identity(3)
    plan = TrajectoryPlan(50, 0)
    quiet = readout_device(3, 0.0)
    table = simulate_shots(prepared("010", quiet), quiet, READOUT_ONLY, plan,
                           spec, rmap)
    assert table.counts == {"010": 50}
    flip = readout_device(3, 1.0)
    table = simulate_shots(prepared("000", flip), flip, READOUT_ONLY, plan,
                           spec, rmap)
    assert table.counts == {"111": 50}


def test_readout_sample_flip_frequency_matches_rate():
    p = 0.0259
    device = readout_device(1, p)
    n = 100_000
    table = simulate_shots(prepared("0", device), device, READOUT_ONLY,
                           TrajectoryPlan(n, 123), OracleSpec.representative(1, 0),
                           ReadoutMap((0,)))
    flips = table.counts.get("1", 0)
    sigma = math.sqrt(p * (1 - p) * n)
    assert abs(flips - p * n) < 3 * sigma


def test_static_fields_zero_sigma_and_mean():
    # H - idle - H on one wire: a static detuning delta gives
    # P(0) = (1 + cos(delta t)) / 2, and delta ~ Normal(0, sigma) averages
    # that to (1 + exp(-(sigma t)^2 / 2)) / 2.
    device = readout_device(1, 0.0)
    t = 5e-6
    idle = round(t / float(device.dt))
    events = (GateEvent(GateKind.H, (0,), 0, 10),
              GateEvent(GateKind.H, (0,), 10 + idle, 10))
    circ = TimedCircuit(1, events, dt=device.dt)
    spec, rmap = OracleSpec.representative(1, 0), ReadoutMap((0,))
    shots = 20_000
    still = simulate_shots(circ, device, NoiseConfig(detuning_sigma=0.0),
                           TrajectoryPlan(shots, 7), spec, rmap)
    assert still.counts == {"0": shots}
    sigma = 2e5
    table = simulate_shots(circ, device, NoiseConfig(detuning_sigma=sigma),
                           TrajectoryPlan(shots, 7), spec, rmap)
    want = (1 + math.exp(-(sigma * t) ** 2 / 2)) / 2
    got = table.counts.get("0", 0) / shots
    assert abs(got - want) < 5 * math.sqrt(want * (1 - want) / shots)


def test_free_evolution_x_expectation_is_cosine():
    # single qubit between H gates: idle detuning delta for time t leaves
    # <X> = cos(delta*t), i.e. P(0) = cos^2(delta*t/2)
    from ssbv.circuit import GateEvent, GateKind, TimedCircuit
    from ssbv.oracles import ReadoutMap
    from ssbv.simulator import _exact_distribution, compile_program, simulate_exact

    device = DeviceModel.homogeneous(
        chain_graph(1), t1_us=math.inf, t2_us=math.inf, ro_error=0.0, dur_1q=10,
        dur_2q=10, dur_readout=1, dur_dd_pulse=10, p_dep_1q=0, p_dep_2q=0)
    idle = 3000
    events = (GateEvent(GateKind.H, (0,), 0, 10),
              GateEvent(GateKind.H, (0,), 10 + idle, 10))
    circ = TimedCircuit(1, events, dt=device.dt)
    delta = 2.0e5
    t = idle * float(device.dt)
    noise = NoiseConfig(detuning_sigma=delta)

    # pinned delta, a 1-node rule: closed form cos(delta*t)
    program = compile_program(circ, device, noise, [0])
    labels, probs = _exact_distribution(program, {0: (np.array([delta]), np.ones(1))},
                                        ReadoutMap((0,)), None)
    p0 = float(probs[list(labels).index(0)])
    assert 2 * p0 - 1 == pytest.approx(math.cos(delta * t), abs=1e-9)

    # Gaussian ensemble: averaged coherence exp(-(sigma t)^2 / 2)
    dist = simulate_exact(circ, device, noise, ReadoutMap((0,)), gh_nodes=21)
    want_p0 = (1 + math.exp(-(delta * t) ** 2 / 2)) / 2
    assert dist.get("0", 0.0) == pytest.approx(want_p0, abs=1e-6)


def test_device_model_validation():
    with pytest.raises(ValueError):
        DeviceModel.homogeneous(chain_graph(2), t1_us=10, t2_us=25, ro_error=0.0,
                                dur_1q=1, dur_2q=1, dur_readout=1, dur_dd_pulse=1,
                                p_dep_1q=0, p_dep_2q=0)
    with pytest.raises(ValueError):
        DeviceModel.homogeneous(chain_graph(2), t1_us=10, t2_us=10, ro_error=1.5,
                                dur_1q=1, dur_2q=1, dur_readout=1, dur_dd_pulse=1,
                                p_dep_1q=0, p_dep_2q=0)


def test_noise_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(detuning_sigma=-1.0)
    with pytest.raises(ValueError):
        NoiseConfig(flip_angle_eps=1.0)


def test_shipped_profiles_load():
    for name, t1 in (("montreal", 113.2e-6), ("cairo", 102.19e-6)):
        profile = load_profile(name)
        device = profile.device(chain_graph(4))
        assert device.t1[0] == pytest.approx(t1)
        model = profile.duration_model()
        assert model.slope == profile.values["tts_slope_us"] * 1e-6
        assert model.tau_0 == profile.values["tts_intercept_us"] * 1e-6
    quiet = load_profile("noiseless")
    noise = quiet.noise()
    assert not noise.decoherence and not noise.depolarizing
    assert noise.detuning_sigma == 0.0


def test_profile_text_roundtrip():
    for name in ("montreal", "cairo", "noiseless"):
        profile = load_profile(name)
        assert profile_from_text(profile_to_text(profile)) == profile


def test_profile_rejects_unknown_and_missing_fields():
    with pytest.raises(ValueError):
        profile_from_text("bogus_field 3\n")
    with pytest.raises(ValueError):
        profile_from_text("name incomplete\n")


def test_profile_reader_rejects_malformed_text():
    text = profile_to_text(load_profile("montreal"))
    for mangled, message in (
            (text.replace("zz_rate", "# zz_rate"), "end of text: missing field zz_rate"),
            (text.replace("t2_us", "t2"), "line 4: unknown field 't2'"),
            (text.replace("t1_us 113.2", "t1_us 113.2us"), "line 3: bad value for t1_us"),
            (text.split("readout_error")[0], "end of text: missing field readout_error"),
            ("", "end of text: missing field name, t1_us")):
        with pytest.raises(ValueError, match=message):
            profile_from_text(mangled)
