import math

import numpy as np
import pytest

from ssbv.circuit import GateEvent, GateKind, TimedCircuit, validate_circuit
from ssbv.decoupling import (DDSequence, detect_gaps, plan_dd, pulse_unitary,
                             schedule_dd, sequence_from_name, ur_phases)
from ssbv.noise import NOISELESS, NoiseConfig, load_profile
from ssbv.oracles import OracleSpec, bv_logical_circuit
from ssbv.routing import chain_graph, embed_oracle, heavy_hex_27, route_bv
from ssbv.simulator import TrajectoryPlan, noiseless_output, simulate_shots


def product_of(phases, eps=0.0):
    u = np.eye(2, dtype=complex)
    for p in phases:
        u = pulse_unitary(p, eps) @ u
    return u


def test_ur4_is_xy4():
    seq = ur_phases(4)
    assert seq.phases == pytest.approx((0.0, math.pi / 2, 0.0, math.pi / 2))


def test_ur14_phase_formula_independent_evaluation():
    # 4m+2 family with m=3: Phi = 6*pi/7, phi_2 = Phi/2
    seq = ur_phases(14)
    big = 6 * math.pi / 7
    for k in range(1, 15):
        want = ((k - 1) * (k - 2) / 2 * big + (k - 1) * big / 2) % (2 * math.pi)
        assert seq.phases[k - 1] == pytest.approx(want)


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12, 14, 16, 18, 22])
def test_ur_product_is_identity(n):
    prod = product_of(ur_phases(n).phases)
    assert abs(abs(np.trace(prod)) - 2.0) < 1e-10


def test_ur_rejects_bad_lengths():
    for n in (2, 3, 5, 7):
        with pytest.raises(ValueError):
            ur_phases(n)


def test_sequence_constructor_rejects_non_identity():
    with pytest.raises(ValueError):
        DDSequence("broken", (0.0, 0.1, 0.2, 0.3))


def test_sequence_from_name():
    assert sequence_from_name("none") is None
    assert len(sequence_from_name("ur14")) == 14
    assert len(sequence_from_name("ur6")) == 6
    with pytest.raises(ValueError):
        sequence_from_name("cpmg")


@pytest.mark.parametrize("name", ["ur:14", "urx", "ur", "ur-4", "ur 4", "ur٤"])
def test_sequence_from_name_refuses_any_other_spelling(name):
    with pytest.raises(ValueError, match=f"^unknown DD sequence {name!r}$"):
        sequence_from_name(name)


def test_detect_gaps_back_to_back():
    events = (GateEvent(GateKind.H, (0,), 0, 10),
              GateEvent(GateKind.H, (0,), 10, 10))
    assert detect_gaps(TimedCircuit(1, events)) == {0: []}


def test_detect_gaps_constructed_pair():
    events = (GateEvent(GateKind.CNOT, (0, 1), 0, 100),
              GateEvent(GateKind.CNOT, (0, 1), 300, 100))
    gaps = detect_gaps(TimedCircuit(2, events))
    assert gaps == {0: [(100, 300)], 1: [(100, 300)]}


def test_detect_gaps_routed_bv6_has_multi_gap_qubit():
    graph = heavy_hex_27()
    spec = OracleSpec.representative(6, 6)
    routed = route_bv(spec, graph, embed_oracle(spec, graph),
                      load_profile("montreal").device(graph))
    gaps = detect_gaps(routed.circuit)
    assert max(len(v) for v in gaps.values()) >= 2


def test_detect_gaps_edges():
    events = (GateEvent(GateKind.H, (0,), 100, 10),
              GateEvent(GateKind.H, (0,), 160, 10))
    circ = TimedCircuit(1, events)
    assert detect_gaps(circ) == {0: [(110, 160)]}
    assert detect_gaps(circ, include_edges=True)[0][0] == (0, 100)


def test_schedule_dd_short_gap_idle_fallback():
    events = (GateEvent(GateKind.H, (0,), 0, 10),
              GateEvent(GateKind.H, (0,), 45, 10))  # gap of 35 < 4*10
    circ = TimedCircuit(1, events)
    out = schedule_dd(circ, ur_phases(4), 10, fallback="idle")
    assert out.events == circ.events


def test_schedule_dd_exact_fit_back_to_back():
    events = (GateEvent(GateKind.H, (0,), 0, 10),
              GateEvent(GateKind.H, (0,), 50, 10))  # gap of 40 = 4*10
    out = schedule_dd(TimedCircuit(1, events), ur_phases(4), 10)
    pulses = [ev for ev in out.events if ev.kind is GateKind.PHASED_PI]
    assert [p.start for p in pulses] == [10, 20, 30, 40]
    assert validate_circuit(out) is None


def test_schedule_dd_ladder_falls_back_to_smaller_sequence():
    # gap of 90 holds UR6 (60) but not UR14 (140)
    events = (GateEvent(GateKind.H, (0,), 0, 10),
              GateEvent(GateKind.H, (0,), 100, 10))
    plans = plan_dd(TimedCircuit(1, events), ur_phases(14), 10)
    assert len(plans) == 1 and len(plans[0].sequence) == 6
    plans = plan_dd(TimedCircuit(1, events), ur_phases(14), 10, fallback="idle")
    assert plans == []


def test_pulse_centers_equally_spaced_within_one_tick():
    events = (GateEvent(GateKind.H, (0,), 0, 10),
              GateEvent(GateKind.H, (0,), 1007, 10))
    plans = plan_dd(TimedCircuit(1, events), ur_phases(14), 10)
    (plan,) = plans
    centers = [s + 5 for s in plan.pulse_starts]
    spacings = np.diff(centers)
    assert spacings.max() - spacings.min() <= 1
    g0, g1 = plan.gap
    assert all(g0 <= s and s + 10 <= g1 for s in plan.pulse_starts)


@pytest.mark.parametrize("n", [6, 14, 26])
def test_dd_dressed_routed_circuits_stay_valid(n):
    graph = heavy_hex_27()
    device = load_profile("montreal").device(graph)
    spec = OracleSpec.representative(n, n)
    routed = route_bv(spec, graph, embed_oracle(spec, graph), device)
    for name in ("ur4", "ur14", "ur18"):
        dressed = schedule_dd(routed.circuit, sequence_from_name(name),
                              device.dur_dd_pulse)
        assert validate_circuit(dressed) is None


def test_noiseless_neutrality_of_dd():
    graph = heavy_hex_27()
    device = load_profile("noiseless").device(graph)
    spec = OracleSpec.representative(4, 3)
    routed = route_bv(spec, graph, embed_oracle(spec, graph), device)
    dressed = schedule_dd(routed.circuit, ur_phases(4), device.dur_dd_pulse)
    bare = noiseless_output(routed.circuit, routed.readout)
    with_dd = noiseless_output(dressed, routed.readout)
    for key in set(bare) | set(with_dd):
        assert with_dd.get(key, 0.0) == pytest.approx(bare.get(key, 0.0), abs=1e-9)


def test_ur14_beats_free_evolution_under_detuning_and_flip_error():
    # single qubit: H, long idle, H; quasi-static detuning dephases the
    # superposition unless refocused; pulses carry a 2% flip-angle error
    device = load_profile("montreal").device(chain_graph(1))
    idle = 40_000  # dt ticks ~ 8.9 us
    events = (GateEvent(GateKind.H, (0,), 0, device.dur_1q),
              GateEvent(GateKind.H, (0,), device.dur_1q + idle, device.dur_1q))
    circ = TimedCircuit(1, events, dt=device.dt)
    noise = NoiseConfig(detuning_sigma=3e5, flip_angle_eps=0.02,
                        decoherence=False, depolarizing=False, readout=False)
    spec = OracleSpec.representative(1, 0)
    plan = TrajectoryPlan(4000, 17)
    rmap_all = __import__("ssbv.oracles", fromlist=["ReadoutMap"]).ReadoutMap((0,))
    bare = simulate_shots(circ, device, noise, plan, spec, rmap_all)
    dressed = schedule_dd(circ, ur_phases(14), device.dur_dd_pulse)
    prot = simulate_shots(dressed, device, noise, plan, spec, rmap_all)
    p_bare = bare.counts.get("0", 0) / bare.total_shots
    p_prot = prot.counts.get("0", 0) / prot.total_shots
    assert p_prot > p_bare + 0.05
