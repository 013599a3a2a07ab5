import hashlib
import itertools
import math
from contextlib import contextmanager
from dataclasses import replace
from unittest.mock import DEFAULT, patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssbv import _kernels as ker
from ssbv import simulator
from ssbv.circuit import Bitstring, GateEvent, GateKind, TimedCircuit
from ssbv.decoupling import schedule_dd, sequence_from_name, ur_phases
from ssbv.noise import NOISELESS, DeviceModel, NoiseConfig, load_profile
from ssbv.oracles import (OracleSpec, ReadoutMap, all_oracles,
                          bv_logical_circuit, representative_oracles)
from ssbv.routing import chain_graph, embed_oracle, heavy_hex_27, route_bv
from ssbv.routing import verify_routed
from ssbv.simulator import (BATCH_BYTES, Op, Program, SimulatorCapError,
                            TrajectoryPlan, _detuning_rules,
                            _exact_distribution, _Factor, _shot_streams,
                            check_reduction_equivalence,
                            compile_program, noiseless_output, simulate_exact,
                            simulate_shots, total_variation_distance)

MONTREAL = load_profile("montreal")


def assert_dist_close(got, want, tol=1e-12):
    for key in set(got) | set(want):
        assert got.get(key, 0.0) == pytest.approx(want.get(key, 0.0), abs=tol), key


def bv_circuit(spec, device, **kwargs):
    return bv_logical_circuit(spec, dur_1q=device.dur_1q, dur_2q=device.dur_2q,
                              readout_duration=device.dur_readout,
                              dt=device.dt, **kwargs)


def plain_device(n, **over):
    params = dict(t1_us=math.inf, t2_us=math.inf, ro_error=0.0, dur_1q=10,
                  dur_2q=30, dur_readout=10, dur_dd_pulse=10, p_dep_1q=0.0, p_dep_2q=0.0)
    params.update(over)
    return DeviceModel.homogeneous(chain_graph(n), **params)


def test_noiseless_exactness_all_oracles():
    device = plain_device(7)
    for n in (2, 4, 6):
        for spec in all_oracles(n):
            circ, rmap = bv_circuit(spec, device)
            dist = simulate_exact(circ, device, NoiseConfig(), rmap)
            assert_dist_close(dist, {spec.b.to01(): 1.0})


def test_fully_depolarizing_single_qubit_is_uniform():
    device = plain_device(1, p_dep_1q=1.0)
    events = (GateEvent(GateKind.H, (0,), 0, 10),)
    circ = TimedCircuit(1, events, dt=device.dt)
    dist = simulate_exact(circ, device, NoiseConfig(), ReadoutMap((0,)))
    # p=1 uniform Pauli channel maps any state to I/2 plus a residual X part;
    # on |+> every Pauli is +-1 eigen so the state is unchanged, use |0>:
    circ0 = TimedCircuit(1, (GateEvent(GateKind.X, (0,), 0, 10),), dt=device.dt)
    dist0 = simulate_exact(circ0, device, NoiseConfig(), ReadoutMap((0,)))
    assert dist0["0"] == pytest.approx(2 / 3, abs=1e-12)  # (p/3)(X+Y) flip back
    device2 = plain_device(1, p_dep_1q=0.75)  # p=3/4 is the true depolarizer
    dist2 = simulate_exact(circ0, device2, NoiseConfig(), ReadoutMap((0,)))
    assert_dist_close(dist2, {"0": 0.5, "1": 0.5})


def hand_bv2_amplitude_damping(p_ad_data, p_ad_anc):
    """Independent oracle: evolve the 8x8 density matrix for BV-2 (b=11)
    by explicit matrix algebra, amplitude damping after each layer."""
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    eye = np.eye(2)

    def kron3(a, b, c):
        return np.kron(np.kron(a, b), c)

    def damp(rho, wire, p):
        k0 = np.array([[1, 0], [0, math.sqrt(1 - p)]])
        k1 = np.array([[0, math.sqrt(p)], [0, 0]])
        mats = [eye, eye, eye]
        out = np.zeros_like(rho)
        for k in (k0, k1):
            mats[wire] = k
            full = kron3(*mats)
            out = out + full @ rho @ full.conj().T
        return out

    def cnot(control, target):
        m = np.zeros((8, 8))
        for i in range(8):
            bits = [(i >> 2) & 1, (i >> 1) & 1, i & 1]
            bits[target] ^= bits[control]
            j = (bits[0] << 2) | (bits[1] << 1) | bits[2]
            m[j, i] = 1.0
        return m

    rho = np.zeros((8, 8), dtype=complex)
    rho[0, 0] = 1.0
    x_full = kron3(eye, eye, np.array([[0, 1], [1, 0]]))
    rho = x_full @ rho @ x_full.T
    rho = damp(rho, 0, p_ad_data)
    rho = damp(rho, 1, p_ad_data)
    h_full = kron3(h, h, h)
    rho = h_full @ rho @ h_full.T
    for control in (0, 1):
        m = cnot(control, 2)
        rho = m @ rho @ m.T
        for w in (0, 1, 2):
            rho = damp(rho, w, p_ad_anc)
    rho = h_full @ rho @ h_full.T
    probs = np.real(np.diag(rho)).reshape(2, 2, 2).sum(axis=2)
    return {f"{a}{b}": probs[a, b] for a in (0, 1) for b in (0, 1)}


def test_bv2_amplitude_damping_matches_hand_kraus_evolution():
    # same channel structure placed by hand: damping of strength q after
    # every layer <-> a custom program evolved by the library
    q = 0.03
    ops = []
    # order: X(anc), damp data wires, H layer, CNOT+damp rounds, H layer
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    ops.append(Op("u1", (2,), matrix=x))
    ops.append(Op("idle", (0,), p=q))
    ops.append(Op("idle", (1,), p=q))
    for w in (0, 1, 2):
        ops.append(Op("u1", (w,), matrix=h))
    for control in (0, 1):
        ops.append(Op("cnot", (control, 2)))
        for w in (0, 1, 2):
            ops.append(Op("idle", (w,), p=q))
    for w in (0, 1, 2):
        ops.append(Op("u1", (w,), matrix=h))
    labels, probs = _exact_distribution(Program(3, tuple(ops), ()), {},
                                        ReadoutMap((0, 1)), None)
    got = {f"{i:02b}": p for i, p in zip(labels, probs)}
    want = hand_bv2_amplitude_damping(q, q)
    assert got == pytest.approx(want, abs=1e-12)


def test_trajectory_matches_exact_depolarizing():
    device = plain_device(1, p_dep_1q=0.1)
    circ = TimedCircuit(1, (GateEvent(GateKind.H, (0,), 0, 10),), dt=device.dt)
    spec = OracleSpec.representative(1, 1)
    exact = simulate_exact(circ, device, NoiseConfig(), ReadoutMap((0,)))
    table = simulate_shots(circ, device, NoiseConfig(),
                           TrajectoryPlan(100_000, 3), spec, ReadoutMap((0,)))
    for key, want in exact.items():
        got = table.counts.get(key, 0) / table.total_shots
        sigma = math.sqrt(want * (1 - want) / table.total_shots)
        assert abs(got - want) < 4 * sigma


def test_trajectory_matches_exact_full_noise_bv2():
    noise = NoiseConfig()
    device = MONTREAL.device(chain_graph(3))
    spec = OracleSpec.representative(2, 2)
    circ, rmap = bv_circuit(spec, device)
    exact = simulate_exact(circ, device, noise, rmap)
    table = simulate_shots(circ, device, noise, TrajectoryPlan(100_000, 5),
                           spec, rmap)
    emp = {k: v / table.total_shots for k, v in table.counts.items()}
    assert total_variation_distance(exact, emp) < 0.01


def ur4_chain(n):
    """BV-n full weight routed on an (n+1)-node chain and dressed with UR4."""
    graph = chain_graph(n + 1)
    device = MONTREAL.device(graph)
    spec = OracleSpec.representative(n, n)
    routed = route_bv(spec, graph, embed_oracle(spec, graph), device)
    circ = schedule_dd(routed.circuit, ur_phases(4), device.dur_dd_pulse)
    phys = [None] * circ.num_qubits
    for node, w in routed.wire_of_physical.items():
        phys[w] = node
    return spec, routed, circ, device, phys


def has_idle(program, detuned):
    """Whether the program has an idle that damps and dephases on a wire
    that is (or is not) detuned."""
    return any(op.kind == "idle" and op.p > 0 and op.q > 0
               and (op.wires[0] in program.detuned_wires) == detuned
               for op in program.ops)


def test_trajectory_matches_exact_crosstalk_six_wires():
    spec, routed, circ, device, phys = ur4_chain(5)
    assert circ.num_qubits == 6
    noise = replace(MONTREAL.noise(), detuning=False, zz_rate=2.5e5)
    program = compile_program(circ, device, noise, phys)
    assert {"zz", "dep2"} <= {op.kind for op in program.ops}
    assert has_idle(program, detuned=False)
    shots = 4000
    exact = simulate_exact(circ, device, noise, routed.readout, phys)
    table = simulate_shots(circ, device, noise, TrajectoryPlan(shots, 17), spec,
                           routed.readout, phys)
    emp = {k: v / shots for k, v in table.counts.items()}
    bound = 5 * 0.5 * sum(math.sqrt(p * (1 - p) / shots) for p in exact.values())
    assert total_variation_distance(exact, emp) < bound


def routed_ur14(n, k):
    """Representative oracle (n, k), reduced setup, routed on heavy-hex-27
    and dressed with UR14, as in the README run."""
    graph = heavy_hex_27()
    device = MONTREAL.device(graph)
    spec = OracleSpec.representative(n, k)
    routed = route_bv(spec, graph, embed_oracle(spec, graph), device)
    circ = schedule_dd(routed.circuit, sequence_from_name("ur14"),
                       device.dur_dd_pulse)
    phys = [None] * circ.num_qubits
    for node, w in routed.wire_of_physical.items():
        phys[w] = node
    return spec, routed, circ, device, phys


def confuse_by_hand(dist, readout, phys, device):
    """Readout confusion of each data bit at the rates of the physical
    qubit it is read from; absent qubits read 0 at physical qubit 0's rates."""
    out = {}
    for key, p in dist.items():
        for read in itertools.product("01", repeat=len(key)):
            weight = p
            for lq, (true_bit, read_bit) in enumerate(zip(key, read)):
                wire = readout.wire_of_logical[lq]
                q = 0 if wire is None else phys[wire]
                flip = device.ro_p10[q] if true_bit == "1" else device.ro_p01[q]
                weight *= flip if true_bit != read_bit else 1 - flip
            out["".join(read)] = out.get("".join(read), 0.0) + weight
    return out


@pytest.mark.parametrize("noise, channels", [
    (NoiseConfig(decoherence=False, depolarizing=False, detuning=False, zz=False),
     False),
    (replace(MONTREAL.noise(), detuning=False), True),
])
def test_asymmetric_readout_agrees_across_backends(noise, channels):
    # Reduced BV-5 (k=3) routed on heavy-hex: two data bits are absent and a
    # data wire sits on a physical qubit of another index.  Every physical
    # qubit has its own rates with p01 != p10.
    graph = heavy_hex_27()
    base = MONTREAL.device(graph)
    q = np.arange(len(base.ro_p01))
    device = replace(base, ro_p01=0.02 + 0.002 * q, ro_p10=0.3 - 0.004 * q)
    spec = OracleSpec.representative(5, 3)
    routed = route_bv(spec, graph, embed_oracle(spec, graph), device)
    circ = routed.circuit
    phys = [None] * circ.num_qubits
    for node, w in routed.wire_of_physical.items():
        phys[w] = node
    assert None in routed.readout.wire_of_logical
    assert any(phys[w] != w for w in routed.readout.wire_of_logical if w is not None)
    assert (compile_program(circ, device, noise, phys).n_uniform_ops > 0) == channels

    exact = simulate_exact(circ, device, noise, routed.readout, phys)
    unread = simulate_exact(circ, device, replace(noise, readout=False),
                            routed.readout, phys)
    assert_dist_close(exact, confuse_by_hand(unread, routed.readout, phys, device))

    shots = 4000
    table = simulate_shots(circ, device, noise, TrajectoryPlan(shots, 23), spec,
                           routed.readout, phys)
    emp = {k: v / shots for k, v in table.counts.items()}
    bound = 5 * 0.5 * sum(math.sqrt(p * (1 - p) / shots) for p in exact.values())
    assert total_variation_distance(exact, emp) < bound


def test_exact_detuning_average_is_capped():
    # Five detuned wires whose rules need 1, 4, 4, 5 and 5 nodes: gh_nodes=4
    # refuses, naming a 5-node wire; the default runs and keeps mass 1.
    spec, routed, circ, device, phys = ur4_chain(4)
    noise = MONTREAL.noise()
    program = compile_program(circ, device, noise, phys)
    assert len(program.detuned_wires) == 5
    rules = _detuning_rules(program, noise.detuning_sigma, 21)
    assert sorted(len(x) for x, _ in rules.values()) == [1, 4, 4, 5, 5]
    with pytest.raises(SimulatorCapError, match=r"wire [04] .*gh_nodes=4 "):
        simulate_exact(circ, device, noise, routed.readout, phys, gh_nodes=4)
    dist = simulate_exact(circ, device, noise, routed.readout, phys)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)


def ramsey(sigma_t):
    """H - idle - H on one wire detuned by sigma_t / (idle time)."""
    device = plain_device(1)
    idle = 3000
    events = (GateEvent(GateKind.H, (0,), 0, 10),
              GateEvent(GateKind.H, (0,), 10 + idle, 10))
    circ = TimedCircuit(1, events, dt=device.dt)
    return circ, device, NoiseConfig(detuning_sigma=sigma_t / (idle * float(device.dt)))


def routed_no_dd(n, k):
    graph = heavy_hex_27()
    device = MONTREAL.device(graph)
    spec = OracleSpec.representative(n, k)
    routed = route_bv(spec, graph, embed_oracle(spec, graph), device)
    phys = [None] * routed.circuit.num_qubits
    for node, w in routed.wire_of_physical.items():
        phys[w] = node
    return spec, routed, routed.circuit, device, phys


def test_exact_detuning_average_refuses_before_running():
    # The Ramsey case below needs a 21-node rule; at 10x sigma, the no-DD
    # (26, 26) oracle's wires need more than 61.  Both refuse before the
    # first op.
    circ, device, noise = ramsey(2 * math.pi / math.sqrt(3))
    _, routed, wide, wide_device, phys = routed_no_dd(26, 26)
    loud = replace(MONTREAL.noise(), detuning_sigma=10 * MONTREAL.noise().detuning_sigma)
    program = compile_program(wide, wide_device, loud, phys)
    with pytest.raises(SimulatorCapError, match="gh_nodes=61 "):
        _detuning_rules(program, loud.detuning_sigma, 61)
    calls = []
    with patch("ssbv.simulator._exact_distribution", lambda *a: calls.append(a)):
        with pytest.raises(SimulatorCapError,
                           match=r"wire 0 \(sigma\*T = 3.63\).*gh_nodes=19 "):
            simulate_exact(circ, device, noise, ReadoutMap((0,)), gh_nodes=19)
        with pytest.raises(SimulatorCapError, match=r"wire \d+ .*gh_nodes=21 "):
            simulate_exact(wide, wide_device, loud, routed.readout, phys)
    assert calls == []


def test_detuning_rule_sees_past_a_coincidence():
    # Ramsey with sigma*t = 2*pi/sqrt(3).  The 3-node rule's nodes delta = 0,
    # +-sqrt(3)*sigma give delta*t = 0, +-2*pi, so it reads P(0) = 1, while the
    # average is (1 + exp(-(sigma*t)^2 / 2)) / 2, about 0.5007.  The rule is
    # checked over every a in [0, t], so it is 21 nodes, not 3.
    sigma_t = 2 * math.pi / math.sqrt(3)
    circ, device, noise = ramsey(sigma_t)
    program = compile_program(circ, device, noise, [0])
    x, w = np.polynomial.hermite.hermgauss(3)
    three = {0: (math.sqrt(2) * noise.detuning_sigma * x, w / math.sqrt(math.pi))}
    labels, probs = _exact_distribution(program, three, ReadoutMap((0,)), None)
    assert probs[list(labels).index(0)] == pytest.approx(1.0, abs=1e-12)
    assert len(_detuning_rules(program, noise.detuning_sigma, 21)[0][0]) == 21
    dist = simulate_exact(circ, device, noise, ReadoutMap((0,)), gh_nodes=21)
    assert dist["0"] == pytest.approx((1 + math.exp(-sigma_t ** 2 / 2)) / 2, abs=1e-9)


# Nodes each detuned wire's rule needs under montreal noise.
RULE_SIZES = {
    "bench exact-reference run": (lambda: ur4_chain(2), [3, 3]),
    "readme oracle (10, 4)": (lambda: routed_ur14(10, 4), [1, 1, 3, 4, 4]),
    "(26, 26) ur14": (lambda: routed_ur14(26, 26), [14] * 5 + [15] * 13 + [16] * 9),
    "(26, 26) no dd": (lambda: routed_no_dd(26, 26), [15] * 7 + [16] * 11 + [17] * 9),
}


@pytest.mark.parametrize("case", list(RULE_SIZES))
def test_detuning_rule_sizes(case):
    make, nodes = RULE_SIZES[case]
    _, _, circ, device, phys = make()
    noise = MONTREAL.noise()
    program = compile_program(circ, device, noise, phys)
    rules = _detuning_rules(program, noise.detuning_sigma, 21)
    assert sorted(len(x) for x, _ in rules.values()) == nodes


@pytest.mark.parametrize("case", ["ur4 chain, 2 wires at 10x sigma",
                                  "bv3 k=1, 3 wires"])
def test_detuning_rules_match_a_finer_rule(case):
    # The chosen rules against a 40-node rule on every detuned wire.
    if case.startswith("ur4"):
        _, routed, circ, device, phys = ur4_chain(2)
        noise = MONTREAL.noise()
        noise = replace(noise, detuning_sigma=10 * noise.detuning_sigma)
        readout = routed.readout
    else:
        device = MONTREAL.device(chain_graph(4))
        circ, readout = bv_circuit(OracleSpec.representative(3, 1), device)
        phys = list(range(circ.num_qubits))
        noise = MONTREAL.noise()
    program = compile_program(circ, device, noise, phys)
    assert len(program.detuned_wires) == (2 if case.startswith("ur4") else 3)
    rules = _detuning_rules(program, noise.detuning_sigma, 40)
    x, w = np.polynomial.hermite.hermgauss(40)
    fine = {wire: (math.sqrt(2) * noise.detuning_sigma * x, w / math.sqrt(math.pi))
            for wire in rules}
    assert max(len(x) for x, _ in rules.values()) < 40
    got, want = (dict(zip(*_exact_distribution(program, r, readout, None)))
                 for r in (rules, fine))
    assert set(got) == set(want)
    assert max(abs(got[k] - want[k]) for k in got) <= 1e-8


def test_simulate_exact_does_not_renormalize():
    # A mass within 1e-9 of 1 comes back as it is, negative rounding residue
    # is clipped to 0, and a mass further from 1 raises.
    device = MONTREAL.device(chain_graph(3))
    circ, rmap = bv_circuit(OracleSpec.representative(2, 1), device)
    labels = np.array([0b01, 0b10])
    for probs, want in (([1 + 5e-10, -1e-17], {"01": 1 + 5e-10}),
                        ([1 + 2e-9, 0.0], None)):
        with patch("ssbv.simulator._exact_distribution",
                   lambda *a: (labels, np.array(probs))):
            if want is None:
                with pytest.raises(RuntimeError, match="mass"):
                    simulate_exact(circ, device, NoiseConfig(), rmap)
            else:
                assert simulate_exact(circ, device, NoiseConfig(), rmap) == want


@pytest.mark.parametrize("k, wires", [(26, 27), (13, 14), (0, 1)])
def test_noiseless_output_reaches_27_wires(k, wires):
    # (26, k) on heavy-hex-27 with UR14, reduced: the k marked data wires and
    # the ancilla are present, the other bits read 0.  A dense statevector
    # of 27 wires would take 2 GiB.
    spec, routed, circ, device, phys = routed_ur14(26, k)
    assert circ.num_qubits == wires
    assert noiseless_output(circ, routed.readout)[spec.b.to01()] >= 1 - 1e-9
    assert verify_routed(routed, spec)


@pytest.mark.parametrize("case", ["ur4 chain 5 wires", "ur4 chain 7 wires",
                                  "readme oracle k=4"])
def test_trajectory_matches_exact_with_detuning(case):
    if case.startswith("ur4"):
        spec, routed, circ, device, phys = ur4_chain(int(case.split()[2]) - 1)
    else:
        spec, routed, circ, device, phys = routed_ur14(10, 4)
    noise = MONTREAL.noise()
    program = compile_program(circ, device, noise, phys)
    assert len(program.detuned_wires) == circ.num_qubits
    assert "dep2" in {op.kind for op in program.ops}
    assert has_idle(program, detuned=True)
    shots = 4000
    exact = simulate_exact(circ, device, noise, routed.readout, phys)
    table = simulate_shots(circ, device, noise, TrajectoryPlan(shots, 29), spec,
                           routed.readout, phys)
    emp = {k: v / shots for k, v in table.counts.items()}
    bound = 5 * 0.5 * sum(math.sqrt(p * (1 - p) / shots) for p in exact.values())
    assert total_variation_distance(exact, emp) < bound


def shots_by_batch(batch_bytes, *args):
    """Counts of simulate_shots(*args) with BATCH_BYTES = batch_bytes, and
    the shots of each batch it drew streams for."""
    with patch("ssbv.simulator.BATCH_BYTES", batch_bytes), \
            patch("ssbv.simulator._shot_streams", wraps=_shot_streams) as streams:
        counts = simulate_shots(*args).counts
    return counts, [call.args[3] - call.args[2] for call in streams.call_args_list]


def assert_uneven_split(batches, shots):
    assert sum(batches) == shots and len(batches) > 1
    assert shots % batches[0] and set(batches[:-1]) == {batches[0]}


def test_seed_determinism_and_batch_invariance():
    noise = NoiseConfig(detuning_sigma=1e5)
    device = MONTREAL.device(chain_graph(4))
    spec = OracleSpec.representative(3, 2)
    circ, rmap = bv_circuit(spec, device)
    args = (circ, device, noise, TrajectoryPlan(2000, 11), spec, rmap)
    a = simulate_shots(*args)
    b, batches = shots_by_batch(30_000, *args)
    assert_uneven_split(batches, 2000)
    # One shot per batch: the screen sees each shot's own uniforms only.
    one, batches = shots_by_batch(1, *args)
    assert batches == [1] * 2000
    c = simulate_shots(circ, device, noise, TrajectoryPlan(2000, 12), spec, rmap)
    assert a.counts == b == one
    assert a.counts != c.counts
    # A UR4-dressed chain with detuning on: each wire's idle factors are
    # cached per batch, and uneven batches and batches of 1 cut across them.
    spec, routed, circ, device, phys = ur4_chain(3)
    noise = MONTREAL.noise()
    assert has_idle(compile_program(circ, device, noise, phys), detuned=True)
    args = (circ, device, noise, TrajectoryPlan(400, 11), spec, routed.readout, phys)
    uneven, batches = shots_by_batch(30_000, *args)
    assert_uneven_split(batches, 400)
    one, batches = shots_by_batch(1, *args)
    assert batches == [1] * 400
    assert simulate_shots(*args).counts == uneven == one


@pytest.mark.parametrize("n_uniforms, n_normals", [(7, 0), (7, 3), (5, 1)])
def test_shot_stream_rows_match_their_philox_counter_blocks(n_uniforms, n_normals):
    # (5, 1) gives rows of 8 doubles, so the normals' column has a 64-byte stride.
    seed, key, lo, hi = (1 << 63) + 5, 0xBEEF, 1000, 1013
    normals, uniforms = _shot_streams(seed, key, lo, hi, n_normals, n_uniforms)
    assert normals.shape == (hi - lo, n_normals)
    assert uniforms.shape == (hi - lo, n_uniforms)
    m = math.ceil((n_uniforms + 2 * n_normals) / 4)
    for row, i in enumerate(range(lo, hi)):
        bits = np.random.Philox(key=(seed << 64) | key, counter=i * m)
        draw = np.random.Generator(bits).random(4 * m)
        a = draw[n_uniforms:n_uniforms + n_normals]
        b = draw[n_uniforms + n_normals:n_uniforms + 2 * n_normals]
        assert np.array_equal(uniforms[row], draw[:n_uniforms])
        assert np.array_equal(normals[row],
                              np.sqrt(-2 * np.log1p(-a)) * np.cos(2 * np.pi * b))


@settings(max_examples=40, deadline=None)
@given(lo=st.integers(0, 2 ** 40), count=st.integers(1, 40),
       cuts=st.lists(st.integers(1, 39), max_size=6),
       n_uniforms=st.integers(1, 12), n_normals=st.integers(0, 5))
def test_shot_streams_concatenate_across_any_batch_split(lo, count, cuts, n_uniforms,
                                                         n_normals):
    hi = lo + count
    edges = sorted({lo, hi} | {lo + c for c in cuts if c < count})
    whole = _shot_streams(7, 0x1234, lo, hi, n_normals, n_uniforms)
    parts = [_shot_streams(7, 0x1234, a, b, n_normals, n_uniforms)
             for a, b in zip(edges, edges[1:])]
    for got, want in zip(zip(*parts), whole):
        assert np.array_equal(np.concatenate(got), want)


def test_shot_stream_normals_are_standard_normal():
    n = 200_000
    normals, _ = _shot_streams(2024, 0xD1CE, 0, n // 4, 4, 3)
    x = np.sort(normals.ravel())
    assert len(x) == n
    assert abs(x.mean()) < 5 / math.sqrt(n)
    assert abs(x.var() - 1) < 5 * math.sqrt(2 / n)
    cdf = 0.5 * (1 + np.array([math.erf(v / math.sqrt(2)) for v in x]))
    ks = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())
    assert ks < 1.95 / math.sqrt(n)


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_trajectory_plan_refuses_a_seed_outside_64_bits(seed):
    with pytest.raises(ValueError, match=rf"master_seed {seed} outside \[0, 2\*\*64\)"):
        TrajectoryPlan(10, seed)
    TrajectoryPlan(10, (1 << 64) - 1)


def norm2(x):
    """Per-shot squared norm of a (shots, d) state or of its (bit, shots,
    a, b) ``bit_view``."""
    return ker.norm2(x) if x.ndim == 2 else np.einsum("bsac,bsac->s", x, x.conj()).real


@contextmanager
def norms_checked():
    """Check each shot's squared norm n around every step of ``_evolve``:
    an op leaves n, an idle that damps leaves n - p n1 (no jump) or n1 (a
    jump), n1 the weight of its wire's bit-1 half, and a measurement leaves
    a factor of norm 1.  The walk runs a u1, cnot or zz step as one call of
    ``ker.apply_1q``, ``ker.cnot`` or ``ker.phase_zz``, a live dep1 or dep2
    step as one ``_depolarize`` call and an idle as one ``_idle`` call, and
    looks each up at call time, so wrapping them sees every step."""
    depolarize, idle, measure = simulator._depolarize, simulator._idle, ker.measure

    def check(state, allowed, kind):
        after = norm2(state)
        if not np.any([np.isclose(after, n, rtol=1e-6, atol=0) for n in allowed],
                      axis=0).all():
            raise AssertionError(f"norm drift after an op of kind {kind}")

    def keeps_norms(kind, fn):
        def checked(state, *args):
            allowed = [norm2(state)]
            fn(state, *args)
            check(state, allowed, kind)
        return checked

    def checked_depolarize(state, draw, p, sws):
        keeps_norms(f"dep{len(sws)}", depolarize)(state, draw, p, sws)

    def checked_idle(state, view, sw, p, *args):
        allowed = [norm2(state)]
        if p > 0:
            n1 = ker.pop1(state, sw)
            allowed = [allowed[0] - p * n1, n1]
        idle(state, view, sw, p, *args)
        check(state, allowed, "idle")

    def checked_measure(*args):
        bits, kept = measure(*args)
        if not np.allclose(ker.norm2(kept), 1.0, atol=1e-6):
            raise AssertionError("a measurement left a factor of norm != 1")
        return bits, kept

    with patch.object(ker, "apply_1q", keeps_norms("u1", ker.apply_1q)), \
            patch.object(ker, "cnot", keeps_norms("cnot", ker.cnot)), \
            patch.object(ker, "phase_zz", keeps_norms("zz", ker.phase_zz)), \
            patch.object(simulator, "_depolarize", checked_depolarize), \
            patch.object(simulator, "_idle", checked_idle), \
            patch.object(ker, "measure", checked_measure):
        yield


def test_assertion_mode_checks_norms():
    device = MONTREAL.device(chain_graph(3))
    spec = OracleSpec.representative(2, 1)
    circ, rmap = bv_circuit(spec, device)
    with norms_checked():
        simulate_shots(circ, device, NoiseConfig(), TrajectoryPlan(200, 1), spec, rmap)


def test_assertion_mode_full_noise_routed_dd():
    # Norm drift stays below the check on every op of a routed, UR-dressed
    # circuit under every montreal channel.
    spec, routed, circ, device, phys = routed_ur14(5, 5)
    assert circ.num_qubits >= 5
    with norms_checked():
        simulate_shots(circ, device, MONTREAL.noise(), TrajectoryPlan(200, 5),
                       spec, routed.readout, phys)


def test_assertion_mode_catches_a_kernel_that_changes_norms():
    device = MONTREAL.device(chain_graph(3))
    spec = OracleSpec.representative(2, 1)
    circ, rmap = bv_circuit(spec, device)
    apply_1q = ker.apply_1q

    def drifting(state, *args):
        apply_1q(state, *args)
        state *= 1.001

    with patch.object(ker, "apply_1q", drifting):
        simulate_shots(circ, device, NoiseConfig(), TrajectoryPlan(50, 1), spec, rmap)
        with norms_checked(), pytest.raises(AssertionError,
                                            match="norm drift after an op of kind u1"):
            simulate_shots(circ, device, NoiseConfig(), TrajectoryPlan(50, 1), spec, rmap)


def test_assertion_mode_catches_an_idle_step_that_changes_norms():
    # An idle's one multiplication is phase_bit_pershot on a detuned wire,
    # so the error names an idle op.
    spec, routed, circ, device, phys = ur4_chain(3)
    noise = MONTREAL.noise()
    phase_bit_pershot = ker.phase_bit_pershot

    def drifting(state, *args):
        phase_bit_pershot(state, *args)
        state *= 1.001

    with patch.object(ker, "phase_bit_pershot", drifting):
        simulate_shots(circ, device, noise, TrajectoryPlan(50, 1), spec, routed.readout, phys)
        with norms_checked(), pytest.raises(AssertionError,
                                            match="norm drift after an op of kind idle"):
            simulate_shots(circ, device, noise, TrajectoryPlan(50, 1),
                           spec, routed.readout, phys)


@pytest.mark.parametrize("detuning, decoherence", [(True, True), (False, True),
                                                   (True, False)],
                         ids=["True", "False", "detune-only"])
def test_idle_step_makes_one_kernel_call_per_idle(detuning, decoherence):
    # Each idle multiplies once: by sqrt(1 - p) exp(i delta t) through
    # phase_bit_pershot on a detuned wire, else by sqrt(1 - p) through
    # ampdamp.  Without decoherence an idle is a detuning phase alone and
    # draws no uniform column.
    spec, routed, circ, device, phys = ur4_chain(3)
    noise = replace(MONTREAL.noise(), detuning=detuning, decoherence=decoherence)
    program = compile_program(circ, device, noise, phys)
    idles = [op for op in program.ops if op.kind == "idle"]
    steps = [step for step in program.walk.steps if step[0] == "idle"]
    assert idles and len(steps) == len(idles)
    # (kind, slot, sw, p, p column, q, q column, no-jump row)
    assert all((op.p > 0 and op.q > 0) == (step[4] >= 0) == (step[6] >= 0) == decoherence
               for op, step in zip(idles, steps))
    assert all((step[7] >= 0) == detuning for step in steps)
    assert set(program.detuned_wires) == ({op.wires[0] for op in idles}
                                          if detuning else set())
    with patch.object(ker, "ampdamp", wraps=ker.ampdamp) as ampdamp, \
            patch.object(ker, "phase_bit_pershot", wraps=ker.phase_bit_pershot) as phase:
        simulate_shots(program, device, noise, TrajectoryPlan(200, 3), spec,
                       routed.readout, phys)
    assert ampdamp.call_count + phase.call_count == len(idles)
    assert phase.call_count == (len(idles) if detuning else 0)


# sha256 of the count tables of the representative oracles n = 8, routed on
# heavy-hex-27 with UR14 under montreal and cairo noise, each with its
# detuning sigma scaled by 1, 10 and 50, 3000 shots, seed 11.  Detuning
# phases enter every idle, so any change to how they are applied shows here.
DETUNING_DIGEST = "b7390ef8e2d6fd6fb2e084bcc38e873e5a00071a103f7cfdf223746418ff658d"


def test_detuning_heavy_tables_are_pinned():
    graph = heavy_hex_27()
    h = hashlib.sha256()
    for name in ("montreal", "cairo"):
        profile = load_profile(name)
        device = profile.device(graph)
        jobs = []
        for spec in representative_oracles(8):
            routed = route_bv(spec, graph, embed_oracle(spec, graph), device)
            circ = schedule_dd(routed.circuit, sequence_from_name("ur14"),
                               device.dur_dd_pulse)
            phys = [None] * circ.num_qubits
            for node, w in routed.wire_of_physical.items():
                phys[w] = node
            jobs.append((spec, routed.readout, circ, phys))
        for scale in (1, 10, 50):
            noise = profile.noise()
            noise = replace(noise, detuning_sigma=scale * noise.detuning_sigma)
            for spec, readout, circ, phys in jobs:
                table = simulate_shots(circ, device, noise, TrajectoryPlan(3000, 11), spec,
                                       readout, phys)
                h.update(repr((name, scale, spec.b.to01(),
                               sorted(table.counts.items()))).encode())
    assert h.hexdigest() == DETUNING_DIGEST


# Counts of the representative oracles n = 4, k = 0..4, routed on
# heavy-hex-27 with UR14 under montreal noise, 300 shots, seed 7.  A change
# to the draws or to any branch decision changes these tables.
GOLDEN_N4 = [
    {'0000': 266, '0001': 6, '0010': 7, '0100': 14, '1000': 6, '1010': 1},
    {'0000': 15, '1000': 265, '1001': 8, '1010': 5, '1011': 1, '1100': 6},
    {'0000': 3, '0100': 8, '0110': 1, '1000': 14, '1100': 260, '1101': 7, '1110': 6,
     '1111': 1},
    {'0000': 2, '0110': 9, '1000': 1, '1010': 13, '1100': 11, '1110': 256, '1111': 8},
    {'0011': 1, '0111': 12, '1000': 3, '1001': 1, '1011': 10, '1100': 3, '1101': 6,
     '1110': 11, '1111': 253},
]


@pytest.mark.parametrize("k", range(5))
def test_golden_tables_routed_ur14(k):
    spec, routed, circ, device, phys = routed_ur14(4, k)
    table = simulate_shots(circ, device, MONTREAL.noise(), TrajectoryPlan(300, 7), spec,
                           routed.readout, phys)
    assert table.counts == GOLDEN_N4[k]


@pytest.mark.parametrize("k", range(5))
def test_simulate_shots_runs_a_compiled_program_as_given(k):
    # The Program compile_program builds runs without a second compile and
    # gives the circuit's table.
    spec, routed, circ, device, phys = routed_ur14(4, k)
    noise, plan = MONTREAL.noise(), TrajectoryPlan(300, 7)
    program = compile_program(circ, device, noise, phys)
    with patch("ssbv.simulator.compile_program", side_effect=AssertionError):
        table = simulate_shots(program, device, noise, plan, spec, routed.readout, phys)
    assert table == simulate_shots(circ, device, noise, plan, spec, routed.readout, phys)
    assert table.counts == GOLDEN_N4[k]


def stream_digest(program):
    """sha256 over the program's wire count, detuned wires and uniform
    count, then each op's kind, wires, p and t (float.hex), phase (float.hex
    of both parts) and matrix bytes.  An idle op is hashed as up to three
    records, in this order: a damp record with its p if p > 0, a deph
    record with its q as p if q > 0, and a detune record with its t if its
    wire is detuned."""
    h = hashlib.sha256(repr((program.num_wires, program.detuned_wires,
                             program.n_uniform_ops)).encode())
    for op in program.ops:
        if op.kind == "idle":
            parts = ([Op("damp", op.wires, p=op.p)] * (op.p > 0)
                     + [Op("deph", op.wires, p=op.q)] * (op.q > 0)
                     + [Op("detune", op.wires, t=op.t)] * (op.wires[0] in program.detuned_wires))
        else:
            parts = [op]
        for part in parts:
            phase = complex(part.phase)
            h.update(repr((part.kind, tuple(map(int, part.wires)), float(part.p).hex(),
                           float(part.t).hex(), phase.real.hex(),
                           phase.imag.hex())).encode())
            if part.matrix is not None:
                h.update(part.matrix.tobytes())
    return h.hexdigest()


# Compiled streams under montreal noise: the representative oracles routed on
# heavy-hex-27 with UR14, and the 6-wire UR4 chain with ZZ crosstalk.  Any
# change to the order of ops or to one op's fields changes these.
STREAM_DIGESTS = {
    (4, 0): "3e5380c6098ca830f6bb8b6ec26c85fd41a51ce155964aae3ba44690f75c9fd1",
    (4, 1): "b2e165ef8247291e23dfe2372d1e82ca152f42f83488e7691208943f20fe6e14",
    (4, 2): "5e509f32efd008dea500016d205e4a9ae543d2fd46584b02090df00f9dd7a17c",
    (4, 3): "fc6064a67902bf2ba9a2746fad87b63b5f7d4e0567f895a5e3829220e3c5e9bd",
    (4, 4): "3897071c04e6049b254e04e3e35d74312d490a5483692b9229e2cd14ee7b3ff0",
    (10, 10): "769aad25760385d3aecb248adb7499ca838567de214533ff54663420bf682dc7",
    "zz chain": "3d0bb74665f9dc6f8bd7aaff5291aa800de51ea8b7844346fd6cb062bfd19230",
}


@pytest.mark.parametrize("case", list(STREAM_DIGESTS), ids=str)
def test_compiled_stream_is_pinned(case):
    if case == "zz chain":
        spec, routed, circ, device, phys = ur4_chain(5)
        noise = replace(MONTREAL.noise(), zz_rate=2.5e5)
    else:
        spec, routed, circ, device, phys = routed_ur14(*case)
        noise = MONTREAL.noise()
    assert stream_digest(compile_program(circ, device, noise, phys)) == STREAM_DIGESTS[case]


def width_by_every_op(program):
    """Program.width's definition, walked over every op: a two-wire op joins
    the factors of its wires, and a wire leaves its factor after its last op."""
    factor = {w: {w} for w in range(program.num_wires)}
    widest = 1
    for i, op in enumerate(program.ops):
        joined = factor[op.wires[0]] | factor[op.wires[-1]]
        widest = max(widest, len(joined))
        for w in joined:
            factor[w] = joined
        joined.difference_update(w for w in op.wires if program.last_op[w] == i)
    return widest


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8).flatmap(lambda nw: st.tuples(
    st.just(nw),
    st.lists(st.one_of(st.tuples(st.integers(0, nw - 1)),
                       st.lists(st.integers(0, nw - 1), min_size=2, max_size=2,
                                unique=True).map(tuple)),
             max_size=40))))
def test_width_matches_the_every_op_walk(stream):
    nw, wires = stream
    ops = tuple(Op("u1" if len(w) == 1 else "zz", w) for w in wires)
    program = Program(nw, ops, ())
    assert program.width == width_by_every_op(program)


def test_walk_gives_each_op_its_columns_and_factors():
    # One step per op, after each touched wire's |0> factor, and each wire
    # measured out right after its last op.  An idle draws a
    # column for p > 0, then one for q > 0, and a dep1 one for p; a
    # missing one reads -1.  Wire 0 leaves first, so the CNOT's merge puts
    # it on the low bit, and its last idle addresses stride 1.
    both = Op("idle", (0,), p=0.1, q=0.2, t=1e-7)
    eye = np.eye(2, dtype=complex)
    ops = (both, Op("idle", (0,), p=0.3, t=2e-7), Op("dep1", (0,), p=0.01),
           Op("idle", (1,), q=0.4, t=3e-7), Op("idle", (1,), t=4e-7), Op("cnot", (0, 1)),
           both, Op("u1", (1,), matrix=eye))
    program = Program(2, ops, (1,))
    walk = program.walk
    u1 = walk.steps[-2]
    assert u1[:3] == ("u1", 1, 1)
    assert [c.ravel().tolist() for c in u1[3]] == eye.T.tolist()
    assert walk.steps[:-2] + walk.steps[-1:] == (
        ("new", 0, (0,), (1,)),
        ("new", 1, (1,), (1,)),
        ("idle", 0, 1, 0.1, 0, 0.2, 1, -1),
        ("idle", 0, 1, 0.3, 2, 0.0, -1, -1),
        ("dep", 0, 3, 0.01, (1,)),
        ("idle", 1, 1, 0.0, -1, 0.4, 4, 0),
        ("idle", 1, 1, 0.0, -1, 0.0, -1, 1),
        ("merge", 1, 0, (1, 0), (1,)),
        ("cnot", 1, 1, 2, 0.0),
        ("idle", 1, 1, 0.1, 5, 0.2, 6, -1),
        ("measure", 1, 0, 1, (1,), (1,)),
        ("measure", 1, 1, 1, (), ()))
    assert program.n_uniform_ops == 7
    assert walk.p.tolist() == [0.1, 0.2, 0.3, 0.01, 0.4, 0.1, 0.2]
    assert walk.depolarizing.tolist() == [False, False, False, True, False, False, False]
    assert walk.no_jump == ((0, 3e-7, 0.0), (0, 4e-7, 0.0))


def test_width_matches_the_every_op_walk_on_the_zz_chain():
    spec, routed, circ, device, phys = ur4_chain(5)
    noise = replace(MONTREAL.noise(), zz_rate=2.5e5)
    program = compile_program(circ, device, noise, phys)
    assert program.width == width_by_every_op(program) == 6


def test_widest_factor_is_two_on_the_paper_grid():
    # Compile only: every representative oracle of n 3-26 (which holds the
    # README grid, n 3-10), reduced setup, routed on heavy-hex-27 with UR14
    # under full montreal noise.  Each data wire meets the ancilla in one
    # run of CNOTs, so no factor ever holds more than the pair; k = 0 has no
    # CNOT at all.  Every one-wire step on a two-wire factor addresses the
    # low bit (stride 1): the merge puts the wire that leaves first there.
    widths, low = {}, []
    for n in range(3, 27):
        for k in range(n + 1):
            spec, routed, circ, device, phys = routed_ur14(n, k)
            program = compile_program(circ, device, MONTREAL.noise(), phys)
            widths[n, k] = program.width
            width = {}      # slot -> wires of its factor
            for step in program.walk.steps:
                if step[0] in ("new", "merge", "measure"):
                    width[step[1]] = len(step[-2])
                elif step[0] in ("u1", "idle") and width[step[1]] == 2:
                    low.append(step[2] == 1)
                elif step[0] == "dep" and len(step[4]) == 1 and width[step[1]] == 2:
                    low.append(step[4] == (1,))
    assert low and all(low)
    assert {key for key, w in widths.items() if w != 2} == {(n, 0) for n in range(3, 27)}
    assert all(widths[n, 0] == 1 for n in range(3, 27))


def test_27_wire_oracle_runs_and_is_batch_invariant():
    spec, routed, circ, device, phys = routed_ur14(26, 26)
    assert circ.num_qubits == 27
    args = (circ, device, MONTREAL.noise(), TrajectoryPlan(400, 3), spec,
            routed.readout, phys)
    whole, batches = shots_by_batch(BATCH_BYTES, *args)
    assert batches == [400]
    split, batches = shots_by_batch(1 << 20, *args)
    assert_uneven_split(batches, 400)
    assert whole == split
    assert sum(whole.values()) == 400


def test_permutation_covariance_wire_relabeling():
    # relabeling wires of the same circuit permutes the distribution
    device = MONTREAL.device(chain_graph(3))
    spec = OracleSpec.representative(2, 2)
    circ, rmap = bv_circuit(spec, device)
    swapped_events = []
    relabel = {0: 1, 1: 0, 2: 2}
    for ev in circ.events:
        swapped_events.append(GateEvent(ev.kind, tuple(relabel[q] for q in ev.qubits),
                                        ev.start, ev.duration, ev.phase))
    swapped = TimedCircuit(3, tuple(swapped_events), circ.readout_duration, circ.dt)
    base = simulate_exact(circ, device, NoiseConfig(), ReadoutMap((0, 1)))
    perm = simulate_exact(swapped, device, NoiseConfig(), ReadoutMap((1, 0)))
    for key in set(base) | set(perm):
        assert base.get(key, 0.0) == pytest.approx(perm.get(key, 0.0), abs=1e-12)


def test_backend_caps():
    # Eight independent H wires: eight one-wire factors, 256 branches in all.
    device = plain_device(8)
    events = tuple(GateEvent(GateKind.H, (w,), 0, 10) for w in range(8))
    circ = TimedCircuit(8, events, dt=device.dt)
    dist = simulate_exact(circ, device, NoiseConfig(), ReadoutMap.identity(8))
    assert len(dist) == 256
    assert all(p == pytest.approx(1 / 256, abs=1e-15) for p in dist.values())
    with patch("ssbv.simulator.EXACT_MAX_ENTRIES", 255):
        with pytest.raises(SimulatorCapError, match="factor of 256 entries"):
            simulate_exact(circ, device, NoiseConfig(), ReadoutMap.identity(8))
    # A factor's node and wire axes are checked before the first op.
    device = plain_device(2)
    pair = TimedCircuit(2, (GateEvent(GateKind.CNOT, (0, 1), 0, 30),), dt=device.dt)
    with patch("ssbv.simulator.EXACT_MAX_ENTRIES", 15), \
            patch.multiple(_Factor, apply=DEFAULT, close=DEFAULT, merge=DEFAULT) as calls:
        with pytest.raises(SimulatorCapError, match="factor of 16 entries"):
            simulate_exact(pair, device, NoiseConfig(), ReadoutMap.identity(2))
    assert not any(mock.called for mock in calls.values())
    # CNOTs down a 22-wire chain and back up: after the way down every wire
    # still has a CNOT to come, so one factor holds all 22 wires.
    down = [(w, w + 1) for w in range(21)]
    up = [(w + 1, w) for w in range(20, -1, -1)]
    big = TimedCircuit(22, tuple(GateEvent(GateKind.CNOT, pair, 10 * i, 10)
                                 for i, pair in enumerate(down + up)))
    assert compile_program(big, None, NOISELESS, list(range(22))).width == 22
    with pytest.raises(SimulatorCapError, match="widest factor of 22"):
        simulate_shots(big, None, NOISELESS, TrajectoryPlan(10, 0),
                       OracleSpec.representative(21, 0), ReadoutMap.identity(21))


def test_reduction_equivalence_factorized():
    device = MONTREAL.device(chain_graph(7))
    noise = NoiseConfig(detuning=False)
    for (n, m, k) in ((4, 2, 2), (4, 3, 1), (5, 3, 2)):
        assert check_reduction_equivalence(n, m, k, device, noise) < 1e-9


def test_reduction_equivalence_noiseless_exact_zero():
    device = plain_device(7)
    assert check_reduction_equivalence(4, 2, 2, device, NoiseConfig()) < 1e-14


def test_reduction_equivalence_refuses_a_device_too_small():
    # BV-4 needs 5 qubits; the check refuses before it simulates anything
    with patch("ssbv.simulator.simulate_exact") as run, \
            pytest.raises(ValueError, match="n < 4, the device's qubit count"):
        check_reduction_equivalence(4, 2, 2, plain_device(4), NoiseConfig())
    assert not run.called


def test_crosstalk_breaks_reduction_and_dd_restores_it():
    device = MONTREAL.device(chain_graph(5))
    noise = NoiseConfig(zz_rate=2.5e5, detuning=False)
    bare = check_reduction_equivalence(4, 2, 2, device, noise)
    assert bare > 1e-3
    protected = check_reduction_equivalence(4, 2, 2, device, noise,
                                            dd=ur_phases(14))
    assert protected < bare / 5


def test_compile_skips_noise_ops_when_disabled():
    device = MONTREAL.device(chain_graph(3))
    spec = OracleSpec.representative(2, 2)
    circ, _ = bv_circuit(spec, device)
    quiet = compile_program(circ, device, NoiseConfig(
        decoherence=False, depolarizing=False, readout=False,
        detuning=False, zz=False), [0, 1, 2])
    assert quiet.n_uniform_ops == 0 and not quiet.detuned_wires
    noisy = compile_program(circ, device, NoiseConfig(), [0, 1, 2])
    assert noisy.n_uniform_ops > 0
