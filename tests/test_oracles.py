import itertools

import numpy as np
import pytest

from ssbv import oracles
from ssbv.circuit import Bitstring, GateKind
from ssbv.noise import NOISELESS, NoiseConfig, load_profile
from ssbv.oracles import (OracleSpec, ReadoutMap, ShotTable, all_oracles,
                          bv_logical_circuit, classical_success_prob,
                          counts_from_text, counts_to_text, reduce_counts,
                          representative_oracles)
from ssbv.routing import chain_graph
from ssbv.simulator import noiseless_output, simulate_exact


def cnots_of(circ):
    return [ev for ev in circ.events if ev.kind is GateKind.CNOT]


def test_identity_oracle_no_cnots_outputs_zero():
    spec = OracleSpec(Bitstring.from_str("00"))
    circ, rmap = bv_logical_circuit(spec)
    assert not cnots_of(circ)
    assert noiseless_output(circ, rmap) == pytest.approx({"00": 1.0})


def test_readout_map_data_index_layout():
    # logical bit 0 is the most significant data bit; absent qubits read 0
    rmap = ReadoutMap((2, None, 0, 3))
    basis = np.arange(1 << 4)
    want = [int("".join("0" if w is None else format(i, "04b")[w]
                        for w in rmap.wire_of_logical), 2) for i in basis]
    assert rmap.data_index(basis, 4).tolist() == want
    assert rmap.key(0b1010) == "1010" and rmap.key(1) == "0001"
    with pytest.raises(ValueError):
        ReadoutMap((None,) * 63).data_index(basis, 4)


def test_all_ones_oracle_has_six_cnots_onto_ancilla():
    spec = OracleSpec(Bitstring.from_str("111111"))
    circ, _ = bv_logical_circuit(spec)
    cn = cnots_of(circ)
    assert len(cn) == 6
    assert all(ev.qubits[1] == spec.n for ev in cn)  # the ancilla is wire n


def test_padded_oracle_adds_only_cancelling_h_pairs():
    circ2, _ = bv_logical_circuit(OracleSpec(Bitstring.from_str("11")))
    circ4, _ = bv_logical_circuit(OracleSpec(Bitstring.from_str("1100")))
    cn2, cn4 = cnots_of(circ2), cnots_of(circ4)
    assert [(ev.qubits[0], ev.start) for ev in cn2] == \
        [(ev.qubits[0], ev.start) for ev in cn4]
    for q in (2, 3):  # the padding qubits carry exactly an H pair
        events = [ev for ev in circ4.events if ev.qubits == (q,)]
        assert [ev.kind for ev in events] == [GateKind.H, GateKind.H]


def test_depth_is_n_plus_3_at_full_weight():
    for n in (2, 4, 6):
        circ, _ = bv_logical_circuit(OracleSpec.representative(n, n))
        assert circ.total_duration == n + 3


def test_representative_oracles_small():
    assert [o.b.to01() for o in representative_oracles(1)] == ["0", "1"]
    six = representative_oracles(6)
    assert len(six) == 7
    assert [o.k for o in six] == list(range(7))


def test_representative_oracles_n26_count_by_enumeration():
    seen = {o.b.to01() for o in representative_oracles(26)}
    expected = {"1" * k + "0" * (26 - k) for k in range(27)}
    assert seen == expected and max(o.k for o in representative_oracles(26)) == 26


def test_all_oracles_enumeration_and_cap(monkeypatch):
    assert [o.b.to01() for o in all_oracles(1)] == ["0", "1"]
    assert len(all_oracles(6)) == 64
    assert [o.b.to01() for o in all_oracles(3)] == \
        [format(v, "03b") for v in range(8)]
    with pytest.raises(ValueError):
        all_oracles(13)
    monkeypatch.setattr(oracles, "ALL_ORACLES_CAP", 13)
    assert len(all_oracles(13)) == 8192


def test_classical_success_prob():
    assert classical_success_prob(1) == 1.0
    assert classical_success_prob(6) == pytest.approx(1 / 32)
    assert classical_success_prob(6) > 1 / 64  # beats a uniform random guess
    with pytest.raises(ValueError):
        classical_success_prob(0)


def test_reduce_counts_hand_marginal():
    spec = OracleSpec(Bitstring.from_str("10"))
    table = ShotTable(spec, {"10": 7, "11": 3}, 10)
    out = reduce_counts(table, 1)
    assert out.counts == {"1": 10}
    assert out.total_shots == 10
    assert out.oracle.b.to01() == "1"


def test_reduce_counts_matches_independent_marginalization():
    rng = np.random.default_rng(3)
    spec = OracleSpec.representative(4, 2)
    keys = [format(v, "04b") for v in range(16)]
    raw = rng.multinomial(5000, np.full(16, 1 / 16))
    table = ShotTable(spec, {k: int(c) for k, c in zip(keys, raw) if c}, 5000)
    out = reduce_counts(table, 3)
    expected = {}
    for k, c in table.counts.items():
        expected[k[:3]] = expected.get(k[:3], 0) + c
    assert out.counts == expected
    assert sum(out.counts.values()) == out.total_shots == 5000


def test_reduce_counts_rejects_bad_targets():
    table = ShotTable(OracleSpec.representative(4, 3), {"1110": 5}, 5)
    with pytest.raises(ValueError):
        reduce_counts(table, 2)  # m < k
    with pytest.raises(ValueError):
        reduce_counts(table, 4)  # m >= n
    scattered = ShotTable(OracleSpec(Bitstring.from_str("1010")), {"1010": 1}, 1)
    with pytest.raises(ValueError):
        reduce_counts(scattered, 3)


def test_reduction_on_exact_backend_factorized_noise():
    # BV-4 (b=1100) marginalized to 2 bits equals BV-2 (b=11) exactly
    profile = load_profile("montreal")
    noise = NoiseConfig()  # decoherence+depolarizing+readout, no detuning/zz
    dists = {}
    for bits in ("1100", "11"):
        spec = OracleSpec(Bitstring.from_str(bits))
        device = profile.device(chain_graph(spec.n + 1))
        circ, rmap = bv_logical_circuit(
            spec, dur_1q=device.dur_1q, dur_2q=device.dur_2q,
            readout_duration=device.dur_readout, dt=device.dt)
        dists[bits] = simulate_exact(circ, device, noise, rmap)
    marg = {}
    for key, p in dists["1100"].items():
        marg[key[:2]] = marg.get(key[:2], 0.0) + p
    for key in set(marg) | set(dists["11"]):
        assert marg.get(key, 0.0) == pytest.approx(dists["11"].get(key, 0.0), abs=1e-12)


def test_noiseless_reduction_gives_point_mass():
    spec = OracleSpec.representative(6, 3)
    circ, rmap = bv_logical_circuit(spec)
    dist = noiseless_output(circ, rmap)
    assert dist == pytest.approx({"111000": 1.0})
    table = ShotTable(spec, {"111000": 500}, 500)
    assert reduce_counts(table, 3).counts == {"111": 500}


def test_noiseless_exactness_every_oracle_n3():
    for spec in all_oracles(3):
        circ, rmap = bv_logical_circuit(spec)
        dist = noiseless_output(circ, rmap)
        assert dist == pytest.approx({spec.b.to01(): 1.0})


def test_permutation_symmetry_noiseless():
    # noiseless output of pi(b) is the pi-permuted output of b, any pi
    for b in ("1100", "0110", "1010"):
        for perm in itertools.permutations(range(4)):
            pb = "".join(b[perm[i]] for i in range(4))
            circ_b, rmap_b = bv_logical_circuit(OracleSpec(Bitstring.from_str(b)))
            circ_p, rmap_p = bv_logical_circuit(OracleSpec(Bitstring.from_str(pb)))
            dist_b = noiseless_output(circ_b, rmap_b)
            dist_p = noiseless_output(circ_p, rmap_p)
            permuted = {"".join(k[perm[i]] for i in range(4)): v
                        for k, v in dist_b.items()}
            assert dist_p == pytest.approx(permuted)


def test_shot_table_validation():
    spec = OracleSpec.representative(2, 1)
    with pytest.raises(ValueError):
        ShotTable(spec, {"10": 5}, 6)  # sum mismatch
    with pytest.raises(ValueError):
        ShotTable(spec, {"102": 5}, 5)
    with pytest.raises(ValueError):
        ShotTable(spec, {"1": 5}, 5)  # wrong length


def test_counts_io_roundtrip():
    spec = OracleSpec.representative(3, 2)
    table = ShotTable(spec, {"110": 900, "010": 60, "111": 40}, 1000)
    back = counts_from_text(counts_to_text(table))
    assert back == table


def test_counts_rejects_malformed_records():
    text = "oracle 110\ntotal_shots 10\nrecords 1\n11 10\n"
    with pytest.raises(ValueError):
        counts_from_text(text)


def test_reduce_counts_composes():
    # Tracing out to m and then to l equals tracing out to l directly.
    rng = np.random.default_rng(5)
    n, k = 7, 2
    keys = [format(v, f"0{n}b") for v in range(1 << n)]
    raw = rng.multinomial(20000, rng.dirichlet(np.ones(1 << n)))
    table = ShotTable(OracleSpec.representative(n, k),
                      {key: int(c) for key, c in zip(keys, raw) if c}, 20000)
    for m in range(k + 1, n):
        for l in range(k, m):
            assert reduce_counts(reduce_counts(table, m), l) == reduce_counts(table, l)


def _counts_text() -> str:
    spec = OracleSpec.representative(3, 2)
    return counts_to_text(ShotTable(spec, {"110": 900, "010": 60, "111": 40}, 1000))


@pytest.mark.parametrize("mangle, message", [
    (lambda t: t.replace("oracle 110\n", ""), "line 4: missing field oracle"),
    (lambda t: t.replace("oracle", "orcale"), "line 2: missing field oracle"),
    (lambda t: t.replace("records 3", "records 3\nshots 1000"),
     "line 5: bad count record 'shots 1000'"),
    (lambda t: t.replace("total_shots 1000", "total_shots many"),
     "line 3: bad value for total_shots: 'many'"),
    (lambda t: t.replace("110 900", "# kept\n1101 900"), "line 7: bad count record"),
    (lambda t: t.replace("110 900", "110 -900"), "line 6: bad count record"),
    (lambda t: t.replace("111 40", "010 40"), "line 7: duplicate bitstring '010'"),
    (lambda t: t.rsplit("\n", 2)[0] + "\n", "expected 3 records, found 2"),
    (lambda t: "", "end of text: missing field oracle, total_shots, records"),
], ids=["missing", "unknown-in-header", "unknown-after-header", "bad-value",
        "record-after-comment", "negative-count", "duplicate", "truncated", "empty"])
def test_counts_reader_rejects_malformed_text(mangle, message):
    with pytest.raises(ValueError, match=message):
        counts_from_text(mangle(_counts_text()))
