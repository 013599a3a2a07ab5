import math
from fractions import Fraction

import pytest

from ssbv.circuit import (DT_SECONDS, Bitstring, DurationModel, GateEvent,
                          GateKind, TimedCircuit, circuit_duration,
                          circuit_from_text, circuit_to_text, load_circuit,
                          read_fields, save_circuit, validate_circuit)
from ssbv.decoupling import schedule_dd, sequence_from_name
from ssbv.noise import NOISELESS, load_profile
from ssbv.oracles import OracleSpec, representative_oracles
from ssbv.routing import chain_graph, embed_oracle, heavy_hex_27, route_bv
from ssbv.simulator import compile_program


def test_bitstring_weight_and_roundtrip():
    b = Bitstring.from_str("10110")
    assert len(b) == 5 and b.weight == 3
    assert b.to01() == "10110"
    assert Bitstring.from_int(b.to_int(), 5) == b
    assert Bitstring.from_int(5, 4).to01() == "0101"  # index 0 is MSB


def test_bitstring_rejects_non_binary():
    with pytest.raises(ValueError):
        Bitstring((0, 2, 1))


def test_gate_event_validation():
    with pytest.raises(ValueError):
        GateEvent(GateKind.CNOT, (1, 1), 0, 10)
    with pytest.raises(ValueError):
        GateEvent(GateKind.H, (0, 1), 0, 10)
    with pytest.raises(ValueError):
        GateEvent(GateKind.H, (0,), 0, 0)
    ev = GateEvent(GateKind.PHASED_PI, (0,), 0, 10, phase=7.0)
    assert 0 <= ev.phase < 2 * math.pi


def test_validate_empty_circuit_ok():
    assert validate_circuit(TimedCircuit(3, ())) is None


def test_validate_reports_overlap_qubit():
    events = (GateEvent(GateKind.H, (0,), 0, 100),
              GateEvent(GateKind.H, (0,), 50, 100))
    v = validate_circuit(TimedCircuit(1, events))
    assert v is not None and v.kind == "overlap" and v.qubit == 0
    with pytest.raises(ValueError, match=r"^invalid circuit: overlap on qubit 0: "
                       r"H@\[0,100\) overlaps H@\[50,150\)$"):
        compile_program(TimedCircuit(1, events), None, NOISELESS, [0])


def test_validate_out_of_range():
    v = validate_circuit(TimedCircuit(1, (GateEvent(GateKind.H, (3,), 0, 1),)))
    assert v is not None and v.kind == "qubit-out-of-range" and v.qubit == 3


def scan_events_on(circuit, qubit):
    """Each qubit's events by a scan of every event, sorted by (start, end)."""
    return sorted((ev for ev in circuit.events if qubit in ev.qubits),
                  key=lambda ev: (ev.start, ev.end))


def test_events_on_index_matches_a_scan_of_every_event():
    # Events starting together sort by end (the X and H at 0 on qubit 1),
    # and ties in (start, end) keep their event order (the X and H at 10 on
    # qubit 0, both inside the CNOT's span).  The overlaps make the circuit
    # invalid, which TimedCircuit allows and validate_circuit reports.
    # Both qubits of a CNOT list it; qubit 3 has no event.  The shuffled
    # copy reverses every tie.
    handmade = TimedCircuit(4, (
        GateEvent(GateKind.X, (1,), 0, 50),
        GateEvent(GateKind.H, (0,), 0, 10),
        GateEvent(GateKind.CNOT, (2, 0), 10, 30),
        GateEvent(GateKind.X, (0,), 10, 5),
        GateEvent(GateKind.X, (1,), 50, 10),
        GateEvent(GateKind.H, (0,), 10, 5),
        GateEvent(GateKind.H, (2,), 0, 10),
        GateEvent(GateKind.H, (1,), 0, 10),
        GateEvent(GateKind.CNOT, (1, 2), 60, 30),
        GateEvent(GateKind.PHASED_PI, (0,), 40, 10, phase=1.0),
    ))
    graph = heavy_hex_27()
    device = load_profile("montreal").device(graph)
    spec = OracleSpec.representative(5, 3)
    routed = route_bv(spec, graph, embed_oracle(spec, graph), device)
    dressed = schedule_dd(routed.circuit, sequence_from_name("ur14"), device.dur_dd_pulse)
    shuffled = TimedCircuit(dressed.num_qubits, tuple(reversed(dressed.events)))
    for circ in (handmade, routed.circuit, dressed, shuffled):
        for q in range(circ.num_qubits):
            got = circ.events_on(q)
            assert [id(ev) for ev in got] == [id(ev) for ev in scan_events_on(circ, q)]
    assert handmade.events_on(3) == []
    assert [id(ev) for ev in handmade.events_on(0)] == [
        id(handmade.events[i]) for i in (1, 3, 5, 2, 9)]
    assert [id(ev) for ev in handmade.events_on(1)] == [
        id(handmade.events[i]) for i in (7, 0, 4, 8)]
    assert str(validate_circuit(handmade)) == \
        "overlap on qubit 0: X@[10,15) overlaps H@[10,15)"


def test_generated_bv6_is_valid():
    from ssbv.oracles import bv_logical_circuit
    circ, _ = bv_logical_circuit(OracleSpec.representative(6, 6))
    assert validate_circuit(circ) is None


def test_duration_empty_and_single():
    assert circuit_duration(TimedCircuit(2, ())) == 0
    c = TimedCircuit(1, (GateEvent(GateKind.H, (0,), 0, 160),))
    assert circuit_duration(c) == 160


def test_duration_matches_per_qubit_timeline_scan():
    # independent check: the end of the busiest qubit timeline plus readout
    profile = load_profile("montreal")
    graph = chain_graph(7)
    device = profile.device(graph)
    spec = OracleSpec.representative(6, 6)
    routed = route_bv(spec, graph, embed_oracle(spec, graph), device)
    circ = routed.circuit
    by_qubit = [0] * circ.num_qubits
    for ev in circ.events:
        for q in ev.qubits:
            by_qubit[q] = max(by_qubit[q], ev.end)
    assert circuit_duration(circ) == max(by_qubit) + circ.readout_duration


def test_duration_invariant_under_event_reorder():
    events = (GateEvent(GateKind.H, (0,), 0, 160),
              GateEvent(GateKind.CNOT, (0, 1), 160, 300),
              GateEvent(GateKind.H, (1,), 460, 160))
    fwd = TimedCircuit(2, events, readout_duration=10)
    rev = TimedCircuit(2, tuple(reversed(events)), readout_duration=10)
    assert circuit_duration(fwd) == circuit_duration(rev) == 630


def test_run_time_intercept_only():
    model = DurationModel(0.40e-6, 5.28e-6)
    assert model.run_time(0) == pytest.approx(5.28e-6)


def test_run_time_montreal_like_n10():
    model = DurationModel(0.40e-6, 5.28e-6)
    assert model.run_time(10) == pytest.approx(9.28e-6, rel=1e-12)


def test_run_time_cairo_like_n20():
    # independent evaluation of the linear law: 0.27*20 + 0.77 = 6.17 us
    model = DurationModel(0.27e-6, 0.77e-6)
    assert model.run_time(20) == pytest.approx(6.17e-6, rel=1e-12)


def test_run_time_rejects_negative_n():
    model = DurationModel(1e-6, 0.0)
    with pytest.raises(ValueError):
        model.run_time(-1)


def test_run_time_exact_table_and_slope_beyond():
    table = {0: 1e-6, 1: 1.5e-6, 2: 2.5e-6}
    model = DurationModel(0.4e-6, 5.28e-6, exact_table=table)
    assert model.run_time(1) == 1.5e-6
    for n in range(3, 12):
        inc = model.run_time(n + 1) - model.run_time(n)
        assert inc == pytest.approx(model.slope, rel=1e-12)


def test_exact_table_must_increase():
    with pytest.raises(ValueError):
        DurationModel(1e-6, 0, exact_table={1: 2e-6, 2: 1e-6})


def test_default_dt_is_exact_rational():
    assert DT_SECONDS == Fraction(2, 9_000_000_000)
    assert TimedCircuit(1, ()).dt == Fraction(2, 9_000_000_000)


def test_serialization_roundtrip_lossless(tmp_path):
    events = (GateEvent(GateKind.X, (2,), 0, 180),
              GateEvent(GateKind.H, (0,), 180, 180),
              GateEvent(GateKind.CNOT, (0, 2), 360, 1935),
              GateEvent(GateKind.PHASED_PI, (1,), 400, 180, phase=1.2345678901234))
    circ = TimedCircuit(3, events, readout_duration=23400)
    back = circuit_from_text(circuit_to_text(circ))
    assert back == circ
    assert back.dt == circ.dt
    save_circuit(circ, tmp_path / "c.circuit")
    assert load_circuit(tmp_path / "c.circuit") == circ


def test_serialization_float_dt():
    circ = TimedCircuit(1, (GateEvent(GateKind.H, (0,), 0, 1),), dt=1e-9)
    back = circuit_from_text(circuit_to_text(circ))
    assert back.dt == 1e-9


def test_serialization_roundtrip_routed_dd_circuits():
    # Circuits as the pipeline writes them: routed on heavy-hex, UR14-dressed
    # (PHASED_PI phases that are not short decimals) and plain.
    graph = heavy_hex_27()
    device = load_profile("montreal").device(graph)
    for n in (3, 6):
        for spec in representative_oracles(n):
            circ = route_bv(spec, graph, embed_oracle(spec, graph), device).circuit
            for dressed in (circ, schedule_dd(circ, sequence_from_name("ur14"),
                                              device.dur_dd_pulse, "ladder")):
                assert circuit_from_text(circuit_to_text(dressed)) == dressed


SCHEMA = {"a": int, "b": float}


def test_read_fields_numbers_lines_as_in_the_file():
    text = "# header\n\na 3  # inline comment\nb 0.5\n# note\n1 2\n\n3 4\n"
    values, records = read_fields(text, SCHEMA, records=True)
    assert values == {"a": 3, "b": 0.5}
    assert records == [(6, "1 2"), (8, "3 4")]
    # the returned lines read on where the previous call stopped
    assert read_fields([(9, "a 1"), (10, "x")], {"a": int}, records=True) == \
        ({"a": 1}, [(10, "x")])
    assert read_fields("b 1\n", SCHEMA, optional=("a",)) == ({"b": 1.0}, [])


@pytest.mark.parametrize("text, records, message", [
    ("a 1\nc 2\nb 1\n", False, "line 2: unknown field 'c'"),
    ("a 1\n\n# c\nb x\n", False, "line 4: bad value for b: 'x'"),
    ("a 1\n", False, "end of text: missing field b"),
    ("", False, "end of text: missing field a, b"),
    ("a 1\n# b\n1 2\n", True, "line 3: missing field b"),
    ("c 2\na 1\nb 1\n", True, "line 1: missing field a, b"),
])
def test_read_fields_rejects(text, records, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        read_fields(text, SCHEMA, records=records)


def _circuit_text() -> str:
    events = (GateEvent(GateKind.H, (0,), 0, 180),
              GateEvent(GateKind.CNOT, (0, 1), 180, 1935))
    return circuit_to_text(TimedCircuit(2, events, readout_duration=100))


@pytest.mark.parametrize("mangle, message", [
    (lambda t: t.replace("dt ", "# dt "), "line 6: missing field dt"),
    (lambda t: t.replace("num_qubits", "qubits"), "line 2: missing field num_qubits"),
    (lambda t: t.replace("events 2", "events 2\ngates 2"), "line 6: bad event 'gates 2'"),
    (lambda t: t.replace(f"dt {DT_SECONDS.numerator}/{DT_SECONDS.denominator}", "dt 1/0"),
     "line 3: bad value for dt: '1/0'"),
    (lambda t: t.replace("180 1935", "180"), "line 7: bad event"),
    (lambda t: t.replace("CNOT -", "CNOT 0.5"), "line 7: bad event"),
    (lambda t: t.rsplit("\n", 2)[0] + "\n", "expected 2 events, found 1"),
    (lambda t: "", "end of text: missing field"),
], ids=["missing", "unknown-in-header", "unknown-after-header", "zero-denominator",
        "short-record", "phase-on-cnot", "truncated", "empty"])
def test_circuit_reader_rejects_malformed_text(mangle, message):
    with pytest.raises(ValueError, match=message):
        circuit_from_text(mangle(_circuit_text()))
