"""Building timed BV circuits and inspecting the duration model.

The guessing-game circuit for a hidden string b applies one CNOT per
marked qubit onto an ancilla prepared in |1>, between two Hadamard layers.
Every event carries an explicit start time and duration on the dt grid.
"""
import numpy as np

from ssbv import (Bitstring, DurationModel, OracleSpec, bv_logical_circuit,
                  circuit_duration, circuit_to_text, validate_circuit)

# A BV-6 oracle with three marked qubits.
spec = OracleSpec(Bitstring.from_str("110100"))
circuit, readout = bv_logical_circuit(spec)
print(f"b = {spec.b}, marked qubits = {spec.marked}")
print(f"wires = {circuit.num_qubits}, events = {len(circuit.events)}")
print(f"valid: {validate_circuit(circuit) is None}")

# With unit durations the full-weight circuit has depth n+3.
full = OracleSpec.representative(6, 6)
full_circ, _ = bv_logical_circuit(full)
print(f"depth of BV-6 (k=6): {circuit_duration(full_circ)} layers")

# The serialized form round-trips losslessly.
print("\nserialized circuit:")
print(circuit_to_text(circuit))

# Single-run times follow t_r(n) = slope*n + intercept; exact per-n values
# can override the linear law at small sizes.
montreal_like = DurationModel(0.40e-6, 5.28e-6)
cairo_like = DurationModel(0.27e-6, 0.77e-6)
print("n    t_r montreal-like    t_r cairo-like")
for n in (0, 5, 10, 20, 26):
    print(f"{n:2d}   {montreal_like.run_time(n)*1e6:8.2f} us"
          f"        {cairo_like.run_time(n)*1e6:8.2f} us")
