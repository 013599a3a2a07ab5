"""Noisy simulation on the exact and trajectory backends.

The same compiled operation stream drives an exact backend over per-wire
density factors (ground truth, detuning averaged on Gauss-Hermite rules)
and a trajectory backend over batched per-wire statevector factors (Kraus
branch sampling, exact in distribution).
"""
import numpy as np

from ssbv import (NoiseConfig, OracleSpec, TrajectoryPlan, bv_logical_circuit,
                  chain_graph, check_reduction_equivalence, load_profile,
                  simulate_exact, simulate_shots, total_variation_distance,
                  ur_phases)

profile = load_profile("montreal")
spec = OracleSpec.representative(3, 2)
device = profile.device(chain_graph(5))
circuit, readout = bv_logical_circuit(
    spec, dur_1q=device.dur_1q, dur_2q=device.dur_2q,
    readout_duration=device.dur_readout, dt=device.dt)

noise = NoiseConfig()  # decoherence + depolarizing + readout
exact = simulate_exact(circuit, device, noise, readout)
table = simulate_shots(circuit, device, noise, TrajectoryPlan(50_000, 11),
                       spec, readout)
empirical = {k: v / table.total_shots for k, v in table.counts.items()}
print("exact     :", {k: round(v, 4) for k, v in sorted(exact.items())})
print("trajectory:", {k: round(v, 4) for k, v in sorted(empirical.items())})
print(f"TVD = {total_variation_distance(exact, empirical):.5f} "
      f"(sampling noise at 5e4 shots)")

# Tracing data qubits out of a larger instance reproduces the smaller one
# exactly when the noise factorizes over qubits...
quiet = NoiseConfig(detuning=False)
tvd = check_reduction_equivalence(4, 2, 2, device, quiet)
print(f"\nreduction BV-4 -> BV-2, factorized noise: TVD = {tvd:.2e}")

# ...while always-on ZZ crosstalk between neighbors breaks the equivalence,
# and DD pulses on the idling spectators restore it.
xtalk = NoiseConfig(zz_rate=2.5e5, detuning=False)
bare = check_reduction_equivalence(4, 2, 2, device, xtalk)
prot = check_reduction_equivalence(4, 2, 2, device, xtalk, dd=ur_phases(14))
print(f"with crosstalk: TVD = {bare:.2e}; "
      f"with UR14 inserted: TVD = {prot:.2e} "
      f"({bare / prot:.0f}x smaller)")
