"""Single-shot Bernstein-Vazirani speedup toolkit.

Circuit generation, routing onto sparse coupling graphs by ancilla
swapping, universally robust dynamical decoupling, Kraus-channel noisy
simulation on exact and trajectory backends, and time-to-solution /
speedup-exponent analysis with bootstrap statistics.
"""

from .analysis import (AnalysisConfig, FitResult, SpeedupCurve, TTSPoint,
                       bootstrap_lambda, bootstrap_tts, bqp_verdict,
                       classical_points, mean_tts, repetitions, speedup_ratio,
                       tts_classical, tts_quantum, worst_case_lambda)
from .circuit import (DT_SECONDS, Bitstring, DurationModel, GateEvent,
                      GateKind, TimedCircuit, Violation, circuit_duration,
                      circuit_from_text, circuit_to_text, load_circuit,
                      save_circuit, validate_circuit)
from .decoupling import (DDSequence, GapSchedule, detect_gaps, plan_dd,
                         pulse_unitary, schedule_dd, sequence_from_name,
                         ur_phases)
from .experiment import (ConfigError, ExperimentConfig, cmd_analyze,
                         cmd_generate, cmd_ingest, cmd_simulate, load_config,
                         save_config)
from .noise import (NOISELESS, DeviceModel, KrausChannel, NoiseConfig,
                    amplitude_damping, dephasing, depolarizing,
                    identity_channel, load_profile)
from .oracles import (OracleSpec, ReadoutMap, ShotTable, all_oracles,
                      bv_logical_circuit, classical_success_prob, load_counts,
                      reduce_counts, representative_oracles, save_counts)
from .routing import (CouplingGraph, Embedding, RoutedCircuit,
                      RoutingInfeasible, chain_graph, cnot_scaling,
                      complete_graph, embed_oracle, embedding_cnot_count,
                      heavy_hex_27, layout_from_name, load_graph,
                      naive_cnot_count, route_bv, save_graph, verify_routed)
from .simulator import (SimulatorCapError, TrajectoryPlan,
                        check_reduction_equivalence, compile_program,
                        noiseless_output, simulate_exact, simulate_shots,
                        total_variation_distance)

__version__ = "0.1.0"
