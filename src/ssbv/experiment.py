"""Experiment configuration and the generate/simulate/ingest/analyze pipeline.

All randomness flows from one master seed: each oracle's simulation shots
draw from one Philox keyed by (seed, oracle), shot i from its own block of
counters; bootstrap resampling uses the dedicated substream keyed by
(seed, BOOTSTRAP_TAG).  Given a config and a seed, every produced report
is byte-identical across runs.

Collection modes: 'direct' simulates every (n, oracle) pair; 'reduced'
simulates only the largest size and derives all smaller-n tables by
tracing out data qubits, which is exact for the representative oracles
under factorized noise and is how large-size curves are collected in
practice.
"""
from __future__ import annotations

import math
import os
import shutil
from dataclasses import dataclass, fields, replace

import numpy as np

from .analysis import (AnalysisConfig, FitResult, TTSPoint, bootstrap_lambda,
                       bootstrap_tts, bqp_verdict, classical_points,
                       speedup_ratio, worst_case_lambda)
from .circuit import DurationModel, circuit_duration, read_fields, save_circuit
from .decoupling import schedule_dd, sequence_from_name
from .manifest import (append_entry, append_file_entry, read_manifest,
                       start_manifest)
from .noise import load_profile
from .oracles import (ALL_ORACLES_CAP, MAX_DATA_BITS, OracleSpec, ShotTable,
                      all_oracles, load_counts, reduce_counts,
                      representative_oracles, save_counts)
from . import simulator
from .routing import embed_oracle, layout_from_name, route_bv
from .simulator import (TRAJECTORY_MAX_WIRES, SimulatorCapError, TrajectoryPlan,
                        simulate_shots)

BOOTSTRAP_TAG = 0xB007


class ConfigError(Exception):
    """Invalid or unresolvable experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    n_min: int = 3
    n_max: int = 10
    oracle_mode: str = "representative"   # representative | all
    layout: str = "heavy-hex-27"
    profile: str = "montreal"
    blacklist: str = ""                   # comma-separated physical nodes
    dd: str = "none"                      # none | ur<n>
    dd_pulse_duration_dt: int = 0         # 0 -> device DD pulse duration
    dd_fallback: str = "ladder"           # ladder | idle
    collection: str = "direct"            # direct | reduced
    setup: str = "reduced"                # reduced | standard
    shots: int = 2000
    master_seed: int = 1
    p_d: float = 0.99
    bootstrap_b: int = 100
    n_min_fit: int = 3

    def __post_init__(self) -> None:
        if not 1 <= self.n_min <= self.n_max:
            raise ConfigError("need 1 <= n_min <= n_max")
        if self.n_max > MAX_DATA_BITS:
            raise ConfigError(f"n_max={self.n_max} exceeds {MAX_DATA_BITS}, the most "
                              "data bits one data index holds")
        if self.oracle_mode not in ("representative", "all"):
            raise ConfigError(f"unknown oracle_mode {self.oracle_mode!r}")
        if self.collection not in ("direct", "reduced"):
            raise ConfigError(f"unknown collection {self.collection!r}")
        if self.collection == "reduced" and self.oracle_mode != "representative":
            raise ConfigError("reduced collection requires representative oracles")
        if self.oracle_mode == "all" and self.n_max > ALL_ORACLES_CAP:
            raise ConfigError(f"oracle_mode all covers n up to {ALL_ORACLES_CAP}, "
                              f"not n_max={self.n_max}")
        if self.setup not in ("reduced", "standard"):
            raise ConfigError(f"unknown setup {self.setup!r}")
        if self.dd_fallback not in ("ladder", "idle"):
            raise ConfigError(f"unknown dd_fallback {self.dd_fallback!r}")
        if self.shots <= 0:
            raise ConfigError("shots must be positive")
        if not 0 <= self.master_seed < 1 << 64:
            raise ConfigError(f"master_seed {self.master_seed} outside [0, 2**64)")
        if self.dd_pulse_duration_dt < 0:
            raise ConfigError("dd_pulse_duration_dt must be nonnegative "
                              "(0 takes the device's DD pulse duration)")
        try:
            sequence_from_name(self.dd)
            self.analysis_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def analysis_config(self) -> AnalysisConfig:
        return AnalysisConfig(p_d=self.p_d, bootstrap_b=self.bootstrap_b,
                              n_min=self.n_min_fit)


_CONFIG_HEADER = "# ssbv experiment config v1"

# Every field is optional in a config file; its default's type reads it.
_CONFIG_FIELDS = {f.name: type(f.default) for f in fields(ExperimentConfig)}


def config_to_text(config: ExperimentConfig) -> str:
    lines = [_CONFIG_HEADER]
    for f in fields(config):
        lines.append(f"{f.name} {getattr(config, f.name)}")
    return "\n".join(lines) + "\n"


def config_from_text(text: str) -> ExperimentConfig:
    try:
        values, _ = read_fields(text, _CONFIG_FIELDS, optional=_CONFIG_FIELDS)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            return config_from_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None


def save_config(config: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        fh.write(config_to_text(config))


# -- shared setup ----------------------------------------------------------------

def _load_profile(config: ExperimentConfig):
    try:
        return load_profile(config.profile)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load profile {config.profile!r}: {exc}") from None


def _resolve(config: ExperimentConfig):
    try:
        graph = layout_from_name(config.layout, min_nodes=config.n_max + 1)
        graph = graph.with_blacklist(int(tok) for tok in config.blacklist.split(",")
                                     if tok.strip())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot use layout {config.layout!r} with blacklist "
                          f"{config.blacklist!r}: {exc}") from None
    if config.n_max + 1 > len(graph.usable):
        raise ConfigError(f"n_max={config.n_max} needs {config.n_max + 1} usable "
                          f"nodes, layout has {len(graph.usable)}")
    profile = _load_profile(config)
    device = profile.device(graph)
    noise = profile.noise()
    if config.collection == "reduced" and noise.zz and noise.zz_rate > 0:
        raise ConfigError("reduced collection is exact only under factorized "
                          f"noise; profile {config.profile!r} has ZZ crosstalk "
                          f"(zz_rate {noise.zz_rate})")
    sequence = sequence_from_name(config.dd)
    pulse = config.dd_pulse_duration_dt or device.dur_dd_pulse
    return graph, device, noise, sequence, pulse


def _oracles_for(config: ExperimentConfig, n: int) -> list[OracleSpec]:
    if config.oracle_mode == "representative":
        return representative_oracles(n)
    return all_oracles(n)


def _routed_for(config: ExperimentConfig, spec: OracleSpec, graph, device,
                sequence, pulse):
    emb = embed_oracle(spec, graph)
    routed = route_bv(spec, graph, emb, device,
                      standard=config.setup == "standard")
    circuit = routed.circuit
    if sequence is not None:
        circuit = schedule_dd(circuit, sequence, pulse, config.dd_fallback)
    return routed, circuit


def _table_name(spec: OracleSpec) -> str:
    return f"bv_n{spec.n}_b{spec.b.to01()}"


# -- commands ---------------------------------------------------------------------

def cmd_generate(config: ExperimentConfig, out_dir) -> str:
    """Write routed (and DD-dressed) circuit files for every (n, oracle)."""
    graph, device, noise, sequence, pulse = _resolve(config)
    circ_dir = os.path.join(out_dir, "circuits")
    os.makedirs(circ_dir, exist_ok=True)
    manifest = os.path.join(out_dir, "manifest.txt")
    start_manifest(manifest)
    cfg_path = os.path.join(out_dir, "config.used")
    save_config(config, cfg_path)
    append_file_entry(manifest, "config", cfg_path)

    for n in range(config.n_min, config.n_max + 1):
        for spec in _oracles_for(config, n):
            routed, circuit = _routed_for(config, spec, graph, device,
                                          sequence, pulse)
            path = os.path.join(circ_dir, _table_name(spec) + ".circuit")
            save_circuit(circuit, path)
            readout = ",".join(
                "-" if w is None else str(w)
                for w in routed.readout.wire_of_logical)
            append_file_entry(
                manifest, "circuit", path, n=n, b=spec.b.to01(),
                cnots=routed.cnot_count,
                duration_dt=circuit_duration(circuit), readout=readout)
    return manifest


def _duration_table(config: ExperimentConfig, graph, device, sequence, pulse,
                    known: dict[int, float]) -> dict[int, float]:
    """t_r(n) in seconds from the full-weight (k=n) routed circuit: ``known``
    for the sizes the caller has routed it at, routed here for the rest.
    Under the reduced setup the routed circuit depends only on the marked
    set, so a representative job with k marked bits has routed it at k."""
    table = dict(known)
    for n in range(config.n_min, config.n_max + 1):
        if n not in table:
            _, circuit = _routed_for(config, OracleSpec.representative(n, n), graph,
                                     device, sequence, pulse)
            table[n] = device.seconds(circuit_duration(circuit))
    return table


def cmd_simulate(config: ExperimentConfig, out_dir) -> str:
    """Run the trajectory backend over the configured oracle grid.

    Each circuit of the grid is routed and compiled once, up front, and its
    widest factor checked against the trajectory cap, so an infeasible grid
    fails fast and leaves no tables; the job loop runs these programs.
    """
    graph, device, noise, sequence, pulse = _resolve(config)
    plan = TrajectoryPlan(config.shots, config.master_seed)
    reduced = config.collection == "reduced"
    sizes = [config.n_max] if reduced else range(config.n_min, config.n_max + 1)
    jobs, known = [], {}
    for n in sizes:
        for spec in _oracles_for(config, n):
            routed, circuit = _routed_for(config, spec, graph, device,
                                          sequence, pulse)
            if (spec.is_representative() and spec.k >= config.n_min
                    and (spec.k == n or config.setup == "reduced")):
                known[spec.k] = device.seconds(circuit_duration(circuit))
            phys = [None] * circuit.num_qubits
            for node, w in routed.wire_of_physical.items():
                phys[w] = node
            program = simulator.compile_program(circuit, device, noise, phys)
            if program.width > TRAJECTORY_MAX_WIRES:
                raise SimulatorCapError(
                    f"{_table_name(spec)}: widest factor of {program.width} wires "
                    f"exceeds trajectory cap {TRAJECTORY_MAX_WIRES}")
            jobs.append((spec, routed.readout, program, phys))
    durations = _duration_table(config, graph, device, sequence, pulse, known)

    counts_dir = os.path.join(out_dir, "counts")
    os.makedirs(counts_dir, exist_ok=True)
    manifest = os.path.join(out_dir, "manifest.txt")
    start_manifest(manifest)
    cfg_path = os.path.join(out_dir, "config.used")
    save_config(config, cfg_path)
    append_file_entry(manifest, "config", cfg_path)
    for n, t_r in sorted(durations.items()):
        append_entry(manifest, "duration", n=n, seconds=repr(t_r))

    def write_table(table: ShotTable, derived: bool) -> None:
        path = os.path.join(counts_dir, _table_name(table.oracle) + ".counts")
        save_counts(table, path)
        append_file_entry(manifest, "counts", path, n=table.n,
                          b=table.oracle.b.to01(), shots=table.total_shots,
                          derived=int(derived))

    while jobs:         # each program is freed once its table is sampled
        spec, readout, program, phys = jobs.pop(0)
        table = simulate_shots(program, device, noise, plan, spec, readout, phys)
        del program
        write_table(table, derived=False)
        if reduced:
            for m in range(config.n_min, config.n_max):
                if spec.k <= m:
                    write_table(reduce_counts(table, m), derived=True)
    return manifest


def cmd_ingest(paths, out_dir) -> str:
    """Validate and register externally produced count files."""
    counts_dir = os.path.join(out_dir, "counts")
    os.makedirs(counts_dir, exist_ok=True)
    manifest = os.path.join(out_dir, "manifest.txt")
    start_manifest(manifest)

    files: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            files.extend(sorted(os.path.join(p, f) for f in os.listdir(p)
                                if f.endswith(".counts")))
        else:
            files.append(p)
    if not files:
        raise ConfigError("nothing to ingest")
    for src in files:
        try:
            table = load_counts(src)
        except (ValueError, OSError) as exc:
            raise ConfigError(f"{src}: {exc}") from None
        dst = os.path.join(counts_dir, _table_name(table.oracle) + ".counts")
        if os.path.abspath(src) != os.path.abspath(dst):
            shutil.copyfile(src, dst)
        append_file_entry(manifest, "counts", dst, n=table.n,
                          b=table.oracle.b.to01(), shots=table.total_shots,
                          derived=0, ingested=1)
    return manifest


@dataclass(frozen=True)
class AnalysisResult:
    points: list[TTSPoint]
    classical: list[TTSPoint]
    fit: FitResult | None
    report_text: str


def _load_tables(out_dir) -> tuple[dict[int, list[ShotTable]], dict[int, float]]:
    manifest = os.path.join(out_dir, "manifest.txt")
    if not os.path.exists(manifest):
        raise ConfigError(f"no manifest at {manifest}")
    base = os.path.dirname(os.path.abspath(manifest))
    tables: dict[int, list[ShotTable]] = {}
    durations: dict[int, float] = {}
    for entry in read_manifest(manifest):
        if entry["kind"] == "counts":
            if "file" not in entry:
                raise ConfigError(f"{manifest}: counts entry without file=")
            path = os.path.join(base, entry["file"])
            try:
                table = load_counts(path)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"{path}: {exc}") from None
            tables.setdefault(table.n, []).append(table)
        elif entry["kind"] == "duration":
            try:
                durations[int(entry["n"])] = float(entry["seconds"])
            except (KeyError, ValueError):
                raise ConfigError(f"{manifest}: duration entry needs an integer n= "
                                  f"and a number seconds=, got {entry}") from None
    if not tables:
        raise ConfigError("manifest references no count tables")
    for n in tables:
        tables[n].sort(key=lambda t: t.oracle.b.to_int())
    return tables, durations


# Fields only analyze reads; simulate used every other one.
_ANALYSIS_FIELDS = ("p_d", "bootstrap_b", "n_min_fit")


def run_config(out_dir) -> ExperimentConfig | None:
    """The config a run's manifest records (``config.used``), or None for a
    run without one, such as an ingested one."""
    manifest = os.path.join(out_dir, "manifest.txt")
    if not os.path.exists(manifest):
        return None
    for entry in read_manifest(manifest):
        if entry["kind"] == "config" and "file" in entry:
            return load_config(os.path.join(out_dir, entry["file"]))
    return None


def cmd_analyze(config: ExperimentConfig, out_dir) -> AnalysisResult:
    """TTS curve, exponent fits, baseline, speedup, and BQP verdicts.

    Raises ConfigError when ``config`` differs from the run's recorded
    config (see ``run_config``) in a field that simulate used."""
    tables, durations = _load_tables(out_dir)
    model = replace(_load_profile(config).duration_model(),
                    exact_table=durations or None)
    used = run_config(out_dir)
    for name in _CONFIG_FIELDS:
        if (used is not None and name not in _ANALYSIS_FIELDS
                and getattr(config, name) != getattr(used, name)):
            raise ConfigError(f"{name} {getattr(config, name)} differs from the run's "
                              f"{name} {getattr(used, name)} in its config.used")
    acfg = config.analysis_config()
    rng = np.random.Generator(np.random.Philox(
        key=(config.master_seed << 64) | BOOTSTRAP_TAG))

    points: list[TTSPoint] = []
    verdicts: dict[int, bool] = {}
    for n in sorted(tables):
        point, _ = bootstrap_tts(tables[n], model, acfg, rng)
        points.append(point)
        verdicts[n] = bqp_verdict(tables[n])

    fit = None
    local: dict[int, FitResult] = {}
    finite_ns = [p.n for p in points if p.finite and p.n >= acfg.n_min]
    if len(finite_ns) >= 3:
        fit = bootstrap_lambda(tables, model, acfg, rng)
        for h in finite_ns:
            try:
                local[h] = worst_case_lambda(points, acfg, u=h)
            except ValueError:
                continue

    classical = classical_points(sorted(tables), p_d=config.p_d)
    speedup = None
    try:
        speedup = speedup_ratio(points, classical)
    except ValueError:
        pass

    report = render_report(config, model, points, classical, fit, local,
                           speedup, verdicts)
    report_path = os.path.join(out_dir, "report.txt")
    with open(report_path, "w") as fh:
        fh.write(report)
    write_plot_data(out_dir, points, classical, local, speedup)
    manifest = os.path.join(out_dir, "manifest.txt")
    append_file_entry(manifest, "report", report_path)
    return AnalysisResult(points, classical, fit, report)


def render_report(config: ExperimentConfig, model: DurationModel,
                  points: list[TTSPoint], classical: list[TTSPoint],
                  fit: FitResult | None, local: dict[int, FitResult],
                  speedup, verdicts: dict[int, bool]) -> str:
    out = ["# ssbv analysis report v1", "", "[config]",
           *config_to_text(config).splitlines()[1:]]  # the fields, no file header
    out += ["", "[duration-model]",
            f"slope_us {model.slope * 1e6:.6f}",
            f"intercept_us {model.tau_0 * 1e6:.6f}",
            f"exact_table_points {len(model.exact_table or {})}"]
    out += ["", "[tts]", "n tts_s ci_low_s ci_high_s oracles terminated"]
    for p in points:
        if p.terminated:
            out.append(f"{p.n} - - - {p.num_oracles} 1")
        else:
            out.append(f"{p.n} {p.tts_mean:.9e} {p.ci_low:.9e} "
                       f"{p.ci_high:.9e} {p.num_oracles} 0")
    out += ["", "[classical]", "n tts_s"]
    for p in classical:
        out.append(f"{p.n} {p.tts_mean:.9e}")
    out += ["", "[lambda]"]
    if fit is not None:
        out.append(f"worst_case exponent {fit.exponent:.6f} "
                   f"ci [{fit.ci_low:.6f}, {fit.ci_high:.6f}] "
                   f"window [{fit.window[0]}, {fit.window[1]}]")
        for h in sorted(local):
            out.append(f"local h={h} exponent {local[h].exponent:.6f}")
    else:
        out.append("worst_case insufficient-data")
    out += ["", "[speedup]"]
    if speedup is not None:
        out.append(f"fitted_exponent {speedup.fitted_exponent:.6f}")
        out.append("n ratio")
        for n, v in zip(speedup.ns, speedup.values):
            out.append(f"{n} {v:.9e}")
    else:
        out.append("undefined")
    out += ["", "[bqp]", "n all_oracles_above_half"]
    for n in sorted(verdicts):
        out.append(f"{n} {int(verdicts[n])}")
    return "\n".join(out) + "\n"


def write_plot_data(out_dir, points: list[TTSPoint], classical: list[TTSPoint],
                    local: dict[int, FitResult], speedup) -> None:
    """Columnar plot files, one row per finite size, header row first."""
    pdir = os.path.join(out_dir, "plotdata")
    os.makedirs(pdir, exist_ok=True)

    def write(name: str, header: str, rows) -> None:
        with open(os.path.join(pdir, name), "w") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(" ".join(str(x) for x in row) + "\n")

    write("tts_quantum.dat", "n tts_s ci_low_s ci_high_s",
          [(p.n, f"{p.tts_mean:.9e}", f"{p.ci_low:.9e}", f"{p.ci_high:.9e}")
           for p in points if p.finite])
    write("tts_classical.dat", "n tts_s",
          [(p.n, f"{p.tts_mean:.9e}") for p in classical])
    write("lambda_local.dat", "h_max exponent",
          [(h, f"{local[h].exponent:.6f}") for h in sorted(local)])
    if speedup is not None:
        write("speedup.dat", "n ratio",
              [(n, f"{v:.9e}") for n, v in zip(speedup.ns, speedup.values)])
