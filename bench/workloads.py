"""The two benchmark workloads and the output checks behind failed_frac.

A pass runs one workload once against the public API and returns its
timings, the number of operations attempted and failed, and a sha256
digest of everything it produced.  An operation is one oracle table, one
exact distribution, or the analysis report.  Checks run after the timed
region and outside any traced span.
"""
from __future__ import annotations

import hashlib
import math
import os
import shutil
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from time import perf_counter

from ssbv import decoupling, experiment, routing, simulator
from ssbv.experiment import ExperimentConfig
from ssbv.manifest import read_manifest
from ssbv.noise import load_profile
from ssbv.oracles import (OracleSpec, counts_to_text, load_counts, reduce_counts,
                          representative_oracles)

# The paper's headline pipeline: the README config (n 3-10, reduced, ur14)
# at 160 shots.  11 oracles of up to 11 wires; nearly all time is in the
# statevector kernels.  The batch state at the top size is
# 2**11 * 160 * 16 B = 5.2 MB, more than the L2 of a core (2 MiB on the
# 2-core Xeon it was sized on), so every kernel pass streams the state from
# beyond L2 as in the 2000-shot README run, while one pass still takes only
# 6-8 s there.
README = dict(n_min=3, n_max=10, layout="heavy-hex-27", profile="montreal",
              dd="ur14", collection="reduced", shots=160)
SMOKE_README = dict(n_min=3, n_max=5, shots=16)

# The dense density-operator backend, which bypasses the kernels: UR4-dressed
# full-weight BV chains at 3-7 wires with detuning off, then one 3-wire chain
# under full montreal noise (Gauss-Hermite detuning average) cross-checked
# against the trajectory backend.
EXACT = dict(n_min=2, n_max=6, full_n=2, gh_nodes=21, shots=4000)
SMOKE_EXACT = dict(n_min=2, n_max=3, full_n=2, gh_nodes=3, shots=4000)

WORKLOADS = ("readme-reduced", "exact-reference")

# The trajectory-vs-exact TVD must stay below TVD_SIGMAS times the expected
# shot-noise scale 0.5 * sum_i sqrt(p_i (1 - p_i) / shots).  Exceeding it
# needs some outcome frequency to be at least 5 standard deviations off.
TVD_SIGMAS = 5.0
NORM_TOL = 1e-9


@dataclass
class PassResult:
    wall_s: float = 0.0
    simulate_s: float = 0.0
    analyze_s: float | None = None
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    problems: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)


def readme_config(seed: int, smoke: bool) -> ExperimentConfig:
    values = dict(README, **(SMOKE_README if smoke else {}))
    return ExperimentConfig(master_seed=seed & 0xFFFFFFFFFFFFFFFF, **values)


def exact_params(smoke: bool) -> dict:
    return dict(SMOKE_EXACT if smoke else EXACT)


def resolve(name: str, smoke: bool = False):
    """What setup_s times: load the profile and resolve the layout."""
    if name == "exact-reference":
        profile = load_profile("montreal")
        n_top = exact_params(smoke)["n_max"]
        graph = routing.chain_graph(n_top + 1)
    else:
        config = readme_config(0, smoke)
        profile = load_profile(config.profile)
        graph = routing.layout_from_name(config.layout,
                                         min_nodes=config.n_max + 1)
    return profile.device(graph), profile.noise()


def run_pass(name: str, seed: int, out_dir: str, smoke: bool,
             full_checks: bool, timed=nullcontext) -> PassResult:
    """One pass; ``timed()`` is entered around the timed region only, so a
    tracer installed by it never sees the checks."""
    if name == "exact-reference":
        return _exact_pass(seed, smoke, full_checks, timed)
    return _readme_pass(readme_config(seed, smoke), out_dir,
                          full_checks, timed)


# -- readme-reduced ------------------------------------------------------------

def _expected_tables(config: ExperimentConfig) -> dict[str, tuple[OracleSpec, bool]]:
    """Table name -> (oracle, derived) for every table the run must write."""
    out = {}
    for spec in representative_oracles(config.n_max):
        out[_table_name(spec)] = (spec, False)
        for m in range(config.n_min, config.n_max):
            if spec.k <= m:
                sub = OracleSpec.representative(m, spec.k)
                out[_table_name(sub)] = (sub, True)
    return out


def _table_name(spec: OracleSpec) -> str:
    return f"bv_n{spec.n}_b{spec.b.to01()}"


def _routed(config: ExperimentConfig, spec: OracleSpec, graph, device):
    emb = routing.embed_oracle(spec, graph)
    routed = routing.route_bv(spec, graph, emb, device,
                              standard=config.setup == "standard")
    circuit = routed.circuit
    sequence = decoupling.sequence_from_name(config.dd)
    if sequence is not None:
        pulse = config.dd_pulse_duration_dt or device.dur_dd_pulse
        circuit = decoupling.schedule_dd(circuit, sequence, pulse,
                                         config.dd_fallback)
    return routed, circuit


def _noiseless_on_b(circuit, readout, spec: OracleSpec) -> bool:
    dist = simulator.noiseless_output(circuit, readout)
    return abs(dist.get(spec.b.to01(), 0.0) - 1.0) <= NORM_TOL


def _check_table(table, spec: OracleSpec, shots: int) -> str | None:
    if table.oracle != spec:
        return f"holds oracle {table.oracle.b.to01()}"
    if table.total_shots != shots or sum(table.counts.values()) != shots:
        return (f"counts sum {sum(table.counts.values())}, "
                f"total {table.total_shots}, expected {shots}")
    bad = [k for k in table.counts
           if len(k) != spec.n or any(ch not in "01" for ch in k)]
    if bad:
        return f"keys are not {spec.n}-bit strings: {bad[:3]}"
    return None


def _readme_pass(config: ExperimentConfig, out_dir: str,
                   full_checks: bool, timed) -> PassResult:
    res = PassResult()
    expected = _expected_tables(config)
    res.attempted = len(expected) + 1          # tables plus the report
    shutil.rmtree(out_dir, ignore_errors=True)
    try:
        with timed():
            t0 = perf_counter()
            experiment.cmd_simulate(config, out_dir)
            t1 = perf_counter()
            analysis = experiment.cmd_analyze(config, out_dir)
            t2 = perf_counter()
    except Exception:  # a failing program is a measured outcome, not a crash
        traceback.print_exc(file=sys.stderr)
        res.failed = res.attempted
        res.problems.append("pipeline raised")
        return res
    res.simulate_s, res.analyze_s, res.wall_s = t1 - t0, t2 - t1, t2 - t0

    base = os.path.abspath(out_dir)
    digest = hashlib.sha256()
    tables = {}
    unreadable = set()
    for entry in read_manifest(os.path.join(base, "manifest.txt")):
        if entry["kind"] != "counts":
            continue
        path = os.path.join(base, entry["file"])
        name = os.path.basename(path)[:-len(".counts")]
        with open(path, "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read())
        try:
            tables[name] = load_counts(path)
        except ValueError as exc:
            unreadable.add(name)
            res.fail(f"{name}: unreadable: {exc}")
    with open(os.path.join(base, "report.txt"), "rb") as fh:
        digest.update(b"report\0" + fh.read())
    res.digest = digest.hexdigest()

    graph = routing.layout_from_name(config.layout, min_nodes=config.n_max + 1)
    device = load_profile(config.profile).device(graph)
    for name, (spec, derived) in sorted(expected.items()):
        table = tables.get(name)
        if table is None:
            if name not in unreadable:
                res.fail(f"{name}: missing")
            continue
        problem = _check_table(table, spec, config.shots)
        if problem is None and derived:
            top = tables.get(_table_name(OracleSpec.representative(config.n_max,
                                                                   spec.k)))
            if top is None or reduce_counts(top, spec.n) != table:
                problem = "differs from reduce_counts of its top table"
        if problem is None and full_checks and not derived:
            routed, circuit = _routed(config, spec, graph, device)
            if not _noiseless_on_b(circuit, routed.readout, spec):
                problem = "noiseless output does not put all mass on b"
        if problem is not None:
            res.fail(f"{name}: {problem}")

    fit = analysis.fit
    if fit is None or not math.isfinite(fit.exponent):
        res.fail("report: no finite worst-case exponent")
    return res


# -- exact-reference -------------------------------------------------------------

def _chain_circuit(profile, n: int):
    graph = routing.chain_graph(n + 1)
    device = profile.device(graph)
    spec = OracleSpec.representative(n, n)
    emb = routing.embed_oracle(spec, graph)
    routed = routing.route_bv(spec, graph, emb, device)
    circuit = decoupling.schedule_dd(routed.circuit, decoupling.ur_phases(4),
                                     device.dur_dd_pulse)
    phys = [None] * circuit.num_qubits
    for node, w in routed.wire_of_physical.items():
        phys[w] = node
    return spec, routed, circuit, device, phys


def _check_distribution(dist: dict[str, float], n: int) -> str | None:
    if any(v < 0 for v in dist.values()):
        return "negative probability"
    if abs(sum(dist.values()) - 1.0) > NORM_TOL:
        return f"sums to {sum(dist.values())!r}"
    if any(len(k) != n for k in dist):
        return f"keys are not {n}-bit strings"
    return None


def _dist_bytes(dist: dict[str, float]) -> bytes:
    return "".join(f"{k} {float(v).hex()}\n" for k, v in sorted(dist.items())).encode()


def tvd_bound(exact: dict[str, float], shots: int) -> float:
    return TVD_SIGMAS * 0.5 * sum(math.sqrt(p * (1.0 - p) / shots)
                                  for p in exact.values())


def _exact_pass(seed: int, smoke: bool, full_checks: bool, timed) -> PassResult:
    params = exact_params(smoke)
    res = PassResult()
    sizes = range(params["n_min"], params["n_max"] + 1)
    res.attempted = len(sizes) + 2     # quiet distributions, full one, table
    digest = hashlib.sha256()
    profile = load_profile("montreal")
    noise = profile.noise()
    quiet = replace(noise, detuning=False)
    plan = simulator.TrajectoryPlan(params["shots"], seed & 0xFFFFFFFFFFFFFFFF)
    sim = 0.0
    outputs = []
    try:
        with timed():
            t0 = perf_counter()
            for n in sizes:
                spec, routed, circuit, device, phys = _chain_circuit(profile, n)
                a = perf_counter()
                dist = simulator.simulate_exact(circuit, device, quiet,
                                                routed.readout, phys)
                sim += perf_counter() - a
                outputs.append((f"exact n{n} quiet", spec, routed, circuit, dist))
            spec, routed, circuit, device, phys = _chain_circuit(
                profile, params["full_n"])
            a = perf_counter()
            full = simulator.simulate_exact(circuit, device, noise,
                                            routed.readout, phys,
                                            gh_nodes=params["gh_nodes"])
            table = simulator.simulate_shots(circuit, device, noise, plan, spec,
                                             routed.readout, phys)
            sim += perf_counter() - a
            wall = perf_counter() - t0
    except Exception:  # a failing program is a measured outcome, not a crash
        traceback.print_exc(file=sys.stderr)
        res.failed = res.attempted
        res.problems.append("exact workload raised")
        return res
    res.wall_s, res.simulate_s = wall, sim
    outputs.append((f"exact n{params['full_n']} full", spec, routed, circuit, full))

    for label, spec_i, routed_i, circuit_i, dist in outputs:
        digest.update(label.encode() + b"\0" + _dist_bytes(dist))
        problem = _check_distribution(dist, spec_i.n)
        if problem is None and full_checks and not _noiseless_on_b(
                circuit_i, routed_i.readout, spec_i):
            problem = "noiseless output does not put all mass on b"
        if problem is not None:
            res.fail(f"{label}: {problem}")

    digest.update(b"table\0" + counts_to_text(table).encode())
    res.digest = digest.hexdigest()
    problem = _check_table(table, spec, params["shots"])
    if problem is None:
        empirical = {k: c / table.total_shots for k, c in table.counts.items()}
        tvd = simulator.total_variation_distance(full, empirical)
        bound = tvd_bound(full, params["shots"])
        if tvd > bound:
            problem = f"trajectory-vs-exact TVD {tvd:.4g} above bound {bound:.4g}"
    if problem is not None:
        res.fail(f"trajectory n{params['full_n']}: {problem}")
    return res
