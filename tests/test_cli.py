import hashlib
import os

import pytest

from ssbv import experiment, simulator
from ssbv.cli import _build_parser, main
from ssbv.experiment import (ConfigError, ExperimentConfig, cmd_analyze,
                             cmd_generate, cmd_ingest, cmd_simulate,
                             config_from_text, config_to_text)
from ssbv.manifest import read_manifest, verify_manifest
from ssbv.noise import Profile, load_profile, profile_to_text
from ssbv.oracles import (OracleSpec, ShotTable, load_counts, representative_oracles,
                          save_counts)

FAST = dict(n_min=2, n_max=4, layout="chain", profile="montreal",
            shots=200, master_seed=3, bootstrap_b=15)


def test_config_text_roundtrip():
    cfg = ExperimentConfig(**FAST, dd="ur4", collection="reduced")
    assert config_from_text(config_to_text(cfg)) == cfg


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(n_min=5, n_max=3)
    with pytest.raises(ConfigError):
        ExperimentConfig(oracle_mode="some")
    with pytest.raises(ConfigError):
        ExperimentConfig(collection="reduced", oracle_mode="all")
    with pytest.raises(ConfigError):
        ExperimentConfig(dd="cpmg")
    with pytest.raises(ConfigError):
        config_from_text("unknown_key 1\n")


def test_config_reader_reports_file_lines():
    with pytest.raises(ConfigError, match="line 3: unknown field 'precision'"):
        config_from_text("n_min 3\n\nprecision single\n")
    with pytest.raises(ConfigError, match="line 2: bad value for shots: 'many'"):
        config_from_text("# c\nshots many\n")
    # every field has a default, so an empty config file is the default config
    assert config_from_text("") == ExperimentConfig()


def test_generate_writes_expected_file_count(tmp_path):
    cfg = ExperimentConfig(n_min=2, n_max=6, layout="heavy-hex-27",
                           profile="montreal", shots=10)
    manifest = cmd_generate(cfg, tmp_path)
    entries = [e for e in read_manifest(manifest) if e["kind"] == "circuit"]
    assert len(entries) == sum(n + 1 for n in range(2, 7))  # 25 files
    assert verify_manifest(manifest) == []
    layouts = {e["file"] for e in entries}
    assert len(layouts) == len(entries)


def test_generate_records_differing_cnot_counts_per_layout(tmp_path):
    chain = ExperimentConfig(n_min=6, n_max=6, layout="chain", profile="noiseless")
    hex27 = ExperimentConfig(n_min=6, n_max=6, layout="heavy-hex-27",
                             profile="noiseless")
    m1 = cmd_generate(chain, tmp_path / "chain")
    m2 = cmd_generate(hex27, tmp_path / "hex")
    get = lambda m: {e["b"]: int(e["cnots"]) for e in read_manifest(m)
                     if e["kind"] == "circuit"}
    c1, c2 = get(m1), get(m2)
    assert c1["111111"] > c2["111111"]  # chain needs more swapping


def test_simulate_then_analyze_runs_and_is_deterministic(tmp_path):
    cfg = ExperimentConfig(**FAST)
    cmd_simulate(cfg, tmp_path / "a")
    cmd_simulate(cfg, tmp_path / "b")
    ra = cmd_analyze(cfg, tmp_path / "a")
    rb = cmd_analyze(cfg, tmp_path / "b")
    assert ra.report_text == rb.report_text
    with open(tmp_path / "a" / "report.txt") as fh:
        assert fh.read() == ra.report_text


def test_reduced_collection_matches_direct_at_top_size(tmp_path):
    cfg = ExperimentConfig(**FAST, collection="reduced")
    manifest = cmd_simulate(cfg, tmp_path)
    entries = [e for e in read_manifest(manifest) if e["kind"] == "counts"]
    top = [e for e in entries if int(e["n"]) == 4 and e["derived"] == "0"]
    derived = [e for e in entries if e["derived"] == "1"]
    assert len(top) == 5
    assert derived  # smaller sizes come from marginalization
    ns = {int(e["n"]) for e in derived}
    assert ns == {2, 3}


def test_ingest_roundtrip_equals_direct_analysis(tmp_path):
    cfg = ExperimentConfig(**FAST)
    sim_dir = tmp_path / "sim"
    cmd_simulate(cfg, sim_dir)
    ingest_dir = tmp_path / "ing"
    cmd_ingest([os.path.join(sim_dir, "counts")], ingest_dir)
    # durations are not part of count files; copy the manifest rows over
    with open(os.path.join(sim_dir, "manifest.txt")) as fh:
        duration_rows = [ln for ln in fh if ln.startswith("duration")]
    with open(os.path.join(ingest_dir, "manifest.txt"), "a") as fh:
        fh.writelines(duration_rows)
    ra = cmd_analyze(cfg, sim_dir)
    rb = cmd_analyze(cfg, ingest_dir)
    assert ra.report_text == rb.report_text


def test_ingest_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.counts"
    bad.write_text("oracle 110\ntotal_shots 10\nrecords 1\n1101 10\n")
    with pytest.raises(ConfigError):
        cmd_ingest([str(bad)], tmp_path / "out")


def test_cli_exit_codes(tmp_path):
    out = str(tmp_path / "run")
    assert main(["--out", out, "simulate", "--n-min", "2", "--n-max", "3",
                 "--layout", "chain", "--shots", "50"]) == 0
    assert main(["--out", out, "analyze", "--n-min", "2", "--n-max", "3",
                 "--layout", "chain", "--shots", "50"]) == 0
    # config error: bad dd name
    assert main(["--out", out, "simulate", "--dd", "nope"]) == 2
    # config error: chain layout sized to n_max+1 cannot host n_max+2
    cfg = tmp_path / "c.config"
    cfg.write_text(config_to_text(ExperimentConfig(
        n_min=2, n_max=9, layout="file:" + _chain_file(tmp_path), shots=10)))
    assert main(["--config", str(cfg), "--out", out + "2", "simulate"]) == 2
    # infeasible: enough usable nodes but disconnected over required ones
    assert main(["--out", out + "i", "simulate", "--n-min", "4", "--n-max",
                 "4", "--layout", "file:" + _split_file(tmp_path),
                 "--shots", "10"]) == 3
    # backend cap: ZZ crosstalk joins all 22 wires of BV-21 into one factor,
    # wider than the trajectory cap
    assert main(["--out", out + "3", "simulate", "--n-min", "21", "--n-max",
                 "21", "--layout", "chain", "--shots", "10", "--collection",
                 "direct", "--profile", _xtalk_profile(tmp_path)]) == 4


def test_simulate_compiles_and_routes_each_oracle_once(tmp_path, monkeypatch):
    # The job loop runs the programs the preflight compiled, and the duration
    # table reads every size off the jobs the preflight routed: under the
    # reduced setup, job (n_max, k) routes the (k, k) circuit.  Every
    # compile is counted, through the simulator module or a by-name import.
    cfg = ExperimentConfig(n_min=3, n_max=5, dd="ur14", collection="reduced", shots=16)
    cmd_simulate(cfg, tmp_path / "plain")
    calls = {"compile_program": 0, "route_bv": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    compile_program = counted(simulator.compile_program)
    monkeypatch.setattr(simulator, "compile_program", compile_program)
    monkeypatch.setattr(experiment, "compile_program", compile_program, raising=False)
    monkeypatch.setattr(experiment, "route_bv", counted(experiment.route_bv))
    cmd_simulate(cfg, tmp_path / "counted")
    assert calls["compile_program"] == len(representative_oracles(cfg.n_max))
    # The 6 oracles of n = 5, and no full-weight oracle of n = 3 or 4.
    assert calls["route_bv"] == len(representative_oracles(cfg.n_max))
    plain, counted_dir = tmp_path / "plain" / "counts", tmp_path / "counted" / "counts"
    names = sorted(os.listdir(plain))
    assert names == sorted(os.listdir(counted_dir)) and names
    for name in names:
        assert (plain / name).read_bytes() == (counted_dir / name).read_bytes()


def test_reduced_setup_reads_durations_off_the_routed_jobs(tmp_path, monkeypatch):
    # On the README grid (n 3-10, reduced, UR14) job (10, m) routes exactly
    # the (m, m) circuit, so simulate routes each of its 11 jobs once and
    # its duration lines are those of the full-weight circuits routed one
    # by one.
    cfg = ExperimentConfig(n_min=3, n_max=10, dd="ur14", collection="reduced", shots=16)
    graph, device, _, sequence, pulse = experiment._resolve(cfg)
    for m in range(cfg.n_min, cfg.n_max + 1):
        assert (experiment._routed_for(cfg, OracleSpec.representative(10, m), graph,
                                       device, sequence, pulse)[1]
                == experiment._routed_for(cfg, OracleSpec.representative(m, m), graph,
                                          device, sequence, pulse)[1])
    routes = []
    route_bv = experiment.route_bv
    monkeypatch.setattr(experiment, "route_bv",
                        lambda spec, *args, **kw: routes.append(spec) or route_bv(spec, *args, **kw))
    manifest = cmd_simulate(cfg, tmp_path / "run")
    assert routes == representative_oracles(10)
    durations = experiment._duration_table(cfg, graph, device, sequence, pulse, {})
    assert [(e["n"], e["seconds"]) for e in read_manifest(manifest)
            if e["kind"] == "duration"] == [(str(n), repr(t)) for n, t in durations.items()]


def test_bare_analyze_reads_the_run_config_and_refuses_another(tmp_path, capsys):
    # Without --config, analyze starts from the run's config.used (flags
    # still override it); a flag that changes a field simulate used is a
    # config error naming the field, while an analysis-only field may change.
    out = str(tmp_path / "r")
    assert main(["--out", out, "analyze"]) == 2
    assert "no manifest at" in capsys.readouterr().err
    assert main(["--out", out, "simulate", "--n-min", "3", "--n-max", "5", "--dd", "ur14",
                 "--collection", "reduced", "--shots", "100", "--seed", "7"]) == 0
    assert main(["--out", out, "analyze"]) == 0
    report = (tmp_path / "r" / "report.txt").read_text()
    for line in ("n_max 5", "dd ur14", "collection reduced", "shots 100", "master_seed 7"):
        assert f"\n{line}\n" in report
    capsys.readouterr()
    assert main(["--out", out, "analyze", "--shots", "2000"]) == 2
    assert capsys.readouterr().err == ("config error: shots 2000 differs from the run's "
                                       "shots 100 in its config.used\n")
    config = tmp_path / "fit.cfg"
    config.write_text("n_max 5\ndd ur14\ncollection reduced\nshots 100\n"
                      "master_seed 7\nn_min_fit 4\n")
    assert main(["--out", out, "--config", str(config), "analyze"]) == 0
    assert main(["--out", out, "--config", str(config), "--seed", "1", "analyze"]) == 2
    assert "master_seed 1 differs" in capsys.readouterr().err


def test_cap_preflight_writes_nothing(tmp_path):
    out = tmp_path / "cap"
    assert main(["simulate", "--n-min", "20", "--n-max", "21", "--layout",
                 "chain", "--shots", "10", "--collection", "direct",
                 "--profile", _xtalk_profile(tmp_path), "--out", str(out)]) == 4
    assert not out.exists()


def _xtalk_profile(tmp_path) -> str:
    """Montreal with ZZ crosstalk on every idle coupled pair."""
    profile = load_profile("montreal")
    path = tmp_path / "xtalk.profile"
    path.write_text(profile_to_text(Profile(dict(profile.values, zz_rate=1e5))))
    return str(path)


def test_reduced_collection_refused_under_crosstalk(tmp_path):
    # Tracing data qubits out is exact only under factorized noise.
    profile = load_profile("montreal")
    values = dict(profile.values, zz_rate=1e5)
    path = tmp_path / "xtalk.profile"
    path.write_text(profile_to_text(Profile(values)))
    out = tmp_path / "run"
    argv = ["--out", str(out), "simulate", "--n-min", "2", "--n-max", "3",
            "--layout", "chain", "--shots", "10", "--profile", str(path)]
    assert main(argv + ["--collection", "reduced"]) == 2
    assert not out.exists()
    assert main(argv + ["--collection", "direct"]) == 0


def test_global_flags_parse_after_subcommand():
    parser = _build_parser()
    args = parser.parse_args(
        "--out run1 simulate --n-min 3 --n-max 10 --profile montreal "
        "--dd ur14 --collection reduced --shots 2000 --seed 7".split())
    assert (args.seed, args.out, args.config) == (7, "run1", None)
    args = parser.parse_args(["--seed", "3", "--out", "a", "analyze",
                              "--config", "c.config", "--out", "b"])
    assert (args.seed, args.out, args.config) == (3, "b", "c.config")


def _chain_file(tmp_path) -> str:
    from ssbv.routing import chain_graph, save_graph
    path = str(tmp_path / "chain5.graph")
    save_graph(chain_graph(5), path)
    return path


def _split_file(tmp_path) -> str:
    from ssbv.routing import CouplingGraph, save_graph
    graph = CouplingGraph(6, frozenset({(0, 1), (1, 2), (3, 4), (4, 5)}))
    path = str(tmp_path / "split.graph")
    save_graph(graph, path)
    return path


def test_plot_data_files_have_header_and_rows(tmp_path):
    cfg = ExperimentConfig(**FAST)
    cmd_simulate(cfg, tmp_path)
    result = cmd_analyze(cfg, tmp_path)
    pdir = tmp_path / "plotdata"
    for name in ("tts_quantum.dat", "tts_classical.dat"):
        lines = (pdir / name).read_text().splitlines()
        assert len(lines[0].split()) >= 2  # header row
        finite = [p for p in result.points if p.finite]
        if name == "tts_quantum.dat":
            assert len(lines) == 1 + len(finite)


def test_manifest_checksums_catch_tampering(tmp_path):
    cfg = ExperimentConfig(**FAST)
    manifest = cmd_simulate(cfg, tmp_path)
    assert verify_manifest(manifest) == []
    victim = next(e["file"] for e in read_manifest(manifest)
                  if e["kind"] == "counts")
    path = os.path.join(tmp_path, victim)
    table = load_counts(path)
    tampered = ShotTable(table.oracle, dict(table.counts), table.total_shots)
    first = next(iter(tampered.counts))
    tampered.counts[first] += 0  # rewrite the file with reordered keys
    with open(path, "a") as fh:
        fh.write("# tampered\n")
    assert verify_manifest(manifest) == [f"checksum mismatch for {victim}"]
    os.remove(path)
    assert verify_manifest(manifest) == [f"missing file {victim}"]


def test_analyze_with_no_finite_size_leaves_the_speedup_undefined(tmp_path):
    # every shot of every oracle reads the complement of b
    src = tmp_path / "src"
    src.mkdir()
    for spec in representative_oracles(2) + representative_oracles(3):
        b = spec.b.to01()
        save_counts(ShotTable(spec, {b.translate(str.maketrans("01", "10")): 50}, 50),
                    src / f"{b}.counts")
    cmd_ingest([str(src)], tmp_path / "run")
    result = cmd_analyze(ExperimentConfig(n_min=2, n_max=3, layout="chain"),
                         tmp_path / "run")
    assert all(p.terminated for p in result.points)
    assert result.fit is None
    assert "\n[speedup]\nundefined\n" in result.report_text
    assert not (tmp_path / "run" / "plotdata" / "speedup.dat").exists()


def _garbage_counts(tmp_path):
    out = tmp_path / "run"
    cmd_simulate(ExperimentConfig(n_min=2, n_max=3, layout="chain", shots=10), out)
    victim = sorted((out / "counts").iterdir())[0]
    victim.write_text("garbage\n")
    return ["--out", str(out), "analyze", "--n-min", "2", "--n-max", "3",
            "--layout", "chain"], victim.name


def _missing_profile(tmp_path):
    out = tmp_path / "run"
    cmd_simulate(ExperimentConfig(n_min=2, n_max=3, layout="chain", shots=10), out)
    return ["--out", str(out), "analyze", "--n-min", "2", "--n-max", "3",
            "--layout", "chain", "--profile", str(tmp_path / "gone.profile")], \
        "gone.profile"


def _ingest_without_oracle(tmp_path):
    path = tmp_path / "no-oracle.counts"
    path.write_text("total_shots 10\nrecords 1\n110 10\n")
    return ["--out", str(tmp_path / "run"), "ingest", str(path)], path.name


def _layout(tmp_path, text):
    argv = ["--out", str(tmp_path / "run"), "simulate", "--n-min", "2",
            "--n-max", "3", "--shots", "10", "--layout"]
    if text is None:
        return argv + ["file:" + str(tmp_path / "gone.graph")], "gone.graph"
    path = tmp_path / "cut.graph"
    path.write_text(text)
    return argv + ["file:" + str(path)], path.name


def _manifest_line(tmp_path, line):
    out = tmp_path / "run"
    cmd_simulate(ExperimentConfig(n_min=2, n_max=3, layout="chain", shots=10), out)
    with open(out / "manifest.txt", "a") as fh:
        fh.write(line + "\n")
    return ["--out", str(out), "analyze", "--n-min", "2", "--n-max", "3",
            "--layout", "chain"], "manifest.txt"


@pytest.mark.parametrize("case", [
    _ingest_without_oracle,
    _garbage_counts,
    _missing_profile,
    lambda tmp_path: _layout(tmp_path, None),
    lambda tmp_path: _layout(tmp_path, "# ssbv graph v1\nnum_physical 5\n"),
    lambda tmp_path: _manifest_line(tmp_path, "counts sha256=00"),
    lambda tmp_path: _manifest_line(tmp_path, "duration n=two seconds=1"),
], ids=["ingest-no-oracle", "analyze-garbage-counts", "analyze-missing-profile",
        "simulate-missing-layout", "simulate-cut-layout",
        "analyze-counts-entry-without-file", "analyze-bad-duration-entry"])
def test_unreadable_inputs_exit_2_naming_the_file(tmp_path, capsys, case):
    argv, name = case(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and name in err
    assert "Traceback" not in err


def test_all_oracles_above_the_cap_exit_2_before_any_work(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["--out", str(out), "simulate", "--oracles", "all",
                 "--n-min", "13", "--n-max", "13"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "n_max=13" in err
    assert not out.exists()


def test_n_max_above_the_data_index_exits_2_before_any_work(tmp_path, capsys):
    # 63 data bits do not fit a data index; the chain routes them, so only
    # the config check stops the run before it writes anything
    out = tmp_path / "run"
    assert main(["--out", str(out), "simulate", "--layout", "chain",
                 "--n-min", "62", "--n-max", "63", "--profile", "noiseless",
                 "--shots", "10"]) == 2
    err = capsys.readouterr().err
    assert err == ("config error: n_max=63 exceeds 62, the most data bits one "
                   "data index holds\n")
    assert not out.exists()


def test_negative_dd_pulse_duration_exits_2_before_any_work(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["--out", str(out), "simulate", "--n-min", "3", "--n-max", "4",
                 "--dd", "ur4", "--dd-pulse-duration", "-5"]) == 2
    err = capsys.readouterr().err
    assert err == ("config error: dd_pulse_duration_dt must be nonnegative "
                   "(0 takes the device's DD pulse duration)\n")
    assert not out.exists()


@pytest.mark.parametrize("seed", ["18446744073709551616", "-1"])
def test_seed_outside_64_bits_exits_2_before_any_work(tmp_path, capsys, seed):
    out = tmp_path / "run"
    assert main(["--out", str(out), "--seed", seed, "simulate", "--n-min", "3",
                 "--n-max", "4", "--shots", "10"]) == 2
    assert capsys.readouterr().err == (f"config error: master_seed {seed} "
                                       "outside [0, 2**64)\n")
    assert not out.exists()


@pytest.mark.parametrize("dd", ["ur:14", "urx"])
def test_bad_dd_value_exits_2_naming_itself(tmp_path, capsys, dd):
    out = tmp_path / "run"
    assert main(["--out", str(out), "simulate", "--n-min", "3", "--n-max", "4",
                 "--shots", "10", "--dd", dd]) == 2
    assert capsys.readouterr().err == f"config error: unknown DD sequence {dd!r}\n"
    assert not out.exists()


def test_plot_data_is_not_a_subcommand(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path / "run"), "plot-data", "--n-min", "3"])
    assert exc.value.code == 2
    assert "invalid choice: 'plot-data'" in capsys.readouterr().err


def test_all_oracles_runs_every_subcommand_end_to_end(tmp_path, capsys):
    # 2^3 + 2^4 = 24 oracles, each routed, simulated and ingested
    grid = ["--n-min", "3", "--n-max", "4", "--oracles", "all", "--shots", "50"]
    gen, run, ing = (str(tmp_path / name) for name in ("gen", "run", "ing"))
    for argv, line in (
            (["--out", gen, "generate", *grid], "circuits written; manifest at "),
            (["--out", run, "simulate", *grid], "tables written; manifest at "),
            (["--out", run, "analyze", *grid], "# ssbv analysis report v1\n"),
            (["--out", ing, "ingest", os.path.join(run, "counts")],
             "ingested; manifest at ")):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith(line)
    assert len(os.listdir(os.path.join(gen, "circuits"))) == 24
    assert len(os.listdir(os.path.join(run, "counts"))) == 24
    assert os.listdir(os.path.join(run, "plotdata"))
    assert len(os.listdir(os.path.join(ing, "counts"))) == 24
    assert verify_manifest(os.path.join(ing, "manifest.txt")) == []


@pytest.mark.parametrize("blacklist", ["a", "99"])
def test_bad_blacklist_exits_2(tmp_path, capsys, blacklist):
    assert main(["--out", str(tmp_path / "run"), "simulate", "--n-min", "2",
                 "--n-max", "3", "--layout", "chain", "--blacklist", blacklist]) == 2
    assert f"blacklist {blacklist!r}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("field", ["p_d 1.5", "bootstrap_b 1"])
@pytest.mark.parametrize("command", ["simulate", "analyze"])
def test_invalid_analysis_fields_exit_2_before_any_work(tmp_path, capsys, command,
                                                        field):
    out = tmp_path / "run"
    grid = ["--n-min", "2", "--n-max", "3", "--layout", "chain", "--shots", "10"]
    if command == "analyze":
        assert main(["--out", str(out), "simulate", *grid]) == 0

    def listing():
        return sorted(p.name for p in out.rglob("*")) if out.exists() else None

    before = listing()
    config = tmp_path / "bad.cfg"
    config.write_text(field + "\n")
    capsys.readouterr()
    assert main(["--out", str(out), "--config", str(config), command, *grid]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and field.split()[0] in err
    assert "Traceback" not in err
    assert listing() == before


# report.txt digests of two README-style runs, so that a change to the
# analysis must leave reports byte-identical; the second run holds a
# 0-success table and 1-success tables, so its bootstrap draws zeros.
GOLDEN_REPORTS = [
    (["--n-min", "3", "--n-max", "6", "--profile", "montreal", "--layout",
      "heavy-hex-27", "--dd", "ur14", "--collection", "reduced", "--shots", "160",
      "--seed", "7"],
     "6253787138080860de0f863830b28ac3df45f6669df2b73518c08f9e8f37d2bf"),
    (["--n-min", "3", "--n-max", "12", "--dd", "none", "--collection", "reduced",
      "--shots", "20", "--seed", "5"],
     "331cbea39ee7733d3fcbedad86743481269d0a678416f044fa1fc4095410c00b"),
]


@pytest.mark.parametrize("flags,digest", GOLDEN_REPORTS, ids=["n3-6", "zero-draws"])
def test_golden_reports(tmp_path, capsys, flags, digest):
    out = str(tmp_path / "run")
    assert main(["--out", out, "simulate", *flags]) == 0
    assert main(["--out", out, "analyze", *flags]) == 0
    with open(os.path.join(out, "report.txt"), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == digest
