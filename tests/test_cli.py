import copy
import dataclasses
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dualcat import cli
from dualcat.cli import (
    EXIT_CONFIG,
    ConfigError,
    RunConfig,
    main,
    parse_grid,
    resolve_config,
    run,
)


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def load_result(path):
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# grids and configuration


def test_parse_grid_inclusive_range():
    assert parse_grid("0.5:2.0:0.5") == [0.5, 1.0, 1.5, 2.0]


def test_parse_grid_comma_list():
    assert parse_grid("0.8,1.2") == [0.8, 1.2]


def test_parse_grid_rejects_nonsense():
    with pytest.raises(ConfigError):
        parse_grid("1.0:0.5:0.1")
    with pytest.raises(ConfigError):
        parse_grid("")
    for spec in (",", ",,", " , "):
        with pytest.raises(ConfigError, match="holds no value"):
            parse_grid(spec)


def test_a_blank_optional_grid_means_no_sweep():
    cfg = resolve_config("sv-generate", {}, {"t_grid": ""}, 1e-12, 1, None)
    assert cli.EXPERIMENTS["sv-generate"].params["t_grid"].points(cfg.parameters["t_grid"]) == []


def test_resolve_config_fills_defaults():
    cfg = resolve_config("ifm", {}, {}, 1e-12, 1, None)
    assert cfg.parameters["state"] == "entangled"
    assert cfg.parameters["bomb"] is False


def test_resolve_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        resolve_config("ifm", {"bombast": True}, {}, 1e-12, 1, None)


def test_flags_override_config_file(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"state": "single-photon", "bomb": True}))
    out_file = tmp_path / "result.json"
    code, _, _ = run_main(["--config", str(cfg_file), "--output", str(out_file),
                           "ifm", "--state", "entangled"], capsys)
    assert code == 0
    payload = load_result(out_file)
    assert payload["config"]["parameters"]["state"] == "entangled"
    assert payload["config"]["parameters"]["bomb"] is True


def test_unknown_config_key_exits_with_config_code(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"alpha": 1.0, "mystery": 2}))
    code, _, err = run_main(["--config", str(cfg_file), "generate"], capsys)
    assert code == EXIT_CONFIG
    assert "mystery" in err


# ---------------------------------------------------------------------------
# experiments end to end


def test_ifm_run_reports_eta(tmp_path, capsys):
    out_file = tmp_path / "ifm.json"
    code, _, _ = run_main(["--output", str(out_file),
                           "ifm", "--state", "entangled", "--bomb"], capsys)
    assert code == 0
    scalars = load_result(out_file)["result"]["scalars"]
    assert scalars["eta"] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert scalars["explode"] == pytest.approx(0.5, abs=1e-9)


def test_duality_run_reports_matching_entropies(tmp_path, capsys):
    out_file = tmp_path / "duality.json"
    code, _, _ = run_main(["--output", str(out_file), "duality",
                           "--alpha", "1.2"], capsys)
    assert code == 0
    scalars = load_result(out_file)["result"]["scalars"]
    assert scalars["entropy_HV"] == pytest.approx(1.0, abs=1e-6)
    assert scalars["entropy_paths"] == pytest.approx(scalars["entropy_HV"], abs=1e-6)
    assert scalars["entropy_polarization"] == pytest.approx(scalars["entropy_HV"], abs=1e-6)
    assert scalars["bell_fidelity"] >= 1.0 - 1e-6


@pytest.mark.parametrize("argv, odd", [
    (["generate", "--alpha", "{}"], ()),
    (["duality", "--alpha", "{}"], ()),
    (["bell", "--alpha-grid", "{}", "--grid-density", "5", "--refine-iters", "20"], ("alpha",)),
    (["fisher", "--alpha-grid", "{}"], ("alpha",)),
    (["imperfection-sweep", "--alpha", "{}", "--b-offsets", "0.0,0.3"], ()),
])
def test_a_negative_amplitude_reads_as_its_magnitude(tmp_path, capsys, argv, odd):
    """Every experiment that takes an amplitude gives at -alpha the exit
    code and every scalar of +alpha: the states depend on |alpha| up to a
    sign or a displacement direction that no reported number sees, so the
    cutoff rules and the analytic targets must read |alpha| too.  The table
    columns in ``odd`` echo alpha and are odd in it.  Every column, the
    finite-difference ``qfi_decay_oracle`` too, is held to 1e-12: that
    column sums its overlap loss from positive terms, so its round-off does
    not grow by the 8/d² of the difference."""
    results = []
    for alpha in ("-1.0", "1.0"):
        out_file = tmp_path / f"run{alpha}.json"
        code, _, _ = run_main(["--output", str(out_file)] + [a.format(alpha) for a in argv],
                              capsys)
        assert code == 0, alpha
        results.append(load_result(out_file)["result"])
    minus, plus = results
    assert minus["scalars"].keys() == plus["scalars"].keys()
    for key, value in plus["scalars"].items():
        assert minus["scalars"][key] == pytest.approx(value, abs=1e-12), key
    for key, value in plus["convergence"].items():
        assert minus["convergence"][key] == pytest.approx(value, rel=1e-9, abs=1e-30), key
    for name, table in plus["tables"].items():
        for row, other in zip(table["rows"], minus["tables"][name]["rows"], strict=True):
            for column, value, got in zip(table["columns"], row, other, strict=True):
                sign = -1.0 if column in odd else 1.0
                assert got == pytest.approx(sign * value, abs=1e-12), (name, column)


def test_bell_defaults_find_the_global_optimum_at_large_alpha(tmp_path, capsys):
    # the default grid must seed the global |B| basin at alpha 2.5 and 3.0,
    # where a 13-point grid over radius 1 settled on 2.617 and 2.678
    import oracles

    out_file = tmp_path / "bell.json"
    code, _, _ = run_main(["--output", str(out_file), "bell", "--alpha-grid", "2.5,3.0"],
                          capsys)
    assert code == 0
    table = load_result(out_file)["result"]["tables"]["bell"]
    chsh_col = table["columns"].index("chsh")
    for row in table["rows"]:
        want = oracles.zoom_grid_chsh(oracles.cat_pair_correlator(row[0]), 1.0)
        assert abs(row[chsh_col] - want) <= 1e-3


def test_bell_grid_follows_the_fringes_at_large_alpha(tmp_path, capsys):
    # 25 points over radius 1 gave 2.643531, 2.680331 and 2.609157 here: the
    # optimal settings fell inside one grid step of the fringe pattern
    import oracles

    out_file = tmp_path / "bell.json"
    code, _, _ = run_main(["--output", str(out_file), "bell", "--alpha-grid", "4.0,4.5,5.0"],
                          capsys)
    assert code == 0
    table = load_result(out_file)["result"]["tables"]["bell"]
    chsh_col = table["columns"].index("chsh")
    for row in table["rows"]:
        want = oracles.zoom_grid_chsh(oracles.cat_pair_correlator(row[0]), 1.0)
        assert abs(row[chsh_col] - want) <= 1e-3


SCIPY_BLOCKED_RUN = """
import sys
sys.modules["scipy"] = None  # any import of scipy now fails
from dualcat import cli
runs = [["generate"], ["sv-access"], ["fisher"],
        ["imperfection-sweep", "--b-offsets", "0.0,0.3"],
        ["bell", "--alpha-grid", "1.0", "--grid-density", "9"],
        ["bell", "--alpha-grid", "1.0", "--grid-density", "9", "--axis", "complex"]]
for i, argv in enumerate(runs):
    code = cli.main(["--output", f"{sys.argv[1]}/run{i}.json"] + argv)
    assert code == 0, (argv, code)
loaded = [m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod is not None]
assert not loaded, loaded
"""


def test_experiments_run_with_scipy_blocked(tmp_path):
    # the engine runs on numpy alone; scipy is a test-only dependency
    import subprocess
    import sys

    proc = subprocess.run([sys.executable, "-c", SCIPY_BLOCKED_RUN, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_bell_run_emits_increasing_table(tmp_path, capsys):
    out_file = tmp_path / "bell.json"
    code, _, _ = run_main(["--output", str(out_file), "bell",
                           "--alpha-grid", "1.2,1.6", "--grid-density", "9"], capsys)
    assert code == 0
    payload = load_result(out_file)
    table = payload["result"]["tables"]["bell"]
    chsh_col = table["columns"].index("chsh")
    values = [row[chsh_col] for row in table["rows"]]
    assert values[0] < values[1] <= 2.0 * math.sqrt(2.0) + 1e-3
    # CSV side table present and parseable
    csv_file = tmp_path / "bell.bell.csv"
    header = csv_file.read_text().splitlines()[0]
    assert header.split(",")[:2] == ["alpha", "chsh"]


def test_sv_runs(tmp_path, capsys):
    out_file = tmp_path / "svg.json"
    code, _, _ = run_main(["--output", str(out_file), "sv-generate",
                           "--r", "0.8"], capsys)
    assert code == 0
    scalars = load_result(out_file)["result"]["scalars"]
    assert scalars["fidelity_analytic"] >= 1.0 - 1e-9
    assert scalars["entropy_bits"] == pytest.approx(1.0, abs=1e-9)

    out_file2 = tmp_path / "sva.json"
    code, _, _ = run_main(["--output", str(out_file2), "sv-access",
                           "--r", "0.7"], capsys)
    assert code == 0
    scalars = load_result(out_file2)["result"]["scalars"]
    assert scalars["conditional_fidelity"] >= 1.0 - 1e-6
    assert scalars["postselect_probability"] == pytest.approx(0.5, abs=1e-9)


def test_sv_generate_reports_the_tail_of_its_squeezed_pair(tmp_path, capsys):
    # the two squeezed vacua each miss up to 1e-6 of their mass, and the
    # product carries that into the reported deficit, which flags the run
    out_file = tmp_path / "svg.json"
    code, _, _ = run_main(["--output", str(out_file), "--cutoff-epsilon", "1e-6",
                           "sv-generate"], capsys)
    doc = load_result(out_file)
    assert code == cli.EXIT_NONCONVERGED and doc["converged"] is False
    assert doc["result"]["convergence"]["norm_deficit"] > 0.0


def test_sv_access_target_follows_the_run_epsilon(tmp_path, capsys):
    # the analytic target is built on the run's register, so it must take
    # the run's tail rule, not the 1e-12 one, which needs a larger cutoff
    out_file = tmp_path / "sva.json"
    code, _, err = run_main(["--output", str(out_file), "--cutoff-epsilon", "1e-11",
                             "sv-access"], capsys)
    assert code == 0, err
    assert load_result(out_file)["result"]["scalars"]["conditional_fidelity"] >= 1.0 - 1e-9


def test_fisher_run(tmp_path, capsys):
    out_file = tmp_path / "fisher.json"
    code, _, _ = run_main(["--output", str(out_file), "fisher",
                           "--alpha-grid", "1.0,1.5"], capsys)
    assert code == 0
    table = load_result(out_file)["result"]["tables"]["fisher"]
    qfi = table["columns"].index("qfi")
    shot = table["columns"].index("shot_noise")
    for row in table["rows"]:
        assert row[qfi] > row[shot]


def test_zero_flip_sweep_is_flagged_non_converged(tmp_path, capsys):
    # at flip 0 the conditioned output is normalized rounding dust
    out_file = tmp_path / "sweep.json"
    code, _, err = run_main(["--output", str(out_file), "imperfection-sweep",
                             "--flip-angles", "0,3.141592653589793"], capsys)
    assert code == cli.EXIT_NONCONVERGED == 5
    assert "non-converged" in err
    assert load_result(out_file)["converged"] is False


#: (argv, circuit, the call whose state gets a deficit of 1e-6): a --t-grid
#: row beside a single result, a row of a summary sweep, and a single result
HIDDEN_DEFICITS = [
    (["sv-generate", "--t-grid", "0.2,0.5"], "sv_generate", lambda r, t, eps: t == 0.2),
    (["fisher"], "noon_from_cat_pair", lambda alpha, eps: alpha == 2.0),
    (["generate"], "generate_entangled_cat", lambda alpha, sign, eps: True),
]


@pytest.mark.parametrize("argv, circuit, hit", HIDDEN_DEFICITS,
                         ids=[args[0] for args, _, _ in HIDDEN_DEFICITS])
def test_every_state_of_a_run_reaches_the_converged_flag(tmp_path, capsys, monkeypatch,
                                                         argv, circuit, hit):
    from dualcat import circuits

    build = getattr(circuits, circuit)

    def lossy(*args):
        out = build(*args)
        if not hit(*args):
            return out
        report = out if isinstance(out, circuits.CircuitReport) else None
        state = copy.copy(report.output_state if report else out)
        state.norm_deficit = 1e-6
        return dataclasses.replace(report, output_state=state) if report else state

    monkeypatch.setattr(circuits, circuit, lossy)
    out_file = tmp_path / "out.json"
    code, _, err = run_main(["--output", str(out_file)] + argv, capsys)
    assert code == cli.EXIT_NONCONVERGED
    assert "non-converged" in err
    result = load_result(out_file)
    assert result["converged"] is False
    assert result["result"]["convergence"]["norm_deficit"] == 1e-6


def test_imperfection_sweep_is_monotone(tmp_path, capsys):
    out_file = tmp_path / "imp.json"
    code, _, _ = run_main(["--output", str(out_file), "imperfection-sweep",
                           "--alpha", "1.0", "--b-offsets", "0.0,0.3"], capsys)
    assert code == 0
    table = load_result(out_file)["result"]["tables"]["imperfection"]
    neg = table["columns"].index("negativity")
    values = [row[neg] for row in table["rows"]]
    assert values[0] > values[1]


def test_empty_grid_is_a_config_error(capsys):
    code, _, err = run_main(["bell", "--alpha-grid", " "], capsys)
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("experiment", sorted(cli.EXPERIMENTS))
def test_reruns_are_byte_identical_except_timestamp(tmp_path, capsys, experiment):
    runs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        code, _, _ = run_main(["--output", str(tmp_path / name / "out.json"), experiment], capsys)
        assert code == 0
        result = load_result(tmp_path / name / "out.json")
        result.pop("timestamp")
        tables = {f.name: f.read_bytes() for f in (tmp_path / name).glob("*.csv")}
        assert {f.name for f in (tmp_path / name).iterdir()} == {"out.json", *tables}
        runs.append((json.dumps(result, sort_keys=True), tables))
    assert runs[0] == runs[1]


def test_output_records_versions_and_blas_threads(capsys, monkeypatch):
    import platform

    import numpy as np

    from dualcat.blas import openblas

    code, out, _ = run_main(["ifm"], capsys)
    assert code == 0
    prov = json.loads(out)["provenance"]
    assert (prov["python"], prov["numpy"]) == (platform.python_version(), np.__version__)
    if openblas() is not None:
        assert prov["openblas"]["library"] == openblas().library
        assert prov["engine_blas_threads"] == 1
    monkeypatch.setattr(cli, "openblas", lambda: None)
    code, out, _ = run_main(["ifm"], capsys)
    prov = json.loads(out)["provenance"]
    assert prov["openblas"] is None and prov["engine_blas_threads"] is None


def test_stdout_mode_prints_json(capsys):
    code, out, _ = run_main(["ifm", "--state", "single-photon", "--bomb"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == cli.SCHEMA_VERSION
    assert payload["result"]["scalars"]["eta"] == pytest.approx(0.5, abs=1e-9)


def test_run_config_api_round_trip():
    cfg = resolve_config("ifm", {}, {}, 1e-12, 1, None)
    result = run(cfg)
    assert "eta" in result.scalars
    assert run(RunConfig("ifm", dict(cfg.parameters))).scalars == result.scalars


def test_run_api_sweeps_a_grid_and_refuses_an_empty_one():
    cfg = resolve_config("bell", {"alpha_grid": "0.8,1.0"},
                         {"grid_density": 5, "refine_iters": 50}, 1e-12, 1, None)
    result = run(cfg)
    assert [row[0] for row in result.tables["bell"].rows] == [0.8, 1.0]

    with pytest.raises(ConfigError):
        resolve_config("bell", {"alpha_grid": " "}, {}, 1e-12, 1, None)


def test_cutoff_violation_exits_with_cutoff_code(capsys):
    # a search radius far beyond the register's headroom trips the guard
    code, _, err = run_main(["bell", "--alpha-grid", "0.8", "--radius", "9"],
                            capsys)
    assert code == cli.EXIT_CUTOFF
    assert "cutoff" in err.lower()


def test_parallel_sweep_matches_serial(tmp_path, capsys):
    serial = tmp_path / "s.json"
    parallel = tmp_path / "p.json"
    args = ["fisher", "--alpha-grid", "1.0,1.4"]
    code, _, _ = run_main(["--output", str(serial)] + args, capsys)
    assert code == 0
    code, _, _ = run_main(["--output", str(parallel), "--jobs", "2"] + args, capsys)
    assert code == 0
    rows_s = load_result(serial)["result"]["tables"]["fisher"]["rows"]
    rows_p = load_result(parallel)["result"]["tables"]["fisher"]["rows"]
    assert rows_s == rows_p


def test_cutoff_epsilon_flag_shrinks_registers(tmp_path, capsys):
    # a loose tail budget shrinks the registers but trips the convergence
    # flag (norm deficit above 1e-9 -> nonzero exit); a tight one converges
    loose = tmp_path / "loose.json"
    tight = tmp_path / "tight.json"
    code, _, err = run_main(["--output", str(loose), "--cutoff-epsilon", "1e-6",
                             "generate", "--alpha", "1.0"], capsys)
    assert code == cli.EXIT_NONCONVERGED
    assert "non-converged" in err
    code, _, _ = run_main(["--output", str(tight), "--cutoff-epsilon", "1e-14",
                           "generate", "--alpha", "1.0"], capsys)
    assert code == 0
    cut_loose = max(load_result(loose)["result"]["convergence"]["cutoffs"].values())
    cut_tight = max(load_result(tight)["result"]["convergence"]["cutoffs"].values())
    assert cut_loose < cut_tight
    assert load_result(loose)["converged"] is False
    assert load_result(tight)["converged"] is True


@pytest.mark.parametrize("argv", [
    ["generate", "--alpha", "nan"],
    ["ifm", "--theta", "nan"],
    ["--cutoff-epsilon", "0", "ifm"],
    ["--cutoff-epsilon", "-1", "ifm"],
    ["--cutoff-epsilon", "1", "ifm"],
    ["sv-generate", "--r", "inf"],
    ["bell", "--alpha-grid", "0.5:inf:0.5"],
    ["fisher", "--alpha-grid", "1.0,nan"],
], ids=["alpha-nan", "theta-nan", "epsilon-0", "epsilon-neg", "epsilon-1", "r-inf",
        "grid-stop-inf", "grid-nan"])
def test_nonfinite_or_bad_epsilon_exits_with_config_code(tmp_path, capsys, argv):
    out_file = tmp_path / "o.json"
    code, _, err = run_main(["--output", str(out_file)] + argv, capsys)
    assert code == EXIT_CONFIG
    assert "config error" in err
    assert not out_file.exists()


@pytest.mark.parametrize("params", ['{"alpha": NaN}', '{"alpha": "1.2"}',
                                    '{"b_offsets": "0:Infinity:0.1"}'],
                         ids=["nan", "string", "grid-inf"])
def test_nonfinite_config_file_value_exits_with_config_code(tmp_path, capsys, params):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(params)
    out_file = tmp_path / "o.json"
    code, _, _ = run_main(["--config", str(cfg_file), "--output", str(out_file),
                           "imperfection-sweep"], capsys)
    assert code == EXIT_CONFIG
    assert not out_file.exists()


def test_nonfinite_result_is_never_written(tmp_path, capsys, monkeypatch):
    from dualcat.results import ExperimentResult

    monkeypatch.setattr(cli, "run", lambda config: ExperimentResult(
        scalars={"eta": math.nan}, convergence={"norm_deficit": 0.0}))
    out_file = tmp_path / "o.json"
    code, _, _ = run_main(["--output", str(out_file), "ifm"], capsys)
    assert code == cli.EXIT_NONCONVERGED
    assert not out_file.exists()


@pytest.mark.parametrize("target", ["directory", "under-a-file"])
def test_unwritable_output_exits_with_config_code(tmp_path, capsys, target):
    (tmp_path / "file").touch()
    out = tmp_path if target == "directory" else tmp_path / "file" / "x.json"
    code, _, err = run_main(["--output", str(out), "ifm"], capsys)
    assert code == EXIT_CONFIG
    assert f"config error: cannot write {out}: " in err and "Traceback" not in err


@pytest.mark.parametrize("target", ["directory", "under-a-file", "under-a-file-deeper"])
def test_unwritable_output_is_refused_before_the_run(tmp_path, capsys, monkeypatch, target):
    (tmp_path / "file").touch()
    out = {"directory": tmp_path, "under-a-file": tmp_path / "file" / "x.json",
           "under-a-file-deeper": tmp_path / "file" / "d" / "x.json"}[target]
    ran = []
    monkeypatch.setattr(cli, "run", lambda config: ran.append(config))
    code, _, err = run_main(["--output", str(out), "ifm"], capsys)
    assert code == EXIT_CONFIG and ran == []
    assert f"config error: cannot write {out}: " in err and "Traceback" not in err


def test_a_table_that_cannot_be_written_leaves_no_json(tmp_path, capsys):
    """A CSV path that is a directory fails the write: the run exits 2 and
    leaves neither its JSON nor a temporary file behind."""
    out = tmp_path / "d" / "r.json"
    (tmp_path / "d" / "r.schmidt_spectrum.csv").mkdir(parents=True)
    code, _, err = run_main(["--output", str(out), "generate"], capsys)
    assert code == EXIT_CONFIG
    assert f"config error: cannot write {out}: " in err and "Traceback" not in err
    assert sorted(p.name for p in out.parent.iterdir()) == ["r.schmidt_spectrum.csv"]


# ---------------------------------------------------------------------------
# one parser per process


def test_main_builds_its_parser_once(capsys, monkeypatch):
    built, init = [], cli.argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    assert run_main(["ifm"], capsys)[0] == 0
    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counted)
    for argv in (["ifm"], ["ifm", "--bomb"], ["--cutoff-epsilon", "1e-11", "generate"]):
        assert run_main(argv, capsys)[0] == 0
    assert built == []


FRESH_RUN = """
import sys
from dualcat import cli
assert cli.build_parser.cache_info().currsize == 0, "import built the parser"
sys.exit(cli.main(sys.argv[1:]))
"""


def _fresh_result(out_file, argv) -> dict:
    """The JSON that ``argv`` writes in a new interpreter, without its timestamp."""
    import subprocess
    import sys

    proc = subprocess.run([sys.executable, "-c", FRESH_RUN, "--output", str(out_file)] + argv,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = load_result(out_file)
    result.pop("timestamp")
    return result


@pytest.mark.parametrize("first, first_code, argv, check", [
    (["ifm", "--bomb"], 0, ["ifm"], lambda r: r["config"]["parameters"]["bomb"] is False),
    (["--cutoff-epsilon", "1e-11", "generate"], 0, ["generate"],
     lambda r: r["config"]["cutoff_epsilon"] == 1e-12),
    (["generate", "--alpha", "abc"], 2, ["generate"], lambda r: r["converged"]),
], ids=["bool-flag", "cutoff-epsilon", "refused-flag"])
def test_no_flag_carries_into_the_next_call(tmp_path, capsys, first, first_code, argv, check):
    try:
        code = main(first)
    except SystemExit as exc:  # argparse refuses a flag
        code = exc.code
    capsys.readouterr()
    assert code == first_code
    out_file = tmp_path / "shared.json"
    assert run_main(["--output", str(out_file)] + argv, capsys)[0] == 0
    result = load_result(out_file)
    result.pop("timestamp")
    assert check(result)
    assert result == _fresh_result(tmp_path / "fresh.json", argv)


# ---------------------------------------------------------------------------
# reported norm deficits, register budget, worker count


def _reported_deficit(tmp_path, capsys, argv):
    out_file = tmp_path / "run.json"
    code, _, _ = run_main(["--output", str(out_file)] + argv, capsys)
    assert code == 0
    return load_result(out_file)["result"]["convergence"]["norm_deficit"]


def test_bell_reports_the_largest_pair_deficit(tmp_path, capsys):
    from dualcat.fock import coherent_cutoff, mode, plain_register
    from dualcat.states import entangled_cat_pair

    got = _reported_deficit(tmp_path, capsys, ["bell", "--alpha-grid", "0.5,0.8",
                                               "--grid-density", "5", "--refine-iters", "20"])
    expected = max(entangled_cat_pair(plain_register([1, 2], coherent_cutoff(a + 1.3)),
                                      mode(1), mode(2), a).norm_deficit for a in (0.5, 0.8))
    assert got == expected > 0.0


def test_fisher_reports_the_largest_noon_deficit(tmp_path, capsys):
    from dualcat.circuits import noon_from_cat_pair

    got = _reported_deficit(tmp_path, capsys, ["fisher", "--alpha-grid", "1.0,1.5"])
    assert got == max(noon_from_cat_pair(a).norm_deficit for a in (1.0, 1.5)) > 0.0


def test_imperfection_sweep_reports_the_largest_output_deficit(tmp_path, capsys):
    from dualcat.circuits import access_polarization, generate_entangled_cat
    from dualcat.elements import Imperfection

    got = _reported_deficit(tmp_path, capsys, ["imperfection-sweep", "--alpha", "1.0",
                                               "--b-offsets", "0.0,0.3"])
    gen = generate_entangled_cat(1.0).output_state
    expected = max(access_polarization(gen, Imperfection(displacement_offset=o))
                   .output_state.norm_deficit for o in (0.0, 0.3))
    assert got == expected > 0.0


@pytest.mark.parametrize("state", ["entangled", "nonmaximal", "single-photon"])
def test_ifm_reports_the_deficit_its_states_carry(tmp_path, capsys, monkeypatch, state):
    # every basis state the bomb test builds starts 1e-6 short; the gates
    # carry that deficit to the reported one, which flags the run
    from dualcat import circuits
    from dualcat.fock import _wrap, basis_state

    def short_basis_state(register, occupations):
        exact = basis_state(register, occupations)
        return _wrap(register, exact.keys, exact.coeffs, 1e-6)

    monkeypatch.setattr(circuits, "basis_state", short_basis_state)
    out_file = tmp_path / "ifm.json"
    code, _, _ = run_main(["--output", str(out_file), "ifm", "--state", state], capsys)
    doc = load_result(out_file)
    assert code == cli.EXIT_NONCONVERGED and doc["converged"] is False
    assert doc["result"]["convergence"]["norm_deficit"] == pytest.approx(1e-6, rel=1e-12)


HUGE_INPUTS = [
    ["sv-access", "--r", "10"],
    ["sv-access", "--r", "30"],
    ["generate", "--alpha", "1e6"],
    ["bell", "--alpha-grid", "1e4"],
]


@pytest.mark.parametrize("argv", [
    ["sv-generate", "--r", "6"],
    ["sv-access", "--r", "6"],
    ["generate", "--alpha", "100"],
    ["duality", "--alpha", "80"],
    ["fisher", "--alpha-grid", "1.0,60"],
    ["imperfection-sweep", "--b-offsets", "0.0,90"],
] + HUGE_INPUTS)
def test_every_experiment_refuses_registers_beyond_the_budget(tmp_path, capsys, argv):
    # the guard runs before any state is built, so each case exits at once
    out_file = tmp_path / "out.json"
    code, _, err = run_main(["--output", str(out_file)] + argv, capsys)
    assert code == cli.EXIT_CUTOFF
    assert "cutoff" in err.lower()
    assert not out_file.exists()


def test_huge_inputs_are_refused_fast(tmp_path, capsys):
    # the cutoff rules must neither underflow nor loop toward cutoffs of 1e9 and more
    import time

    start = time.perf_counter()
    for argv in HUGE_INPUTS:
        code, _, err = run_main(["--output", str(tmp_path / "out.json")] + argv, capsys)
        assert code == cli.EXIT_CUTOFF
        assert "traceback" not in err.lower()
    assert time.perf_counter() - start < 2.0


def test_jobs_are_clamped_to_the_processor_count(monkeypatch):
    # to the processors the process may run on (a CPU set, taskset), which
    # can be fewer than the host has; to the host's count where the
    # platform gives no affinity set
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 2}, raising=False)
    for asked, granted in ((-2, 1), (0, 1), (1, 1), (2, 2), (3, 2), (10**6, 2)):
        assert resolve_config("fisher", {}, {}, 1e-12, asked, None).jobs == granted
    monkeypatch.delattr(cli.os, "sched_getaffinity")
    for asked, granted in ((-2, 1), (0, 1), (1, 1), (3, 3), (10**6, 3)):
        assert resolve_config("fisher", {}, {}, 1e-12, asked, None).jobs == granted


# ---------------------------------------------------------------------------
# typed parameters, cutoff rules owned by the circuits, fuzzing main()


BAD_VALUES = [
    (["bell", "--grid-density", "0"], {}),
    (["bell", "--grid-density", "1"], {}),
    (["sv-generate", "--transmittance", "1.5"], {}),
    (["sv-generate", "--transmittance", "-0.2"], {}),
    (["sv-generate", "--t-grid", "0.5,1.5"], {}),
    (["imperfection-sweep", "--flip-angles", "4"], {}),
    (["imperfection-sweep", "--flip-angles", "-0.5"], {}),
    (["bell", "--refine-iters", "-3"], {}),
    (["bell", "--radius", "-1"], {}),
    (["bell", "--radius", "0"], {}),
    (["bell"], {"axis": "bogus"}),
    (["ifm"], {"state": "bogus"}),
    (["generate"], {"parity": "bogus"}),
    (["generate"], {"sign": "x"}),
    (["ifm"], {"bomb": "no"}),
    (["bell"], {"grid_density": 2.5}),
    (["fisher"], {"alpha_grid": [1.0, 1.5]}),
    # comma lists that hold no value
    (["bell", "--alpha-grid", ","], {}),
    (["fisher", "--alpha-grid", ",,"], {}),
    (["imperfection-sweep", "--b-offsets", ","], {}),
    (["sv-generate", "--t-grid", ","], {}),
    # a 100000 x 100000 grid of setting pairs
    (["bell", "--grid-density", "100000"], {}),
]


@pytest.mark.parametrize("argv, params", BAD_VALUES,
                         ids=[" ".join(a) + (json.dumps(p) if p else "") for a, p in BAD_VALUES])
def test_bad_parameter_values_are_refused_before_the_run(tmp_path, capsys, monkeypatch,
                                                        argv, params):
    # resolve_config refuses each one, so no state is ever built
    monkeypatch.setattr(cli, "run", lambda config: pytest.fail("the run started"))
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(params))
    out_file = tmp_path / "o.json"
    code, _, err = run_main(["--config", str(cfg_file), "--output", str(out_file)] + argv, capsys)
    assert code == EXIT_CONFIG
    assert "config error" in err and "Traceback" not in err
    assert not out_file.exists()


@pytest.mark.parametrize("experiment, cutoff", [("generate", 21), ("duality", 27),
                                                ("sv-generate", 62), ("sv-access", 50)])
def test_the_budget_checks_the_cutoff_the_run_builds(experiment, cutoff):
    cfg = resolve_config(experiment, {}, {}, 1e-12, 1, None)
    assert cli.EXPERIMENTS[experiment].cutoff(cfg.parameters, 1e-12) == cutoff
    assert max(run(cfg).convergence["cutoffs"].values()) == cutoff


@pytest.mark.parametrize("eps", [1e-12, 1e-10])
def test_the_access_budget_reads_the_register_the_access_builds(monkeypatch, eps):
    """The budget builds the access register from the given |alpha|, the
    access from the amplitude it infers by bisection: the two must land on
    one register.  Where the ambiguous-light guard refuses the access (offset
    0 at 1e-10), the register it embedded into is compared."""
    from dualcat import circuits
    from dualcat.elements import Imperfection

    built = []
    embed = circuits.embed
    monkeypatch.setattr(circuits, "embed", lambda state, reg: built.append(reg) or embed(state, reg))
    for alpha in [sign * round(0.6 + 0.1 * k, 10) for k in range(19) for sign in (1, -1)]:
        gen = circuits.generate_entangled_cat(alpha, "-", eps).output_state
        for offset in (0.0, 0.3, -0.3, 0.6):
            imp = Imperfection(displacement_offset=offset)
            budget = circuits.access_register(circuits.generation_cutoff(alpha, eps),
                                              abs(alpha) / math.sqrt(2.0), imp, eps)
            try:
                out = circuits.access_polarization(gen, imp, eps).output_state
            except cli.ContractViolationError:
                out = None
            assert built.pop() == budget, (alpha, offset)
            assert out is None or out.register == budget, (alpha, offset)
            q = {"alpha": alpha, "b_offsets": offset}
            assert cli._access_cutoff(q, eps) == max(budget.cutoffs)


def test_bell_and_fisher_budgets_match_the_registers_of_their_points(monkeypatch):
    from dualcat import circuits

    built = []
    pair = cli.entangled_cat_pair
    monkeypatch.setattr(cli, "entangled_cat_pair", lambda reg, *args: built.append(reg)
                        or pair(reg, *args))
    q = dict(resolve_config("bell", {}, {}, 1e-12, 1, None).parameters,
             alpha_grid=1.7, grid_density=5, refine_iters=0)
    cli._bell_point(q, 1e-12)
    assert max(built[0].cutoffs) == cli.EXPERIMENTS["bell"].cutoff(q, 1e-12)
    noon = circuits.noon_from_cat_pair(1.7, 1e-12)
    assert max(noon.register.cutoffs) == cli.EXPERIMENTS["fisher"].cutoff({"alpha_grid": 1.7},
                                                                           1e-12)


@pytest.mark.parametrize("rule, experiment, point, build", [
    ("generation_cutoff", "generate", {"alpha": 0.8},
     lambda circuits: circuits.generate_entangled_cat(0.8).output_state),
    ("noon_cutoff", "fisher", {"alpha_grid": 0.8},
     lambda circuits: circuits.noon_from_cat_pair(0.8)),
])
def test_circuit_and_budget_share_one_cutoff_rule(monkeypatch, rule, experiment, point, build):
    # a circuit that changes its rule moves the budget with it
    from dualcat import circuits

    monkeypatch.setattr(circuits, rule, lambda alpha, eps: 30)
    built = max(build(circuits).register.cutoffs)
    assert built == cli.EXPERIMENTS[experiment].cutoff(point, 1e-12) == 30


@pytest.mark.parametrize("argv, code", [
    (["generate", "--alpha", "1e-300"], EXIT_CONFIG),
    (["generate", "--alpha", "1e200"], cli.EXIT_CUTOFF),
    (["bell", "--alpha-grid", "1e200"], cli.EXIT_CUTOFF),
    (["imperfection-sweep", "--b-offsets", "1e200"], cli.EXIT_CUTOFF),
], ids=["odd-cat-underflow", "alpha-squared-overflow", "bell-overflow", "offset-overflow"])
def test_extreme_amplitudes_exit_cleanly(tmp_path, capsys, argv, code):
    got, _, err = run_main(["--output", str(tmp_path / "o.json")] + argv, capsys)
    assert got == code and "Traceback" not in err


@pytest.mark.parametrize("experiment", ["duality", "imperfection-sweep"])
@pytest.mark.parametrize("alpha, code", [("0.005", EXIT_CONFIG), ("0.007", EXIT_CONFIG),
                                         ("0.01", 0)])
def test_an_access_of_the_one_photon_pair_is_refused(tmp_path, capsys, experiment, alpha, code):
    # at alpha <= 9e-3 the generation cutoff is 2 and the pair is the
    # one-photon pair, whose photon number gives no amplitude to access with
    out_file = tmp_path / "o.json"
    got, _, err = run_main(["--output", str(out_file), experiment, "--alpha", alpha], capsys)
    assert got == code and "Traceback" not in err
    if code:
        assert "no amplitude information" in err
        assert list(tmp_path.iterdir()) == []
    else:
        assert load_result(out_file)["converged"] is True


@pytest.mark.parametrize("argv", [
    ["bell", "--alpha-grid", "0:2e4:1"],
    ["imperfection-sweep", "--b-offsets", "0:0.5:0.0001", "--flip-angles", "0:3:0.001"],
], ids=["long-grid", "long-product"])
def test_grids_beyond_the_point_limit_are_refused_fast(tmp_path, capsys, argv):
    import time

    start = time.perf_counter()
    code, _, err = run_main(["--output", str(tmp_path / "o.json")] + argv, capsys)
    assert code == EXIT_CONFIG and str(cli.MAX_GRID_POINTS) in err
    assert time.perf_counter() - start < 2.0


def test_a_grid_step_too_small_to_move_is_refused():
    # 1000 is below half the float spacing at 1e20, so the grid never reaches
    # its stop; the child's address space is capped in case the guard fails
    import resource
    import subprocess
    import sys

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    script = "import sys; from dualcat import cli; sys.exit(cli.main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", script, "fisher", "--alpha-grid",
                           "1e20:1.00000000000001e20:1000"],
                          capture_output=True, text=True, timeout=60, preexec_fn=cap_memory)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert f"more than {cli.MAX_GRID_POINTS} points" in proc.stderr


#: parameter values the budget refuses, by (experiment, parameter)
OVER_BUDGET = {
    ("generate", "alpha"): [80.0, -1e6, 1e200], ("duality", "alpha"): [80.0, 1e200],
    ("imperfection-sweep", "alpha"): [80.0], ("imperfection-sweep", "b_offsets"): ["90", "0,1e200"],
    ("bell", "alpha_grid"): ["1e4", "0.5,1e200"], ("bell", "radius"): [200.0, 1e300],
    ("fisher", "alpha_grid"): ["60"], ("sv-generate", "r"): [6.0, 1e300],
    ("sv-access", "r"): [30.0, -1e300],
}
#: values of the wrong type, in a config file
WRONG_TYPE = {"bool": ["no", 1, None], "choice": ["bogus", 1, None, ["imag"]],
              "grid": [1.5, [1.0], True, None], "int": [2.5, "3", True, None, 10**400],
              "float": ["1.2", True, None, [1.0], 10**400]}
#: strings that argparse or the checks refuse, as flags (and, for grids, in a config file)
BAD_STRINGS = {"bool": [], "choice": ["bogus"], "int": ["2.5", "x"],
               "float": ["nan", "inf", "-inf", "x"],
               "grid": ["nan", "0:inf:1", "1,nan", "1:0.5:0.1", "1:2:3:4", "x", "0:2e4:1", ","]}


def _refused(experiment: str, key: str, par) -> list:
    """(route, value) pairs of one parameter that validation or the budget refuses."""
    numbers = [par.low - 1] * (par.low > -math.inf) + [par.high + 1] * (par.high < math.inf)
    if par.kind == "grid":
        numbers = [str(x) for x in numbers] + [" "] * (par.empty is None)  # empty and required
    numbers += OVER_BUDGET.get((experiment, key), [])
    strings = BAD_STRINGS[par.kind] + [str(x) for x in numbers]
    configs = WRONG_TYPE[par.kind] + numbers
    configs += [math.nan, math.inf] if par.kind == "float" else []
    configs += BAD_STRINGS["grid"] if par.kind == "grid" else []
    return [("flag", v) for v in strings] + [("config", v) for v in configs]


REFUSED = {(e, k): _refused(e, k, par) for e, spec in cli.EXPERIMENTS.items()
           for k, par in spec.params.items()}


def _main_in(tmp_path, argv: list, params: dict) -> tuple:
    """Exit code, stderr and the JSON text of one ``main`` call."""
    import contextlib
    import io

    cfg_file, out_file = tmp_path / "cfg.json", tmp_path / "fuzz.json"
    cfg_file.write_text(json.dumps(params))
    out_file.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(["--config", str(cfg_file), "--output", str(out_file)] + argv)
        except SystemExit as exc:  # argparse refuses a flag
            code = exc.code
    return code, err.getvalue(), out_file.read_text() if out_file.exists() else None


@st.composite
def refused_runs(draw):
    experiment = draw(st.sampled_from(sorted(cli.EXPERIMENTS)))
    spec = cli.EXPERIMENTS[experiment]
    keys = draw(st.lists(st.sampled_from(list(spec.params)), min_size=1, max_size=2,
                         unique=True))
    argv, params = [], {}
    for key in keys:
        route, value = draw(st.sampled_from(REFUSED[(experiment, key)]))
        if route == "config":
            params[key] = value
        else:
            argv.append(f"--{key.replace('_', '-')}={value}")
    eps = draw(st.sampled_from([[], ["--cutoff-epsilon", "1e-9"], ["--cutoff-epsilon", "0"],
                                ["--cutoff-epsilon", "nan"], ["--cutoff-epsilon", "2"]]))
    return eps + [experiment] + argv, params


@settings(max_examples=150, deadline=2000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(refused_runs())
def test_fuzzed_bad_inputs_exit_cleanly_without_output(tmp_path, run_args):
    argv, params = run_args
    code, err, text = _main_in(tmp_path, argv, params)
    assert code in (EXIT_CONFIG, cli.EXIT_CUTOFF), (argv, params, err)
    assert "Traceback" not in err
    assert text is None


@settings(max_examples=40, deadline=5000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(state=st.sampled_from(["entangled", "nonmaximal", "single-photon"]),
       theta=st.floats(), bomb=st.booleans(), as_flags=st.booleans(),
       eps=st.floats(min_value=1e-16, max_value=0.5))
def test_fuzzed_ifm_runs_write_finite_json(tmp_path, state, theta, bomb, as_flags, eps):
    params = {"state": state, "theta": theta, "bomb": bomb}
    argv = ["--cutoff-epsilon", repr(eps), "ifm"]
    if as_flags:
        argv += ["--state", state, f"--theta={theta!r}", "--bomb" if bomb else "--no-bomb"]
        params = {}
    code, err, text = _main_in(tmp_path, argv, params)
    assert code in (0, EXIT_CONFIG, cli.EXIT_CUTOFF, cli.EXIT_CONTRACT, cli.EXIT_NONCONVERGED)
    assert "Traceback" not in err
    assert (code == EXIT_CONFIG) == (not math.isfinite(theta))
    if text is not None:
        json.loads(text, parse_constant=lambda c: pytest.fail(f"non-finite {c} in the JSON"))
