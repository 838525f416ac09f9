"""The bench recorder, ``tools/bench_record.py``, run on one cheap experiment:
the file it writes holds every section it promises.  No timing is checked."""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_recorder():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_recorder_takes_the_output_path_alone(tmp_path, capsys):
    recorder = load_recorder()
    for argv in ([], [str(tmp_path / "a.json"), str(tmp_path / "b.json")], ["--repeats"]):
        assert recorder.main(argv) == 2
    assert "usage:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_bench_recorder_writes_every_section(tmp_path, monkeypatch):
    recorder = load_recorder()
    # the cheap run: one experiment, one ladder rung, one short workload and
    # one that fails, one run each, no tier-1 suite
    monkeypatch.setattr(recorder, "cli_experiments", lambda: ["generate"])
    monkeypatch.setattr(recorder, "LADDER", ["1.2"])
    monkeypatch.setattr(recorder, "WORKLOADS", ["bell-chsh", "no-such-workload"])
    monkeypatch.setattr(recorder, "SECONDS", 0.1)
    monkeypatch.setattr(recorder, "REPEATS", 1)
    monkeypatch.setattr(recorder, "TIER1", False)
    out = tmp_path / "bench.json"
    assert recorder.main([str(out)]) == 0
    record = json.loads(out.read_text())
    assert sorted(record) == ["bench", "cli", "environment", "ladder", "lines", "tier1"]
    assert record["tier1"] is None

    assert list(record["cli"]) == ["generate"]
    generate = record["cli"]["generate"]
    assert sorted(generate) == ["exit", "rss_mb", "runs", "wall_s"]
    assert (generate["exit"], generate["runs"]) == (0, 1)
    [row] = record["ladder"]
    assert sorted(row) == ["access_tracemalloc_peak_mb", "alpha", "converged", "exit",
                           "norm_deficit", "postselect_probability", "rss_mb", "runs", "wall_s"]
    assert (row["alpha"], row["exit"], row["converged"]) == (1.2, 0, True)
    assert 0.0 < row["postselect_probability"] < 1.0 and row["norm_deficit"] < 1e-9
    assert row["access_tracemalloc_peak_mb"] > 0.0

    bench = record["bench"]["bell-chsh"]
    assert (bench["exit"], bench["correct"], bench["failed"]) == (0, True, 0)
    assert sorted(bench["metrics"]) == ["cpu_s", "peak_rss_mb", "run_s", "setup_s"]
    failed = record["bench"]["no-such-workload"]
    assert list(failed) == ["exit"] and failed["exit"] != 0

    modules = sorted(p.name for p in (ROOT / "src" / "dualcat").glob("*.py"))
    lines = record["lines"]
    assert sorted(lines) == sorted(modules + ["total"])
    assert lines["total"] == sum(lines[m] for m in modules)

    env = record["environment"]
    assert sorted(env) == ["blas_loaded", "engine_blas_threads", "nproc", "numpy", "openblas",
                           "python", "scipy", "thread_env"]
    assert env["nproc"] >= 1 and env["python"] == ".".join(map(str, sys.version_info[:3]))
