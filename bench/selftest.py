"""Self-tests of the benchmark's output checks and tracer.

    python3 bench/selftest.py

Every check must pass the right answer and reject a wrong one, so that no
check passes vacuously.  The closed forms the checks use are compared with
the engine once here.  Runs in a few seconds, without the full workloads.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
from checks import CheckError  # noqa: E402


class SelfTestFailure(Exception):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SelfTestFailure(message)


def rejects(fn, *args) -> None:
    try:
        fn(*args)
    except CheckError:
        return
    raise SelfTestFailure(f"{fn.__name__}{args!r:.120} accepted a wrong answer")


def cli_doc(scalars: dict, tables: dict | None = None, converged: bool = True) -> dict:
    return {"converged": converged,
            "result": {"scalars": scalars,
                       "tables": {k: {"columns": [], "rows": v} for k, v in (tables or {}).items()}}}


# ---------------------------------------------------------------------------


def test_correlator_matches_engine():
    from dualcat import elements, states
    from dualcat.fock import coherent_cutoff, mode, plain_register

    alpha = 0.7
    reg = plain_register([1, 2], coherent_cutoff(alpha + 1.3))
    pair = states.entangled_cat_pair(reg, mode(1), mode(2), alpha, "-")
    for b1, b2 in ((0.0, 0.0), (0.3j, -0.2j), (0.25 + 0.1j, -0.4j), (-0.5, 0.35)):
        want = elements.displaced_parity_expect(pair, b1, b2)
        got = checks.cat_pair_correlator(alpha, b1, b2)
        expect(abs(got - want) <= 1e-9, f"correlator at {(b1, b2)}: {got} vs engine {want}")


def test_bell_check():
    from dualcat import analysis, states
    from dualcat.fock import coherent_cutoff, mode, plain_register

    alpha = 0.5
    reg = plain_register([1, 2], coherent_cutoff(alpha + 1.3))
    pair = states.entangled_cat_pair(reg, mode(1), mode(2), alpha, "-")
    s, value = analysis.chsh_optimize(pair)
    settings = (s.beta1, s.beta1p, s.beta2, s.beta2p)
    checks.check_bell(alpha, value, settings)
    rejects(checks.check_bell, alpha, value + 1e-3, settings)
    rejects(checks.check_bell, alpha, value - 1e-3, settings)
    rejects(checks.check_bell, alpha, value, (s.beta1, s.beta1p, s.beta2 + 0.01j, s.beta2p))
    rejects(checks.check_bell, alpha, 1.99, settings)
    rejects(checks.check_bell, alpha, checks.TSIRELSON + 1e-6, settings)
    checks.check_rising([0.5, 1.0, 1.5], [2.31, 2.49, 2.63])
    rejects(checks.check_rising, [0.5, 1.0, 1.5], [2.31, 2.63, 2.49])


def test_dual_rail_check():
    from dualcat import circuits
    from workloads import path1_amplitudes

    alpha, n = 1.19, 21
    checks.check_dual_rail(checks.dual_rail_pair(alpha, n), alpha, 0.0)
    even = checks.cat_coefficients(alpha, "even", n)
    odd = checks.cat_coefficients(alpha, "odd", n)
    expect(abs(np.sum(even**2) - 1) < 1e-12 and abs(np.sum(odd**2) - 1) < 1e-12,
           "cat coefficients are not normalized")
    rejects(checks.check_dual_rail, (np.outer(even, odd) + np.outer(odd, even)) / math.sqrt(2), alpha, 0.0)
    rejects(checks.check_dual_rail, checks.dual_rail_pair(alpha + 1e-3, n), alpha, 0.0)
    rejects(checks.check_dual_rail, checks.dual_rail_pair(alpha, n), alpha, 1e-8)
    matrix, outside = path1_amplitudes(circuits.generate_entangled_cat(alpha, "-").output_state)
    checks.check_dual_rail(matrix, alpha, outside)


def test_qubit_state_check():
    singlet = checks.SINGLET
    triplet = np.outer([0, 1, 1, 0], [0, 1, 1, 0]) / 2.0
    product = np.diag([0.0, 1.0, 0.0, 0.0])
    checks.check_qubit_state(singlet, 0.5, 0.14, 0.0)
    checks.check_qubit_state(product, 0.0, 0.14, 0.2)
    rejects(checks.check_qubit_state, triplet, 0.5, 0.14, 0.0)
    rejects(checks.check_qubit_state, product, 0.0, 0.14, 0.0)
    rejects(checks.check_qubit_state, singlet + 1e-5 * np.eye(4) / 4, 0.5, 0.14, 0.0)
    rejects(checks.check_qubit_state, 1.01 * product, 0.0, 0.14, 0.2)
    skew = product.astype(complex)
    skew[0, 1] = 1e-6j
    rejects(checks.check_qubit_state, skew, 0.0, 0.14, 0.2)
    partial_transpose = singlet.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    rejects(checks.check_qubit_state, partial_transpose, 0.0, 0.14, 0.2)
    rejects(checks.check_qubit_state, product, 0.6, 0.14, 0.2)
    rejects(checks.check_qubit_state, product, -0.1, 0.14, 0.2)
    rejects(checks.check_qubit_state, product, 0.0, 0.0, 0.2)
    rejects(checks.check_qubit_state, product, 0.0, 1.5, 0.2)
    checks.check_one_bit(1.0 + 5e-10, "one bit")
    rejects(checks.check_one_bit, 0.99, "one bit")


def test_cli_checks():
    good = json.dumps({"converged": True, "result": {"scalars": {"x": 1.0}}})
    checks.load_result(0, good)
    rejects(checks.load_result, 3, good)
    rejects(checks.load_result, 0, good.replace("true", "false"))
    rejects(checks.load_result, 0, good.replace("1.0", "NaN"))
    rejects(checks.load_result, 0, good.replace("1.0", "Infinity"))

    checks.check_generate(cli_doc({"entropy_bits": 1.0}), 1.18, "odd")
    rejects(checks.check_generate, cli_doc({"entropy_bits": 0.99}), 1.18, "odd")
    even = checks.even_control_entropy(1.18)
    checks.check_generate(cli_doc({"entropy_bits": even}), 1.18, "even")
    rejects(checks.check_generate, cli_doc({"entropy_bits": even + 1e-8}), 1.18, "even")
    rejects(checks.check_generate, cli_doc({"entropy_bits": 1.0}), 1.18, "even")

    alphas = [1.01, 1.49]
    rows = [[a, checks.noon_fisher(a)] for a in alphas]
    checks.check_fisher(cli_doc({}, {"fisher": rows}), alphas)
    off = [[a, q * (1 + 1e-6)] for a, q in rows]
    rejects(checks.check_fisher, cli_doc({}, {"fisher": off}), alphas)
    rejects(checks.check_fisher, cli_doc({}, {"fisher": rows[:1]}), alphas)

    ts = [0.3, 0.7]
    sweep = [[t, checks.binary_entropy(t)] for t in ts]
    checks.check_sv_generate(cli_doc({"entropy_bits": 1.0}, {"transmittance_sweep": sweep}), 0.5, ts)
    rejects(checks.check_sv_generate,
            cli_doc({"entropy_bits": 0.99}, {"transmittance_sweep": sweep}), 0.5, ts)
    rejects(checks.check_sv_generate,
            cli_doc({"entropy_bits": 1.0}, {"transmittance_sweep": [[0.3, 0.9], sweep[1]]}), 0.5, ts)

    checks.check_sv_access(cli_doc({"conditional_fidelity": 1.0}))
    rejects(checks.check_sv_access, cli_doc({"conditional_fidelity": 1 - 1e-8}))
    checks.check_single_photon_pair(1.0 - 1e-12)
    rejects(checks.check_single_photon_pair, 1.0 - 1e-8)

    checks.check_ifm(cli_doc({"eta": 1 / 3}), "entangled")
    rejects(checks.check_ifm, cli_doc({"eta": 0.3334}), "entangled")
    checks.check_ifm(cli_doc({"eta": 0.4999999}), "single-photon")
    rejects(checks.check_ifm, cli_doc({"eta": 0.498}), "single-photon")
    checks.check_ifm(cli_doc({"eta": 0.0}), "nonmaximal")
    rejects(checks.check_ifm, cli_doc({"eta": 1e-6}), "nonmaximal")


def test_closed_forms_match_engine():
    from dualcat import analysis, circuits
    from dualcat.fock import mode, normalized

    alpha = 1.18
    rep = circuits.generate_even_cat_control(alpha)
    got = analysis.entanglement(normalized(rep.output_state), [mode(1, "H")]).entropy_bits
    expect(abs(got - checks.even_control_entropy(alpha)) <= 1e-9,
           f"even control entropy {got} vs closed form {checks.even_control_entropy(alpha)}")
    noon = circuits.noon_from_cat_pair(1.2)
    qfi = analysis.qfi_phase(noon, mode(1))
    expect(abs(qfi - checks.noon_fisher(1.2)) <= 1e-9 * qfi, f"qfi {qfi} vs closed form")


def test_cli_round_and_tracer():
    import run
    import tracing
    import workloads

    run.SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.SCRATCH) as tmp, contextlib.redirect_stdout(io.StringIO()):
        runner = run.Runner(workloads.CliSmall(Path(tmp)), random.Random(0))
        runner.round()
        expect(not runner.problems and runner.failed == 0, f"cli round: {runner.problems}")
        from dualcat import elements

        original = elements.displacement_matrix
        tracer = tracing.Tracer()
        tracer.install()
        expect(elements.displacement_matrix.__wrapped__ is original,
               "elements.displacement_matrix is not wrapped where it is bound")
        _, _, layers = runner.round(tracer)
    with contextlib.suppress(OSError):
        run.SCRATCH.rmdir()
    expect(not runner.problems, f"traced cli round: {runner.problems}")
    names = {name for name, _ in tracing.metric_names()}
    expect(set(layers) == names, f"metrics {sorted(names ^ set(layers))} missing or extra")
    for key in ("fock.displacement_matrix.calls", "fock.squeeze_matrix.misses",
                "cli.main.self_s", "states.self_s", "fock.apply_single_mode_matrix.amps_in"):
        expect(layers[key] > 0, f"{key} reads {layers[key]} on cli-small")
    expect(0 < layers["cli.main.self_s"] < tracer.stats["cli.main"][1], "self time not below inclusive")


def test_benchmark_json_names_the_metrics():
    import tracing

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    layers = tracing.metric_names() + [("trace.run_s", "s"), ("trace.overhead_s", "s")]
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == layers,
           "per_layer of BENCHMARK.json differs from the traced metrics")
    expect([m["name"] for m in spec["end_to_end"]] == ["run_s", "setup_s", "cpu_s", "peak_rss_mb"],
           "end_to_end of BENCHMARK.json differs from the metrics run.py reports")
    expect(max(m["bound"] for m in spec["end_to_end"]) == spec["end_to_end"][1]["bound"],
           "setup_s must carry the largest bound")


def main() -> int:
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
        except Exception:  # report every failing test, then exit non-zero
            failed += 1
            print(f"FAIL {test.__name__}")
            traceback.print_exc()
        else:
            print(f"ok   {test.__name__}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
