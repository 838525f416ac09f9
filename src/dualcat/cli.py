"""Experiment runner.

Every experiment is a named, fully configured, reproducible run producing
one JSON document (and CSV side files for tables).  Parameters come from
built-in defaults, then an optional JSON config file, then command-line
flags, in that order of precedence.

Exit codes: 0 success, 2 configuration error, 3 cutoff violation,
4 gate-contract violation, 5 run flagged non-converged.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, circuits
from .elements import Imperfection
from .fock import (
    ContractViolationError,
    CutoffError,
    FockError,
    coherent_cutoff,
    mode,
    openblas,
    plain_register,
    polarized_register,
    squeezed_cutoff,
)
from .results import ExperimentResult, Table, _plain
from .states import entangled_cat_pair

SCHEMA_VERSION = "dualcat-result/1"
NONCONVERGED_DEFICIT = 1e-9
#: desk-scale guard: registers beyond this per-mode cutoff are refused
MAX_CUTOFF = 120

EXIT_CONFIG = 2
EXIT_CUTOFF = 3
EXIT_CONTRACT = 4
EXIT_NONCONVERGED = 5


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    """Resolved configuration of a single run."""

    experiment: str
    parameters: dict
    cutoff_epsilon: float = 1e-12
    jobs: int = 1
    output_path: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "parameters": _plain(self.parameters),
            "cutoff_epsilon": self.cutoff_epsilon,
            "jobs": self.jobs,
        }


#: per-experiment parameter defaults; unknown keys are rejected
DEFAULTS: dict = {
    "generate": {"alpha": 1.2, "sign": "-", "parity": "odd"},
    "duality": {"alpha": 1.2},
    "bell": {"alpha_grid": "0.5:2.0:0.5", "radius": 1.0, "grid_density": 25,
             "refine_iters": 600, "axis": "imag"},
    "ifm": {"state": "entangled", "theta": math.pi / 6, "bomb": False},
    "fisher": {"alpha_grid": "1.0:2.5:0.5"},
    "sv-generate": {"r": 0.8, "transmittance": 0.5, "t_grid": ""},
    "sv-access": {"r": 0.7},
    "imperfection-sweep": {"alpha": 1.2, "b_offsets": "0.0:0.6:0.1",
                           "flip_angles": ""},
}


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"grid values must be finite, got {text!r}")
    return value


def parse_grid(spec: str) -> list:
    """Parse "start:stop:step" (inclusive) or a comma list into finite floats."""
    spec = spec.strip()
    if not spec:
        raise ConfigError("empty grid specification")
    if "," in spec:
        return [_finite(x) for x in spec.split(",") if x.strip()]
    parts = spec.split(":")
    if len(parts) == 1:
        return [_finite(parts[0])]
    if len(parts) != 3:
        raise ConfigError(f"grid must be start:stop:step or a comma list, got {spec!r}")
    start, stop, step = (_finite(p) for p in parts)
    if step <= 0 or stop < start:
        raise ConfigError(f"bad grid bounds {spec!r}")
    out = []
    x = start
    while x <= stop + 1e-12:
        out.append(round(x, 12))
        x += step
    return out


# ---------------------------------------------------------------------------
# experiment implementations


def _run_generate(p: dict, eps: float) -> ExperimentResult:
    alpha, sign, parity = p["alpha"], p["sign"], p["parity"]
    if parity == "odd":
        rep = circuits.generate_entangled_cat(alpha, sign, eps)
    else:
        rep = circuits.generate_even_cat_control(alpha, sign, eps)
    out = rep.output_state
    from .fock import normalized

    summary = analysis.entanglement(normalized(out), [mode(1, "H")])
    scalars = {
        "entropy_bits": summary.entropy_bits,
        "log_negativity": summary.log_negativity,
        "postselect_probability": rep.postselect_probability,
    }
    if parity == "odd":
        target = circuits.analytic_dual_rail_pair(out.register, alpha, sign, tail_eps=eps)
        scalars["fidelity_analytic"] = analysis.fidelity(out, target)
    spectrum = Table(["index", "weight"],
                     [[i, w] for i, w in enumerate(summary.schmidt_spectrum)])
    return ExperimentResult(
        scalars=scalars,
        tables={"schmidt_spectrum": spectrum},
        convergence=_convergence(out, eps),
    )


def _run_duality(p: dict, eps: float) -> ExperimentResult:
    alpha = p["alpha"]
    from .fock import normalized

    gen = circuits.generate_entangled_cat(alpha, "-", eps)
    e_hv = analysis.entanglement(normalized(gen.output_state),
                                 [mode(1, "H")]).entropy_bits

    par = circuits.access_parity(gen.output_state)
    e_par = analysis.entanglement(normalized(par.output_state),
                                  [mode(1, "H"), mode(1, "V")]).entropy_bits

    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pol = circuits.access_polarization(gen.output_state, tail_eps=eps)
    e_pol = analysis.entanglement(pol.output_state,
                                  [mode(1, "H"), mode(1, "V")]).entropy_bits
    a_env = alpha / math.sqrt(2.0)
    target = circuits.analytic_coherent_bell(
        polarized_register([1, 2], max(pol.output_state.register.cutoffs)),
        a_env, "-", tail_eps=eps)
    keep = [mode(1, "H"), mode(1, "V"), mode(2, "H"), mode(2, "V")]
    bell_fid = analysis.subsystem_fidelity(pol.output_state, target, keep)
    return ExperimentResult(
        scalars={
            "entropy_HV": e_hv,
            "entropy_paths": e_par,
            "entropy_polarization": e_pol,
            "bell_fidelity": bell_fid,
            "postselect_probability": pol.postselect_probability,
        },
        convergence=_convergence(pol.output_state, eps),
    )


def _bell_cutoff(alpha: float, radius: float, eps: float) -> int:
    return coherent_cutoff(alpha + radius + 0.3, eps)


def _bell_point(args: tuple) -> tuple:
    alpha, radius, density, iters, axis, eps = args
    reg = plain_register([1, 2], _bell_cutoff(alpha, radius, eps))
    pair = entangled_cat_pair(reg, mode(1), mode(2), alpha, "-", eps)
    search = analysis.BellSearch(grid_density=density, refine_iters=iters,
                                 radius=radius, axis=axis)
    settings, value = analysis.chsh_optimize(pair, search)
    return [alpha, value,
            settings.beta1.real, settings.beta1.imag,
            settings.beta1p.real, settings.beta1p.imag,
            settings.beta2.real, settings.beta2.imag,
            settings.beta2p.real, settings.beta2p.imag], pair.norm_deficit


def _run_bell(p: dict, eps: float, jobs: int) -> ExperimentResult:
    grid = parse_grid(str(p["alpha_grid"]))
    args = [(a, p["radius"], int(p["grid_density"]), int(p["refine_iters"]),
             p["axis"], eps) for a in grid]
    rows, deficit = _map_rows(_bell_point, args, jobs)
    cols = ["alpha", "chsh", "beta1_re", "beta1_im", "beta1p_re", "beta1p_im",
            "beta2_re", "beta2_im", "beta2p_re", "beta2p_im"]
    best = max(r[1] for r in rows)
    return ExperimentResult(
        scalars={"chsh_max": best, "tsirelson": 2.0 * math.sqrt(2.0)},
        tables={"bell": Table(cols, rows)},
        convergence={"cutoff_epsilon": eps, "norm_deficit": deficit},
    )


def _run_ifm(p: dict, eps: float) -> ExperimentResult:
    kind = str(p["state"]).replace("-", "_")
    res = circuits.run_ifm(kind, bool(p["bomb"]), float(p["theta"]))
    res.convergence.setdefault("cutoff_epsilon", eps)
    return res


def _fisher_point(args: tuple) -> tuple:
    alpha, eps = args
    noon = circuits.noon_from_cat_pair(alpha, eps)
    qfi = analysis.qfi_phase(noon, mode(1))
    nbar = analysis.total_mean_photons(noon)
    decay = analysis.qfi_phase_decay(noon, mode(1))
    return [alpha, qfi, nbar, qfi / nbar**2, 4.0 * nbar, decay], noon.norm_deficit


def _run_fisher(p: dict, eps: float, jobs: int) -> ExperimentResult:
    grid = parse_grid(str(p["alpha_grid"]))
    rows, deficit = _map_rows(_fisher_point, [(a, eps) for a in grid], jobs)
    cols = ["alpha", "qfi", "nbar", "qfi_over_nbar_sq", "shot_noise", "qfi_decay_oracle"]
    return ExperimentResult(
        scalars={"qfi_at_max_alpha": rows[-1][1]},
        tables={"fisher": Table(cols, rows)},
        convergence={"cutoff_epsilon": eps, "norm_deficit": deficit},
    )


def _run_sv_generate(p: dict, eps: float, jobs: int) -> ExperimentResult:
    r, t = float(p["r"]), float(p["transmittance"])
    rep = circuits.sv_generate(r, t, eps)
    out = rep.output_state
    import dualcat.states as states_mod

    scalars = {
        "entropy_bits": analysis.entanglement(out, [mode(1, "H")]).entropy_bits,
        "postselect_probability": rep.postselect_probability,
    }
    if t == 0.5:
        # balanced case has the closed-form normalization 1/(sqrt2 sinh r)
        reg = out.register
        sH = states_mod.squeezed_vacuum(reg, mode(1, "H"), states_mod.SqueezeParams(r), eps)
        sV = states_mod.squeezed_vacuum(reg, mode(1, "V"), states_mod.SqueezeParams(r), eps)
        prod = circuits._mode_product(sH, sV)
        from .fock import apply_annihilation, add, scale

        analytic = scale(add(apply_annihilation(prod, mode(1, "H")),
                             apply_annihilation(prod, mode(1, "V"))),
                         1.0 / (math.sqrt(2.0) * math.sinh(r)))
        scalars["fidelity_analytic"] = analysis.fidelity(out, analytic)
    tables = {}
    t_grid = str(p.get("t_grid", "")).strip()
    if t_grid:
        ts = parse_grid(t_grid)
        rows = _map_jobs(_sv_t_point, [(r, tv, eps) for tv in ts], jobs)
        tables["transmittance_sweep"] = Table(["transmittance", "entropy_bits"], rows)
    return ExperimentResult(scalars=scalars, tables=tables,
                            convergence=_convergence(out, eps))


def _sv_t_point(args: tuple) -> list:
    r, t, eps = args
    rep = circuits.sv_generate(r, t, eps)
    return [t, analysis.entanglement(rep.output_state, [mode(1, "H")]).entropy_bits]


def _run_sv_access(p: dict, eps: float) -> ExperimentResult:
    r = float(p["r"])
    gen = circuits.sv_generate(r, 0.5, eps)
    acc = circuits.sv_access_polarization(gen)
    out = acc.output_state
    target = circuits.analytic_subtracted_bell(
        polarized_register([1, 2], max(out.register.cutoffs)), r)
    keep = [mode(1, "H"), mode(1, "V"), mode(2, "H"), mode(2, "V")]
    fid = analysis.subsystem_fidelity(out, target, keep)
    return ExperimentResult(
        scalars={
            "conditional_fidelity": fid,
            "postselect_probability": acc.postselect_probability,
            "branch_product": acc.branch_product(),
        },
        convergence=_convergence(out, eps),
    )


def _imperfection_point(args: tuple) -> tuple:
    alpha, offset, flip, eps = args
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        gen = circuits.generate_entangled_cat(alpha, "-", eps)
        imp = Imperfection(displacement_offset=offset, flip_angle=flip)
        acc = circuits.access_polarization(gen.output_state, imp, eps)
    q = analysis.polarization_qubit_state(acc.output_state, 1, 2)
    neg, logneg = analysis.negativity_two_qubit(q.rho)
    return [offset, flip, neg, logneg, acc.postselect_probability], acc.output_state.norm_deficit


def _run_imperfection(p: dict, eps: float, jobs: int) -> ExperimentResult:
    alpha = float(p["alpha"])
    offsets = _offsets(p)
    flips = (parse_grid(str(p["flip_angles"]))
             if str(p.get("flip_angles", "")).strip() else [math.pi])
    args = [(alpha, off, fl, eps) for off in offsets for fl in flips]
    rows, deficit = _map_rows(_imperfection_point, args, jobs)
    cols = ["b_offset", "flip_angle", "negativity", "log_negativity",
            "postselect_probability"]
    return ExperimentResult(
        scalars={"max_negativity": max(r[2] for r in rows)},
        tables={"imperfection": Table(cols, rows)},
        convergence={"cutoff_epsilon": eps, "norm_deficit": deficit},
    )


def _convergence(state, eps: float) -> dict:
    return {
        "cutoff_epsilon": eps,
        "cutoffs": {str(m): c for m, c in
                    zip(state.register.modes, state.register.cutoffs)},
        "norm_deficit": state.norm_deficit,
    }


def _map_jobs(fn, args: list, jobs: int) -> list:
    if not args:
        raise ConfigError("empty parameter grid")
    if jobs <= 1 or len(args) == 1:
        return [fn(a) for a in args]
    from concurrent.futures import ProcessPoolExecutor  # only a parallel grid pays its import

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, args))


def _map_rows(fn, args: list, jobs: int) -> tuple:
    """Table rows of ``fn`` (which returns a row and its state's norm deficit)
    over ``args``, and the largest of those deficits."""
    rows, deficits = zip(*_map_jobs(fn, args, jobs))
    return list(rows), max(deficits)


def _offsets(p: dict) -> list:
    return parse_grid(str(p["b_offsets"])) if str(p["b_offsets"]).strip() else [0.0]


def _largest_cutoff(experiment: str, p: dict, eps: float) -> int:
    """Largest per-mode cutoff among the registers an experiment builds, by
    the cutoff rules its circuits apply."""
    if experiment == "bell":
        return max(_bell_cutoff(a, p["radius"], eps) for a in parse_grid(str(p["alpha_grid"])))
    if experiment == "fisher":
        return max(coherent_cutoff(2.0 * a, eps) for a in parse_grid(str(p["alpha_grid"])))
    if experiment in ("sv-generate", "sv-access"):
        return squeezed_cutoff(p["r"], eps)
    if experiment == "ifm":
        return 2
    generation = coherent_cutoff(math.sqrt(2.0) * p["alpha"], eps)
    if experiment == "generate":
        return generation
    offsets = _offsets(p) if experiment == "imperfection-sweep" else [0.0]
    envelope = p["alpha"] / math.sqrt(2.0)
    return max(generation, *(circuits.tag_cutoff(envelope, Imperfection(displacement_offset=o), eps)
                             for o in offsets))


RUNNERS = {
    "generate": lambda p, eps, jobs: _run_generate(p, eps),
    "duality": lambda p, eps, jobs: _run_duality(p, eps),
    "bell": _run_bell,
    "ifm": lambda p, eps, jobs: _run_ifm(p, eps),
    "fisher": _run_fisher,
    "sv-generate": _run_sv_generate,
    "sv-access": lambda p, eps, jobs: _run_sv_access(p, eps),
    "imperfection-sweep": _run_imperfection,
}


# ---------------------------------------------------------------------------
# config resolution and entry point


def resolve_config(experiment: str, file_params: dict, flag_params: dict,
                   cutoff_epsilon: float, jobs: int,
                   output_path: str | None) -> RunConfig:
    if experiment not in DEFAULTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    params = dict(DEFAULTS[experiment])
    for source, values in (("config file", file_params), ("flags", flag_params)):
        for key, value in values.items():
            if key not in params:
                raise ConfigError(
                    f"unknown parameter {key!r} for experiment {experiment!r} "
                    f"(from {source}); known: {sorted(params)}")
            params[key] = value
    if not 0.0 < cutoff_epsilon < 1.0:
        raise ConfigError(f"cutoff epsilon must lie in (0, 1), got {cutoff_epsilon!r}")
    for key, value in params.items():
        default = DEFAULTS[experiment][key]
        if isinstance(default, (int, float)) and not isinstance(default, bool):
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not math.isfinite(value)):
                raise ConfigError(f"parameter {key!r} must be a finite number, got {value!r}")
        elif key in GRID_KEYS and str(value).strip():
            parse_grid(str(value))
    jobs = min(max(int(jobs), 1), os.cpu_count() or 1)
    return RunConfig(experiment, params, cutoff_epsilon, jobs, output_path)


def run(config: RunConfig) -> ExperimentResult:
    """Check the register budget, then dispatch a resolved configuration to
    its experiment."""
    cutoff = _largest_cutoff(config.experiment, config.parameters, config.cutoff_epsilon)
    if cutoff > MAX_CUTOFF:
        raise CutoffError(
            f"{config.experiment} needs a per-mode cutoff of {cutoff} (> {MAX_CUTOFF}); "
            f"shrink its amplitudes or search radius")
    runner = RUNNERS[config.experiment]
    return runner(config.parameters, config.cutoff_epsilon, config.jobs)


#: parameters that make an experiment a cartesian sweep
GRID_KEYS = ("alpha_grid", "b_offsets", "flip_angles", "t_grid")


def sweep(config: RunConfig) -> ExperimentResult:
    """Run a grid-parameterized experiment (one table row per grid point).

    Rows are emitted in deterministic grid order regardless of ``jobs``;
    an empty grid is a configuration error.
    """
    grids = [k for k in GRID_KEYS
             if str(config.parameters.get(k, "")).strip()]
    if not grids:
        raise ConfigError(
            f"experiment {config.experiment!r} has no grid parameters set "
            f"(expected one of {list(GRID_KEYS)})")
    for key in grids:
        parse_grid(str(config.parameters[key]))  # validates non-emptiness
    return run(config)


def provenance() -> dict:
    """The library versions and BLAS settings that produce a result."""
    blas = openblas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": None if blas is None else {"library": blas.library, "config": blas.config},
        "engine_blas_threads": None if blas is None else 1,
    }


def write_output(config: RunConfig, result: ExperimentResult) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": config.to_json_dict(),
        "result": result.to_json_dict(),
        "converged": _is_converged(result),
        "provenance": provenance(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    if config.output_path:
        out = Path(config.output_path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n")
        for name, table in result.tables.items():
            csv_path = out.with_name(f"{out.stem}.{name}.csv")
            with csv_path.open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(table.columns)
                writer.writerows(table.rows)
    return text


def _is_converged(result: ExperimentResult) -> bool:
    return float(result.convergence.get("norm_deficit", 0.0)) < NONCONVERGED_DEFICIT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualcat",
        description="Reproducible runs of the entangled-cat toolkit experiments.")
    parser.add_argument("--output", help="write the JSON result (and table CSVs) here")
    parser.add_argument("--cutoff-epsilon", type=float, default=1e-12,
                        help="tail mass allowed beyond each Fock cutoff")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel workers for grid sweeps")
    parser.add_argument("--config", help="JSON file with experiment parameters")
    sub = parser.add_subparsers(dest="experiment", required=True)

    sp = sub.add_parser("generate", help="entangled cat generation")
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--sign", choices=["+", "-"])
    sp.add_argument("--parity", choices=["odd", "even"])

    sp = sub.add_parser("duality", help="entropy across generation and both accesses")
    sp.add_argument("--alpha", type=float)

    sp = sub.add_parser("bell", help="optimized displaced-parity CHSH sweep")
    sp.add_argument("--alpha-grid", dest="alpha_grid")
    sp.add_argument("--radius", type=float)
    sp.add_argument("--grid-density", dest="grid_density", type=int)
    sp.add_argument("--refine-iters", dest="refine_iters", type=int,
                    help="cap on Newton steps of each refinement (0: grid only)")
    sp.add_argument("--axis", choices=["imag", "real", "complex"])

    sp = sub.add_parser("ifm", help="interaction-free bomb test")
    sp.add_argument("--state", choices=["entangled", "nonmaximal", "single-photon"])
    sp.add_argument("--theta", type=float)
    bomb = sp.add_mutually_exclusive_group()
    bomb.add_argument("--bomb", dest="bomb", action="store_true", default=None)
    bomb.add_argument("--no-bomb", dest="bomb", action="store_false", default=None)

    sp = sub.add_parser("fisher", help="phase-estimation Fisher information sweep")
    sp.add_argument("--alpha-grid", dest="alpha_grid")

    sp = sub.add_parser("sv-generate", help="squeezed-vacuum pair source")
    sp.add_argument("--r", type=float)
    sp.add_argument("--transmittance", type=float)
    sp.add_argument("--t-grid", dest="t_grid")

    sp = sub.add_parser("sv-access", help="squeezed-vacuum polarization access")
    sp.add_argument("--r", type=float)

    sp = sub.add_parser("imperfection-sweep", help="negativity vs hardware error")
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--b-offsets", dest="b_offsets")
    sp.add_argument("--flip-angles", dest="flip_angles")

    return parser


def main(argv: list | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)

    file_params: dict = {}
    if ns.config:
        try:
            file_params = json.loads(Path(ns.config).read_text())
        except (OSError, json.JSONDecodeError) as err:
            print(f"config error: cannot read {ns.config}: {err}", file=sys.stderr)
            return EXIT_CONFIG
        if not isinstance(file_params, dict):
            print("config error: config file must hold a JSON object", file=sys.stderr)
            return EXIT_CONFIG

    skip = {"experiment", "output", "cutoff_epsilon", "jobs", "config"}
    flag_params = {k: v for k, v in vars(ns).items()
                   if k not in skip and v is not None}

    try:
        config = resolve_config(ns.experiment, file_params, flag_params,
                                ns.cutoff_epsilon, ns.jobs, ns.output)
        result = run(config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except CutoffError as err:
        print(f"cutoff violation: {err}", file=sys.stderr)
        return EXIT_CUTOFF
    except ContractViolationError as err:
        print(f"contract violation: {err}", file=sys.stderr)
        return EXIT_CONTRACT
    except FockError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        text = write_output(config, result)
    except ValueError as err:  # a non-finite number in the result
        print(f"non-converged: {err}", file=sys.stderr)
        return EXIT_NONCONVERGED
    if not config.output_path:
        print(text)
    else:
        print(f"wrote {config.output_path}")
    if not _is_converged(result):
        print(f"non-converged: norm deficit exceeds {NONCONVERGED_DEFICIT}",
              file=sys.stderr)
        return EXIT_NONCONVERGED
    return 0


if __name__ == "__main__":
    sys.exit(main())
