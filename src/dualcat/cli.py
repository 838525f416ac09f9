"""Experiment runner.

Every experiment is a named, fully configured, reproducible run producing
one JSON document (and CSV side files for tables).  Parameters come from
built-in defaults, then an optional JSON config file, then command-line
flags, in that order of precedence.  :data:`EXPERIMENTS` describes each
experiment once: its typed parameters (hence its flags and the checks
every value gets), the cutoff rule of its budget, and what it computes.

Exit codes: 0 success, 2 configuration error, 3 cutoff violation,
4 gate-contract violation, 5 run flagged non-converged.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
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
from .blas import openblas
from .elements import Imperfection
from .fock import (
    DEFAULT_TAIL_EPS,
    ContractViolationError,
    CutoffError,
    FockError,
    coherent_cutoff,
    mode,
    normalized,
    plain_register,
    polarized_register,
    squeezed_cutoff,
)
from .results import ExperimentResult, Table, _plain
from .states import entangled_cat_pair

SCHEMA_VERSION = "dualcat-result/1"
NONCONVERGED_DEFICIT = 1e-9
#: desk-scale guards: registers beyond this per-mode cutoff, and grids or
#: sweeps of more points than this, are refused
MAX_CUTOFF = 120
MAX_GRID_POINTS = 10_000

EXIT_CONFIG, EXIT_CUTOFF, EXIT_CONTRACT, EXIT_NONCONVERGED = 2, 3, 4, 5


class ConfigError(Exception):
    pass


#: how a refused run is reported: (exception, stderr label, exit code), first match wins
ERRORS = ((ConfigError, "config error", EXIT_CONFIG),
          (CutoffError, "cutoff violation", EXIT_CUTOFF),
          (ContractViolationError, "contract violation", EXIT_CONTRACT),
          (FockError, "error", EXIT_CONFIG))


@dataclass
class RunConfig:
    """Resolved configuration of a single run."""

    experiment: str
    parameters: dict
    cutoff_epsilon: float = DEFAULT_TAIL_EPS
    jobs: int = 1
    output_path: str | None = None

    def to_json_dict(self) -> dict:
        return {"experiment": self.experiment, "parameters": _plain(self.parameters),
                "cutoff_epsilon": self.cutoff_epsilon, "jobs": self.jobs}


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
    if not spec.replace(",", "").strip():
        raise ConfigError(f"grid {spec!r} holds no value")
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
    out, x = [], start
    while x <= stop + 1e-12:
        if len(out) == MAX_GRID_POINTS:  # also ends a step too small to move x
            raise ConfigError(f"grid {spec!r} has more than {MAX_GRID_POINTS} points")
        out.append(round(x, 12))
        x += step
    return out


@dataclass(frozen=True)
class Param:
    """A typed parameter.  ``kind`` is "float", "bool", "choice" (one of ``choices``)
    or "grid" (a "start:stop:step" or comma-list string); each number or grid point
    lies in [low, high].  An empty grid stands for ``empty``, or is refused."""

    default: object
    kind: str = "float"
    choices: tuple = ()
    low: float = -math.inf
    high: float = math.inf
    empty: list | None = None

    def points(self, value: str) -> list:
        return self.empty if self.empty is not None and not value.strip() else parse_grid(value)

    def check(self, key: str, value) -> None:
        """Refuse a value of the wrong type, outside the choices or out of range."""
        number = (isinstance(value, (int, float)) and not isinstance(value, bool)
                  and abs(value) <= sys.float_info.max)
        ok, want = {"bool": (isinstance(value, bool), "true or false"),
                    "choice": (isinstance(value, str) and value in self.choices,
                               f"one of {list(self.choices)}"),
                    "grid": (isinstance(value, str), "a grid string (start:stop:step or a list)"),
                    "float": (number, "a finite number")}[self.kind]
        if not ok:
            raise ConfigError(f"parameter {key!r} must be {want}, got {value!r}")
        for x in self.points(value) if self.kind == "grid" else [value] if number else []:
            if not self.low <= x <= self.high:
                raise ConfigError(f"parameter {key!r} must lie in [{self.low}, {self.high}], "
                                  f"got {x!r}")


@dataclass(frozen=True)
class Experiment:
    """One experiment: ``cutoff(p, eps)``, the largest per-mode cutoff its
    registers take at parameters ``p`` by the circuits' own rules;
    ``single(p, eps)``, a one-shot result; and the top-level ``point(q, eps)``,
    a table row and its state's norm deficit at each point ``q`` of the
    product of its grid parameters, in table order.  A sweep with a
    ``summary`` (rows -> scalars) is the whole result; one without adds a
    table to the single one.
    """

    help: str
    params: dict
    cutoff: object
    single: object = None
    point: object = None
    table: str = ""
    columns: tuple = ()
    summary: object = None


def _result(scalars: dict, state, **tables) -> ExperimentResult:
    """A one-shot result, with the cutoffs and norm deficit of its output state."""
    reg = state.register
    return ExperimentResult(scalars, tables, {
        "cutoffs": {str(m): c for m, c in zip(reg.modes, reg.cutoffs)},
        "norm_deficit": state.norm_deficit})


def _paths_fidelity(out, analytic, *args, **kwargs) -> float:
    """Fidelity of paths 1 and 2 of ``out`` to an analytic pair built on them."""
    target = analytic(polarized_register([1, 2], max(out.register.cutoffs)), *args, **kwargs)
    return analysis.subsystem_fidelity(out, target, [mode(p, s) for p in (1, 2) for s in "HV"])


def _generate(p: dict, eps: float) -> ExperimentResult:
    alpha, sign, odd = p["alpha"], p["sign"], p["parity"] == "odd"
    make = circuits.generate_entangled_cat if odd else circuits.generate_even_cat_control
    rep = make(alpha, sign, eps)
    out = rep.output_state
    summary = analysis.entanglement(normalized(out), [mode(1, "H")])
    scalars = {"entropy_bits": summary.entropy_bits, "log_negativity": summary.log_negativity,
               "postselect_probability": rep.postselect_probability}
    if odd:
        target = circuits.analytic_dual_rail_pair(out.register, alpha, sign, tail_eps=eps)
        scalars["fidelity_analytic"] = analysis.fidelity(out, target)
    return _result(scalars, out, schmidt_spectrum=Table(
        ["index", "weight"], [[i, w] for i, w in enumerate(summary.schmidt_spectrum)]))


def _duality(p: dict, eps: float) -> ExperimentResult:
    gen = circuits.generate_entangled_cat(p["alpha"], "-", eps).output_state
    par = circuits.access_parity(gen).output_state
    pol = circuits.access_polarization(gen, tail_eps=eps)
    path1 = [mode(1, "H"), mode(1, "V")]
    return _result({
        "entropy_HV": analysis.entanglement(normalized(gen), [mode(1, "H")]).entropy_bits,
        "entropy_paths": analysis.entanglement(normalized(par), path1).entropy_bits,
        "entropy_polarization": analysis.entanglement(pol.output_state, path1).entropy_bits,
        "bell_fidelity": _paths_fidelity(pol.output_state, circuits.analytic_coherent_bell,
                                         abs(p["alpha"]) / math.sqrt(2.0), tail_eps=eps),
        "postselect_probability": pol.postselect_probability,
    }, pol.output_state)


def _access_cutoff(q: dict, eps: float) -> int:  # the register the access builds on the pair
    imp = Imperfection(displacement_offset=q.get("b_offsets", 0.0))
    return max(circuits.access_register(circuits.generation_cutoff(q["alpha"], eps),
                                        abs(q["alpha"]) / math.sqrt(2.0), imp, eps).cutoffs)


def _bell_cutoff(q: dict, eps: float) -> int:
    return coherent_cutoff(abs(q["alpha_grid"]) + q["radius"] + 0.3, eps)


def _bell_point(q: dict, eps: float) -> tuple:
    alpha = q["alpha_grid"]
    reg = plain_register([1, 2], _bell_cutoff(q, eps))
    pair = entangled_cat_pair(reg, mode(1), mode(2), alpha, "-", eps)
    s, value = analysis.chsh_optimize(pair, analysis.BellSearch(q["radius"], q["axis"]))
    betas = (s.beta1, s.beta1p, s.beta2, s.beta2p)
    return [alpha, value, *(x for b in betas for x in (b.real, b.imag))], pair.norm_deficit


def _fisher_point(q: dict, eps: float) -> tuple:
    noon = circuits.noon_from_cat_pair(q["alpha_grid"], eps)
    qfi, nbar = analysis.qfi_phase(noon, mode(1)), analysis.total_mean_photons(noon)
    decay = analysis.qfi_phase_decay(noon, mode(1))
    return [q["alpha_grid"], qfi, nbar, qfi / nbar**2, 4.0 * nbar, decay], noon.norm_deficit


def _sv_generate(p: dict, eps: float) -> ExperimentResult:
    r, t = float(p["r"]), float(p["transmittance"])
    rep = circuits.sv_generate(r, t, eps)
    out = rep.output_state
    scalars = {"entropy_bits": analysis.entanglement(out, [mode(1, "H")]).entropy_bits,
               "postselect_probability": rep.postselect_probability}
    if t == 0.5:
        analytic = circuits.analytic_balanced_sv_pair(out.register, r, eps)
        scalars["fidelity_analytic"] = analysis.fidelity(out, analytic)
    return _result(scalars, out)


def _sv_t_point(q: dict, eps: float) -> tuple:
    out = circuits.sv_generate(float(q["r"]), q["t_grid"], eps).output_state
    return [q["t_grid"], analysis.entanglement(out, [mode(1, "H")]).entropy_bits], out.norm_deficit


def _sv_access(p: dict, eps: float) -> ExperimentResult:
    r = float(p["r"])
    acc = circuits.sv_access_polarization(circuits.sv_generate(r, 0.5, eps).output_state)
    out = acc.output_state
    fidelity = _paths_fidelity(out, circuits.analytic_subtracted_bell, r, tail_eps=eps)
    return _result({"conditional_fidelity": fidelity,
                    "postselect_probability": acc.postselect_probability}, out)


def _imperfection_point(q: dict, eps: float) -> tuple:
    offset, flip = q["b_offsets"], q["flip_angles"]
    gen = circuits.generate_entangled_cat(float(q["alpha"]), "-", eps)
    imp = Imperfection(displacement_offset=offset, flip_angle=flip)
    acc = circuits.access_polarization(gen.output_state, imp, eps)
    neg, logneg = analysis.negativity_two_qubit(
        analysis.polarization_qubit_state(acc.output_state, 1, 2).rho)
    return [offset, flip, neg, logneg, acc.postselect_probability], acc.output_state.norm_deficit


#: every experiment of the CLI, in the order ``--help`` lists them
EXPERIMENTS: dict = {
    "generate": Experiment(
        "entangled cat generation",
        {"alpha": Param(1.2), "sign": Param("-", "choice", ("+", "-")),
         "parity": Param("odd", "choice", ("odd", "even"))},
        lambda q, eps: circuits.generation_cutoff(q["alpha"], eps), single=_generate),
    "duality": Experiment(
        "entropy across generation and both accesses",
        {"alpha": Param(1.2)}, _access_cutoff, single=_duality),
    "bell": Experiment(
        "optimized displaced-parity CHSH sweep",
        {"alpha_grid": Param("0.5:2.0:0.5", "grid"), "radius": Param(1.0, low=math.ulp(0.0)),
         "axis": Param("imag", "choice", ("imag", "real", "complex"))},
        _bell_cutoff, point=_bell_point, table="bell",
        columns=("alpha", "chsh", "beta1_re", "beta1_im", "beta1p_re", "beta1p_im",
                 "beta2_re", "beta2_im", "beta2p_re", "beta2p_im"),
        summary=lambda rows: {"chsh_max": max(r[1] for r in rows),
                              "tsirelson": 2.0 * math.sqrt(2.0)}),
    "ifm": Experiment(
        "interaction-free bomb test",
        {"state": Param("entangled", "choice", ("entangled", "nonmaximal", "single-photon")),
         "theta": Param(math.pi / 6), "bomb": Param(False, "bool")},
        lambda q, eps: 2, single=lambda p, eps: circuits.run_ifm(
            p["state"].replace("-", "_"), p["bomb"], float(p["theta"]))),
    "fisher": Experiment(
        "phase-estimation Fisher information sweep",
        {"alpha_grid": Param("1.0:2.5:0.5", "grid")},
        lambda q, eps: circuits.noon_cutoff(q["alpha_grid"], eps),
        point=_fisher_point, table="fisher",
        columns=("alpha", "qfi", "nbar", "qfi_over_nbar_sq", "shot_noise", "qfi_decay_oracle"),
        summary=lambda rows: {"qfi_at_max_alpha": rows[-1][1]}),
    "sv-generate": Experiment(
        "squeezed-vacuum pair source",
        {"r": Param(0.8), "transmittance": Param(0.5, low=0.0, high=1.0),
         "t_grid": Param("", "grid", low=0.0, high=1.0, empty=[])},
        lambda q, eps: squeezed_cutoff(q["r"], eps), single=_sv_generate,
        point=_sv_t_point, table="transmittance_sweep",
        columns=("transmittance", "entropy_bits")),
    "sv-access": Experiment(
        "squeezed-vacuum polarization access",
        {"r": Param(0.7)}, lambda q, eps: squeezed_cutoff(q["r"], eps), single=_sv_access),
    "imperfection-sweep": Experiment(
        "negativity vs hardware error",
        {"alpha": Param(1.2), "b_offsets": Param("0.0:0.6:0.1", "grid", empty=[0.0]),
         "flip_angles": Param("", "grid", low=0.0, high=math.pi, empty=[math.pi])},
        _access_cutoff, point=_imperfection_point, table="imperfection",
        columns=("b_offset", "flip_angle", "negativity", "log_negativity",
                 "postselect_probability"),
        summary=lambda rows: {"max_negativity": max(r[2] for r in rows)}),
}


def resolve_config(experiment: str, file_params: dict, flag_params: dict,
                   cutoff_epsilon: float, jobs: int,
                   output_path: str | None) -> RunConfig:
    """Defaults, then the config file, then the flags, each value checked by its
    Param; an output path that is a directory or lies under a file is refused."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    spec = EXPERIMENTS[experiment].params
    params = {key: par.default for key, par in spec.items()}
    for source, values in (("config file", file_params), ("flags", flag_params)):
        for key, value in values.items():
            if key not in params:
                raise ConfigError(f"unknown parameter {key!r} for experiment {experiment!r} "
                                  f"(from {source}); known: {sorted(params)}")
            params[key] = value
    if not 0.0 < cutoff_epsilon < 1.0:
        raise ConfigError(f"cutoff epsilon must lie in (0, 1), got {cutoff_epsilon!r}")
    for key, value in params.items():
        spec[key].check(key, value)
    # the processors this process may run on, where the platform says
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    jobs = min(max(int(jobs), 1), usable or 1)
    out = Path(output_path) if output_path else None  # refused before any run
    if out and (out.is_dir() or not next(p for p in out.parents if p.exists()).is_dir()):
        raise ConfigError(f"cannot write {out}: it is a directory or lies under a file")
    return RunConfig(experiment, params, cutoff_epsilon, jobs, output_path)


def run(config: RunConfig) -> ExperimentResult:
    """Check the budget, then run the single part and map the sweep over the jobs."""
    spec = EXPERIMENTS[config.experiment]
    p, eps = config.parameters, config.cutoff_epsilon
    axes = {key: par.points(p[key]) for key, par in spec.params.items() if par.kind == "grid"}
    if math.prod(map(len, axes.values())) > MAX_GRID_POINTS:
        raise ConfigError(f"the sweep has more than {MAX_GRID_POINTS} points")
    points = ([dict(p, **dict(zip(axes, v))) for v in itertools.product(*axes.values())]
              if axes else [])
    cutoff = max(spec.cutoff(q, eps) for q in points + ([p] if spec.single else []))
    if cutoff > MAX_CUTOFF:
        raise CutoffError(f"{config.experiment} needs a per-mode cutoff of {cutoff} "
                          f"(> {MAX_CUTOFF}); shrink its amplitudes or search radius")
    result = spec.single(p, eps) if spec.single else ExperimentResult()
    if config.jobs > 1 and len(points) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a parallel sweep pays this
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            done = list(pool.map(spec.point, points, [eps] * len(points)))
    else:
        done = [spec.point(q, eps) for q in points]
    if done:
        rows, deficits = map(list, zip(*done))
        result.tables[spec.table] = Table(list(spec.columns), rows)
        if spec.summary:
            result.scalars = spec.summary(rows)
        # the single state's deficit, if there is one, and every row's
        result.convergence["norm_deficit"] = max(result.convergence.get("norm_deficit", 0.0),
                                                 *deficits)
    result.convergence.setdefault("cutoff_epsilon", eps)
    return result


def provenance() -> dict:
    """The library versions and BLAS settings that produce a result."""
    blas = openblas()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "openblas": None if blas is None else {"library": blas.library, "config": blas.config},
            "engine_blas_threads": None if blas is None else 1}


def write_output(config: RunConfig, result: ExperimentResult) -> str:
    payload = {"schema_version": SCHEMA_VERSION, "config": config.to_json_dict(),
               "result": result.to_json_dict(), "converged": _is_converged(result),
               "provenance": provenance(),
               "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    if config.output_path:
        out = Path(config.output_path)
        out.parent.mkdir(parents=True, exist_ok=True)
        paths = [out.with_name(f"{out.stem}.{name}.csv") for name in result.tables] + [out]
        temporary = [p.with_name(f".{p.name}.{os.getpid()}.tmp") for p in paths]
        try:
            for tmp, table in zip(temporary, result.tables.values()):
                with tmp.open("w", newline="") as fh:
                    csv.writer(fh).writerows([table.columns, *table.rows])
            temporary[-1].write_text(text + "\n")
            for tmp, path in zip(temporary, paths):  # the JSON last: it claims a whole run
                os.replace(tmp, path)
        finally:
            for tmp in temporary:
                tmp.unlink(missing_ok=True)
    return text


def _is_converged(result: ExperimentResult) -> bool:
    return float(result.convergence.get("norm_deficit", 0.0)) < NONCONVERGED_DEFICIT


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built at the first call and shared by every later one:
    ``parse_args`` only reads it, and parses each argv into a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="dualcat",
        description="Reproducible runs of the entangled-cat toolkit experiments.")
    parser.add_argument("--output", help="write the JSON result (and table CSVs) here")
    parser.add_argument("--cutoff-epsilon", type=float, default=DEFAULT_TAIL_EPS,
                        help="tail mass allowed beyond each Fock cutoff")
    parser.add_argument("--jobs", type=int, default=1, help="parallel workers for grid sweeps")
    parser.add_argument("--config", help="JSON file with experiment parameters")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, spec in EXPERIMENTS.items():
        sp = sub.add_parser(name, help=spec.help)
        for key, par in spec.params.items():
            flag = "--" + key.replace("_", "-")
            if par.kind == "bool":
                both = sp.add_mutually_exclusive_group()
                both.add_argument(flag, dest=key, action="store_true", default=None)
                both.add_argument("--no-" + flag[2:], dest=key, action="store_false", default=None)
            else:
                sp.add_argument(flag, dest=key, type=float if par.kind == "float" else None,
                                choices=par.choices or None)
    return parser


def main(argv: list | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        file_params = json.loads(Path(ns.config).read_text()) if ns.config else {}
    except (OSError, json.JSONDecodeError) as err:
        print(f"config error: cannot read {ns.config}: {err}", file=sys.stderr)
        return EXIT_CONFIG
    flag_params = {key: getattr(ns, key) for key in EXPERIMENTS[ns.experiment].params
                   if getattr(ns, key) is not None}
    try:
        if not isinstance(file_params, dict):
            raise ConfigError("config file must hold a JSON object")
        config = resolve_config(ns.experiment, file_params, flag_params,
                                ns.cutoff_epsilon, ns.jobs, ns.output)
        result = run(config)
    except (ConfigError, FockError) as err:
        label, code = next((label, code) for kind, label, code in ERRORS if isinstance(err, kind))
        print(f"{label}: {err}", file=sys.stderr)
        return code
    try:
        text = write_output(config, result)
    except ValueError as err:  # a non-finite number in the result
        print(f"non-converged: {err}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except OSError as err:  # a directory, a path under a regular file, no permission
        print(f"config error: cannot write {config.output_path}: {err}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"wrote {config.output_path}" if config.output_path else text)
    if not _is_converged(result):
        print(f"non-converged: norm deficit exceeds {NONCONVERGED_DEFICIT}", file=sys.stderr)
        return EXIT_NONCONVERGED
    return 0


if __name__ == "__main__":
    sys.exit(main())
