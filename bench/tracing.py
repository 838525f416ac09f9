"""Per-layer tracing of dualcat from outside the package.

The tracer replaces each listed public function with a timing wrapper.  A
function is replaced under every name that binds it in any dualcat module,
so ``from .fock import displacement_matrix`` in ``elements`` is caught where
it is bound.  A wrapper records calls, inclusive time, self time (inclusive
time minus the time spent in other wrapped functions it calls) and, where
asked, the amplitude count of the input state.  The lru_cache counters of
the two float-keyed matrix builders are read directly.
"""

from __future__ import annotations

import functools
import sys
import time

#: (module, attribute, record amplitude count of the first argument)
TARGETS = (
    ("fock", "displacement_matrix", False),
    ("fock", "squeeze_matrix", False),
    ("fock", "apply_two_mode_mixer", True),
    ("fock", "apply_single_mode_matrix", True),
    ("fock", "PureState.norm_sq", False),
    ("fock", "embed", False),
    ("elements", "displaced_parity_expect", False),
    ("elements", "cnot_pol", False),
    ("elements", "cphase_pol", False),
    ("elements", "cswap_pol", False),
    ("elements", "parity_controlled_flip", False),
    ("elements", "polarizer", False),
    ("elements", "onoff_detect", False),
    ("elements", "absorb_arm", False),
    ("elements", "displace", False),
    ("elements", "squeeze", False),
    ("analysis", "chsh_optimize", False),
    ("analysis", "chsh_displaced_parity", False),
    ("analysis", "entanglement", False),
    ("analysis", "polarization_qubit_state", False),
    ("analysis", "subsystem_fidelity", False),
    ("analysis", "qfi_phase_decay", False),
    ("circuits", "access_polarization", False),
    ("circuits", "generate_entangled_cat", False),
    ("circuits", "sv_generate", False),
    ("circuits", "sv_access_polarization", False),
    ("circuits", "run_ifm", False),
    ("circuits", "noon_from_cat_pair", False),
    ("states", "coherent", False),
    ("states", "cat", False),
    ("states", "squeezed_vacuum", False),
    ("states", "subtracted_sv", False),
    ("states", "entangled_cat_pair", False),
    ("cli", "main", False),
    ("cli", "write_output", False),
)

#: reported sums of self time over groups of wrapped functions
GROUPS = {
    "elements.gates.self_s": ("elements.cnot_pol", "elements.cphase_pol",
                              "elements.cswap_pol", "elements.parity_controlled_flip"),
    "elements.detect.self_s": ("elements.polarizer", "elements.onoff_detect",
                               "elements.absorb_arm"),
    "states.self_s": ("states.coherent", "states.cat", "states.squeezed_vacuum",
                      "states.subtracted_sv", "states.entangled_cat_pair"),
}

#: reported single-function fields: (wrapped name, field)
FIELDS = (
    ("fock.displacement_matrix", "calls"),
    ("fock.displacement_matrix", "s"),
    ("fock.squeeze_matrix", "s"),
    ("fock.apply_two_mode_mixer", "calls"),
    ("fock.apply_two_mode_mixer", "self_s"),
    ("fock.apply_two_mode_mixer", "amps_in"),
    ("fock.apply_single_mode_matrix", "calls"),
    ("fock.apply_single_mode_matrix", "self_s"),
    ("fock.apply_single_mode_matrix", "amps_in"),
    ("fock.PureState.norm_sq", "calls"),
    ("fock.PureState.norm_sq", "s"),
    ("fock.embed", "s"),
    ("elements.displaced_parity_expect", "calls"),
    ("elements.displaced_parity_expect", "self_s"),
    ("elements.displace", "self_s"),
    ("elements.squeeze", "self_s"),
    ("analysis.chsh_optimize", "s"),
    ("analysis.chsh_displaced_parity", "calls"),
    ("analysis.entanglement", "s"),
    ("analysis.polarization_qubit_state", "s"),
    ("analysis.subsystem_fidelity", "s"),
    ("analysis.qfi_phase_decay", "s"),
    ("circuits.access_polarization", "s"),
    ("circuits.access_polarization", "self_s"),
    ("circuits.generate_entangled_cat", "s"),
    ("circuits.sv_generate", "s"),
    ("circuits.sv_access_polarization", "s"),
    ("circuits.run_ifm", "s"),
    ("circuits.noon_from_cat_pair", "s"),
    ("cli.main", "self_s"),
    ("cli.write_output", "s"),
)

#: lru_cache'd builders whose misses (and, for the first, entries) are reported
CACHED = ("displacement_matrix", "squeeze_matrix")

UNITS = {"calls": "count", "amps_in": "count", "s": "s", "self_s": "s"}


def metric_names() -> list:
    """Every per-layer metric name with its unit, in report order."""
    names = [(f"{fn}.{field}", UNITS[field]) for fn, field in FIELDS]
    names += [(name, "s") for name in GROUPS]
    names += [(f"fock.{fn}.misses", "count") for fn in CACHED]
    names.append(("fock.displacement_matrix.cache_entries", "count"))
    return names


class Tracer:
    """Install once with :meth:`install` (it stays for the life of the
    process); read each round with :meth:`start` and :meth:`metrics`."""

    def __init__(self) -> None:
        self.stats = {f"{mod}.{attr}": [0, 0.0, 0.0, 0] for mod, attr, _ in TARGETS}
        self._stack: list = []
        fock = sys.modules["dualcat.fock"]
        # cache_info of each builder, taken before wrapping; a builder
        # without an lru_cache counts every call as a miss
        self._cache_info = {fn: getattr(getattr(fock, fn, None), "cache_info", None)
                            for fn in CACHED}
        self._misses0: dict = {}

    def _wrap(self, name: str, fn, count_amps: bool):
        stats, stack = self.stats, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            amps = len(args[0].amps) if count_amps else 0
            children = [0.0]
            stack.append(children)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                st = stats[name]
                st[0] += 1
                st[1] += dt
                st[2] += dt - children[0]
                st[3] += amps

        return wrapper

    def install(self) -> None:
        """Wrap every target; one missing from the program leaves its metrics at 0."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "dualcat" or key.startswith("dualcat.")]
        for mod_name, attr, count_amps in TARGETS:
            holder = sys.modules[f"dualcat.{mod_name}"]
            *owners, leaf = attr.split(".")
            for owner in owners:
                holder = getattr(holder, owner, None)
            original = getattr(holder, leaf, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{mod_name}.{attr}", original, count_amps)
            if owners:  # a method: replace it on its class
                setattr(holder, leaf, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _misses(self, fn: str) -> int:
        info = self._cache_info[fn]
        return info().misses if info else self.stats[f"fock.{fn}"][0]

    def start(self) -> None:
        """Zero the counters at the start of a round."""
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0, 0]
        self._misses0 = {fn: self._misses(fn) for fn in CACHED}

    def metrics(self) -> dict:
        """Per-layer metrics of the round since :meth:`start`."""
        field_index = {"calls": 0, "s": 1, "self_s": 2, "amps_in": 3}
        out = {f"{fn}.{field}": self.stats[fn][field_index[field]] for fn, field in FIELDS}
        for group, members in GROUPS.items():
            out[group] = sum(self.stats[m][2] for m in members)
        for fn in CACHED:
            out[f"fock.{fn}.misses"] = self._misses(fn) - self._misses0[fn]
        info = self._cache_info["displacement_matrix"]
        out["fock.displacement_matrix.cache_entries"] = info().currsize if info else 0
        return out
