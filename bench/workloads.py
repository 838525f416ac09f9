"""The benchmark workloads: round inputs drawn from a seed, the timed
operation, and the checks of its output.

Seeds move input values inside windows that hold every register cutoff
fixed, so every seed does the same amount of work.  Every round draws fresh
values, so no operation repeats an input already computed in the process
(the float-keyed matrix caches would make a repeat nearly free).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import checks
from dualcat import analysis, circuits, cli, states
from dualcat.elements import Imperfection
from dualcat.fock import coherent_cutoff, mode, normalized, plain_register

TAIL_EPS = 1e-12


class BellChsh:
    """Default CHSH search on the cat pair |a,-a> - |-a,a>, one per amplitude.

    Each window ends at a default point of the ``bell`` CLI grid and keeps
    its cutoff ``coherent_cutoff(alpha + radius + 0.3)`` at 22, 28, 34 and 41
    (0.51 and 2.03 would step it to 23 and 42).
    """

    WINDOWS = ((0.47, 0.50), (0.97, 1.00), (1.47, 1.50), (1.97, 2.00))
    RADIUS = 1.0

    def inputs(self, rng) -> list:
        out = []
        for lo, hi in self.WINDOWS:
            alpha = rng.uniform(lo, hi)
            reg = plain_register([1, 2], coherent_cutoff(alpha + self.RADIUS + 0.3, TAIL_EPS))
            out.append((alpha, states.entangled_cat_pair(reg, mode(1), mode(2), alpha, "-", TAIL_EPS)))
        return out

    def run(self, inp):
        return analysis.chsh_optimize(inp[1], analysis.BellSearch(radius=self.RADIUS))

    def check(self, inp, out) -> None:
        settings, value = out
        checks.check_bell(inp[0], value, (settings.beta1, settings.beta1p,
                                          settings.beta2, settings.beta2p))

    def check_round(self, inputs: list, outputs: list) -> None:
        checks.check_rising([i[0] for i in inputs], [o[1] for o in outputs])


class PolarizationAccess:
    """Generation, parity access and polarization access at one displacement
    offset, then the entanglement of each stage and the extracted two-qubit
    state.  Four offsets span the ``imperfection-sweep`` range 0..0.6.

    The alpha window keeps the generation cutoff at 21 (alpha 1.145..1.210)
    and the tag cutoffs at 27, 29, 32 and 34 (1.177..1.203).
    """

    OFFSETS = (0.0, 0.2, 0.4, 0.6)
    ALPHA = (1.18, 1.20)

    def inputs(self, rng) -> list:
        return [(rng.uniform(*self.ALPHA), offset) for offset in self.OFFSETS]

    def run(self, inp):
        alpha, offset = inp
        h1, v1 = mode(1, "H"), mode(1, "V")
        gen = circuits.generate_entangled_cat(alpha, "-", TAIL_EPS)
        par = circuits.access_parity(gen.output_state)
        pol = circuits.access_polarization(gen.output_state,
                                           Imperfection(displacement_offset=offset), TAIL_EPS)
        entropies = (analysis.entanglement(normalized(gen.output_state), [h1]).entropy_bits,
                     analysis.entanglement(normalized(par.output_state), [h1, v1]).entropy_bits,
                     analysis.entanglement(pol.output_state, [h1, v1]).entropy_bits)
        qubits = analysis.polarization_qubit_state(pol.output_state, 1, 2)
        neg, _ = analysis.negativity_two_qubit(qubits.rho)
        return gen.output_state, entropies, qubits.rho, neg, pol.postselect_probability

    def check(self, inp, out) -> None:
        alpha, offset = inp
        generated, (e_gen, e_par, e_pol), rho, neg, postselect = out
        checks.check_one_bit(e_gen, f"generated, alpha {alpha}")
        checks.check_one_bit(e_par, f"parity access, alpha {alpha}")
        if offset == 0.0:
            checks.check_one_bit(e_pol, f"polarization access, alpha {alpha}")
        matrix, outside = path1_amplitudes(generated)
        checks.check_dual_rail(matrix, alpha, outside)
        checks.check_qubit_state(rho, neg, postselect, offset)

    def check_round(self, inputs: list, outputs: list) -> None:
        pass


def path1_amplitudes(state) -> tuple:
    """(amplitudes of path 1 as an [nH, nV] matrix, probability elsewhere)."""
    reg = state.register
    ih, iv = reg.modes.index(mode(1, "H")), reg.modes.index(mode(1, "V"))
    matrix = np.zeros((reg.cutoffs[ih] + 1, reg.cutoffs[iv] + 1), dtype=complex)
    outside = 0.0
    for occ, amp in state.amps.items():
        if any(n for i, n in enumerate(occ) if i not in (ih, iv)):
            outside += abs(amp) ** 2
        else:
            matrix[occ[ih], occ[iv]] = amp
    return matrix, outside


class CliSmall:
    """Short CLI experiments through ``dualcat.cli.main``, in-process, plus
    the anti-squeeze stage of the squeezed-vacuum route, which no CLI
    experiment reaches and which is the only caller of ``squeeze_matrix``.

    Windows hold the cutoffs: generate 21 (alpha 1.145..1.210), fisher 25
    and 37 (0.989..1.033, 1.477..1.515), sv-generate 62 (r 0.796..0.811),
    sv-access 50 and the anti-squeeze 54 (r 0.691..0.710).
    """

    def __init__(self, outdir: Path) -> None:
        self.outdir = outdir

    def inputs(self, rng) -> list:
        u = rng.uniform
        fisher = [u(0.995, 1.025), u(1.48, 1.51)]
        t_grid = [u(0.1, 0.45), u(0.55, 0.9)]
        theta = u(0.35, 0.65)
        ops = [
            ("generate", {"alpha": u(1.15, 1.20), "parity": "odd"}),
            ("generate", {"alpha": u(1.15, 1.20), "parity": "even"}),
            ("fisher", {"alpha_grid": fisher}),
            ("sv-generate", {"r": u(0.798, 0.81), "transmittance": 0.5, "t_grid": t_grid}),
            ("sv-access", {"r": u(0.692, 0.709)}),
            ("antisqueeze", {"r": u(0.692, 0.709)}),
        ]
        for state in ("entangled", "single-photon", "nonmaximal"):
            for bomb in (True, False):
                ops.append(("ifm", {"state": state, "bomb": bomb, "theta": theta}))
        return [(i, kind, p) for i, (kind, p) in enumerate(ops)]

    @staticmethod
    def argv(kind: str, p: dict) -> list:
        if kind == "generate":
            return ["generate", "--alpha", repr(p["alpha"]), "--parity", p["parity"]]
        if kind == "fisher":
            return ["fisher", "--alpha-grid", ",".join(map(repr, p["alpha_grid"]))]
        if kind == "sv-generate":
            return ["sv-generate", "--r", repr(p["r"]), "--transmittance", repr(p["transmittance"]),
                    "--t-grid", ",".join(map(repr, p["t_grid"]))]
        if kind == "sv-access":
            return ["sv-access", "--r", repr(p["r"])]
        return ["ifm", "--state", p["state"], "--theta", repr(p["theta"]),
                "--bomb" if p["bomb"] else "--no-bomb"]

    def output(self, index: int) -> Path:
        return self.outdir / f"op{index}.json"

    def run(self, inp):
        index, kind, p = inp
        if kind == "antisqueeze":
            return circuits.sv_antisqueeze_to_single_photon(p["r"], TAIL_EPS).output_state
        return cli.main(["--jobs", "1", "--output", str(self.output(index))] + self.argv(kind, p))

    def check(self, inp, out) -> None:
        index, kind, p = inp
        if kind == "antisqueeze":
            checks.check_single_photon_pair(single_photon_fidelity(out))
            return
        path = self.output(index)
        text = path.read_text() if out == 0 else ""
        path.unlink(missing_ok=True)  # a later round that writes nothing must not pass on it
        doc = checks.load_result(out, text)
        if kind == "generate":
            checks.check_generate(doc, p["alpha"], p["parity"])
        elif kind == "fisher":
            checks.check_fisher(doc, p["alpha_grid"])
        elif kind == "sv-generate":
            checks.check_sv_generate(doc, p["transmittance"], p["t_grid"])
        elif kind == "sv-access":
            checks.check_sv_access(doc)
        else:
            checks.check_ifm(doc, p["state"])

    def check_round(self, inputs: list, outputs: list) -> None:
        pass


def single_photon_fidelity(state) -> float:
    """Fidelity of a two-mode state to (|1,0> + |0,1>)/sqrt2."""
    amp = (state.amps.get((1, 0), 0.0) + state.amps.get((0, 1), 0.0)) / math.sqrt(2.0)
    return abs(amp) ** 2 / sum(abs(a) ** 2 for a in state.amps.values())


def make(name: str, outdir: Path):
    if name == "bell-chsh":
        return BellChsh()
    if name == "polarization-access":
        return PolarizationAccess()
    return CliSmall(outdir)

