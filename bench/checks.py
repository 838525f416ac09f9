"""Output checks for the benchmark workloads.

Every check raises :class:`CheckError` when an output is wrong.  Reference
values come from closed forms written here and never from dualcat: the
displaced-parity correlator of the cat pair from coherent-state overlaps,
the Fock coefficients of even and odd cats, the binary entropy, and the
Fisher information of the |2a,0> - |0,2a> probe.  Tolerances are those the
benchmark promises; ``selftest.py`` shows each check rejects a wrong answer.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

TSIRELSON = 2.0 * math.sqrt(2.0)


class CheckError(Exception):
    """An operation's output is not what the physics fixes."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# closed forms


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _parity_element(a: complex, b: complex, beta: complex) -> complex:
    """<a| D(beta) (-1)^n D(beta)^dagger |b> for coherent states |a>, |b>.

    D(beta) (-1)^n D(-beta) = D(2 beta) (-1)^n, (-1)^n |b> = |-b>, and
    D(2 beta)|-b> = exp(beta* b - beta b*) |2 beta - b>.
    """
    c = 2.0 * beta - b
    return cmath.exp(beta.conjugate() * b - beta * b.conjugate()
                     - 0.5 * abs(a) ** 2 - 0.5 * abs(c) ** 2 + a.conjugate() * c)


def cat_pair_correlator(alpha: float, beta1: complex, beta2: complex) -> float:
    """Displaced-parity correlator of the normalized pair |a,-a> - |-a,a>."""
    a = complex(alpha)
    branches = ((1.0, a, -a), (-1.0, -a, a))
    total = 0.0 + 0.0j
    for ci, x1, x2 in branches:
        for cj, y1, y2 in branches:
            total += (ci * cj * _parity_element(x1, y1, complex(beta1))
                      * _parity_element(x2, y2, complex(beta2)))
    return (total / (2.0 * (1.0 - math.exp(-4.0 * abs(a) ** 2)))).real


def cat_pair_chsh(alpha: float, b1: complex, b1p: complex, b2: complex, b2p: complex) -> float:
    e = cat_pair_correlator
    return e(alpha, b1, b2) + e(alpha, b1, b2p) + e(alpha, b1p, b2) - e(alpha, b1p, b2p)


def cat_coefficients(alpha: float, parity: str, nmax: int) -> np.ndarray:
    """Normalized even or odd cat |a> +- |-a> in the Fock basis, n = 0..nmax."""
    x = float(alpha) ** 2
    keep = 0 if parity == "even" else 1
    norm = math.sqrt(2.0 * (1.0 + (1 if keep == 0 else -1) * math.exp(-2.0 * x)))
    out = np.zeros(nmax + 1)
    for n in range(keep, nmax + 1, 2):
        out[n] = 2.0 * math.exp(-0.5 * x + 0.5 * n * math.log(x) - 0.5 * math.lgamma(n + 1)) / norm
    return out


def dual_rail_pair(alpha: float, nmax: int) -> np.ndarray:
    """(|even>_H |odd>_V - |odd>_H |even>_V)/sqrt2 as an (nH, nV) matrix."""
    even = cat_coefficients(alpha, "even", nmax)
    odd = cat_coefficients(alpha, "odd", nmax)
    return (np.outer(even, odd) - np.outer(odd, even)) / math.sqrt(2.0)


def even_control_entropy(alpha: float) -> float:
    """Entropy of the even-cat control: Schmidt weights are n_e^4 : n_o^4 with
    n_e^2, n_o^2 = 2(1 +- e^{-2a^2}), the squared norms of |a> +- |-a>."""
    ov = math.exp(-2.0 * alpha * alpha)
    we, wo = (2.0 * (1.0 + ov)) ** 2, (2.0 * (1.0 - ov)) ** 2
    return binary_entropy(we / (we + wo))


def noon_fisher(alpha: float) -> float:
    """Phase QFI of the |2a,0> - |0,2a> probe: 2(g^4+g^2)/(1-x) - g^4/(1-x)^2."""
    g2 = 4.0 * alpha * alpha
    x = math.exp(-g2)
    return 2.0 * (g2 * g2 + g2) / (1.0 - x) - g2 * g2 / (1.0 - x) ** 2


SINGLET = np.outer([0.0, 1.0, -1.0, 0.0], [0.0, 1.0, -1.0, 0.0]) / 2.0


# ---------------------------------------------------------------------------
# bell-chsh


def check_bell(alpha: float, value: float, settings: tuple) -> None:
    require(2.0 < value <= TSIRELSON + 1e-9,
            f"alpha {alpha}: |B| = {value!r} outside (2, 2 sqrt2]")
    b = cat_pair_chsh(alpha, *settings)
    require(abs(abs(b) - value) <= 1e-6,
            f"alpha {alpha}: closed-form B = {b!r} at the returned settings, "
            f"search reported |B| = {value!r}")


def check_rising(alphas: list, values: list) -> None:
    pairs = sorted(zip(alphas, values))
    for (a0, v0), (a1, v1) in zip(pairs, pairs[1:]):
        require(v1 > v0, f"|B| does not rise with alpha: {v0!r} at {a0} >= {v1!r} at {a1}")


# ---------------------------------------------------------------------------
# polarization-access


def check_one_bit(entropy: float, what: str) -> None:
    require(abs(entropy - 1.0) <= 1e-9, f"{what}: entropy {entropy!r} bit, not 1")


def check_dual_rail(matrix: np.ndarray, alpha: float, outside_mass: float) -> None:
    """``matrix[nH, nV]`` holds the path-1 amplitudes of the generated state;
    ``outside_mass`` is its probability with any other mode occupied."""
    target = dual_rail_pair(alpha, matrix.shape[0] - 1)
    require(matrix.shape == target.shape, f"path-1 amplitudes have shape {matrix.shape}")
    overlap = np.vdot(target, matrix)
    norm = (np.sum(np.abs(matrix) ** 2) + outside_mass) * np.sum(np.abs(target) ** 2)
    fid = abs(overlap) ** 2 / norm
    require(fid >= 1.0 - 1e-9, f"alpha {alpha}: fidelity {fid!r} to the dual-rail pair")


def check_qubit_state(rho: np.ndarray, negativity: float, postselect: float,
                      offset: float) -> None:
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    require(herm <= 1e-9, f"offset {offset}: rho not Hermitian ({herm:.3g})")
    tr = complex(np.trace(rho))
    require(abs(tr - 1.0) <= 1e-9, f"offset {offset}: trace {tr!r}")
    low = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    require(low >= -1e-9, f"offset {offset}: eigenvalue {low!r} < 0")
    require(-1e-9 <= negativity <= 0.5 + 1e-9, f"offset {offset}: negativity {negativity!r}")
    require(0.0 < postselect <= 1.0 + 1e-12, f"offset {offset}: post-selection {postselect!r}")
    if offset == 0.0:
        gap = float(np.max(np.abs(rho - SINGLET)))
        require(gap <= 1e-6, f"offset 0: rho differs from the singlet by {gap:.3g}")


# ---------------------------------------------------------------------------
# cli-small


def _refuse_constant(token: str):
    raise CheckError(f"non-finite number {token} in the JSON output")


def load_result(rc: int, text: str) -> dict:
    """Parse one CLI JSON document; it must come from a converged run."""
    require(rc == 0, f"exit code {rc}")
    doc = json.loads(text, parse_constant=_refuse_constant)
    require(doc.get("converged") is True, "run not flagged converged")
    return doc


def scalar(doc: dict, name: str) -> float:
    value = doc["result"]["scalars"][name]
    require(isinstance(value, (int, float)), f"scalar {name} is {value!r}")
    return float(value)


def check_generate(doc: dict, alpha: float, parity: str) -> None:
    want = 1.0 if parity == "odd" else even_control_entropy(alpha)
    got = scalar(doc, "entropy_bits")
    require(abs(got - want) <= 1e-9, f"generate {parity} alpha {alpha}: entropy {got!r}, want {want!r}")


def check_fisher(doc: dict, alphas: list) -> None:
    rows = doc["result"]["tables"]["fisher"]["rows"]
    require([r[0] for r in rows] == list(alphas), f"fisher rows {rows!r} do not follow the grid")
    for alpha, row in zip(alphas, rows):
        want = noon_fisher(alpha)
        require(abs(row[1] - want) <= 1e-9 * want, f"fisher alpha {alpha}: qfi {row[1]!r}, want {want!r}")


def check_sv_generate(doc: dict, transmittance: float, t_grid: list) -> None:
    got = scalar(doc, "entropy_bits")
    want = binary_entropy(transmittance)
    require(abs(got - want) <= 1e-9, f"sv-generate T {transmittance}: entropy {got!r}, want {want!r}")
    rows = doc["result"]["tables"]["transmittance_sweep"]["rows"]
    require([r[0] for r in rows] == list(t_grid), f"sv-generate rows {rows!r} do not follow the grid")
    for t, ent in rows:
        require(abs(ent - binary_entropy(t)) <= 1e-9, f"sv-generate T {t}: entropy {ent!r}")


def check_sv_access(doc: dict) -> None:
    fid = scalar(doc, "conditional_fidelity")
    require(fid >= 1.0 - 1e-9, f"sv-access conditional fidelity {fid!r}")


def check_ifm(doc: dict, state: str) -> None:
    eta = scalar(doc, "eta")
    if state == "entangled":
        require(abs(eta - 1.0 / 3.0) <= 1e-9, f"ifm entangled: eta {eta!r}, want 1/3")
    elif state == "single-photon":
        require(abs(eta - 0.5) <= 1e-3, f"ifm single photon: eta {eta!r}, want 1/2")
    else:
        require(eta == 0.0, f"ifm {state}: eta {eta!r}, want 0")


def check_single_photon_pair(fidelity: float) -> None:
    require(fidelity >= 1.0 - 1e-9,
            f"anti-squeezed pair: fidelity {fidelity!r} to (|1,0> + |0,1>)/sqrt2")
