"""Independent dense-matrix reference implementations used by the tests.

Everything here works on full Kronecker-product vectors and matrices and
avoids the sparse engine's code paths: ladder matrices are written out
index by index, displacements come from the closed-form Laguerre matrix
elements rather than a matrix exponential, and reductions go through
explicit reshapes.  Only practical for a few modes at small cutoffs.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np
from scipy.special import eval_genlaguerre

from dualcat.fock import ModeLabel, ModeRegister, PureState


def dims(register: ModeRegister) -> tuple:
    return tuple(c + 1 for c in register.cutoffs)


def dense_vector(state: PureState) -> np.ndarray:
    """Full product-basis vector (C-order over the register's modes)."""
    shape = dims(state.register)
    vec = np.zeros(shape, dtype=complex)
    for occ, amp in state.amps.items():
        vec[occ] = amp
    return vec.reshape(-1)


def from_dense(vec: np.ndarray, register: ModeRegister) -> PureState:
    shape = dims(register)
    arr = vec.reshape(shape)
    amps = {}
    for occ in product(*(range(d) for d in shape)):
        if abs(arr[occ]) > 1e-16:
            amps[occ] = complex(arr[occ])
    return PureState(register, amps, 0.0)


def basis(register: ModeRegister) -> list:
    """Occupation tuples of the product basis, in C order."""
    return list(product(*(range(d) for d in dims(register))))


def dense_pol_exchange(register: ModeRegister, path: int) -> np.ndarray:
    """Permutation matrix exchanging the H and V occupations of one path
    (whose two modes share a cutoff)."""
    ih, iv = register.index(ModeLabel(path, "H")), register.index(ModeLabel(path, "V"))
    patterns = basis(register)
    row = {occ: k for k, occ in enumerate(patterns)}
    out = np.zeros((len(patterns), len(patterns)))
    for k, occ in enumerate(patterns):
        swapped = list(occ)
        swapped[ih], swapped[iv] = occ[iv], occ[ih]
        out[row[tuple(swapped)], k] = 1.0
    return out


def v_controlled(register: ModeRegister, control_path: int, gate: np.ndarray) -> np.ndarray:
    """``gate`` on the patterns whose control path holds V light and no H
    light, identity on the others (``gate`` leaves the control path alone)."""
    ch = register.index(ModeLabel(control_path, "H"))
    cv = register.index(ModeLabel(control_path, "V"))
    on = np.array([float(occ[cv] > 0 and occ[ch] == 0) for occ in basis(register)])
    return np.diag(on) @ gate + np.diag(1.0 - on)


def dense_cnot_pol(register: ModeRegister, control_path: int, target_path: int,
                   flip_angle: float) -> np.ndarray:
    """exp[i (z/2)(F - 1)], F the target path's H/V exchange, where the
    control path is V-polarized."""
    from scipy.linalg import expm

    f = dense_pol_exchange(register, target_path)
    return v_controlled(register, control_path,
                        expm(0.5j * flip_angle * (f - np.eye(len(f)))))


def dense_cphase_pol(register: ModeRegister, control_path: int, target_path: int,
                     angle: float) -> np.ndarray:
    """e^{i angle (n_H + n_V)} on the target path where the control path is
    V-polarized."""
    th = register.index(ModeLabel(target_path, "H"))
    tv = register.index(ModeLabel(target_path, "V"))
    n = np.array([occ[th] + occ[tv] for occ in basis(register)])
    return v_controlled(register, control_path, np.diag(np.exp(1j * angle * n)))


def dense_permutation(register: ModeRegister, move) -> np.ndarray:
    """Permutation matrix taking each product-basis pattern to ``move(pattern)``."""
    patterns = basis(register)
    row = {occ: k for k, occ in enumerate(patterns)}
    out = np.zeros((len(patterns), len(patterns)))
    for k, occ in enumerate(patterns):
        out[row[tuple(move(list(occ)))], k] = 1.0
    return out


def dense_cswap_pol(register: ModeRegister, control_path: int, path_a: int,
                    path_b: int) -> np.ndarray:
    """aH <-> bV and aV <-> bH where the control path is V-polarized."""
    i = {(p, s): register.index(ModeLabel(p, s)) for p in (path_a, path_b) for s in "HV"}

    def move(occ):
        occ[i[path_a, "H"]], occ[i[path_b, "V"]] = occ[i[path_b, "V"]], occ[i[path_a, "H"]]
        occ[i[path_a, "V"]], occ[i[path_b, "H"]] = occ[i[path_b, "H"]], occ[i[path_a, "V"]]
        return occ

    return v_controlled(register, control_path, dense_permutation(register, move))


def dense_parity_flip(register: ModeRegister, control: ModeLabel, target_path: int) -> np.ndarray:
    """The target path's H/V exchange on patterns with an odd ``control``
    occupation, identity on the others."""
    c = register.index(control)
    odd = np.array([float(occ[c] % 2) for occ in basis(register)])
    return np.diag(odd) @ dense_pol_exchange(register, target_path) + np.diag(1.0 - odd)


def annihilation_matrix(dim: int) -> np.ndarray:
    out = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        out[n - 1, n] = math.sqrt(n)
    return out


def creation_matrix(dim: int) -> np.ndarray:
    return annihilation_matrix(dim).conj().T


def mode_operator(register: ModeRegister, index: int, op: np.ndarray) -> np.ndarray:
    """Lift a single-mode matrix to the full register by Kronecker products."""
    mats = [np.eye(d, dtype=complex) for d in dims(register)]
    mats[index] = op
    full = mats[0]
    for m in mats[1:]:
        full = np.kron(full, m)
    return full


def dense_mixer(register: ModeRegister, ia: int, ib: int,
                theta: float, phase: float = 0.0) -> np.ndarray:
    """exp[theta(e^{i phase} a†b - h.c.)] built on the full dense space."""
    from scipy.linalg import expm

    a = mode_operator(register, ia, annihilation_matrix(dims(register)[ia]))
    b = mode_operator(register, ib, annihilation_matrix(dims(register)[ib]))
    gen = theta * (np.exp(1j * phase) * a.conj().T @ b
                   - np.exp(-1j * phase) * a @ b.conj().T)
    return expm(gen)


def laguerre_displacement(beta: complex, dim: int) -> np.ndarray:
    """<m|D(beta)|n> from the associated-Laguerre closed form."""
    out = np.zeros((dim, dim), dtype=complex)
    x = abs(beta) ** 2
    for m_ in range(dim):
        for n_ in range(dim):
            p, q = max(m_, n_), min(m_, n_)
            coeff = math.exp(0.5 * (math.lgamma(q + 1) - math.lgamma(p + 1)))
            lag = eval_genlaguerre(q, p - q, x)
            base = coeff * math.exp(-x / 2.0) * lag
            if m_ >= n_:
                out[m_, n_] = base * beta ** (m_ - n_)
            else:
                out[m_, n_] = base * (-np.conj(beta)) ** (n_ - m_)
    return out


def parity_vector(dim: int) -> np.ndarray:
    return (-1.0) ** np.arange(dim)


def dense_displaced_parity(state: PureState, beta1: complex, beta2: complex) -> float:
    """Two-mode displaced-parity correlator via Laguerre matrices."""
    return cached_dense_correlator(state)(beta1, beta2)


def cached_dense_correlator(state: PureState):
    """Correlator closure that reuses Laguerre matrices per setting value."""
    reg = state.register
    assert reg.n_modes == 2
    d1, d2 = dims(reg)
    m = dense_vector(state).reshape(d1, d2)
    p1, p2 = parity_vector(d1), parity_vector(d2)
    mats: dict = {}

    def matrix(beta: complex, dim: int) -> np.ndarray:
        key = (beta, dim)
        if key not in mats:
            mats[key] = laguerre_displacement(-beta, dim)
        return mats[key]

    def corr(beta1: complex, beta2: complex) -> float:
        shifted = matrix(complex(beta1), d1) @ m @ matrix(complex(beta2), d2).T
        probs = np.abs(shifted) ** 2
        return float(p1 @ probs @ p2)

    return corr


def truncated_displaced_parity(state: PureState, beta1: complex, beta2: complex) -> float:
    """<psi| D1 P1 D1† (x) D2 P2 D2† |psi> with each D = expm(b a† - b* a) on
    the register's truncated mode, on the dense Kronecker space."""
    from scipy.linalg import expm

    reg = state.register
    assert reg.n_modes == 2
    psi = dense_vector(state)
    full = np.eye(len(psi), dtype=complex)
    for index, (beta, dim) in enumerate(zip((beta1, beta2), dims(reg))):
        a = annihilation_matrix(dim)
        d = expm(beta * a.conj().T - np.conj(beta) * a)
        full = full @ mode_operator(reg, index, d @ np.diag(parity_vector(dim)) @ d.conj().T)
    return float(np.vdot(psi, full @ psi).real)


def dense_reduced_density(state: PureState, keep: list) -> np.ndarray:
    """Reduced density matrix over the modes at positions ``keep`` (full
    product basis of the kept modes)."""
    reg = state.register
    shape = dims(reg)
    psi = dense_vector(state).reshape(shape)
    drop = [i for i in range(reg.n_modes) if i not in keep]
    perm = list(keep) + drop
    moved = np.transpose(psi, perm)
    ka = int(np.prod([shape[i] for i in keep])) if keep else 1
    kb = int(np.prod([shape[i] for i in drop])) if drop else 1
    m = moved.reshape(ka, kb)
    return m @ m.conj().T


def dense_entropy_bits(rho: np.ndarray) -> float:
    eigs = np.linalg.eigvalsh(rho)
    eigs = eigs[eigs > 1e-14]
    eigs = eigs / eigs.sum()
    return float(-(eigs * np.log2(eigs)).sum())


def coherent_series(alpha: complex, cutoff: int) -> np.ndarray:
    """Fock coefficients of |alpha> computed term by term with factorials."""
    out = np.array([alpha ** n / math.sqrt(math.factorial(n))
                    for n in range(cutoff + 1)], dtype=complex)
    return out * math.exp(-0.5 * abs(alpha) ** 2)


def cat_pair_correlator(alpha: float, sign: str = "-"):
    """Closed-form displaced-parity correlator of |a,-a> -+ |-a,a>.

    Derived by expanding <g|D(b) P D†(b)|d> over the coherent components;
    completely independent of the Fock engine.
    """
    x = math.exp(-4.0 * alpha * alpha)
    s = -1.0 if sign == "-" else 1.0
    n2 = 1.0 / (2.0 * (1.0 + s * x))

    def corr(b1: complex, b2: complex) -> float:
        t1 = math.exp(-2.0 * (abs(b1 - alpha) ** 2 + abs(b2 + alpha) ** 2))
        t2 = math.exp(-2.0 * (abs(b1 + alpha) ** 2 + abs(b2 - alpha) ** 2))
        t3 = 2.0 * math.exp(-2.0 * (abs(b1) ** 2 + abs(b2) ** 2)) \
            * math.cos(4.0 * alpha * (b1.imag - b2.imag))
        return n2 * (t1 + t2 + s * t3)

    return corr


def zoom_grid_chsh(correlator, radius: float, density: int = 13,
                   rounds: int = 4) -> float:
    """Independent maximization of the CHSH value |B|: iterative grid shrink
    on the imaginary axis, no simplex, no gradient."""
    center = np.zeros(4)
    span = radius
    best = -np.inf
    for _ in range(rounds):
        values = np.unique(np.round(np.concatenate(
            [np.linspace(c - span, c + span, density) for c in center]), 12))
        n = len(values)
        E = np.empty((n, n))
        for i, y1 in enumerate(values):
            for j, y2 in enumerate(values):
                E[i, j] = correlator(1j * y1, 1j * y2)
        # B[i, ip, j, jp] = E[i,j] + E[i,jp] + E[ip,j] - E[ip,jp]
        B = np.abs(E[:, None, :, None] + E[:, None, None, :]
                   + E[None, :, :, None] - E[None, :, None, :])
        flat = int(np.argmax(B))
        idx = np.unravel_index(flat, B.shape)
        if B[idx] > best:
            best = float(B[idx])
            center = values[list(idx)]
        span *= 2.2 / (density - 1)
    return best


def displaced_cat_pair_fisher(alpha: float) -> tuple:
    """Exact (single-arm phase QFI, total mean photons) of N(|2a,0> - |0,2a>).

    With g2 = 4 a^2 and x = e^{-g2} = <2a,0|0,2a>, the cross terms of every
    moment of n1 vanish (n1 annihilates the vacuum arm), so
    <n1> = g2 / (2(1-x)) and <n1^2> = (g2^2 + g2) / (2(1-x)).  Hence
    QFI = 4 Var(n1) = 2(g2^2 + g2)/(1-x) - g2^2/(1-x)^2 and
    nbar = 2<n1> = g2/(1-x).  Computed from alpha alone.
    """
    g2 = 4.0 * alpha * alpha
    one_minus_x = -math.expm1(-g2)
    qfi = 2.0 * (g2 * g2 + g2) / one_minus_x - g2 * g2 / one_minus_x**2
    return qfi, g2 / one_minus_x
