"""State factories: coherent states, even/odd cats, squeezed vacuum.

Every factory takes plain numbers and checks them itself, refuses cutoffs
that leave more than ``tail_eps`` probability beyond the truncation, reads
its amplitudes from the mass series its cutoff rule sums, and seeds
``norm_deficit`` with that series' tail past the register's cutoff.  Multi-mode states are ``fock.product``s.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import (
    DEFAULT_TAIL_EPS,
    CutoffError,
    DegenerateInputError,
    ModeLabel,
    ModeRegister,
    PureState,
    _coherent_rule,
    _finish,
    _squeezed_rule,
    _tails,
    add,
    apply_annihilation,
    normalized,
    product,
    scale,
)


def _levels(register: ModeRegister, m: ModeLabel, count: int) -> np.ndarray:
    """Keys of |n> in mode ``m`` with every other mode empty, n = 0..count-1."""
    return np.arange(count) * register.strides[register.index(m)]


def _require_cutoff(register: ModeRegister, m: ModeLabel, needed: int) -> None:
    have = register.cutoff_of(m)
    if have < needed:
        raise CutoffError(
            f"mode {m}: cutoff {have} below the tail rule ({needed} needed); "
            f"build the register with a larger cutoff")


def _coherent_series(register: ModeRegister, m: ModeLabel, alpha: complex,
                     tail_eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes of |alpha> on the levels of mode ``m`` and the Poisson
    masses they come from, which run on past the register's cutoff."""
    cutoff = register.cutoff_of(m)
    needed, masses = _coherent_rule(alpha, tail_eps, cutoff)
    _require_cutoff(register, m, needed)
    # e^{i n arg alpha} by repeated products, exact for real alpha
    unit = alpha / abs(alpha) if alpha else 1.0
    phases = np.cumprod(np.concatenate(([1.0], np.full(cutoff, unit, dtype=complex))))
    return np.sqrt(masses[:cutoff + 1]) * phases, masses


def coherent(register: ModeRegister, m: ModeLabel, alpha: complex,
             tail_eps: float = DEFAULT_TAIL_EPS) -> PureState:
    """Coherent state |alpha> in mode ``m``, vacuum elsewhere."""
    coeffs, masses = _coherent_series(register, m, alpha, tail_eps)
    return _finish(register, _levels(register, m, len(coeffs)), coeffs,
                   float(_tails(masses)[len(coeffs)]))


def cat(register: ModeRegister, m: ModeLabel, alpha: complex, parity: str = "even",
        tail_eps: float = DEFAULT_TAIL_EPS) -> PureState:
    """Even or odd coherent-state superposition N(|a> ± |-a>).

    Even cats occupy only even Fock levels, odd cats only odd ones; the
    wrong-parity amplitudes are exactly zero by construction; the deficit
    is the tail of that parity times (2N)^2.  ``parity`` is "even" or "odd"
    (``ValueError`` otherwise); an odd cat whose (2N)^2 = 2/(1 - <a|-a>) is
    not a finite float, a = 0 included, raises ``DegenerateInputError``.
    """
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    keep = int(parity == "odd")
    # (2N)^2 = 2/(1 ± <a|-a>), <a|-a> = exp(-2|a|^2) for any phase of a; the
    # odd 1 - <a|-a> by expm1, since the difference cancels at small |a|
    x = -2.0 * abs(alpha) ** 2
    denom = -math.expm1(x) if keep else 1.0 + math.exp(x)
    weight = 2.0 / denom if denom else math.inf
    if math.isinf(weight):
        raise DegenerateInputError(f"odd cat amplitude {alpha!r} is too small to normalize")
    coeffs, masses = _coherent_series(register, m, alpha, tail_eps)
    amps = math.sqrt(weight) * coeffs[keep::2]
    keys = _levels(register, m, len(coeffs))[keep::2]
    return _finish(register, keys, amps, weight * float(_tails(masses[keep::2])[len(amps)]))


def squeezed_vacuum(register: ModeRegister, m: ModeLabel, r: float,
                    tail_eps: float = DEFAULT_TAIL_EPS) -> PureState:
    """Squeezed vacuum S(r)|0> with S(r) = exp[(r/2)(a†² - a²)], r >= 0
    (``ValueError`` otherwise).

    Amplitudes c_{2m} = (tanh r)^m sqrt((2m)!) / (2^m m! sqrt(cosh r));
    support is on even Fock levels only and <n> = sinh² r.
    """
    if r < 0:
        raise ValueError("generation requires r >= 0; anti-squeezing is an operation")
    cutoff = register.cutoff_of(m)
    needed, masses = _squeezed_rule(r, tail_eps, cutoff)
    _require_cutoff(register, m, needed)
    amps = np.sqrt(masses[:cutoff // 2 + 1]).astype(complex)
    keys = _levels(register, m, cutoff + 1)[::2]
    return _finish(register, keys, amps, float(_tails(masses)[len(amps)]))


def subtracted_sv(register: ModeRegister, m: ModeLabel, r: float,
                  tail_eps: float = DEFAULT_TAIL_EPS) -> PureState:
    """Normalized single-photon-subtracted squeezed vacuum a S(r)|0> / sinh r.

    Support is on odd Fock levels; for r -> 0+ the state approaches |1>.
    r = 0 raises ``DegenerateInputError``; :func:`squeezed_vacuum` refuses r < 0.
    """
    if r == 0:
        raise DegenerateInputError("photon subtraction of r = 0 squeezed vacuum is the zero state")
    sv = squeezed_vacuum(register, m, r, tail_eps)
    return scale(apply_annihilation(sv, m), 1.0 / math.sinh(r))


def _pair_sign(sign: str) -> float:
    """The factor of a pair sign: 1.0 for "+", -1.0 for "-" (``ValueError`` otherwise)."""
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    return 1.0 if sign == "+" else -1.0


def entangled_cat_pair(register: ModeRegister, mode_a: ModeLabel, mode_b: ModeLabel,
                       alpha: complex, sign: str = "-",
                       tail_eps: float = DEFAULT_TAIL_EPS) -> PureState:
    """Normalized |a>|-a> ± |-a>|a> on two modes, the sign ``sign``: ∝ |o>|e> - |e>|o>
    for "-", ∝ |E|^2 |e>|e> - |O|^2 |o>|o> for "+" (|E|^2, |O|^2 = (1 ± e^{-2|a|^2})/2)."""
    s = _pair_sign(sign)
    if alpha == 0:
        raise DegenerateInputError("entangled cat pair is undefined at alpha = 0")
    plus = product(coherent(register, mode_a, alpha, tail_eps),
                   coherent(register, mode_b, -alpha, tail_eps))
    minus = product(coherent(register, mode_a, -alpha, tail_eps),
                    coherent(register, mode_b, alpha, tail_eps))
    return normalized(add(plus, scale(minus, s)))
