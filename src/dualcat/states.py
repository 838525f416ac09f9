"""State factories: coherent states, even/odd cats, squeezed vacuum.

Every factory refuses cutoffs that leave more than ``tail_eps``
probability beyond the truncation, reads its amplitudes from the mass
series its cutoff rule sums, and seeds ``norm_deficit`` with that series'
tail past the register's cutoff.  Multi-mode states are ``fock.product``s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class CatParams:
    """Amplitude and parity of a coherent-state superposition |a> ± |-a>."""

    alpha: complex
    parity: str = "even"

    def __post_init__(self) -> None:
        if self.parity not in ("even", "odd"):
            raise ValueError("parity must be 'even' or 'odd'")
        if self.parity == "odd" and self.alpha == 0:
            raise DegenerateInputError("odd cat is undefined at alpha = 0")


@dataclass(frozen=True)
class SqueezeParams:
    """Single-axis squeezing strength (dimensionless)."""

    r: float

    def __post_init__(self) -> None:
        if self.r < 0:
            raise ValueError("generation requires r >= 0; anti-squeezing is an operation")


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


def cat(register: ModeRegister, m: ModeLabel, params: CatParams,
        tail_eps: float = DEFAULT_TAIL_EPS) -> PureState:
    """Even or odd coherent-state superposition N(|a> ± |-a>).

    Even cats occupy only even Fock levels, odd cats only odd ones; the
    wrong-parity amplitudes are exactly zero by construction; the deficit
    is the tail of that parity.
    """
    alpha = params.alpha
    coeffs, masses = _coherent_series(register, m, alpha, tail_eps)
    overlap = math.exp(-2.0 * abs(alpha) ** 2)  # <a|-a> for any phase of a
    if params.parity == "even":
        weight = 2.0 / (1.0 + overlap)  # (2N)^2
        keep = 0
    elif overlap == 1.0:
        raise DegenerateInputError(f"odd cat amplitude {alpha!r} is too small to normalize")
    else:
        # 1 - <a|-a> by expm1: the difference itself cancels at small |a|
        weight = 2.0 / -math.expm1(-2.0 * abs(alpha) ** 2)
        keep = 1
    amps = math.sqrt(weight) * coeffs[keep::2]
    keys = _levels(register, m, len(coeffs))[keep::2]
    return _finish(register, keys, amps, weight * float(_tails(masses[keep::2])[len(amps)]))


def squeezed_vacuum(register: ModeRegister, m: ModeLabel, params: SqueezeParams,
                    tail_eps: float = DEFAULT_TAIL_EPS) -> PureState:
    """Squeezed vacuum S(r)|0> with S(r) = exp[(r/2)(a†² - a²)].

    Amplitudes c_{2m} = (tanh r)^m sqrt((2m)!) / (2^m m! sqrt(cosh r));
    support is on even Fock levels only and <n> = sinh² r.
    """
    cutoff = register.cutoff_of(m)
    needed, masses = _squeezed_rule(params.r, tail_eps, cutoff)
    _require_cutoff(register, m, needed)
    amps = np.sqrt(masses[:cutoff // 2 + 1]).astype(complex)
    keys = _levels(register, m, cutoff + 1)[::2]
    return _finish(register, keys, amps, float(_tails(masses)[len(amps)]))


def subtracted_sv(register: ModeRegister, m: ModeLabel, params: SqueezeParams,
                  tail_eps: float = DEFAULT_TAIL_EPS) -> PureState:
    """Normalized single-photon-subtracted squeezed vacuum a S(r)|0> / sinh r.

    Support is on odd Fock levels; for r -> 0+ the state approaches |1>.
    """
    if params.r == 0:
        raise DegenerateInputError("photon subtraction of r = 0 squeezed vacuum is the zero state")
    sv = squeezed_vacuum(register, m, params, tail_eps)
    return scale(apply_annihilation(sv, m), 1.0 / math.sinh(params.r))


def entangled_cat_pair(register: ModeRegister, mode_a: ModeLabel, mode_b: ModeLabel,
                       alpha: complex, sign: str = "-",
                       tail_eps: float = DEFAULT_TAIL_EPS) -> PureState:
    """Normalized |a>|-a> ∓ |-a>|a> ∝ |even>|odd> ∓ |odd>|even> on two modes."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    if alpha == 0:
        raise DegenerateInputError("entangled cat pair is undefined at alpha = 0")
    s = 1.0 if sign == "+" else -1.0
    plus = product(coherent(register, mode_a, alpha, tail_eps),
                   coherent(register, mode_b, -alpha, tail_eps))
    minus = product(coherent(register, mode_a, -alpha, tail_eps),
                    coherent(register, mode_b, alpha, tail_eps))
    return normalized(add(plus, scale(minus, s)))
