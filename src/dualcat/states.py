"""State factories: coherent states, even/odd cats, squeezed vacuum.

Every factory returns a normalized state and refuses cutoffs that leave
more than ``tail_eps`` probability beyond the truncation, so the caller
stays in control of memory and accuracy.
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
    _finish,
    add,
    coherent_cutoff,
    normalized,
    scale,
    squeezed_cutoff,
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


def _coherent_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    """c_n = e^{-|a|^2/2} a^n / sqrt(n!), n = 0..cutoff."""
    out = np.empty(cutoff + 1, dtype=complex)
    out[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, cutoff + 1):
        out[n] = out[n - 1] * alpha / math.sqrt(n)
    return out


def _levels(register: ModeRegister, m: ModeLabel, count: int) -> np.ndarray:
    """Keys of |n> in mode ``m`` with every other mode empty, n = 0..count-1."""
    return np.arange(count) * register.strides[register.index(m)]


def _require_cutoff(register: ModeRegister, m: ModeLabel, needed: int) -> None:
    have = register.cutoff_of(m)
    if have < needed:
        raise CutoffError(
            f"mode {m}: cutoff {have} below the tail rule ({needed} needed); "
            f"build the register with a larger cutoff")


def coherent(register: ModeRegister, m: ModeLabel, alpha: complex,
             tail_eps: float = DEFAULT_TAIL_EPS) -> PureState:
    """Coherent state |alpha> in mode ``m``, vacuum elsewhere."""
    _require_cutoff(register, m, coherent_cutoff(alpha, tail_eps))
    coeffs = _coherent_amplitudes(alpha, register.cutoff_of(m))
    tail = max(0.0, 1.0 - float(np.sum(np.abs(coeffs) ** 2)))
    return _finish(register, _levels(register, m, len(coeffs)), coeffs, tail)


def cat(register: ModeRegister, m: ModeLabel, params: CatParams,
        tail_eps: float = DEFAULT_TAIL_EPS) -> PureState:
    """Even or odd coherent-state superposition N(|a> ± |-a>).

    Even cats occupy only even Fock levels, odd cats only odd ones; the
    wrong-parity amplitudes are exactly zero by construction.
    """
    alpha = params.alpha
    _require_cutoff(register, m, coherent_cutoff(alpha, tail_eps))
    coeffs = _coherent_amplitudes(alpha, register.cutoff_of(m))
    overlap = math.exp(-2.0 * abs(alpha) ** 2)  # <a|-a> for any phase of a
    if params.parity == "even":
        norm_const = 1.0 / math.sqrt(2.0 * (1.0 + overlap))
        keep = 0
    elif overlap == 1.0:
        raise DegenerateInputError(f"odd cat amplitude {alpha!r} is too small to normalize")
    else:
        # 1 - <a|-a> by expm1: the difference itself cancels at small |a|
        norm_const = 1.0 / math.sqrt(-2.0 * math.expm1(-2.0 * abs(alpha) ** 2))
        keep = 1
    amps = 2.0 * norm_const * coeffs[keep::2]
    retained = float(np.sum(np.abs(amps) ** 2))
    keys = _levels(register, m, len(coeffs))[keep::2]
    return _finish(register, keys, amps, max(0.0, 1.0 - retained))


def squeezed_vacuum(register: ModeRegister, m: ModeLabel, params: SqueezeParams,
                    tail_eps: float = DEFAULT_TAIL_EPS) -> PureState:
    """Squeezed vacuum S(r)|0> with S(r) = exp[(r/2)(a†² - a²)].

    Amplitudes c_{2m} = (tanh r)^m sqrt((2m)!) / (2^m m! sqrt(cosh r));
    support is on even Fock levels only and <n> = sinh² r.
    """
    r = params.r
    _require_cutoff(register, m, squeezed_cutoff(r, tail_eps))
    t = math.tanh(r)
    amps = []
    c = 1.0 / math.sqrt(math.cosh(r))
    for k in range(register.cutoff_of(m) // 2 + 1):
        amps.append(c)
        # c_{2(k+1)} / c_{2k} = t * sqrt((2k+1)(2k+2)) / (2(k+1))
        c *= t * math.sqrt((2 * k + 1) * (2 * k + 2)) / (2 * (k + 1))
    amps = np.array(amps, dtype=complex)
    retained = float(np.sum(amps.real ** 2))
    keys = _levels(register, m, register.cutoff_of(m) + 1)[::2]
    return _finish(register, keys, amps, max(0.0, 1.0 - retained))


def subtracted_sv(register: ModeRegister, m: ModeLabel, params: SqueezeParams,
                  tail_eps: float = DEFAULT_TAIL_EPS) -> PureState:
    """Normalized single-photon-subtracted squeezed vacuum a S(r)|0> / sinh r.

    Support is on odd Fock levels; for r -> 0+ the state approaches |1>.
    """
    if params.r == 0:
        raise DegenerateInputError("photon subtraction of r = 0 squeezed vacuum is the zero state")
    from .fock import apply_annihilation

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
    plus = _two_mode_coherent(register, mode_a, mode_b, alpha, -alpha, tail_eps)
    minus = _two_mode_coherent(register, mode_a, mode_b, -alpha, alpha, tail_eps)
    s = 1.0 if sign == "+" else -1.0
    return normalized(add(plus, scale(minus, s)))


def _two_mode_coherent(register: ModeRegister, mode_a: ModeLabel, mode_b: ModeLabel,
                       alpha: complex, beta: complex, tail_eps: float) -> PureState:
    _require_cutoff(register, mode_a, coherent_cutoff(alpha, tail_eps))
    _require_cutoff(register, mode_b, coherent_cutoff(beta, tail_eps))
    ca = _coherent_amplitudes(alpha, register.cutoff_of(mode_a))
    cb = _coherent_amplitudes(beta, register.cutoff_of(mode_b))
    amps = np.outer(ca, cb).ravel()
    keys = (_levels(register, mode_a, len(ca))[:, None]
            + _levels(register, mode_b, len(cb))).ravel()
    kept = np.abs(amps) > 1e-18
    retained = float(np.sum(np.abs(amps[kept]) ** 2))
    return _finish(register, keys[kept], amps[kept], max(0.0, 1.0 - retained))
