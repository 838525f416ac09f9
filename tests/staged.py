"""Engine-level references the tests compose the staged ops from.

Unlike :mod:`oracles`, which stays independent of the engine, these are
sparse ops built from the engine's own primitives: each is the reference
of a contraction that the package runs instead of it.
"""

from __future__ import annotations

import numpy as np

from dualcat.blas import _one_blas_thread
from dualcat.fock import (
    ModeLabel,
    PureState,
    _finish,
    _mass,
    _mixer_table,
    group_by,
)


@_one_blas_thread
def mixer_dark_branch(state: PureState, mode_a: ModeLabel, mode_b: ModeLabel,
                      theta: float, phase: float = 0.0) -> PureState:
    """The vacuum branch of ``mode_a`` after :func:`apply_two_mode_mixer`.

    The dark amplitude of a (total t, rest) block is the sum of U_t[0, n_a] c
    over its amplitudes, row 0 of the block unitary (:func:`_mixer_table`):
    one weighted bincount over the whole state, with no dense block.  A
    block with t up to the cutoff of ``mode_b`` gives the amplitude at
    n_b = t.  The dark column of any other block lies past that cutoff, so
    its mass joins the deficit, which is then exactly the input deficit,
    plus the dark-column mass past the cutoff, plus the pruned dust.
    """
    reg = state.register
    ia, ib = reg.index(mode_a), reg.index(mode_b)
    if ia == ib:
        raise ValueError("mixer needs two distinct modes")
    table = _mixer_table(theta, phase, max(reg.cutoffs[ia], reg.cutoffs[ib]) + 1)
    rest, group, occ = group_by(state, [mode_a, mode_b])
    total = occ.sum(axis=1)
    coeffs = state.coeffs * table[occ[:, 0], occ[:, 1]]  # U_t[0, n_a] at t = n_a + n_b
    code = total * len(rest) + group  # the block of each amplitude
    size = (int(total.max(initial=0)) + 1) * len(rest)
    sums = np.bincount(code, coeffs.real, size) + 1j * np.bincount(code, coeffs.imag, size)
    dark = (reg.cutoffs[ib] + 1) * len(rest)  # the blocks whose dark column fits
    blocks = np.flatnonzero(sums[:dark])  # an empty block sums to 0, which is pruned
    t, row = np.divmod(blocks, len(rest))
    return _finish(reg, rest[row] + t * reg.strides[ib], sums[blocks],
                   state.norm_deficit + _mass(sums[dark:]))
