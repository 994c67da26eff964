"""Quadratic local-unitary invariants derived from the inversion map;
:func:`invariant_table`, the array of every C_T^2, is the degree-two
table that every scalar constraint family reads."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .inversion import invert_product
from .states import DensityMatrix, FactorState, PureState
from .tensor import signed_subset_sums, trace_product

IMAG_TOL = 1e-11
CLAMP_TOL = 1e-9


def c_t_squared(rho: DensityMatrix, t: int) -> float:
    """Tr[rho I_T(rho)], the squared invariant for the mask ``t``.

    Evaluated through the inversion map itself (:func:`invert_product`);
    :func:`invariant_table`, which every scalar family reads, uses the
    purity expansion instead, so the two act as independent cross-checks.
    """
    rho.dims.validate_mask(t)
    value = trace_product(rho.matrix, invert_product(rho.matrix, rho.dims, t))
    if abs(value.imag) > IMAG_TOL:
        raise ValueError(
            f"imaginary residue {value.imag:.3e} in Tr[rho I_T(rho)] "
            "signals numerical corruption"
        )
    return value.real


def c_t(rho: DensityMatrix, t: int) -> float:
    """sqrt of the clamped squared invariant; for t = all parties this is
    the distributed concurrence."""
    return math.sqrt(max(c_t_squared(rho, t), 0.0))


@dataclass(frozen=True, eq=False)
class InvariantTable:
    """C_T^2 as a read-only float64 array indexed by mask T; methods return
    Python scalars, clamping solver noise down to -CLAMP_TOL to 0."""

    values: np.ndarray

    def c_squared(self, t: int) -> float:
        return float(self.values[t])

    def c_squared_clamped(self, t: int) -> float:
        v = self.c_squared(t)
        return 0.0 if -CLAMP_TOL <= v < 0.0 else v

    def was_clamped(self, t: int) -> bool:
        return -CLAMP_TOL <= self.c_squared(t) < 0.0

    def c(self, t: int) -> float:
        return math.sqrt(max(self.c_squared(t), 0.0))


def invariant_table(rho: DensityMatrix | FactorState) -> InvariantTable:
    """All 2^N squared invariants from the state's subset purities:
    C_T^2 = sum_S (-1)^{|S & T|} Tr(rho_S^2), one Walsh-Hadamard
    transform."""
    values = signed_subset_sums(rho.purities)
    values.setflags(write=False)
    return InvariantTable(values)


def bipartite_concurrence_squared(psi: PureState, s: int) -> float:
    """Squared concurrence of a pure state across the split S | S^c,
    equal to the linear entropy of either block."""
    psi.dims.validate_mask(s)
    if s == 0 or s == psi.dims.full_mask:
        raise ValueError("the split must be a proper nonempty subset of parties")
    return 2.0 * (1.0 - psi.purities[s].item())
