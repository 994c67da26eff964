"""Validated density matrices and pure state vectors."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dims import SubsystemDims
from .tensor import (
    TOL_HERM, _require_finite, herm_defect, partial_trace, subset_purities, trace_product
)

TOL_TRACE = 1e-10
TOL_PSD = 1e-9
TOL_NORM = 1e-12


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A normalized state: Hermitian, unit trace, positive semidefinite.

    Validation happens at construction; the stored matrix is a read-only
    copy, so instances can be shared freely across threads.
    """

    matrix: np.ndarray
    dims: SubsystemDims

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=np.complex128)
        d = self.dims.total
        if mat.shape != (d, d):
            raise ValueError(
                f"density matrix shape {mat.shape} does not match total dimension {d}"
            )
        _require_finite(mat, "density matrix")
        defect = herm_defect(mat)
        if defect > TOL_HERM:
            raise ValueError(
                f"density matrix is not Hermitian: max |rho - rho^dag| = {defect:.3e}"
            )
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > TOL_TRACE:
            raise ValueError(f"density matrix trace {tr} is not 1 within {TOL_TRACE}")
        lo = float(np.linalg.eigvalsh(mat)[0])
        if lo < -TOL_PSD:
            raise ValueError(
                f"density matrix has negative eigenvalue {lo:.3e} below -{TOL_PSD}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def reduce(self, keep: int) -> "DensityMatrix":
        """Reduced state on the parties in ``keep``."""
        if keep == 0:
            raise ValueError("cannot reduce onto the empty party set")
        sub = SubsystemDims(self.dims.dims_of(keep))
        return DensityMatrix(partial_trace(self.matrix, self.dims, keep), sub)

    @cached_property
    def purities(self) -> np.ndarray:
        """Tr(rho_S^2) for every subset S, indexed by bitmask; one sweep, cached."""
        return subset_purities(self.matrix, self.dims)


@dataclass(frozen=True, eq=False)
class PureState:
    """A normalized state vector."""

    vector: np.ndarray
    dims: SubsystemDims

    def __post_init__(self) -> None:
        vec = np.array(self.vector, dtype=np.complex128).reshape(-1)
        d = self.dims.total
        if vec.shape != (d,):
            raise ValueError(
                f"state vector length {vec.shape[0]} does not match total dimension {d}"
            )
        _require_finite(vec, "state vector")
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > TOL_NORM:
            raise ValueError(f"state vector norm {norm} is not 1 within {TOL_NORM}")
        vec.setflags(write=False)
        object.__setattr__(self, "vector", vec)

    def density(self) -> DensityMatrix:
        return DensityMatrix(np.outer(self.vector, self.vector.conj()), self.dims)

    @cached_property
    def purities(self) -> np.ndarray:
        """As DensityMatrix.purities, swept over |psi><psi| with no DensityMatrix."""
        return subset_purities(np.outer(self.vector, self.vector.conj()), self.dims)


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2), in (0, 1]."""
    return trace_product(rho.matrix, rho.matrix).real


def linear_entropies(rho: DensityMatrix | PureState) -> dict[int, float]:
    """tau_S = 2 [1 - Tr(rho_S^2)] for every nonempty subset S of parties."""
    return {s: 2.0 * (1.0 - p) for s, p in enumerate(rho.purities.tolist()) if s != 0}
