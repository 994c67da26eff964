"""Validated density matrices and pure state vectors."""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .dims import SubsystemDims, mask_bitstring
from .tensor import (
    _require_finite, _require_hermitian, block_product, partial_trace, psd_violation,
    subset_purities, trace_product,
)

TOL_TRACE = 1e-10
TOL_PSD = 1e-9
TOL_NORM = 1e-12


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A normalized state: Hermitian, unit trace, positive semidefinite.

    Validation happens at construction; the stored matrix is a read-only
    copy, so instances can be shared freely across threads.  The PSD check
    is :func:`~qinvert.tensor.psd_violation`: a Cholesky certificate, with
    an eigen-solve only to name a failure.  ``_psd_known`` is internal to
    this module: the constructors whose result is PSD by construction,
    :meth:`from_gram`, :meth:`from_product` and :meth:`PureState.density`,
    set it to skip only the PSD check (shape, finiteness, Hermiticity and
    trace are still checked); every other construction, a state file
    included, runs the full validation.  ``_owned`` is internal to the
    package: a caller that hands over a fresh complex128 array nothing
    else references (:meth:`from_gram`, the state-file reader) sets it, and
    the state keeps that array, made read-only, instead of a copy.
    """

    matrix: np.ndarray
    dims: SubsystemDims
    _psd_known: InitVar[bool] = False
    _owned: InitVar[bool] = False

    def __post_init__(self, _psd_known: bool, _owned: bool) -> None:
        mat = self.matrix if _owned else np.array(self.matrix, dtype=np.complex128)
        d = self.dims.total
        if mat.shape != (d, d):
            raise ValueError(
                f"density matrix shape {mat.shape} does not match total dimension {d}"
            )
        _require_density(mat, psd=not _psd_known)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def from_gram(cls, g: np.ndarray, dims: SubsystemDims) -> "DensityMatrix":
        """The state :func:`gram_density` of a D x r matrix ``g``.  A Gram
        matrix is PSD, and rounding moves its eigenvalues by about r eps of
        its trace, far inside the PSD tolerance, so validation skips the
        eigen-solve."""
        return cls(gram_density(g), dims, _psd_known=True, _owned=True)

    @classmethod
    def from_product(
        cls, parts: Mapping[int, "DensityMatrix"], dims: SubsystemDims
    ) -> "DensityMatrix":
        """The tensor product of states keyed by party masks that partition
        the parties of ``dims``, each on its parties in party order.  Its
        eigenvalues are products of the blocks' eigenvalues, so it is as
        PSD as its validated blocks, and each entry is one rounded product
        of block entries; validation skips the PSD check."""
        covered = 0
        for s, rho in parts.items():
            if rho.dims.dims != dims.dims_of(s):
                raise ValueError(
                    f"block {mask_bitstring(s, dims.n)} has dims {rho.dims.dims}, "
                    f"expected {dims.dims_of(s)}"
                )
            covered |= s
        if covered != dims.full_mask:
            raise ValueError("product blocks must cover all parties")
        return cls(block_product({s: rho.matrix for s, rho in parts.items()}, dims), dims,
                   _psd_known=True)

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
    """A normalized state vector, stored as a read-only copy (``_owned`` as
    for :class:`DensityMatrix`)."""

    vector: np.ndarray
    dims: SubsystemDims
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned: bool) -> None:
        vec = (self.vector if _owned else np.array(self.vector, dtype=np.complex128)).reshape(-1)
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
        # the outer product of a unit vector is PSD by construction
        return DensityMatrix(np.outer(self.vector, self.vector.conj()), self.dims, _psd_known=True)

    @cached_property
    def purities(self) -> np.ndarray:
        """As DensityMatrix.purities, swept over |psi><psi| with no DensityMatrix."""
        return subset_purities(np.outer(self.vector, self.vector.conj()), self.dims)


def gram_density(g: np.ndarray) -> np.ndarray:
    """G G^dag / Tr(G G^dag), averaged with its adjoint so it is exactly
    Hermitian, for one D x r matrix or each member of an (M, D, r) stack;
    every step works member by member, so a stack's member i is bit for
    bit the matrix of its own ``g[i]``.  The matrix is symmetrized and
    normalized in place; each step is the same complex ufunc as the
    out-of-place expression, so the result is bit for bit ``(m + m^dag)
    / 2 / tr``.  Unchecked: :meth:`DensityMatrix.from_gram` validates one
    state, and a stack's caller checks the stack."""
    mat = g @ g.conj().swapaxes(-1, -2)
    np.add(mat, mat.conj().swapaxes(-1, -2), out=mat)
    mat /= 2.0
    mat /= np.trace(mat, axis1=-2, axis2=-1).real[..., None, None]
    return mat


def _require_density(mat: np.ndarray, psd: bool = True) -> None:
    """The checks of :class:`DensityMatrix` on one matrix or each member of a
    (M, D, D) stack: finite, Hermitian, unit trace and, with ``psd``, one
    PSD certificate; a stack's errors give its worst member."""
    _require_hermitian(mat, "density matrix")
    what = "density matrix" if mat.ndim == 2 else "density matrix stack"
    traces = np.trace(mat, axis1=-2, axis2=-1).reshape(-1)
    tr = complex(traces[np.argmax(np.abs(traces - 1.0))])
    if abs(tr - 1.0) > TOL_TRACE:
        raise ValueError(f"{what} trace {tr} is not 1 within {TOL_TRACE}")
    lo = psd_violation(mat, TOL_PSD) if psd else None
    if lo is not None:
        raise ValueError(f"{what} has negative eigenvalue {lo:.3e} below -{TOL_PSD}")


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2), in (0, 1]."""
    return trace_product(rho.matrix, rho.matrix).real


def linear_entropies(rho: DensityMatrix | PureState) -> dict[int, float]:
    """tau_S = 2 [1 - Tr(rho_S^2)] for every nonempty subset S of parties."""
    return {s: 2.0 * (1.0 - p) for s, p in enumerate(rho.purities.tolist()) if s != 0}
