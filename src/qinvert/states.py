"""Validated density matrices, and states given by a factor: pure state
vectors and low-rank Gram factors."""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .dims import SubsystemDims, mask_bitstring
from .tensor import (
    HOLD_BYTES, _add_adjoint, _require_finite, _require_hermitian, block_product,
    factor_purities, lower_completion, partial_trace, psd_violation, subset_purities,
    trace_product,
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
    an eigen-solve only to name a failure, shifted in place on the array
    the state keeps.  ``_psd_known`` is internal to the package: the
    constructors whose result is PSD by construction, :meth:`from_product`,
    :meth:`FactorState.density` and :func:`~qinvert.zoo.ginibre_mixed`
    (Gram states), set it to skip only the PSD check (shape, finiteness,
    Hermiticity and trace are still checked); every other construction, a
    state file included, runs the full validation.  ``_owned`` is internal
    to the package: a caller that hands over a fresh complex128 array
    nothing else references (``ginibre_mixed``, the state-file reader)
    sets it, and the state keeps that array, made read-only, instead of a
    copy.

    :attr:`operand` is the exactly Hermitian matrix that the positive maps
    (``marginal``, ``detect``) act on, so that nothing built from it is
    checked again.
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
        exact = _require_density(mat, psd=not _psd_known) == 0.0
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "_exact", exact)

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

    @cached_property
    def operand(self) -> np.ndarray:
        """The state's matrix made exactly Hermitian, read-only: the matrix
        itself when validation measured a Hermiticity defect of exactly
        0.0 (every matrix ``make-state`` and the zoo write), else its
        :func:`~qinvert.tensor.lower_completion`, the matrix that
        validation's Cholesky certificate and ``eigvalsh`` read.  Formed
        on first use and cached."""
        if self._exact:
            return self.matrix
        out = lower_completion(self.matrix)
        out.setflags(write=False)
        return out


@dataclass(frozen=True, eq=False)
class FactorState:
    """The state rho = G G^dag of a D x r factor G, 1 <= r <= D, with
    ||G||_F = 1, stored as a read-only copy (``_owned`` as for
    :class:`DensityMatrix`).  G G^dag is PSD and of unit trace by
    construction, so validation checks the shape, finiteness and norm of
    G only.  Its purity profile comes from Gram products of G
    (:func:`~qinvert.tensor.factor_purities`), with no D x D array;
    :meth:`density` forms rho for the families that act on the matrix."""

    factor: np.ndarray
    dims: SubsystemDims
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned: bool) -> None:
        g = self.factor if _owned else np.array(self.factor, dtype=np.complex128)
        d = self.dims.total
        if g.ndim != 2 or g.shape[0] != d or not 1 <= g.shape[1] <= d:
            raise ValueError(f"factor shape {g.shape} is not (D, r) with D = {d} and 1 <= r <= D")
        _require_unit_norm(g, "factor")
        object.__setattr__(self, "factor", g)

    @property
    def rank(self) -> int:
        """r, the number of columns of G: 1 for a pure state."""
        return self.factor.shape[1]

    def density(self) -> DensityMatrix:
        """rho = G G^dag as a validated :class:`DensityMatrix`, formed by
        :func:`gram_density`, so it is exactly Hermitian and its
        ``operand`` is its matrix; PSD by construction, so validation skips
        the PSD check.  Formed anew on each call."""
        return DensityMatrix(gram_density(self.factor), self.dims, _psd_known=True, _owned=True)

    @cached_property
    def purities(self) -> np.ndarray:
        """As DensityMatrix.purities, from Gram products of G; cached."""
        return factor_purities(self.factor, self.dims)


class PureState(FactorState):
    """A normalized state vector, the r = 1 case of :class:`FactorState`,
    stored as a read-only copy (``_owned`` as for :class:`DensityMatrix`);
    its factor is the vector as one column."""

    def __init__(self, vector: np.ndarray, dims: SubsystemDims, _owned: bool = False) -> None:
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "dims", dims)
        self.__post_init__(_owned)

    def __post_init__(self, _owned: bool) -> None:
        vec = (self.vector if _owned else np.array(self.vector, dtype=np.complex128)).reshape(-1)
        d = self.dims.total
        if vec.shape != (d,):
            raise ValueError(
                f"state vector length {vec.shape[0]} does not match total dimension {d}"
            )
        _require_unit_norm(vec, "state vector")
        object.__setattr__(self, "vector", vec)

    @property
    def factor(self) -> np.ndarray:
        return self.vector.reshape(-1, 1)

    # bound on this class too, where the benchmark's span recorder
    # (perfbench/spans.py) patches PureState's own methods
    density = FactorState.density


def _require_unit_norm(g: np.ndarray, what: str) -> None:
    """Check ``g`` finite with ||g|| = 1 within :data:`TOL_NORM`, then make
    it read-only."""
    _require_finite(g, what)
    norm = float(np.linalg.norm(g))
    if abs(norm - 1.0) > TOL_NORM:
        raise ValueError(f"{what} norm {norm} is not 1 within {TOL_NORM}")
    g.setflags(write=False)


def gram_density(g: np.ndarray) -> np.ndarray:
    """G G^dag / Tr(G G^dag), averaged with its adjoint so it is exactly
    Hermitian, for one D x r matrix or each member of an (M, D, r) stack;
    every step works member by member, so a stack's member i is bit for
    bit the matrix of its own ``g[i]``.  The product is formed a block of
    columns at a time, each from a conjugated block of rows of G, the two
    within about :data:`~qinvert.tensor.HOLD_BYTES` per member, so G's
    whole conjugate is never held; the blocks depend on D and r only, so
    a stack and each of its members run the same blocks.  Blocks start at
    multiples of 8 columns, so each is the one-shot product's columns bit
    for bit (OpenBLAS ``zgemm``, numpy 2.4.6, measured for D = 65 to 512
    and widths of 8 to 128; a block starting at column 100 or 102 is
    not).  The matrix is
    symmetrized and normalized in place; each step is the same complex
    ufunc as the out-of-place expression, so the result is bit for bit
    ``(m + m^dag) / 2 / tr``.  Unchecked:
    :func:`~qinvert.zoo.ginibre_mixed` validates one state, and a stack's
    caller checks the stack."""
    d, r = g.shape[-2:]
    mat = np.empty(g.shape[:-1] + (d,), dtype=g.dtype)
    # a block starting inside one of OpenBLAS's column panels (up to 8
    # wide), or a last block of one column (numpy's matrix-vector route),
    # rounds differently
    step = max(8, HOLD_BYTES // (16 * (d + r)) // 8 * 8)
    starts = list(range(0, d, step))
    if len(starts) > 1 and d - starts[-1] == 1:
        starts.pop()
    for i, j in zip(starts, starts[1:] + [d]):
        np.matmul(g, g[..., i:j, :].conj().swapaxes(-1, -2), out=mat[..., :, i:j])
    _add_adjoint(mat)
    mat /= 2.0
    mat /= np.trace(mat, axis1=-2, axis2=-1).real[..., None, None]
    return mat


def _require_density(mat: np.ndarray, psd: bool = True) -> float:
    """The checks of :class:`DensityMatrix` on one matrix or each member of a
    (M, D, D) stack the caller owns: finite, Hermitian, unit trace and,
    with ``psd``, one PSD certificate, shifted and restored in place; a
    stack's errors give its worst member.  Returns the largest
    Hermiticity defect."""
    defect = _require_hermitian(mat, "density matrix")
    what = "density matrix" if mat.ndim == 2 else "density matrix stack"
    traces = np.trace(mat, axis1=-2, axis2=-1).reshape(-1)
    tr = complex(traces[np.argmax(np.abs(traces - 1.0))])
    if abs(tr - 1.0) > TOL_TRACE:
        raise ValueError(f"{what} trace {tr} is not 1 within {TOL_TRACE}")
    lo = psd_violation(mat, TOL_PSD, True) if psd else None  # owned: shifted in place
    if lo is not None:
        raise ValueError(f"{what} has negative eigenvalue {lo:.3e} below -{TOL_PSD}")
    return defect


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2), in (0, 1]."""
    return trace_product(rho.matrix, rho.matrix).real


def linear_entropies(rho: DensityMatrix | FactorState) -> dict[int, float]:
    """tau_S = 2 [1 - Tr(rho_S^2)] for every nonempty subset S of parties."""
    return {s: 2.0 * (1.0 - p) for s, p in enumerate(rho.purities.tolist()) if s != 0}
