"""Dense operator algebra on multipartite tensor-product spaces.

Operators are plain complex ``ndarray``s of shape (D, D) accompanied by a
:class:`~qinvert.dims.SubsystemDims`.  On their (d_1..d_N, d_1..d_N) view
three primitives do all the work: :func:`_trace_out` contracts parties one
at a time in ascending party order (a fixed, reproducible summation
order), :func:`_diagonal` is the writable party-diagonal view that
identity-padded terms are added onto, and :func:`block_product` forms
tensor products as one broadcast product.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .dims import SubsystemDims, parties_from_mask

TOL_HERM = 1e-10


def _require_finite(a: np.ndarray, what: str) -> None:
    # NaN slips through every tolerance test (NaN > tol is False)
    bad = ~np.isfinite(a)
    if bad.any():
        index = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValueError(
            f"{what} has non-finite entries (NaN or inf); "
            f"the first is {a[index]} at index {index}"
        )


def herm_defect(a: np.ndarray) -> float:
    """Largest absolute entry of a - a^dagger."""
    return float(np.max(np.abs(a - a.conj().T)))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product with ``a`` as the left (most significant) factor."""
    return np.kron(a, b)


def _trace_out(tensor: np.ndarray, axes: list[int]) -> np.ndarray:
    """Trace the parties at ``axes`` (ascending 0-based positions) out of a
    (d.., d..) tensor, one party at a time in ascending order."""
    n = tensor.ndim // 2
    for q, i in enumerate(axes):
        tensor = np.trace(tensor, axis1=i - q, axis2=i + n - 2 * q)
    return tensor


def _diagonal(tensor: np.ndarray, axes: list[int]) -> np.ndarray:
    """Writable view of the entries of a (d.., d..) tensor whose row and
    column indices agree on the parties at ``axes``, with those axes first
    so that an operator on the other parties broadcasts over it."""
    n = tensor.ndim // 2
    rest = [i for i in range(n) if i not in axes]
    labels = list(range(n)) + [i if i in axes else i + n for i in range(n)]
    return np.einsum(tensor, labels, axes + rest + [i + n for i in rest])


def partial_trace(mat: np.ndarray, dims: SubsystemDims, keep: int) -> np.ndarray:
    """Trace out the complement of ``keep``; the result lives on the kept
    parties in their original order.  ``keep = 0`` yields the 1x1 matrix
    holding the full trace."""
    dims.validate_mask(keep)
    if keep == dims.full_mask:
        return np.array(mat, dtype=np.complex128)
    tensor = np.asarray(mat, dtype=np.complex128).reshape(dims.dims + dims.dims)
    traced = [p - 1 for p in parties_from_mask(dims.complement(keep))]
    d_keep = dims.block_dim(keep)
    return _trace_out(tensor, traced).reshape(d_keep, d_keep)


def embed(op_s: np.ndarray, s: int, dims: SubsystemDims) -> np.ndarray:
    """Pad ``op_s`` (acting on the parties in ``s``, in party order) with
    identities on the complement, in the global party order.  ``s = 0``
    promotes a 1x1 operator to a multiple of the identity.

    The :func:`block_product` of one block: each entry is the single
    product op_s[a, b] * delta, bit-identical to kron-and-permute."""
    dims.validate_mask(s)
    op_s = np.asarray(op_s, dtype=np.complex128)
    d_s = dims.block_dim(s)
    if op_s.shape != (d_s, d_s):
        raise ValueError(f"operator shape {op_s.shape} does not match subsystem dimension {d_s}")
    return block_product({s: op_s}, dims)


def _padded_shape(dims: SubsystemDims, mask: int) -> tuple[int, ...]:
    """Row and column axes of an operator on ``mask``, with size-1 axes
    for the parties outside it."""
    half = tuple(d if mask >> j & 1 else 1 for j, d in enumerate(dims.dims))
    return half + half


def block_product(parts: dict[int, np.ndarray], dims: SubsystemDims) -> np.ndarray:
    """Tensor product of block operators keyed by disjoint party masks,
    assembled in the global party order; uncovered parties get the
    identity.  One broadcast product of the blocks on their parties' axes
    (size-1 axes elsewhere), in ascending mask order from the first block
    itself, times the uncovered parties' identity last."""
    seen = 0
    out = None
    for s in sorted(parts):
        if s & seen:
            raise ValueError("blocks must act on disjoint party sets")
        seen |= s
        op_s = np.asarray(parts[s], dtype=np.complex128).reshape(_padded_shape(dims, s))
        out = op_s if out is None else out * op_s
    comp = dims.complement(seen)
    eye = np.eye(dims.block_dim(comp), dtype=np.complex128).reshape(_padded_shape(dims, comp))
    return (eye if out is None else out * eye).reshape(dims.total, dims.total)


def trace_product(a: np.ndarray, b: np.ndarray) -> complex:
    """Tr(a @ b) without forming the product."""
    return complex(np.einsum("ij,ji->", a, b))


def signed_subset_sums(x) -> np.ndarray:
    """out[T] = sum_S (-1)^{|S & T|} x[S] over a length-2^N array indexed by
    bitmask, as a fast Walsh-Hadamard transform in O(N 2^N).  One
    butterfly stage per party, party 1 (bit 0) first: the summation order
    is fixed, so results are bit-reproducible."""
    out = np.array(x, dtype=np.float64)
    if out.ndim != 1 or out.size == 0 or out.size & (out.size - 1):
        raise ValueError(f"expected a 1-d array of length 2^N, got shape {out.shape}")
    for j in range(out.size.bit_length() - 1):
        pairs = out.reshape(-1, 2, 1 << j)
        pairs[:, 0], pairs[:, 1] = pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]
    return out


def reduction_sweep(mat: np.ndarray, dims: SubsystemDims) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(S, partial_trace(mat, dims, S))`` for every subset S,
    depth first from the full set down, in a fixed (not ascending) order.

    Each reduction is one single-party trace of its parent, with parties
    leaving in ascending order as in :func:`partial_trace`, so results are
    bit-identical to it.  Only one chain of ancestors is alive at a time,
    at most about 4/3 D^2 entries; the full-set entry is a view of ``mat``.
    """

    def visit(mask: int, tensor: np.ndarray, first: int):
        d = math.prod(tensor.shape[: tensor.ndim // 2])
        yield mask, tensor.reshape(d, d)
        axes = [j for j in range(dims.n) if mask >> j & 1]
        for pos, j in enumerate(axes):
            if j < first:
                continue
            child = _trace_out(tensor, [pos])
            yield from visit(mask ^ (1 << j), child, j + 1)

    tensor = np.asarray(mat, dtype=np.complex128).reshape(dims.dims + dims.dims)
    return visit(dims.full_mask, tensor, 0)


def subset_purities(mat: np.ndarray, dims: SubsystemDims) -> np.ndarray:
    """Tr(rho_S^2) for every subset S (entry 0: (Tr rho)^2, as signed purity
    sums need it), as a read-only array indexed by bitmask, from one sweep."""
    out = np.empty(1 << dims.n)
    for s, m_s in reduction_sweep(mat, dims):
        out[s] = trace_product(m_s, m_s).real
    out.setflags(write=False)
    return out


def min_eigenvalue(h: np.ndarray, tol_herm: float = TOL_HERM) -> float:
    """Smallest eigenvalue of a Hermitian operator."""
    _require_finite(h, "operator")
    defect = herm_defect(h)
    if defect > tol_herm:
        raise ValueError(f"operator is not Hermitian: max |h - h^dag| = {defect:.3e}")
    return float(np.linalg.eigvalsh(h)[0])
