"""Dense operator algebra on multipartite tensor-product spaces.

Operators are plain complex ``ndarray``s of shape (D, D) accompanied by a
:class:`~qinvert.dims.SubsystemDims`.  On their (d_1..d_N, d_1..d_N) view
three primitives do all the work: :func:`_trace_out` contracts parties one
at a time in ascending party order (a fixed, reproducible summation
order), :func:`_diagonal` is the writable party-diagonal view that
identity-padded terms are added onto, and :func:`block_product` forms
tensor products as one broadcast product.  Each also takes leading batch
axes, so one call serves a (K, ...) stack of operators.
"""

from __future__ import annotations

import functools
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


def herm_defect(a: np.ndarray) -> float | np.ndarray:
    """Largest absolute entry of a - a^dagger over the last two axes: a
    float for one operator, one value per member for a stack of them."""
    defect = np.max(np.abs(a - a.conj().swapaxes(-1, -2)), axis=(-2, -1))
    return float(defect) if a.ndim == 2 else defect


def _trace_out(tensor: np.ndarray, axes: tuple[int, ...], batch: int = 0) -> np.ndarray:
    """Trace the parties at ``axes`` (ascending 0-based positions) out of a
    (b.., d.., d..) tensor with ``batch`` leading batch axes, one party at
    a time in ascending order.  Each trace is ``np.trace``'s own reduction
    (a sum over the last axis of the diagonal view), without its wrapper."""
    n = (tensor.ndim - batch) // 2
    for q, i in enumerate(axes):
        tensor = np.add.reduce(tensor.diagonal(0, batch + i - q, batch + i + n - 2 * q), -1)
    return tensor


@functools.lru_cache(maxsize=256)
def _diagonal_layout(
    shape: tuple[int, ...], strides: tuple[int, ...], axes: tuple[int, ...], batch: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Shape and strides of the :func:`_diagonal` view: a diagonal axis
    steps by its row and column strides at once."""
    n = (len(shape) - batch) // 2
    rest = [i for i in range(n) if i not in axes]
    half, step = shape[batch:], strides[batch:]
    return (
        tuple(half[i] for i in axes) + shape[:batch]
        + tuple(half[i] for i in rest) + tuple(half[n + i] for i in rest),
        tuple(step[i] + step[n + i] for i in axes) + strides[:batch]
        + tuple(step[i] for i in rest) + tuple(step[n + i] for i in rest),
    )


def _diagonal(tensor: np.ndarray, axes: tuple[int, ...], batch: int = 0) -> np.ndarray:
    """Writable view of the entries of a C-contiguous (b.., d.., d..)
    tensor with ``batch`` leading batch axes whose row and column indices
    agree on the parties at ``axes``, with those axes first and the batch
    axes next, so that a (b.., operator on the other parties) tensor
    broadcasts over it."""
    shape, strides = _diagonal_layout(tensor.shape, tensor.strides, axes, batch)
    return np.ndarray(shape, tensor.dtype, tensor, 0, strides)


def partial_trace(mat: np.ndarray, dims: SubsystemDims, keep: int) -> np.ndarray:
    """Trace out the complement of ``keep``; the result lives on the kept
    parties in their original order.  ``keep = 0`` yields the 1x1 matrix
    holding the full trace.  Leading axes of ``mat`` are batch axes: a
    (M, D, D) stack gives the (M, d_keep, d_keep) stack of its members'
    traces."""
    dims.validate_mask(keep)
    if keep == dims.full_mask:
        return np.array(mat, dtype=np.complex128)
    mat = np.asarray(mat, dtype=np.complex128)
    lead = mat.shape[:-2]
    tensor = mat.reshape(lead + dims.dims + dims.dims)
    traced = [p - 1 for p in parties_from_mask(dims.complement(keep))]
    d_keep = dims.block_dim(keep)
    return _trace_out(tensor, traced, len(lead)).reshape(lead + (d_keep, d_keep))


def embed(op_s: np.ndarray, s: int, dims: SubsystemDims) -> np.ndarray:
    """Pad ``op_s`` (acting on the parties in ``s``, in party order) with
    identities on the complement, in the global party order.  ``s = 0``
    promotes a 1x1 operator to a multiple of the identity.  Leading axes
    of ``op_s`` are batch axes: a (M, d_s, d_s) stack gives (M, D, D).

    The :func:`block_product` of one block: each entry is the single
    product op_s[a, b] * delta, bit-identical to kron-and-permute."""
    dims.validate_mask(s)
    op_s = np.asarray(op_s, dtype=np.complex128)
    d_s = dims.block_dim(s)
    if op_s.shape[-2:] != (d_s, d_s):
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
    itself, times the uncovered parties' identity last.  Blocks may carry
    leading batch axes, which broadcast: a (K, d_s, d_s) stack per block
    gives the K products as one (K, D, D) stack."""
    seen = 0
    out = None
    for s in sorted(parts):
        if s & seen:
            raise ValueError("blocks must act on disjoint party sets")
        seen |= s
        op_s = np.asarray(parts[s], dtype=np.complex128)
        op_s = op_s.reshape(op_s.shape[:-2] + _padded_shape(dims, s))
        out = op_s if out is None else out * op_s
    comp = dims.complement(seen)
    eye = np.eye(dims.block_dim(comp), dtype=np.complex128).reshape(_padded_shape(dims, comp))
    out = eye if out is None else out * eye
    return out.reshape(out.shape[:out.ndim - 2 * dims.n] + (dims.total, dims.total))


def trace_product(a: np.ndarray, b: np.ndarray) -> complex:
    """Tr(a @ b) without forming the product."""
    return complex(np.einsum("ij,ji->", a, b))


def signed_subset_sums(x) -> np.ndarray:
    """out[T] = sum_S (-1)^{|S & T|} x[S] over a length-2^N array indexed by
    bitmask, as a fast Walsh-Hadamard transform in O(N 2^N).  One
    butterfly stage per party, party 1 (bit 0) first: the summation order
    is fixed, so results are bit-reproducible.  Leading axes are member
    axes: each row of a (M, 2^N) array is bit for bit its one-row call."""
    out = np.array(x, dtype=np.float64)
    size = out.shape[-1] if out.ndim else 0
    if size == 0 or size & (size - 1):
        raise ValueError(f"expected length 2^N on the last axis, got shape {out.shape}")
    # a C-contiguous copy: no pair of any stage spans two rows
    for j in range(size.bit_length() - 1):
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
    Leading axes of ``mat`` are batch axes, as in :func:`partial_trace`:
    each reduction of a (M, D, D) stack is a (M, d_S, d_S) stack.
    """

    def visit(mask: int, tensor: np.ndarray, first: int):
        d = math.prod(tensor.shape[batch:batch + (tensor.ndim - batch) // 2])
        yield mask, tensor.reshape(lead + (d, d))
        axes = [j for j in range(dims.n) if mask >> j & 1]
        for pos, j in enumerate(axes):
            if j < first:
                continue
            child = _trace_out(tensor, [pos], batch)
            yield from visit(mask ^ (1 << j), child, j + 1)

    mat = np.asarray(mat, dtype=np.complex128)
    lead = mat.shape[:-2]
    batch = len(lead)
    return visit(dims.full_mask, mat.reshape(lead + dims.dims + dims.dims), 0)


def subset_purities(mat: np.ndarray, dims: SubsystemDims) -> np.ndarray:
    """Tr(rho_S^2) for every subset S (entry 0: (Tr rho)^2, as signed purity
    sums need it), as a read-only array indexed by bitmask, from one sweep.
    Leading axes of ``mat`` are member axes: a (M, D, D) stack gives (M, 2^N)
    profiles, each row bit for bit its member's own sweep."""
    out = np.empty(np.shape(mat)[:-2] + (1 << dims.n,))
    for s, m_s in reduction_sweep(mat, dims):
        out[..., s] = np.einsum("...ij,...ji->...", m_s, m_s).real
    out.setflags(write=False)
    return out


def _require_hermitian(h: np.ndarray, what: str, tol_herm: float = TOL_HERM) -> None:
    """Check an operator, or every member of a (K, D, D) stack, finite and
    Hermitian within ``tol_herm``; the errors name it ``what``, and for a
    stack the Hermiticity error gives its worst member."""
    _require_finite(h, what if h.ndim == 2 else f"{what} stack")
    defects = np.atleast_1d(herm_defect(h))
    k = int(np.argmax(defects))
    if defects[k] > tol_herm:
        name = what if h.ndim == 2 else f"{what} {k} of the stack"
        raise ValueError(f"{name} is not Hermitian: max |h - h^dag| = {defects[k]:.3e}")


def min_eigenvalue(h: np.ndarray, tol_herm: float = TOL_HERM) -> float:
    """Smallest eigenvalue of a Hermitian operator, or the smallest over a
    (K, D, D) stack of them from one stacked ``eigvalsh``.  Every member is
    checked finite and Hermitian first."""
    _require_hermitian(h, "operator", tol_herm)
    return float(np.linalg.eigvalsh(h)[..., 0].min())


def psd_violation(h: np.ndarray, tol: float) -> float | None:
    """None when the finite Hermitian operator ``h`` (or every member of a
    (K, D, D) stack) has lambda_min >= -tol; otherwise the smallest
    eigenvalue from ``eigvalsh``, which is then below -tol.  Like
    ``eigvalsh``, it reads the lower triangle of ``h``.

    The test is Rump's certificate (Verification of positive definiteness,
    BIT Numer. Math. 46, 433 (2006)): ``np.linalg.cholesky`` of a copy of
    A = h + (tol - r) 1, shifted on its diagonal in place.  If it runs to
    completion, lambda_min(h) >= -tol.  The computed factor satisfies
    R^H R = A + E with ||E||_2 <= gamma_{D+1} / (1 - gamma_{D+1}) tr A,
    gamma_k = k u / (1 - k u), u = 2^-53 (Demmel's bound, Higham, Accuracy
    and Stability of Numerical Algorithms, Thm 10.5), so the shift must
    exceed that by r.  The code takes

        r = g / (1 - g) * (sum_i |h_ii| + D tol),  g = 2 gamma_{D+2},

    where doubling gamma covers complex inner products and the rounding
    of the shifted diagonal.  For a density matrix r is about
    2 (D + 2) u: 1e-12 at D = 4096, far below tol = 1e-9.  (Underflow
    terms, below 1e-300, are left out.)

    Only when the factorization fails does ``eigvalsh`` run, so a verdict
    can differ from a raw ``eigvalsh`` one only where that solve's own
    rounding straddles -tol, and a failure is named by its exact value."""
    d = h.shape[-1]
    u = np.finfo(np.float64).eps / 2.0
    g = 2.0 * (d + 2) * u / (1.0 - (d + 2) * u)
    r = g / (1.0 - g) * (np.abs(h.diagonal(0, -2, -1).real).sum(-1) + d * tol)
    shifted = np.array(h, dtype=np.complex128, order="C")
    shifted.reshape(shifted.shape[:-2] + (d * d,))[..., :: d + 1] += np.expand_dims(tol - r, -1)
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        low = float(np.linalg.eigvalsh(h)[..., 0].min())
        return low if low < -tol else None
    return None
