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

# Bytes of an operand that one block of the finiteness and Hermiticity
# checks reads (_require_finite, herm_defect), and four blocks of the
# Gram symmetrization (_add_adjoint), so that their temporaries stay
# within the budget the inversion stacks hold (inversion.STACK_HOLD_BYTES).
# An operator or stack within it, such as one operator up to D = 256, is
# checked as one block.
HOLD_BYTES = 1 << 20


def _row_blocks(a: np.ndarray) -> Iterator[slice]:
    """Slices ``i:stop`` of the second-last axis of ``a``, in order, whose
    rows, across every member of a stack, hold at most :data:`HOLD_BYTES`
    (at least one row each); one slice of all rows when ``a`` is within
    it."""
    n = a.shape[-2]
    step = max(1, HOLD_BYTES * n // max(a.nbytes, 1))
    for i in range(0, n, step):
        yield slice(i, min(i + step, n))


def _require_finite(a: np.ndarray, what: str) -> None:
    # NaN slips through every tolerance test (NaN > tol is False)
    rows = a.reshape(-1, a.shape[-1])
    if all(np.isfinite(rows[block]).all() for block in _row_blocks(rows)):
        return
    index = tuple(int(i) for i in np.argwhere(~np.isfinite(a))[0])
    raise ValueError(
        f"{what} has non-finite entries (NaN or inf); "
        f"the first is {a[index]} at index {index}"
    )


def herm_defect(a: np.ndarray) -> float | np.ndarray:
    """Largest absolute entry of a - a^dagger over the last two axes: a
    float for one operator, one value per member for a stack of them.
    Formed a block of rows at a time (:data:`HOLD_BYTES`), each block's
    difference written over its conjugated columns, so the temporaries
    come to a block and a half."""
    defect = None
    for rows in _row_blocks(a):
        # a C-ordered copy, even of real a, so the subtraction runs in order
        diff = np.conjugate(a[..., :, rows].swapaxes(-1, -2), order="C")
        np.subtract(a[..., rows, :], diff, out=diff)
        block = np.max(np.abs(diff), axis=(-2, -1))
        defect = block if defect is None else np.maximum(defect, block)
    return float(defect) if a.ndim == 2 else defect


def lower_completion(a: np.ndarray) -> np.ndarray:
    """The exactly Hermitian matrix that ``eigvalsh`` and
    ``np.linalg.cholesky`` read from a square matrix: a copy with the real
    part of its diagonal, its strict lower triangle, and the conjugate of
    that triangle above the diagonal.  Completed a block of rows at a
    time (:func:`_row_blocks`), so the temporaries stay within
    :data:`HOLD_BYTES`."""
    out = np.array(a, dtype=np.complex128, order="C")
    for rows in _row_blocks(out):
        out[rows, rows.stop:] = np.conjugate(out[rows.stop:, rows]).T
        square = out[rows, rows]
        upper = np.triu_indices(rows.stop - rows.start, 1)
        square[upper] = np.conjugate(square.T[upper])
    np.einsum("ii->i", out).imag = 0.0
    return out


def _add_adjoint(mat: np.ndarray) -> None:
    """m_ij + conj(m_ji) into every entry of a square matrix (or each
    member of a stack) in place, by pairs of mirrored square blocks: each
    block of a pair gets its own entries plus the conjugated transpose of
    the other's, copied before either is written.  Each entry is the
    complex sum of the out-of-place ``m + m^dag``, bit for bit.  A block
    holds at most a quarter of :data:`HOLD_BYTES`, so the two copies of a
    pair stay within half of it (D <= 128 alone is one block)."""
    d = mat.shape[-1]
    step = max(1, math.isqrt(HOLD_BYTES // 4 * d * d // max(mat.nbytes, 1)))
    for i in range(0, d, step):
        for j in range(i, d, step):
            upper, lower = mat[..., i:i + step, j:j + step], mat[..., j:j + step, i:i + step]
            # np.conjugate copies even a real block, which .conj() would not
            mirrored = np.conjugate(upper).swapaxes(-1, -2) if j > i else None
            np.add(upper, np.conjugate(lower).swapaxes(-1, -2), out=upper)
            if mirrored is not None:
                np.add(lower, mirrored, out=lower)


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


def factor_purities(g: np.ndarray, dims: SubsystemDims) -> np.ndarray:
    """Tr(rho_S^2) for every subset S of rho = G G^dag, G a D x r factor,
    as :func:`subset_purities` gives them (entry 0: (Tr rho)^2, read-only,
    indexed by bitmask), with no D x D array.

    rho_S = M_S M_S^dag, where M_S is G's (d.., r) tensor with the parties
    of S first, reshaped to d_S x d_{S^c} r.  So Tr rho_S^2 is
    ||M_S M_S^dag||_F^2 = ||M_S^dag M_S||_F^2, one Gram product on the
    smaller side: O(D r min(d_S, d_{S^c} r)) per subset, one transposed
    copy of G at a time.  For r = 1 the two sides are rho_S and
    rho_{S^c}, which have the same purity, so each complement pair takes
    one product, 2^(N-1) in all.  Not bit for bit the dense sweep, but
    within a few ulps of each purity."""
    g = np.asarray(g, dtype=np.complex128)
    n, r = dims.n, g.shape[1]
    tensor = g.reshape(dims.dims + (r,))
    out = np.empty(1 << n)
    half = 1 << (n - 1)
    # for r = 1, the subsets without party N stand for their complements
    for s in range(half if r == 1 else 1 << n):
        inside = [j for j in range(n) if s >> j & 1]
        m = tensor.transpose(inside + [j for j in range(n + 1) if not s >> j & 1])
        m = m.reshape(math.prod(m.shape[:len(inside)]), -1)
        if m.shape[0] > m.shape[1]:
            m = m.T
        gram = m @ m.conj().T
        out[s] = np.vdot(gram, gram).real
    if r == 1:
        out[half:] = out[half - 1::-1]
    out.setflags(write=False)
    return out


def _require_hermitian(h: np.ndarray, what: str, tol_herm: float = TOL_HERM) -> float:
    """Check an operator, or every member of a (K, D, D) stack, finite and
    Hermitian within ``tol_herm``, and return the largest Hermiticity
    defect; the errors name it ``what``, and for a stack the Hermiticity
    error gives its worst member."""
    _require_finite(h, what if h.ndim == 2 else f"{what} stack")
    defects = np.atleast_1d(herm_defect(h))
    k = int(np.argmax(defects))
    if defects[k] > tol_herm:
        name = what if h.ndim == 2 else f"{what} {k} of the stack"
        raise ValueError(f"{name} is not Hermitian: max |h - h^dag| = {defects[k]:.3e}")
    return float(defects[k])


def min_eigenvalue(h: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian operator, or the smallest over a
    (K, D, D) stack of them from one stacked ``eigvalsh``.  Every member is
    checked finite and Hermitian within :data:`TOL_HERM` first."""
    _require_hermitian(h, "operator")
    return float(np.linalg.eigvalsh(h)[..., 0].min())


def _rounding_bound(h: np.ndarray, tol: float | np.ndarray) -> np.ndarray:
    """r of :func:`psd_violation`, one value per member: how far the
    Cholesky factorization of h + (tol - r) 1 can round."""
    d = h.shape[-1]
    u = np.finfo(np.float64).eps / 2.0
    g = 2.0 * (d + 2) * u / (1.0 - (d + 2) * u)
    diagonal = np.abs(h.diagonal(0, -2, -1).real).sum(-1)
    return g / (1.0 - g) * (diagonal + d * np.maximum(tol, 0.0))


def _cholesky_certifies(h: np.ndarray, tol: float | np.ndarray, owned: bool = False) -> bool:
    """True when ``np.linalg.cholesky`` of h + (tol - r) 1 runs to
    completion for every member of ``h``, which proves lambda_min >= -tol
    for each; ``tol`` is a scalar or one value per member.  The diagonal
    is shifted in place and restored bit for bit in a ``finally``,
    whatever the factorization does: of ``h`` itself when ``owned`` (a
    writable complex128 array no other thread reads), else of a copy."""
    if not owned:
        h = np.array(h, dtype=np.complex128, order="C")
    shift = np.expand_dims(tol - _rounding_bound(h, tol), -1)
    diagonal = np.einsum("...ii->...i", h)
    saved = diagonal.copy()
    diagonal += shift
    try:
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return False
    finally:
        diagonal[...] = saved
    return True


def psd_violation(h: np.ndarray, tol: float, owned: bool = False) -> float | None:
    """None when the finite Hermitian operator ``h`` (or every member of a
    (K, D, D) stack) has lambda_min >= -tol; otherwise the smallest
    eigenvalue from ``eigvalsh``, which is then below -tol.  Like
    ``eigvalsh``, it reads the lower triangle of ``h``.  With ``owned``,
    ``h`` is a writable complex128 array that no other thread reads while
    the test runs: its diagonal is shifted in place and restored bit for
    bit, so no copy of ``h`` is made; otherwise a copy is shifted.

    The test is Rump's certificate (Verification of positive definiteness,
    BIT Numer. Math. 46, 433 (2006)): ``np.linalg.cholesky`` of
    A = h + (tol - r) 1.  If it runs to completion, lambda_min(h) >= -tol.
    The computed factor satisfies R^H R = A + E with
    ||E||_2 <= gamma_{D+1} / (1 - gamma_{D+1}) tr A,
    gamma_k = k u / (1 - k u), u = 2^-53 (Demmel's bound, Higham, Accuracy
    and Stability of Numerical Algorithms, Thm 10.5), so the shift must
    exceed that by r.  The code takes

        r = g / (1 - g) * (sum_i |h_ii| + D max(tol, 0)),  g = 2 gamma_{D+2},

    where doubling gamma covers complex inner products and the rounding
    of the shifted diagonal.  For a density matrix r is about
    2 (D + 2) u: 1e-12 at D = 4096, far below tol = 1e-9.  (Underflow
    terms, below 1e-300, are left out.)  A negative tol tests
    lambda_min >= |tol|; tr A stays below the bracket for either sign.

    Only when the factorization fails does ``eigvalsh`` run, so a verdict
    can differ from a raw ``eigvalsh`` one only where that solve's own
    rounding straddles -tol, and a failure is named by its exact value."""
    if _cholesky_certifies(h, tol, owned):
        return None
    low = float(np.linalg.eigvalsh(h)[..., 0].min())
    return low if low < -tol else None


def certified_min_eigenvalue(h: np.ndarray, solved: int, low: float = math.inf) -> float:
    """The running minimum ``low`` lowered to the smallest eigenvalue of a
    (K, D, D) stack of Hermitian operators, to within s, from one stacked
    ``eigvalsh`` of its last ``solved`` members (1 <= solved <= K) and one
    stacked certificate of the others.  Every member is checked finite and
    Hermitian first.

    The solved members' smallest ``eigvalsh`` value lowers ``low``.  Then
    one :func:`psd_violation` certificate of every other member tests
    lambda_min >= low - s, with s = 2 r and r the rounding bound of the
    test lambda_min >= low (per member, about 2 (D + 2) 2^-53 Tr h for
    low >= 0, so a member tied with ``low`` passes).  If the factorization
    completes, ``low`` stands; if not, those members are solved with
    ``eigvalsh`` too.  So the result is a minimum of ``eigvalsh`` values,
    exact (bit for bit the stacked ``eigvalsh`` minimum) whenever the
    minimizing member is solved, and otherwise at most s above the
    smallest eigenvalue.  Put the member most likely to be least last."""
    _require_hermitian(h, "operator")
    split = len(h) - solved
    low = min(low, float(np.linalg.eigvalsh(h[split:])[..., 0].min()))
    rest = h[:split]
    if len(rest) and not _cholesky_certifies(rest, 2.0 * _rounding_bound(rest, -low) - low):
        low = min(low, float(np.linalg.eigvalsh(rest)[..., 0].min()))
    return low
