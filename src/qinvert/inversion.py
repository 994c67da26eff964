"""The generalized state-inversion map and the positive maps built from it.

For a subset T of parties the T-inversion of an operator is the signed,
identity-padded sum of its reduced operators,

    I_T(rho) = sum_{S subset of {1..N}} (-1)^{|S & T|} rho_S (x) 1_{S^c},

where rho_S keeps the parties in S.  T = {1..N} is the universal state
inversion; T = {j} on a single party is the reduction map Tr(.)1 - id.
Equivalently I_T is the product of the commuting single-party factors
Tr_j(.) (x) 1_j -/+ id.  One factor kernel, :func:`_apply_factors`,
applies such factors to a (K, D, D) stack of operators with one weight
per block, and everything production runs goes through it:
:func:`invert_product` (the one-mask route), coarse graining, the
detection map and Choi matrices call it with K = 1,
:func:`odd_inversions` (the production route for all odd masks, which
``marginal`` reads) runs its trace and factor steps as a depth-first
tree that shares each node's trace and factors across the masks below
it, and :func:`inversion_stacks` evaluates I_T for every T as a butterfly
over the parties that takes each party's trace once for both signs, 2^N
masks per call when they fit in a cache-sized stack.  The subset sum above
(:func:`invert_sum`) and the Gell-Mann Kraus channel on the conjugated
input (:func:`invert_kraus`, each party's channel one (d^2, d^2) transfer
matrix on that party's row and column indices) are kept only as
cross-check references.  Both take one mask or the aligned block of
masks of one such stack, range(k 2^m, (k+1) 2^m), and return a
(2^m, D, D) stack for a block, each member bit-identical to its own
one-mask call.

Every one of these routes also takes a (M, D, D) stack of operands:
the leading member axis rides through the same kernels (the reduction
sweep, embeds, the signed sums, the batched matrix products, the
factor kernel) with no second code path, each member bit-identical to
its own call, so an ensemble of M small operands costs one call per
kernel instead of M.  :func:`chunk_members` sizes such stacks against
:data:`STACK_HOLD_BYTES`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .dims import DEFAULT_DIM_CAP, SubsystemDims, parties_from_mask
from .gellmann import build_basis, minus_channel_indices, plus_channel_indices
from .tensor import HOLD_BYTES, _diagonal, _trace_out, block_product, embed, reduction_sweep


def _signed_sums(
    terms: Iterable[tuple[int, np.ndarray]],
    dims: SubsystemDims,
    masks: Sequence[int],
    lead: tuple[int, ...] = (),
) -> np.ndarray:
    """The (K, lead.., D, D) stack of sum_S (-1)^{|S & T|} term_S, one
    member per mask T of ``masks``, over the ``(S, term_S)`` pairs of
    (lead.., D, D) terms in the order given.  Each member runs the
    ``out -= term`` / ``out += term`` of its own K = 1 call, so it is
    bit-identical to it; a term whose sign differs between members is
    applied as two masked in-place ufuncs."""
    out = np.zeros((len(masks),) + lead + (dims.total, dims.total), dtype=np.complex128)
    per_mask = (len(masks),) + (1,) * (out.ndim - 1)
    for s, term in terms:
        odd = np.array([(s & t).bit_count() % 2 for t in masks], dtype=bool)
        if odd.all():
            out -= term
        elif not odd.any():
            out += term
        else:
            np.subtract(out, term, out=out, where=odd.reshape(per_mask))
            np.add(out, term, out=out, where=~odd.reshape(per_mask))
    return out


def _mask_block(dims: SubsystemDims, t: int | range) -> range:
    """The masks that ``t`` names: ``range(t, t + 1)`` for one mask, else
    ``t`` itself, which must be an aligned block range(k 2^m, (k+1) 2^m)
    of the 2^N masks."""
    if not isinstance(t, range):
        t = int(dims.validate_mask(t))
        return range(t, t + 1)
    size = len(t)
    if t.step != 1 or t.start < 0 or not size or size & (size - 1) or t.start % size:
        raise ValueError(f"mask block {t} is not an aligned block range(k 2^m, (k+1) 2^m)")
    if t.stop > 1 << dims.n:
        raise ValueError(f"mask block {t} addresses parties beyond the {dims.n} available")
    return t


def invert_sum(mat: np.ndarray, dims: SubsystemDims, t: int | range) -> np.ndarray:
    """Signed sum of identity-padded reductions, added in the fixed order of
    one :func:`~qinvert.tensor.reduction_sweep`, so the summation order is
    reproducible.  ``t`` is one mask (a D x D result) or an aligned block
    range(k 2^m, (k+1) 2^m) (a (2^m, D, D) stack in ascending mask order,
    each member bit-identical to its own one-mask call).  Leading axes of
    ``mat`` are member axes: a (M, D, D) stack gives (M, D, D) for one
    mask and (2^m, M, D, D) for a block, each member bit-identical to its
    own call.  The 2^N embedded terms are formed one at a time, so one
    mask takes O(D^2) memory.  A reference route, not a production one."""
    block = _mask_block(dims, t)
    terms = ((s, embed(m_s, s, dims)) for s, m_s in reduction_sweep(mat, dims))
    out = _signed_sums(terms, dims, block, np.shape(mat)[:-2])
    return out if isinstance(t, range) else out[0]


# Entries of a stack (K D^2) from which _apply_factors adds the traced
# operators onto the block diagonal one block-index slice at a time.
# Below it one broadcast add over the whole diagonal view is faster (the
# slices' Python overhead dominates: 4 qubits, K = 1, 95 against 120 us
# per call); above it numpy's broadcast iteration over that strided view
# is the slower (7 qubits, K = 1, 0.94 against 0.78 ms; 5 qubits,
# K = 16, 0.79 against 0.54 ms).  The crossover sits near 128^2 entries
# for one operator and for stacks alike.
SLICE_ADD_ENTRIES = 1 << 14


def _apply_factors(
    stack: np.ndarray, dims: SubsystemDims, weights: Mapping[int, float]
) -> np.ndarray:
    """Apply Tr_b(.) (x) 1_b + w_b id for each block b of ``weights``
    (disjoint party masks), in ascending mask order, to every member of
    ``stack``, a (K, D, D) stack or one D x D operator (K = 1), and return
    the (K, D, D) results; ``weights[b]`` is one weight for all members.
    Each block is one :func:`_block_trace` of the current operands and one
    :func:`_add_factor` onto a copy of them, so no identity-padded D x D
    operator is formed.  Each member's result is bit-identical to its own
    K = 1 call.  O(K D^2) per block."""
    flat = np.array(stack, dtype=np.complex128, order="C").reshape(-1, dims.total**2)
    _factors_in_place(flat, dims, weights)
    return flat.reshape(len(flat), dims.total, dims.total)


def _factors_in_place(flat: np.ndarray, dims: SubsystemDims, weights: Mapping[int, float]) -> None:
    """:func:`_apply_factors` on a C-ordered (K, D^2) complex stack, in place."""
    for block in sorted(weights):
        _add_factor(flat, dims, block, _block_trace(flat, dims, block), weights[block])


def _block_trace(flat: np.ndarray, dims: SubsystemDims, block: int) -> np.ndarray:
    """The parties of ``block`` traced out of every member of a C-ordered
    (K, D^2) stack (:func:`~qinvert.tensor._trace_out` on its
    (K, d_1..d_N, d_1..d_N) reshape): the operator that the block's factor
    adds back onto the block diagonal, for either weight."""
    axes = tuple(p - 1 for p in parties_from_mask(block))
    return _trace_out(flat.reshape((len(flat),) + dims.dims + dims.dims), axes, batch=1)


def _add_factor(
    flat: np.ndarray, dims: SubsystemDims, block: int, traced: np.ndarray, w: float
) -> None:
    """Tr_b(.) (x) 1_b + w id of ``block`` on a C-ordered (K, D^2) stack, in
    place, from its :func:`_block_trace` ``traced``: the stack is scaled
    by the one weight w and ``traced`` is added onto its b-diagonal view
    (:func:`~qinvert.tensor._diagonal`); from :data:`SLICE_ADD_ENTRIES`
    on, the add runs per block-index slice."""
    axes = tuple(p - 1 for p in parties_from_mask(block))
    flat *= w
    diagonal = _diagonal(flat.reshape((len(flat),) + dims.dims + dims.dims), axes, batch=1)
    if flat.size >= SLICE_ADD_ENTRIES:
        for index in np.ndindex(diagonal.shape[:len(axes)]):
            diagonal[index] += traced
    else:
        diagonal += traced


def _inversion_weights(n: int, t: int) -> dict[int, float]:
    """Single-party factor weights of I_T: -1 on the parties of t, +1 elsewhere."""
    return {1 << i: -1.0 if t >> i & 1 else 1.0 for i in range(n)}


def invert_product(
    mat: np.ndarray, dims: SubsystemDims, t: int, parties: int | None = None
) -> np.ndarray:
    """Apply the commuting factors Tr_j(.) (x) 1_j +/- id of the parties
    in the mask ``parties`` (all N by default, giving I_T) through
    :func:`_apply_factors`, with a minus sign exactly for the parties in
    ``t``.  The kernel applies them in ascending party order, so calls on
    consecutive blocks of parties, in ascending order, give the one call
    on all of them bit for bit.  O(N D^2); agrees with :func:`invert_sum`
    to rounding."""
    weights = _inversion_weights(dims.n, dims.validate_mask(t))
    if parties is not None:
        dims.validate_mask(parties)
        weights = {b: w for b, w in weights.items() if b & parties}
    return _apply_factors(mat, dims, weights)[0]


# Bytes of inverted operators (2^m M D^2 complex entries) in one stack of
# inversion_stacks: all 2^N masks of (2,2,2,2,2), (2,3,4) or (3,3,3), 8
# of (3,3,3,3), 4 at 7 qubits.  A stack beyond the cache costs more in
# memory traffic than the calls it saves (at (3,3,3,3) all 16 masks in
# one stack take twice as long as two stacks of 8).  verify sizes its
# chunks of ensemble members against it too (see chunk_members), and
# odd_inversions the operators and traces its depth-first tree holds.  The
# same 1 MiB bounds the row blocks of tensor's checks (tensor.HOLD_BYTES).
STACK_HOLD_BYTES = HOLD_BYTES


# (2^N, D, D) stacks per operand that a chunk of verify's ensemble holds
# at its peak, temporaries included: in cross_form, the factor stack, both
# reference forms' stacks and one deviation's difference and its absolute
# values (4.7-4.9 at (2,2,2,2), (2,3,4), (3,3) and (2,2,2,2,2) under
# tracemalloc; the Kraus call alone peaks at 2.0, its rows, one half's
# product and the doubled stack; factorization's stacks, products and
# differences peak below that).
CHUNK_STACKS = 5


def chunk_members(dims: SubsystemDims) -> int:
    """How many operands of ``dims`` to stack on a member axis so that
    their :data:`CHUNK_STACKS` stacks of all 2^N inversions fit in
    :data:`STACK_HOLD_BYTES`; at least 1, so an operand larger than the
    bound runs alone."""
    per_member = CHUNK_STACKS * (16 << dims.n) * dims.total**2
    return max(1, STACK_HOLD_BYTES // per_member)


def inversion_stacks(mat: np.ndarray, dims: SubsystemDims) -> Iterator[np.ndarray]:
    """Yield I_T(mat) for every mask T in ascending order, as consecutive
    (2^m, D, D) stacks, each bit-identical member by member to
    :func:`invert_product`.  Leading axes of ``mat`` are member axes: a
    (M, D, D) stack of operands gives mask-major (2^m, M, D, D) stacks.
    2^m is the most masks within :data:`STACK_HOLD_BYTES` for all
    members, so one stack holds all 2^N unless the operands are large.
    The factors of parties 1..m are applied as a butterfly with the sign
    step of :func:`odd_inversions`: the stack for the first j parties is
    traced once over party j+1 (:func:`_block_trace`), doubled, and its
    halves get that party's factor from the one trace with weight +1 and
    -1, so the butterfly traces (2^m - 1) M operators; each stack then
    applies the factors of the remaining parties with one sign pattern
    for all its members, in ascending mask order."""
    mat = np.asarray(mat, dtype=np.complex128)
    lead = mat.shape[:-2]
    d = dims.total
    m = dims.n
    while m and (16 << m) * math.prod(lead) * d**2 > STACK_HOLD_BYTES:
        m -= 1
    low = mat.reshape(-1, d * d)  # mask-major: member k of mask t at t M + k
    for j in range(m):
        traced = _block_trace(low, dims, 1 << j)
        low = np.concatenate([low, low])
        _add_factor(low[:len(traced)], dims, 1 << j, traced, 1.0)
        _add_factor(low[len(traced):], dims, 1 << j, traced, -1.0)
    for high in range(1 << (dims.n - m)):
        weights = {1 << j: -1.0 if high >> (j - m) & 1 else 1.0 for j in range(m, dims.n)}
        stack = _apply_factors(low, dims, weights) if weights else low
        yield stack.reshape((-1,) + lead + (d, d))


def odd_inversions(mat: np.ndarray, dims: SubsystemDims) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(T, I_T(mat))`` once for every mask T of odd size, in a
    fixed depth-first (not ascending) order; each D x D operator is a
    fresh array that the caller owns, bit for bit
    :func:`invert_product` ``(mat, dims, T)``.  ``mat`` is never written.

    The factors run as a depth-first tree over the parties' signs, party
    1 first.  A node's one-party trace is taken once and both sign
    children are formed from it (:func:`_add_factor`): the second in
    place of the node, before the first child's subtree runs, unless the
    node is ``mat``, whose trace is then held for its copy.  So each
    node's trace and factor are shared by every mask below it.  The last
    party forms only the child of odd size, one :func:`invert_product`
    call on its node.  What the tree holds beyond the operator it yields
    stays within :data:`STACK_HOLD_BYTES`, each operator counted as 16 D^2
    bytes and each held trace by its entries: a node whose children do
    not fit yields each odd mask below it from its own copy, with the
    first factor from its trace held (if that fits) and the rest of the
    factors in place.  At 7 qubits the tree runs 149 one-party traces
    and 206 factors for the 64 masks (the per-mask route: 448 of each);
    at 8 qubits only mat's two children fit, and from D = 512 mat's trace
    at most, so each mask there is nearly the one-mask route."""
    d = dims.total
    return _odd_subtree(np.asarray(mat, dtype=np.complex128).reshape(1, d * d), dims, 0, 0, None)


def _odd_subtree(
    node: np.ndarray, dims: SubsystemDims, j: int, mask: int, held: int | None
) -> Iterator[tuple[int, np.ndarray]]:
    """The odd masks of :func:`odd_inversions` whose bits 0..j-1 are those
    of ``mask``, from ``node``, the (1, D^2) operand with the factors of
    parties 1..j applied.  ``held`` is the bytes that the tree holds,
    ``node`` included, or None when ``node`` is ``mat``."""
    size, traced_size = 16 * dims.total**2, 16 * (dims.total // dims.dims[j]) ** 2
    block = 1 << j
    if j == dims.n - 1:
        t = mask | (1 - mask.bit_count() % 2) << j
        yield t, invert_product(node, dims, t, block)
        return
    if (held or 0) + size > STACK_HOLD_BYTES:  # no room for a child
        shared = (held or 0) + traced_size <= STACK_HOLD_BYTES
        traced = _block_trace(node, dims, block) if shared else None
        yield from _odd_leaves(node, dims, j, mask, traced)
        return
    traced = _block_trace(node, dims, block)
    first = node.copy()
    _add_factor(first, dims, block, traced, 1.0)
    if held is not None:  # the second child in place of the node
        _add_factor(node, dims, block, traced, -1.0)
        del traced
        yield from _odd_subtree(first, dims, j + 1, mask, held + size)
        del first
        yield from _odd_subtree(node, dims, j + 1, mask | block, held)
        return
    # node is mat: its second child is a copy, from mat's trace held
    # meanwhile if that fits, else from the trace taken again
    keep = size + traced_size <= STACK_HOLD_BYTES
    traced = traced if keep else None
    yield from _odd_subtree(first, dims, j + 1, mask, size + traced_size * keep)
    del first
    second = node.copy()
    _add_factor(second, dims, block, traced if keep else _block_trace(node, dims, block), -1.0)
    del traced
    yield from _odd_subtree(second, dims, j + 1, mask | block, size)


def _odd_leaves(
    node: np.ndarray, dims: SubsystemDims, j: int, mask: int, traced: np.ndarray | None
) -> Iterator[tuple[int, np.ndarray]]:
    """The odd masks of :func:`_odd_subtree` from ``node`` one at a time:
    the factors of parties j+1..N on a copy of it, the first from
    ``traced``, its held trace, unless that is None."""
    d = dims.total
    rest = dims.full_mask >> j << j
    for t in range(mask, 1 << dims.n, 1 << j):
        if t.bit_count() % 2 == 0:
            continue
        if traced is None:
            yield t, invert_product(node, dims, t, rest)
            continue
        out = node.copy()
        weights = {b: w for b, w in _inversion_weights(dims.n, t).items() if b & rest}
        _add_factor(out, dims, 1 << j, traced, weights.pop(1 << j))
        _factors_in_place(out, dims, weights)
        yield t, out.reshape(d, d)


def _channel_generators(dims: SubsystemDims, t: int) -> list[tuple[np.ndarray, ...]]:
    """Per party, the Gell-Mann generators of its Kraus channel: the y types
    for parties in ``t``, identity, x and z types otherwise."""
    dims.validate_mask(t)
    generators = []
    for i, d in enumerate(dims.dims):
        basis = build_basis(d).matrices
        indices = minus_channel_indices(d) if t >> i & 1 else plus_channel_indices(d)
        generators.append(tuple(basis[m] for m in indices))
    return generators


# Per party, the transfer matrix of its Kraus channel for the plus sign
# and for the minus sign.
KrausTransfers = tuple[list[np.ndarray], list[np.ndarray]]


def kraus_transfers(dims: SubsystemDims) -> KrausTransfers:
    """The channels of :func:`_channel_generators` for both signs, each as
    its (d^2, d^2) transfer matrix on its party,
    T[(a, b), (x, y)] = (2/d) sum_g g[x, a] g[b, y], which takes the row
    of an operator's (a, b) entries on that party to ``row @ T``:
    ``(plus, minus)``, indexed by party.  They depend only on ``dims``, so
    a campaign builds them once and hands them to every
    :func:`invert_kraus` call."""
    plus, minus = ([_transfer(np.array(party_generators))
                    for party_generators in _channel_generators(dims, t)]
                   for t in (0, dims.full_mask))
    return plus, minus


def _transfer(generators: np.ndarray) -> np.ndarray:
    """The transfer matrix of the channel (2/d) sum_g g . g of a (G, d, d)
    stack of generators."""
    d = generators.shape[-1]
    return np.einsum("gxa,gby->abxy", generators, generators).reshape(d * d, d * d) * (2.0 / d)


def _check_transfers(dims: SubsystemDims, transfers: KrausTransfers) -> None:
    """Raise a ValueError naming the first party whose prebuilt transfer
    matrix, of either sign, is missing or not (d_j^2, d_j^2)."""
    want = [(d * d, d * d) for d in dims.dims]
    for channels in transfers:
        got = [np.shape(t) for t in channels]
        for j, (a, b) in enumerate(itertools.zip_longest(got, want)):
            if a != b:
                raise ValueError(f"prebuilt Kraus transfer matrices do not match party "
                                 f"{j + 1} of dims {dims.dims}: {a} against {b}")


def _party_last(stack: np.ndarray, dims: SubsystemDims, i: int) -> np.ndarray:
    """The (n, L, R, L, R, d, d) view of a C-ordered (n, D, D) stack with
    party i's row and column axes moved last."""
    d = dims.dims[i]
    left, right = math.prod(dims.dims[:i]), math.prod(dims.dims[i + 1:])
    view = stack.reshape(len(stack), left, d, right, left, d, right)
    return view.transpose(0, 1, 3, 4, 6, 2, 5)


def invert_kraus(
    mat: np.ndarray,
    dims: SubsystemDims,
    t: int | range,
    transfers: KrausTransfers | None = None,
) -> np.ndarray:
    """Evaluate the inversion as a Kraus channel acting on the entrywise
    conjugate of ``mat``.

    Per party the channel sums over the y-type generators when the party
    carries a minus sign, and over identity, x and z types otherwise, as
    one transfer matrix (:func:`kraus_transfers`) applied to the party's
    row and column indices of every operator; parties are iterated 1..N.
    Agrees with :func:`invert_sum` on Hermitian inputs.  ``t`` is one mask
    (a D x D result) or an aligned block range(k 2^m, (k+1) 2^m) (a
    (2^m, D, D) stack in ascending mask order): parties 1..m run as a
    butterfly that doubles the stack once per party, as the plus
    channel's results followed by the minus channel's, both from one copy
    of the stack's rows, and parties m+1..N apply the one channel that
    k's bits give them, so each member is bit-identical to its own
    one-mask call.  Leading axes of ``mat`` are member axes, carried
    through on the matmul's leading axis: (M, D, D) gives (M, D, D) for
    one mask and (2^m, M, D, D) for a block, each member bit-identical to
    its own call.  ``transfers``, from :func:`kraus_transfers`, skips
    rebuilding them; transfers for other dims are a ValueError naming the
    first party they do not match.  O(D^2 sum_j d_j^2) per operator.
    """
    block = _mask_block(dims, t)
    m = len(block).bit_length() - 1
    if transfers is None:
        transfers = kraus_transfers(dims)
    else:
        _check_transfers(dims, transfers)
    plus, minus = transfers
    mat = np.asarray(mat, dtype=np.complex128)
    lead = mat.shape[:-2]
    d = dims.total
    out = np.conjugate(mat, order="C").reshape(-1, d, d)
    for i, d_i in enumerate(dims.dims):
        # one matmul over the leading axis, so each member runs the same
        # product whatever the stack's length (one (n L^2 R^2, d^2) product
        # would let BLAS pick its kernel by the row count)
        last = _party_last(out, dims, i)
        shape, rows = last.shape, last.reshape(len(out), -1, d_i * d_i)
        del last  # a butterfly step frees its input once the rows are copied
        if i < m:
            out = np.empty((2 * len(rows), d, d), dtype=np.complex128)
            halves = ((out[:len(rows)], plus[i]), (out[len(rows):], minus[i]))
        else:
            halves = ((out, minus[i] if block.start >> i & 1 else plus[i]),)
        for half, transfer in halves:
            _party_last(half, dims, i)[...] = np.matmul(rows, transfer).reshape(shape)
        del rows
    out = out.reshape((len(block),) + lead + (d, d))
    return out if isinstance(t, range) else out[0]


def kraus_operators(dims: SubsystemDims, t: int) -> Iterator[np.ndarray]:
    """Yield the scaled tensor-product Kraus operators of the inversion
    channel, so that I_T(rho) = sum_K K rho* K for Hermitian rho."""
    generators = _channel_generators(dims, t)
    scale = math.sqrt(2.0**dims.n / dims.total)
    for combo in itertools.product(*generators):
        yield scale * block_product({1 << i: g for i, g in enumerate(combo)}, dims)


@dataclass(frozen=True)
class Grouping:
    """Partition of the parties into ordered disjoint nonempty blocks."""

    blocks: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(int(b) for b in self.blocks))
        full = (1 << self.n) - 1
        seen = 0
        for b in self.blocks:
            if b == 0:
                raise ValueError("grouping blocks must be nonempty")
            if b & ~full:
                raise ValueError(f"block {bin(b)} addresses parties beyond {self.n}")
            if b & seen:
                raise ValueError("grouping blocks must be pairwise disjoint")
            seen |= b
        if seen != full:
            raise ValueError("grouping blocks must cover all parties")

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)


def coarse_grain_invert(
    mat: np.ndarray, dims: SubsystemDims, grouping: Grouping, t_coarse: int
) -> np.ndarray:
    """Inversion of the coarse-grained state, in which each block b of
    ``grouping`` is one party: the block factor is Tr_b(.) (x) 1_b - id
    when bit k of ``t_coarse`` is set for the k-th block, and
    Tr_b(.) (x) 1_b + id otherwise.  One factor-kernel call, O(D^2) per
    block; blocks need not be contiguous, and the result keeps the
    fine-grained index layout."""
    if grouping.n != dims.n:
        raise ValueError("grouping does not match the number of parties")
    if t_coarse < 0 or t_coarse >> grouping.num_blocks:
        raise ValueError(
            f"coarse mask {bin(t_coarse)} addresses blocks beyond {grouping.num_blocks}"
        )
    weights = {b: -1.0 if t_coarse >> k & 1 else 1.0 for k, b in enumerate(grouping.blocks)}
    return _apply_factors(mat, dims, weights)[0]


@dataclass(frozen=True)
class DetectionParams:
    """Parameters of the tunable positive (not completely positive) map.

    Parties in ``t`` get the factor Tr_j(.)1_j - alpha_j id, the remaining
    parties of ``act_on`` get Tr_k(.)1_k + beta_k id, and parties outside
    ``act_on`` are left untouched.  ``alpha``/``beta`` accept a scalar
    (broadcast) or a mapping keyed by 1-based party index that names
    exactly the parties it weights; all weights must lie in [0, 1], a
    scalar even when it weights no party (NaN lies in no interval).
    """

    t: int
    act_on: int
    alpha: Mapping[int, float] | float = 1.0
    beta: Mapping[int, float] | float = 1.0

    def __post_init__(self) -> None:
        if self.t & ~self.act_on:
            raise ValueError("t must be a subset of act_on")
        alpha = _weights(self.alpha, parties_from_mask(self.t), "alpha")
        beta = _weights(self.beta, parties_from_mask(self.act_on & ~self.t), "beta")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)


def _weights(value, parties: tuple[int, ...], name: str) -> dict[int, float]:
    if isinstance(value, Mapping):
        table = {int(p): float(w) for p, w in sorted(value.items())}
        for p in sorted(set(table) ^ set(parties)):
            if p in table:
                raise ValueError(f"{name} names party {p}, which it does not weight")
            raise ValueError(f"{name} has no weight for party {p}")
    else:
        w = float(value)
        if not 0.0 <= w <= 1.0:
            raise ValueError(f"{name} = {w} is outside [0, 1]")
        return {p: w for p in parties}
    for p, w in table.items():
        if not 0.0 <= w <= 1.0:
            raise ValueError(f"{name}_{p} = {w} is outside [0, 1]")
    return table


def _detection_weights(params: DetectionParams) -> dict[int, float]:
    """Single-party factor weights: -alpha_j on t, beta_k on the rest of act_on."""
    weights = {1 << (j - 1): -a for j, a in params.alpha.items()}
    weights.update({1 << (k - 1): b for k, b in params.beta.items()})
    return weights


def apply_detection_map(
    mat: np.ndarray, dims: SubsystemDims, params: DetectionParams
) -> np.ndarray:
    """Apply the detection map; a negative eigenvalue of the output on a
    state certifies entanglement between ``act_on`` and the rest.  One
    factor-kernel call, O(D^2) per party of ``act_on``."""
    dims.validate_mask(params.act_on)
    return _apply_factors(mat, dims, _detection_weights(params))[0]


def choi_matrix(
    map_kind: str,
    dims: SubsystemDims,
    t: int = 0,
    params: DetectionParams | None = None,
    cap: int = DEFAULT_DIM_CAP,
) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) map(|i><j|); positive semidefinite
    exactly when the map is completely positive.

    ``map_kind`` selects the map:

    * ``"t_inversion_after_transpose"`` - X -> I_T(X^T), the multipartite
      Werner-Holevo channel (completely positive),
    * ``"t_inversion"`` - X -> I_T(X) (positive but not completely
      positive in general),
    * ``"detection"`` - the map of :func:`apply_detection_map` with
      ``params``.

    The result (id (x) map)(|Omega><Omega|), |Omega> = sum_i |i>|i>, is one
    factor-kernel call with the map's weight table on the second copy of
    the doubled 2N-party system, O(N D^4); the transposing kind starts from
    the partial transpose of |Omega><Omega| (the swap operator).  ``cap``
    bounds the Choi side D^2.
    """
    d = dims.total
    if d * d > cap:
        raise ValueError(f"Choi matrix side {d * d} exceeds the dimension cap {cap}")
    if map_kind in ("t_inversion_after_transpose", "t_inversion"):
        dims.validate_mask(t)
        weights = _inversion_weights(dims.n, t)
    elif map_kind == "detection":
        if params is None:
            raise ValueError("detection Choi matrix requires params")
        dims.validate_mask(params.act_on)
        weights = _detection_weights(params)
    else:
        raise ValueError(f"unknown map kind {map_kind!r}")
    omega = np.eye(d, dtype=np.complex128).reshape(d * d)
    operand = np.outer(omega, omega).reshape(d, d, d, d)
    if map_kind == "t_inversion_after_transpose":
        operand = operand.transpose(0, 3, 2, 1)
    doubled = SubsystemDims(dims.dims * 2, cap=cap)
    return _apply_factors(
        operand.reshape(d * d, d * d), doubled, {b << dims.n: w for b, w in weights.items()}
    )[0]
