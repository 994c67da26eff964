"""The generalized state-inversion map and the positive maps built from it.

For a subset T of parties the T-inversion of an operator is the signed,
identity-padded sum of its reduced operators,

    I_T(rho) = sum_{S subset of {1..N}} (-1)^{|S & T|} rho_S (x) 1_{S^c},

where rho_S keeps the parties in S.  T = {1..N} is the universal state
inversion; T = {j} on a single party is the reduction map Tr(.)1 - id.
Equivalently I_T is the product of the commuting single-party factors
Tr_j(.) (x) 1_j -/+ id.  One factor kernel, :func:`_apply_factors`,
applies such factors to a (K, D, D) stack of operators with one weight
per member and block, and everything production runs goes through it:
:func:`invert_product`, coarse graining, the detection map and Choi
matrices call it with K = 1, and :func:`inversion_stacks` evaluates I_T
for every T as a butterfly over the parties, 2^N masks per call when
they fit in a cache-sized stack.  The subset sum above
(:func:`invert_sum`) and the Gell-Mann Kraus channel on the conjugated
input (:func:`invert_kraus`) are kept only as cross-check references.
Both take one mask or ``None`` for all 2^N masks in ascending order (a
(2^N, D, D) stack, each member bit-identical to its own one-mask call),
and :func:`reference_inversions` makes one all-masks call of each, the
Gell-Mann generators built once.

Every one of these all-masks routes also takes a (M, D, D) stack of
operands: the leading member axis rides through the same kernels (the
reduction sweep, embeds, the signed sums, the broadcast matrix
products, the factor kernel) with no second code path, each member
bit-identical to its own call, so an ensemble of M small operands costs
one call per kernel instead of M.  :func:`chunk_members` sizes such
stacks against :data:`STACK_HOLD_BYTES`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .dims import DEFAULT_DIM_CAP, SubsystemDims, parties_from_mask
from .gellmann import build_basis, minus_channel_indices, plus_channel_indices
from .tensor import _diagonal, _trace_out, block_product, embed, partial_trace, reduction_sweep


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


def invert_sum(mat: np.ndarray, dims: SubsystemDims, t: int | None) -> np.ndarray:
    """Signed sum of identity-padded reductions; subsets are accumulated in
    ascending bitmask order so the summation order is reproducible.
    ``t`` is one mask (a D x D result) or ``None`` for all 2^N masks in
    ascending order (a (2^N, D, D) stack, each member bit-identical to its
    own one-mask call).  Leading axes of ``mat`` are member axes: a
    (M, D, D) stack gives (M, D, D) for one mask and (2^N, M, D, D) for
    all, each member bit-identical to its own call.  The 2^N embedded
    terms are formed one at a time: one mask traces each reduction out of
    ``mat`` (O(D^2) memory), all masks read one reduction sweep.  A
    reference route, not a production one."""
    lead = np.shape(mat)[:-2]
    if t is None:
        reductions = dict(reduction_sweep(mat, dims))
        terms = ((s, embed(reductions[s], s, dims)) for s in dims.subset_masks())
        return _signed_sums(terms, dims, list(dims.subset_masks()), lead)
    t = int(dims.validate_mask(t))
    terms = ((s, embed(partial_trace(mat, dims, s), s, dims)) for s in dims.subset_masks())
    return _signed_sums(terms, dims, [t], lead)[0]


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
    stack: np.ndarray, dims: SubsystemDims, weights: Mapping[int, float | np.ndarray]
) -> np.ndarray:
    """Apply Tr_b(.) (x) 1_b + w_b id for each block b of ``weights``
    (disjoint party masks), in ascending mask order, to every member of
    ``stack``, a (K, D, D) stack or one D x D operator (K = 1), and return
    the (K, D, D) results; ``weights[b]`` is one weight per member (a
    length-K array) or one for all (a scalar).  On the (K, d_1..d_N, d_1..d_N)
    reshape the block's parties are traced out
    (:func:`~qinvert.tensor._trace_out`) and the result is added in place
    onto the b-diagonal view (:func:`~qinvert.tensor._diagonal`) of w_b
    times the operand, so no identity-padded D x D operator is formed;
    from :data:`SLICE_ADD_ENTRIES` on, the add runs per block-index slice.
    Each member's result is bit-identical to its own K = 1 call.
    O(K D^2) per block."""
    flat = np.array(stack, dtype=np.complex128, order="C").reshape(-1, dims.total**2)
    k = len(flat)
    tensor = flat.reshape((k,) + dims.dims + dims.dims)
    per_slice = flat.size >= SLICE_ADD_ENTRIES
    for block in sorted(weights):
        axes = tuple(p - 1 for p in parties_from_mask(block))
        traced = _trace_out(tensor, axes, batch=1)
        w = weights[block]
        flat *= w[:, np.newaxis] if isinstance(w, np.ndarray) else w
        diagonal = _diagonal(tensor, axes, batch=1)
        if per_slice:
            for index in np.ndindex(diagonal.shape[:len(axes)]):
                diagonal[index] += traced
        else:
            diagonal += traced
    return flat.reshape(k, dims.total, dims.total)


def _inversion_weights(n: int, t: int) -> dict[int, float]:
    """Single-party factor weights of I_T: -1 on the parties of t, +1 elsewhere."""
    return {1 << i: -1.0 if t >> i & 1 else 1.0 for i in range(n)}


def invert_product(mat: np.ndarray, dims: SubsystemDims, t: int) -> np.ndarray:
    """Apply the N commuting factors Tr_j(.) (x) 1_j +/- id through
    :func:`_apply_factors`, with a minus sign exactly for the parties in
    ``t``.  O(N D^2); agrees with :func:`invert_sum` to rounding."""
    dims.validate_mask(t)
    return _apply_factors(mat, dims, _inversion_weights(dims.n, t))[0]


# Bytes of inverted operators (2^m M D^2 complex entries) in one stack of
# inversion_stacks: all 2^N masks of (2,2,2,2,2), (2,3,4) or (3,3,3), 8
# of (3,3,3,3), 4 at 7 qubits.  A stack beyond the cache costs more in
# memory traffic than the calls it saves (at (3,3,3,3) all 16 masks in
# one stack take twice as long as two stacks of 8).  verify sizes its
# chunks of ensemble members against it too (see chunk_members).
STACK_HOLD_BYTES = 1 << 20


# (2^N, D, D) stacks per operand that a chunk of verify's ensemble holds
# at its peak, temporaries included: the factor stack and, while the
# Kraus butterfly runs its last party, its input, both party sums, their
# concatenation and the matrix-product temporaries (about 4.9 at (2,2,2,2)
# under tracemalloc; factorization's stacks, products and differences
# peak below that).
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
    The factors of parties 1..m are applied as a butterfly: the stack for
    the first j parties is doubled and its copies get the factor of party
    j+1 with weight +1 and -1, one kernel call per party; each stack then
    applies the factors of the remaining parties with one sign pattern
    for all its members, in ascending mask order."""
    mat = np.asarray(mat)
    lead = mat.shape[:-2]
    d = dims.total
    m = dims.n
    while m and (16 << m) * math.prod(lead) * d**2 > STACK_HOLD_BYTES:
        m -= 1
    low = mat.reshape(-1, d, d)  # mask-major: member k of mask t at t M + k
    for j in range(m):
        signs = np.repeat((1.0, -1.0), len(low))
        low = _apply_factors(np.broadcast_to(low, (2,) + low.shape), dims, {1 << j: signs})
    for high in range(1 << (dims.n - m)):
        weights = {1 << j: -1.0 if high >> (j - m) & 1 else 1.0 for j in range(m, dims.n)}
        stack = _apply_factors(low, dims, weights) if weights else low
        yield stack.reshape((-1,) + lead + (d, d))


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


# Per party, the embedded generators of its Kraus channel for the plus
# sign and for the minus sign.
KrausGenerators = tuple[list[tuple[np.ndarray, ...]], list[tuple[np.ndarray, ...]]]


def embedded_generators(dims: SubsystemDims) -> KrausGenerators:
    """The generators of :func:`_channel_generators` for both signs, each
    embedded on its party as a D x D operator: ``(plus, minus)``, indexed
    by party.  They depend only on ``dims``, so a campaign builds them once
    and hands them to every :func:`invert_kraus` call."""
    plus, minus = ([tuple(embed(g, 1 << i, dims) for g in party_generators)
                    for i, party_generators in enumerate(_channel_generators(dims, t))]
                   for t in (0, dims.full_mask))
    return plus, minus


def _party_channel(src: np.ndarray, generators: tuple[np.ndarray, ...], d: int) -> np.ndarray:
    """One party's Kraus channel, with its embedded ``generators``, on
    every member of ``src``, accumulated in a single buffer."""
    acc = np.zeros_like(src)
    for h in generators:
        acc += h @ src @ h
    acc *= 2.0 / d
    return acc


def invert_kraus(
    mat: np.ndarray,
    dims: SubsystemDims,
    t: int | None,
    generators: KrausGenerators | None = None,
) -> np.ndarray:
    """Evaluate the inversion as a Kraus channel acting on the entrywise
    conjugate of ``mat``.

    Per party the channel sums over the y-type generators when the party
    carries a minus sign, and over identity, x and z types otherwise.
    Parties are iterated outermost and generator indices innermost; each
    party's sum is accumulated in a single buffer.  Agrees with
    :func:`invert_sum` on Hermitian inputs.  ``t`` is one mask (a D x D
    result) or ``None`` for all 2^N masks in ascending order (a
    (2^N, D, D) stack): a butterfly that doubles the stack once per party,
    party 1 first, as the plus channel's results followed by the minus
    channel's, each member bit-identical to its own one-mask call.
    Leading axes of ``mat`` are member axes, carried through by the
    broadcast matrix products: (M, D, D) gives (M, D, D) for one mask and
    (2^N, M, D, D) for all, each member bit-identical to its own call.
    ``generators``, from :func:`embedded_generators`, skips rebuilding them.
    """
    if t is not None:
        t = int(dims.validate_mask(t))
    plus, minus = embedded_generators(dims) if generators is None else generators
    out = np.asarray(mat, dtype=np.complex128).conj()
    if t is None:
        out = out[np.newaxis]
        for i, d in enumerate(dims.dims):
            out = np.concatenate([_party_channel(out, plus[i], d),
                                  _party_channel(out, minus[i], d)])
        return out
    for i, d in enumerate(dims.dims):
        out = _party_channel(out, (minus if t >> i & 1 else plus)[i], d)
    return out


# Bytes of the two (2^N, M, D, D) stacks, sum and Kraus form, that
# reference_inversions holds per call, enough for 7 qubits; beyond it
# every mask streams its own terms.
REFERENCE_HOLD_BYTES = 256 << 20


def reference_inversions(
    mat: np.ndarray, dims: SubsystemDims, generators: KrausGenerators | None = None
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield ``(T, invert_sum(mat, dims, T), invert_kraus(mat, dims, T))``
    for every mask T in ascending order; leading axes of ``mat`` are
    member axes, as in both forms.  ``generators``, from
    :func:`embedded_generators`, are built here when None.  Each form is
    one all-masks call.  The two result stacks are 2 * 2^N M D^2 entries;
    above :data:`REFERENCE_HOLD_BYTES` nothing is held and every mask is
    one call per form, with :func:`invert_sum` streaming its own
    reductions."""
    if generators is None:
        generators = embedded_generators(dims)
    if 2 * (1 << dims.n) * np.size(mat) * 16 > REFERENCE_HOLD_BYTES:
        for t in dims.subset_masks():
            yield t, invert_sum(mat, dims, t), invert_kraus(mat, dims, t, generators)
        return
    # the Kraus butterfly's temporaries peak before the sum stack exists
    by_kraus = invert_kraus(mat, dims, None, generators)
    yield from zip(dims.subset_masks(), invert_sum(mat, dims, None), by_kraus)


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
    exactly the parties it weights; all weights must lie in [0, 1].
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
        table = {p: float(value) for p in parties}
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
