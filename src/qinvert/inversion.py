"""The generalized state-inversion map and the positive maps built from it.

For a subset T of parties the T-inversion of an operator is the signed,
identity-padded sum of its reduced operators,

    I_T(rho) = sum_{S subset of {1..N}} (-1)^{|S & T|} rho_S (x) 1_{S^c},

where rho_S keeps the parties in S.  T = {1..N} is the universal state
inversion; T = {j} on a single party is the reduction map Tr(.)1 - id.
Three independent evaluation routes are provided: the subset sum above
(:func:`invert_sum`, the reference), the commuting product of per-party
factors (:func:`invert_product`), and the Gell-Mann Kraus channel applied
to the conjugated input (:func:`invert_kraus`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np

from .dims import SubsystemDims, mask_size, parties_from_mask
from .gellmann import build_basis, minus_channel_indices, plus_channel_indices
from .tensor import embed, embed_single, partial_trace


def invert_sum(mat: np.ndarray, dims: SubsystemDims, t: int) -> np.ndarray:
    """Signed sum of identity-padded reductions; subsets are accumulated in
    ascending bitmask order so the summation order is reproducible."""
    dims.validate_mask(t)
    out = np.zeros((dims.total, dims.total), dtype=np.complex128)
    for s in dims.subset_masks():
        term = embed(partial_trace(mat, dims, s), s, dims)
        if mask_size(s & t) % 2:
            out -= term
        else:
            out += term
    return out


def _apply_factors(
    mat: np.ndarray, dims: SubsystemDims, weights: Mapping[int, float]
) -> np.ndarray:
    """Apply Tr_j(.) (x) 1_j + w_j id for each party j in ``weights``, in
    ascending order, on the (d_1..d_N, d_1..d_N) reshape: one single-party
    trace added onto the j-diagonal of w_j times the operand, so no
    identity-padded D x D operator is formed.  O(D^2) per party."""
    n = dims.n
    tensor = np.asarray(mat, dtype=np.complex128).reshape(dims.dims + dims.dims)
    for j in sorted(weights):
        i = j - 1
        traced = np.trace(tensor, axis1=i, axis2=i + n)
        tensor = weights[j] * tensor
        diagonal = np.moveaxis(tensor, (i, i + n), (0, 1))
        for k in range(dims.dims[i]):
            diagonal[k, k] += traced
    return tensor.reshape(dims.total, dims.total)


def invert_product(mat: np.ndarray, dims: SubsystemDims, t: int) -> np.ndarray:
    """Apply the N commuting factors Tr_j(.) (x) 1_j +/- id through
    :func:`_apply_factors`, with a minus sign exactly for the parties in
    ``t``.  O(N D^2); agrees with :func:`invert_sum` to rounding."""
    dims.validate_mask(t)
    weights = {j: -1.0 if t >> (j - 1) & 1 else 1.0 for j in range(1, dims.n + 1)}
    return _apply_factors(mat, dims, weights)


def invert_kraus(mat: np.ndarray, dims: SubsystemDims, t: int) -> np.ndarray:
    """Evaluate the inversion as a Kraus channel acting on the entrywise
    conjugate of ``mat``.

    Per party the channel sums over the y-type generators when the party
    carries a minus sign, and over identity, x and z types otherwise.
    Parties are iterated outermost and generator indices innermost; the
    result is accumulated in a single buffer.  Agrees with
    :func:`invert_sum` on Hermitian inputs.
    """
    dims.validate_mask(t)
    out = np.asarray(mat, dtype=np.complex128).conj()
    for j in range(1, dims.n + 1):
        d = dims.dims[j - 1]
        basis = build_basis(d)
        if t >> (j - 1) & 1:
            indices = minus_channel_indices(d)
        else:
            indices = plus_channel_indices(d)
        acc = np.zeros_like(out)
        for m in indices:
            h = embed_single(basis.matrices[m], j, dims)
            acc += h @ out @ h
        out = (2.0 / d) * acc
    return out


def kraus_operators(dims: SubsystemDims, t: int) -> Iterator[np.ndarray]:
    """Yield the scaled tensor-product Kraus operators of the inversion
    channel, so that I_T(rho) = sum_K K rho* K for Hermitian rho."""
    dims.validate_mask(t)
    scale = math.sqrt(2.0**dims.n / dims.total)
    per_party = []
    for j in range(1, dims.n + 1):
        d = dims.dims[j - 1]
        basis = build_basis(d)
        if t >> (j - 1) & 1:
            indices = minus_channel_indices(d)
        else:
            indices = plus_channel_indices(d)
        per_party.append([basis.matrices[m] for m in indices])
    for combo in itertools.product(*per_party):
        op = np.array([[1.0 + 0.0j]])
        for factor in combo:
            op = np.kron(op, factor)
        yield scale * op


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
    """Inversion of the coarse-grained state, assembled from fine-grained
    inversions.

    For each block the fine subsets contributing are those whose parity
    matches the block's coarse sign (odd inside minus blocks, even inside
    plus blocks); each block of size n_b contributes a 2^{1-n_b} averaging
    weight.  The result is returned in the fine-grained index layout.
    """
    if grouping.n != dims.n:
        raise ValueError("grouping does not match the number of parties")
    if t_coarse < 0 or t_coarse >> grouping.num_blocks:
        raise ValueError(
            f"coarse mask {bin(t_coarse)} addresses blocks beyond {grouping.num_blocks}"
        )
    weight = 2.0 ** (grouping.num_blocks - dims.n)
    out = np.zeros((dims.total, dims.total), dtype=np.complex128)
    for t_fine in dims.subset_masks():
        ok = True
        for b, block in enumerate(grouping.blocks):
            want_odd = t_coarse >> b & 1
            if mask_size(t_fine & block) % 2 != want_odd:
                ok = False
                break
        if ok:
            out += invert_sum(mat, dims, t_fine)
    return weight * out


@dataclass(frozen=True)
class DetectionParams:
    """Parameters of the tunable positive (not completely positive) map.

    Parties in ``t`` get the factor Tr_j(.)1_j - alpha_j id, the remaining
    parties of ``act_on`` get Tr_k(.)1_k + beta_k id, and parties outside
    ``act_on`` are left untouched.  ``alpha``/``beta`` accept a scalar
    (broadcast) or a mapping keyed by 1-based party index; all weights
    must lie in [0, 1].
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
        table = {int(p): float(value[p]) for p in parties}
    else:
        table = {p: float(value) for p in parties}
    for p, w in table.items():
        if not 0.0 <= w <= 1.0:
            raise ValueError(f"{name}_{p} = {w} is outside [0, 1]")
    return table


def apply_detection_map(
    mat: np.ndarray, dims: SubsystemDims, params: DetectionParams
) -> np.ndarray:
    """Apply the detection map; a negative eigenvalue of the output on a
    state certifies entanglement between ``act_on`` and the rest.  Runs
    :func:`_apply_factors` with weights -alpha_j on ``t`` and beta_k on the
    rest of ``act_on``."""
    dims.validate_mask(params.act_on)
    weights = {j: -a for j, a in params.alpha.items()}
    weights.update(params.beta)
    return _apply_factors(mat, dims, weights)


def choi_matrix(
    map_kind: str,
    dims: SubsystemDims,
    t: int = 0,
    params: DetectionParams | None = None,
    cap: int = 4096,
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
    """
    d = dims.total
    if d * d > cap:
        raise ValueError(
            f"Choi matrix side {d * d} exceeds the dimension cap {cap}"
        )
    if map_kind == "t_inversion_after_transpose":
        dims.validate_mask(t)
        fn: Callable[[np.ndarray], np.ndarray] = lambda x: invert_sum(x.T, dims, t)
    elif map_kind == "t_inversion":
        dims.validate_mask(t)
        fn = lambda x: invert_sum(x, dims, t)
    elif map_kind == "detection":
        if params is None:
            raise ValueError("detection Choi matrix requires params")
        fn = lambda x: apply_detection_map(x, dims, params)
    else:
        raise ValueError(f"unknown map kind {map_kind!r}")
    choi = np.zeros((d, d, d, d), dtype=np.complex128)
    basis_op = np.zeros((d, d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            basis_op[i, j] = 1.0
            choi[i, :, j, :] = fn(basis_op)
            basis_op[i, j] = 0.0
    return choi.reshape(d * d, d * d)
