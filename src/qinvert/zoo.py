"""Deterministic state construction: named states, closed-form invariant
values for the pin-or-mix and pinned-GHZ witness families, seeded random
ensembles, and the local-measurement averaging scenario.

Randomness uses the counter-based Philox generator.  ``stream_rng(seed,
*key)`` derives independent streams through ``SeedSequence(seed,
spawn_key=key)``; ensemble member k always draws from stream ``(k,)``, so
ensembles are reproducible and may be generated in any order or in
parallel.  :func:`ginibre_stack` and :func:`product_stack` build many
members as one (M, D, D) stack with one density check, each member bit
for bit its single state's matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .dims import SubsystemDims, mask_size
from .invariants import c_t
from .states import DensityMatrix, FactorState, PureState, _require_density, gram_density
from .tensor import block_product, embed, partial_trace, signed_subset_sums, subset_purities

# Recipe kind -> the options (StateRecipe fields) it reads, each mapped to
# whether it is required; a kind rejects every option it does not read.
RECIPE_KINDS = {
    "ghz": {},
    "bell_phi_plus": {},
    "w": {},
    "product_basis": {"s": False},
    "pinned_mix": {"s": True},
    "pinned_ghz": {"s": True},
    "bell_mixed_12": {},
    "bell_mixed_13": {},
    "haar_pure": {"seed": True},
    "ginibre_mixed": {"seed": True, "rank": False},
    "ginibre_factor": {"seed": True, "rank": True},
}


def stream_rng(seed: int, *key: int) -> np.random.Generator:
    """Philox generator for the sub-stream ``key`` of ``seed``."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key))
    )


# ---------------------------------------------------------------------------
# named states


def ghz_state(n: int, d: int = 2) -> PureState:
    """(1/sqrt(d)) sum_k |k...k> on n parties of local dimension d."""
    dims = SubsystemDims((d,) * n)
    vec = np.zeros(dims.total, dtype=np.complex128)
    stride = (dims.total - 1) // (d - 1)
    for k in range(d):
        vec[k * stride] = 1.0 / math.sqrt(d)
    return PureState(vec, dims)


def bell_state() -> PureState:
    """The two-qubit state (|00> + |11>)/sqrt(2)."""
    return ghz_state(2, 2)


def w_state(n: int) -> PureState:
    """Equal superposition of the single-excitation basis states."""
    dims = SubsystemDims((2,) * n)
    vec = np.zeros(dims.total, dtype=np.complex128)
    for j in range(n):
        vec[1 << (n - 1 - j)] = 1.0 / math.sqrt(n)
    return PureState(vec, dims)


def _basis_index(dims: SubsystemDims, excited: int) -> int:
    """Index of the product basis state |x_1...x_N>, x_j = [j in excited]."""
    return int(np.ravel_multi_index([excited >> j & 1 for j in range(dims.n)], dims.dims))


def basis_product_state(dims: SubsystemDims, excited: int = 0) -> PureState:
    """Computational basis product state |x_1...x_N> with x_j = 1 exactly
    for the parties in ``excited``."""
    dims.validate_mask(excited)
    vec = np.zeros(dims.total, dtype=np.complex128)
    vec[_basis_index(dims, excited)] = 1.0
    return PureState(vec, dims)


def _pin_or_mix(dims: SubsystemDims, pins) -> np.ndarray:
    """|0><0| on the pinned parties (x) 1/d elsewhere, for one mask or, as a
    (M, D, D) stack, for each of an array of them."""
    eye = np.eye(dims.dims[0], dtype=np.complex128)
    pinned, mixed = np.outer(eye[0], eye[0]), eye / len(eye)
    on = np.asarray(pins)[..., None, None]
    return block_product({1 << j: np.where(on >> j & 1, pinned, mixed)
                          for j in range(dims.n)}, dims)


def pinned_mix_state(n: int, pins: int, d: int = 2) -> DensityMatrix:
    """Product state with |0><0| on the pinned parties and the maximally
    mixed state elsewhere."""
    dims = SubsystemDims((d,) * n)
    dims.validate_mask(pins)
    return DensityMatrix(_pin_or_mix(dims, pins), dims)


def pinned_ghz_state(n: int, pins: int) -> PureState:
    """GHZ correlations between party 1 and every un-pinned party, with
    the pinned parties (a subset of {2..n}) fixed to |0>."""
    dims = SubsystemDims((2,) * n)
    dims.validate_mask(pins)
    if pins & 0b1:
        raise ValueError("party 1 cannot be pinned")
    vec = np.zeros(dims.total, dtype=np.complex128)
    vec[0] = vec[_basis_index(dims, dims.full_mask ^ pins)] = 1.0 / math.sqrt(2.0)
    return PureState(vec, dims)


def product_stack(parts: dict[int, np.ndarray], dims: SubsystemDims) -> np.ndarray:
    """Member by member, the products of (M, d_s, d_s) stacks of states
    keyed by party masks that partition the parties: one broadcast
    :func:`~qinvert.tensor.block_product`, bit for bit
    :meth:`DensityMatrix.from_product` of each member's blocks, checked
    as one stack as each product is (PSD as its blocks)."""
    mats = block_product(parts, dims)
    _require_density(mats, psd=False)
    return mats


def bell_pair_with_mixed_qubit(pair: tuple[int, int] = (1, 2)) -> DensityMatrix:
    """Three qubits: |Phi+><Phi+| on ``pair`` and the maximally mixed
    state on the remaining party."""
    a, b = sorted(pair)
    if not (1 <= a < b <= 3):
        raise ValueError(f"pair must name two of the three parties, got {pair}")
    dims = SubsystemDims((2, 2, 2))
    pair_mask = 1 << (a - 1) | 1 << (b - 1)
    bell = bell_state().density()
    mixed = DensityMatrix(np.eye(2, dtype=np.complex128) / 2.0, SubsystemDims((2,)))
    return DensityMatrix.from_product({pair_mask: bell, dims.full_mask ^ pair_mask: mixed}, dims)


# ---------------------------------------------------------------------------
# random ensembles


def haar_pure(dims: SubsystemDims, seed: int, member: int = 0) -> PureState:
    """Haar-random pure state via normalized complex Gaussians."""
    rng = stream_rng(seed, member)
    z = rng.normal(size=dims.total) + 1j * rng.normal(size=dims.total)
    return PureState(z / np.linalg.norm(z), dims)


def _ginibre_factor(
    dims: SubsystemDims, seed: int, member: int, rank: int | None
) -> np.ndarray:
    """The D x rank complex Gaussian G of ``member``, drawn from its own
    stream (full rank by default): its real parts, then its imaginary
    parts, each filled into one complex array as drawn.  The values are
    those of ``rng.normal(size) + 1j * rng.normal(size)`` without its
    three temporaries (a draw of exactly zero, about one in 2^52, may
    differ from it in the sign of a zero)."""
    d = dims.total
    rank = d if rank is None else int(rank)
    if not 1 <= rank <= d:
        raise ValueError(f"rank must lie in 1..{d}, got {rank}")
    rng = stream_rng(seed, member)
    g = np.empty((d, rank), dtype=np.complex128)
    g.real = rng.normal(size=(d, rank))
    g.imag = rng.normal(size=(d, rank))
    return g


def ginibre_mixed(
    dims: SubsystemDims, seed: int, member: int = 0, rank: int | None = None
) -> DensityMatrix:
    """Random density matrix G G^dag / Tr(G G^dag) with a D x rank complex
    Gaussian G (full rank by default), G dropped before validation.  A Gram
    matrix is PSD up to about rank eps of its trace, far inside the PSD
    tolerance, so validation skips the PSD check."""
    mat = gram_density(_ginibre_factor(dims, seed, member, rank))
    return DensityMatrix(mat, dims, _psd_known=True, _owned=True)


def ginibre_factor(dims: SubsystemDims, seed: int, rank: int, member: int = 0) -> FactorState:
    """The state of :func:`ginibre_mixed` kept as its factor: the same G,
    divided by its Frobenius norm, so its density matches that state's
    matrix to rounding."""
    g = _ginibre_factor(dims, seed, member, rank)
    g /= np.linalg.norm(g)
    return FactorState(g, dims, _owned=True)


def ginibre_stack(
    dims: SubsystemDims, seed: int, members: Iterable[int], rank: int | None = None
) -> np.ndarray:
    """The matrices of :func:`ginibre_mixed` for ``members`` (at least
    one), in their order, as one (M, D, D) stack, bit for bit: one stacked
    Gram product (:func:`~qinvert.states.gram_density`) and one stacked
    check, as each state is checked (finite, Hermitian, unit trace; PSD
    by construction)."""
    mats = gram_density(np.array([_ginibre_factor(dims, seed, k, rank) for k in members]))
    _require_density(mats, psd=False)
    return mats


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian with phase fixing."""
    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def random_local_unitary(dims: SubsystemDims, rng: np.random.Generator) -> np.ndarray:
    """Tensor product of independent Haar-random local unitaries."""
    return block_product({1 << i: haar_unitary(d, rng) for i, d in enumerate(dims.dims)}, dims)


def random_psd(
    dims: SubsystemDims, rng: np.random.Generator, trace_scale: float = 1.0
) -> np.ndarray:
    """Random PSD operator G G^dag (:func:`~qinvert.states.gram_density`)
    rescaled to the requested trace."""
    d = dims.total
    return trace_scale * gram_density(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))


# ---------------------------------------------------------------------------
# closed-form invariant values of the witness families


def pinned_mix_invariant(n: int, pins: int, t: int) -> float:
    """Closed-form squared invariant of the pin-or-mix qubit family:
    0 when the pins meet ``t``, else 4^|pins| 3^(n-|pins|-|t|) / 2^n."""
    if pins & t:
        return 0.0
    return 4 ** mask_size(pins) * 3 ** (n - mask_size(pins) - mask_size(t)) / 2**n


def pinned_mix_table(n: int, d: int = 2) -> np.ndarray:
    """C_T^2 of every pin-or-mix member (row ``pins``, column T), bit for bit
    its state's table: the 2^n :func:`pinned_mix_state` matrices as one
    stack, checked as each state is, one stacked sweep and one butterfly."""
    dims = SubsystemDims((d,) * n)
    mats = _pin_or_mix(dims, np.arange(1 << n))
    _require_density(mats)
    return signed_subset_sums(subset_purities(mats, dims))


def pinned_ghz_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """C_T^2 of every pinned-GHZ member (row i for the pins 2i, column T) and
    of its reduced state on parties 2..n, bit for bit the tables of their
    density matrices.
    Each member is its checked :func:`pinned_ghz_state` and projector; the
    projectors form one stack, one stacked partial trace gives the reduced
    states, checked as each state is, and each stack is swept once."""
    members = [pinned_ghz_state(n, i << 1).density() for i in range(1 << (n - 1))]
    dims = members[0].dims
    projectors = np.stack([rho.matrix for rho in members])
    reduced = partial_trace(projectors, dims, dims.full_mask ^ 0b1)
    _require_density(reduced)
    return (signed_subset_sums(subset_purities(projectors, dims)),
            signed_subset_sums(subset_purities(reduced, SubsystemDims((2,) * (n - 1)))))


def pinned_ghz_invariant(n: int, pins: int, t: int) -> float:
    """Closed-form squared invariant of the pinned-GHZ family.

    Zero when the pins meet ``t`` and for every odd-size ``t`` (pure
    states lose all odd-parity invariants); for even-size ``t`` disjoint
    from the pins the value is [t empty] 2^(n-1) + 2^|pins|.
    """
    if pins & 0b1:
        raise ValueError("party 1 cannot be pinned")
    if pins & t or mask_size(t) % 2 == 1:
        return 0.0
    base = 2 ** (n - 1) if t == 0 else 0
    return float(base + 2 ** mask_size(pins))


# ---------------------------------------------------------------------------
# recipes


@dataclass(frozen=True)
class StateRecipe:
    """Declarative description of a buildable state."""

    kind: str
    dims: SubsystemDims
    s: int | None = None
    seed: int | None = None
    rank: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in RECIPE_KINDS:
            raise ValueError(f"unknown recipe kind {self.kind!r}")
        reads = RECIPE_KINDS[self.kind]
        for option in ("s", "seed", "rank"):
            given = getattr(self, option) is not None
            if given and option not in reads:
                raise ValueError(
                    f"recipe {self.kind!r} does not read the option {option!r}; "
                    f"it reads: {', '.join(reads) or 'none'}"
                )
            if reads.get(option) and not given:
                raise ValueError(f"recipe {self.kind!r} requires the option {option!r}")


def build(recipe: StateRecipe) -> DensityMatrix | FactorState:
    """Construct the state described by ``recipe``; deterministic for a
    fixed seed."""
    dims = recipe.dims
    kind = recipe.kind
    if kind == "ghz":
        d = dims.dims[0]
        if any(dj != d for dj in dims.dims):
            raise ValueError("ghz requires equal local dimensions")
        return ghz_state(dims.n, d)
    if kind == "bell_phi_plus":
        if dims.dims != (2, 2):
            raise ValueError("bell_phi_plus requires dims [2, 2]")
        return bell_state()
    if kind == "w":
        if any(dj != 2 for dj in dims.dims):
            raise ValueError("w requires qubits")
        return w_state(dims.n)
    if kind == "product_basis":
        return basis_product_state(dims, recipe.s or 0)
    if kind == "pinned_mix":
        d = dims.dims[0]
        if any(dj != d for dj in dims.dims):
            raise ValueError("pinned_mix requires equal local dimensions")
        return pinned_mix_state(dims.n, recipe.s, d=d)
    if kind == "pinned_ghz":
        if any(dj != 2 for dj in dims.dims):
            raise ValueError("pinned_ghz requires qubits")
        return pinned_ghz_state(dims.n, recipe.s)
    if kind in ("bell_mixed_12", "bell_mixed_13"):
        if dims.dims != (2, 2, 2):
            raise ValueError(f"{kind} requires dims [2, 2, 2]")
        pair = (1, 2) if kind == "bell_mixed_12" else (1, 3)
        return bell_pair_with_mixed_qubit(pair)
    if kind == "haar_pure":
        return haar_pure(dims, recipe.seed)
    if kind == "ginibre_mixed":
        return ginibre_mixed(dims, recipe.seed, rank=recipe.rank)
    if kind == "ginibre_factor":
        return ginibre_factor(dims, recipe.seed, recipe.rank)
    raise ValueError(f"unknown recipe kind {kind!r}")


# ---------------------------------------------------------------------------
# local-measurement averaging scenario


def measurement_kraus_pair(d_first: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Two-outcome POVM on the first party: |+><+| and |-><-| on the 0/1
    subspace, each completed by (1/sqrt 2) |j><j| on the levels j >= 2."""
    if d_first < 2:
        raise ValueError("the first party needs local dimension >= 2")
    plus = np.zeros((d_first, d_first), dtype=np.complex128)
    minus = np.zeros((d_first, d_first), dtype=np.complex128)
    plus[:2, :2] = 0.5 * np.array([[1, 1], [1, 1]])
    minus[:2, :2] = 0.5 * np.array([[1, -1], [-1, 1]])
    for j in range(2, d_first):
        plus[j, j] = minus[j, j] = 1.0 / math.sqrt(2.0)
    return plus, minus


def monotone_counterexample(d_first: int = 2) -> tuple[float, float]:
    """Average of the two-minus-sign invariant before and after a local
    two-outcome measurement on the first party of a three-party GHZ state.

    Returns ``(before, after_average)``; the average exceeds the initial
    value (sqrt 2 versus 1 for qubits), so the invariant cannot be an
    entanglement monotone.
    """
    dims = SubsystemDims((d_first, 2, 2))
    vec = np.zeros(dims.total, dtype=np.complex128)
    vec[0] = 1.0 / math.sqrt(2.0)
    vec[4 + 2 + 1] = 1.0 / math.sqrt(2.0)
    psi = PureState(vec, dims)
    t = 0b110
    before = c_t(psi.density(), t)
    after = 0.0
    for k in measurement_kraus_pair(d_first):
        branch = embed(k, 0b001, dims) @ psi.vector
        prob = float(np.vdot(branch, branch).real)
        if prob <= 1e-15:
            continue
        outcome = PureState(branch / math.sqrt(prob), dims)
        after += prob * c_t(outcome.density(), t)
    return before, after
