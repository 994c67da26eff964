"""Property tests pinning the fast kernels to their reference routes: the
Walsh-Hadamard subset sum, the depth-first reduction sweep, the factor
kernel behind invert_product, apply_detection_map and the state-based
marginal witnesses, its block form behind coarse_grain_invert and
choi_matrix, the signed-embed sum shared by invert_sum and the
witnesses from marginals, the broadcast embed and block product (with the
Kraus operators built on it), and the all-masks pass of the reference
routes, and the purity profile a pure state sweeps without forming a
DensityMatrix.  The formulas the kernels replaced are kept here as
oracles."""

import functools
import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qinvert import inversion
from qinvert.constraints import (
    correlation_constraint,
    correlation_report,
    entropy_inequalities,
    marginal_report,
    marginal_witnesses,
    marginal_witnesses_from_marginals,
    monogamy_report,
)
from qinvert.dims import SubsystemDims, mask_size, parties_from_mask
from qinvert.invariants import bipartite_concurrence_squared, invariant_table
from qinvert.inversion import (
    DetectionParams,
    Grouping,
    apply_detection_map,
    choi_matrix,
    coarse_grain_invert,
    invert_kraus,
    invert_product,
    invert_sum,
    kraus_operators,
    reference_inversions,
)
from qinvert.states import linear_entropies
from qinvert.tensor import (
    block_product,
    embed,
    partial_trace,
    reduction_sweep,
    signed_subset_sums,
    subset_purities,
    trace_product,
)
from qinvert.zoo import ginibre_mixed, haar_pure

EPS = np.finfo(np.float64).eps
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)
seeds = st.integers(0, 2**32 - 1)


@st.composite
def subsystem_dims(draw, max_total=64):
    dims = [draw(st.integers(2, 4))]
    while draw(st.booleans()):
        d = draw(st.integers(2, 4))
        if math.prod(dims) * d > max_total:
            break
        dims.append(d)
    return SubsystemDims(tuple(dims))


def random_operator(dims, seed):
    rng = np.random.default_rng(seed)
    d = dims.total
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def direct_signed_sums(x):
    """The double loop, correctly rounded, so only the kernel's own
    rounding is measured."""
    return [
        math.fsum(-v if mask_size(s & t) % 2 else v for s, v in enumerate(x))
        for t in range(len(x))
    ]


def embed_factor_loop(mat, dims, weights):
    """The per-party factor product as written before the kernel: trace
    one party out, pad it back with embed, add w_j times the operand."""
    out = np.asarray(mat, dtype=np.complex128)
    rest = dims.full_mask
    for j in sorted(weights):
        bit = 1 << (j - 1)
        traced = embed(partial_trace(out, dims, rest ^ bit), rest ^ bit, dims)
        out = traced + weights[j] * out
    return out


@PROPERTY
@given(n=st.integers(0, 8), data=st.data())
def test_signed_subset_sums_match_direct_double_loop(n, data):
    x = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=1 << n, max_size=1 << n))
    got = signed_subset_sums(x)
    want = direct_signed_sums(x)
    tol = 4 * (n + 1) * (1 << n) * EPS * max((abs(v) for v in x), default=0.0)
    assert got.shape == (1 << n,)
    assert np.max(np.abs(got - want)) <= tol


def test_signed_subset_sums_rejects_bad_lengths():
    for bad in ([], [1.0, 2.0, 3.0], [[1.0, 2.0]]):
        with pytest.raises(ValueError):
            signed_subset_sums(bad)


@PROPERTY
@given(dims=subsystem_dims(), seed=seeds)
def test_reduction_sweep_is_bit_identical_to_partial_trace(dims, seed):
    mat = random_operator(dims, seed)
    masks = []
    for s, mat_s in reduction_sweep(mat, dims):
        masks.append(s)
        assert np.array_equal(mat_s, partial_trace(mat, dims, s))
    assert sorted(masks) == list(dims.subset_masks())


@pytest.mark.parametrize("local_dims", [(2, 3, 4), (3, 3)])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=seeds, data=st.data())
def test_invert_product_matches_embed_loop_and_invert_sum(local_dims, seed, data):
    dims = SubsystemDims(local_dims)
    t = data.draw(st.integers(0, dims.full_mask))
    mat = random_operator(dims, seed)
    got = invert_product(mat, dims, t)
    weights = {j: -1.0 if t >> (j - 1) & 1 else 1.0 for j in range(1, dims.n + 1)}
    assert np.array_equal(got, embed_factor_loop(mat, dims, weights))
    ref = invert_sum(mat, dims, t)
    assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))


@PROPERTY
@given(dims=subsystem_dims(max_total=24), seed=seeds, data=st.data())
def test_detection_map_matches_embed_loop(dims, seed, data):
    act_on = data.draw(st.integers(1, dims.full_mask))
    t = data.draw(st.integers(0, dims.full_mask)) & act_on
    weight = st.floats(0.0, 1.0)
    alpha = {p: data.draw(weight) for p in parties_from_mask(t)}
    beta = {p: data.draw(weight) for p in parties_from_mask(act_on & ~t)}
    params = DetectionParams(t=t, act_on=act_on, alpha=alpha, beta=beta)
    mat = random_operator(dims, seed)
    weights = {j: -a for j, a in alpha.items()} | beta
    assert np.array_equal(
        apply_detection_map(mat, dims, params), embed_factor_loop(mat, dims, weights)
    )


@settings(max_examples=25, deadline=None, derandomize=True)
@given(dims=subsystem_dims(max_total=24), seed=seeds)
def test_marginal_witnesses_match_embed_construction(dims, seed):
    rho = ginibre_mixed(dims, seed)
    witnesses = marginal_witnesses(rho)
    assert [e.value for e in marginal_report(rho).entries] == [w.min_eig for w in witnesses]
    marginals = {
        s: partial_trace(rho.matrix, dims, s)
        for s in dims.subset_masks()
        if s not in (0, dims.full_mask)
    }
    reference = marginal_witnesses_from_marginals(marginals, dims)
    assert [w.t for w in witnesses] == [w.t for w in reference]
    for w, ref in zip(witnesses, reference):
        assert np.max(np.abs(w.operator - ref.operator)) <= 1e-12


@PROPERTY
@given(dims=subsystem_dims(max_total=32), seed=seeds)
def test_correlation_constraint_is_bit_identical_to_report(dims, seed):
    rho = ginibre_mixed(dims, seed)
    entries = correlation_report(rho).entries
    assert [correlation_constraint(rho, t) for t in range(1, 1 << dims.n)] == [
        e.value for e in entries
    ]


@PROPERTY
@given(dims=subsystem_dims(max_total=48), seed=seeds)
def test_pure_purity_profile_is_bit_identical_to_the_density_route(dims, seed):
    psi = haar_pure(dims, seed)
    rho = psi.density()
    want = subset_purities(rho.matrix, dims)
    assert np.array_equal(psi.purities.view(np.uint64), want.view(np.uint64))
    assert invariant_table(psi).values == invariant_table(rho).values
    assert linear_entropies(psi) == linear_entropies(rho)
    assert correlation_report(psi).entries == correlation_report(rho).entries
    assert entropy_inequalities(psi).entries == entropy_inequalities(rho).entries
    # the routes before the profile: the signed list over a tau dict, and
    # each bipartite concurrence from a reduced density matrix
    taus = linear_entropies(rho)
    signed = [0.0 if s in (0, dims.full_mask) else -taus[s] for s in range(1 << dims.n)]
    old = signed_subset_sums(signed)[1:].tolist()
    assert [e.value for e in monogamy_report(psi).entries] == old
    for s in range(1, dims.full_mask):
        rho_s = rho.reduce(s).matrix
        want_s = 2.0 * (1.0 - trace_product(rho_s, rho_s).real)
        assert bipartite_concurrence_squared(psi, s) == want_s


# ---------------------------------------------------------------------------
# the block form of the factor kernel: coarse graining and Choi matrices


def coarse_mask_filter_sum(mat, dims, grouping, t_coarse):
    """coarse_grain_invert as written before the block kernel: the
    2^(B-N)-weighted sum of invert_sum over the fine masks whose parity
    inside every block matches that block's coarse sign."""
    out = np.zeros((dims.total, dims.total), dtype=np.complex128)
    for t_fine in dims.subset_masks():
        if all(mask_size(t_fine & b) % 2 == t_coarse >> k & 1
               for k, b in enumerate(grouping.blocks)):
            out += invert_sum(mat, dims, t_fine)
    return 2.0 ** (grouping.num_blocks - dims.n) * out


@st.composite
def groupings(draw, n):
    """Any partition of the n parties, blocks in a random order; blocks are
    non-contiguous whenever the labels interleave."""
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks = {}
    for j, label in enumerate(labels):
        blocks[label] = blocks.get(label, 0) | 1 << j
    return Grouping(blocks=tuple(draw(st.permutations(list(blocks.values())))), n=n)


def assert_close(got, ref):
    assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))


multi_party_dims = st.lists(st.integers(2, 4), min_size=2, max_size=5).filter(
    lambda ds: math.prod(ds) <= 48).map(lambda ds: SubsystemDims(tuple(ds)))


@PROPERTY
@given(dims=multi_party_dims, seed=seeds, data=st.data())
def test_coarse_grain_invert_matches_mask_filter_sum(dims, seed, data):
    grouping = data.draw(groupings(dims.n))
    t_coarse = data.draw(st.integers(0, (1 << grouping.num_blocks) - 1))
    mat = random_operator(dims, seed)
    got = coarse_grain_invert(mat, dims, grouping, t_coarse)
    assert_close(got, coarse_mask_filter_sum(mat, dims, grouping, t_coarse))


@pytest.mark.parametrize("local_dims, blocks", [
    ((2, 3, 2), (0b101, 0b010)),              # (101|010)
    ((2, 2, 3, 2), (0b0010, 0b1101)),         # (0100|1011)
    ((3, 2, 2, 2), (0b0101, 0b1010)),         # (1010|0101)
])
def test_coarse_grain_invert_on_non_contiguous_blocks(local_dims, blocks):
    dims = SubsystemDims(local_dims)
    grouping = Grouping(blocks=blocks, n=dims.n)
    mat = random_operator(dims, 20181119)
    for t_coarse in range(1 << grouping.num_blocks):
        got = coarse_grain_invert(mat, dims, grouping, t_coarse)
        assert_close(got, coarse_mask_filter_sum(mat, dims, grouping, t_coarse))


def choi_from_basis_operators(fn, d):
    """choi_matrix as written before the block kernel: one map call per
    basis operator |i><j|, D^2 calls in all."""
    choi = np.zeros((d, d, d, d), dtype=np.complex128)
    basis_op = np.zeros((d, d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            basis_op[i, j] = 1.0
            choi[i, :, j, :] = fn(basis_op)
            basis_op[i, j] = 0.0
    return choi.reshape(d * d, d * d)


@PROPERTY
@given(dims=subsystem_dims(max_total=6), data=st.data())
def test_choi_matrix_matches_basis_operator_construction(dims, data):
    t = data.draw(st.integers(0, dims.full_mask))
    act_on = data.draw(st.integers(1, dims.full_mask))
    weight = st.floats(0.0, 1.0)
    alpha = {p: data.draw(weight) for p in parties_from_mask(t & act_on)}
    beta = {p: data.draw(weight) for p in parties_from_mask(act_on & ~t)}
    params = DetectionParams(t=t & act_on, act_on=act_on, alpha=alpha, beta=beta)
    cases = {
        "t_inversion_after_transpose": lambda x: invert_sum(x.T, dims, t),
        "t_inversion": lambda x: invert_sum(x, dims, t),
        "detection": lambda x: apply_detection_map(x, dims, params),
    }
    for kind, fn in cases.items():
        got = choi_matrix(kind, dims, t=t, params=params)
        assert_close(got, choi_from_basis_operators(fn, dims.total))


# ---------------------------------------------------------------------------
# the shared signed-embed loop


def witness_embed_loop(marginals, dims, t):
    """The marginal-witness operator as written before the signed-embed
    sum was shared with invert_sum."""
    d = dims.total
    out = np.zeros((d, d), dtype=np.complex128)
    for s in dims.subset_masks():
        if s == dims.full_mask:
            continue
        term = np.eye(d, dtype=np.complex128) if s == 0 else embed(marginals[s], s, dims)
        if mask_size(s & t) % 2:
            out -= term
        else:
            out += term
    return out


@settings(max_examples=25, deadline=None, derandomize=True)
@given(dims=subsystem_dims(max_total=24), seed=seeds)
def test_witnesses_from_marginals_are_bit_identical_to_embed_loop(dims, seed):
    rho = ginibre_mixed(dims, seed)
    marginals = {
        s: partial_trace(rho.matrix, dims, s)
        for s in dims.subset_masks()
        if s not in (0, dims.full_mask)
    }
    witnesses = marginal_witnesses_from_marginals(marginals, dims)
    assert [w.t for w in witnesses] == [t for t in dims.subset_masks() if mask_size(t) % 2]
    for w in witnesses:
        assert np.array_equal(w.operator, witness_embed_loop(marginals, dims, w.t))


# ---------------------------------------------------------------------------
# the broadcast embed and the all-masks pass of the reference routes


def kron_permute_embed(op_s, s, dims):
    """embed as written before the broadcast multiply: kron with the
    complement's identity, then permute the factors into party order."""
    if s == 0:
        return op_s[0, 0] * np.eye(dims.total, dtype=np.complex128)
    comp = dims.complement(s)
    padded = np.kron(op_s, np.eye(dims.block_dim(comp), dtype=np.complex128))
    if comp == 0:
        return padded
    order = parties_from_mask(s) + parties_from_mask(comp)
    ordered_dims = tuple(dims.dims[p - 1] for p in order)
    perm = [order.index(j) for j in range(1, dims.n + 1)]
    axes = perm + [p + dims.n for p in perm]
    return (padded.reshape(ordered_dims + ordered_dims)
            .transpose(axes).reshape(dims.total, dims.total))


@PROPERTY
@given(dims=subsystem_dims(max_total=48), seed=seeds)
def test_embed_is_bit_identical_to_kron_and_permute(dims, seed):
    rng = np.random.default_rng(seed)
    for s in dims.subset_masks():
        d_s = dims.block_dim(s)
        op_s = rng.normal(size=(d_s, d_s)) + 1j * rng.normal(size=(d_s, d_s))
        op_s[0, 0] = complex(-0.0, -0.0)  # signed zeros must survive too
        got = embed(op_s, s, dims)
        assert np.array_equal(got.view(np.uint64),
                              kron_permute_embed(op_s, s, dims).view(np.uint64))


def kron_permute_product(parts, dims):
    """block_product as a kron of the blocks in ascending mask order and
    the uncovered parties' identity last, permuted into party order."""
    comp = dims.complement(functools.reduce(operator.or_, parts, 0))
    factors = [(s, parts[s]) for s in sorted(parts)]
    factors.append((comp, np.eye(dims.block_dim(comp), dtype=np.complex128)))
    padded = functools.reduce(np.kron, [op for _, op in factors])
    order = [p for s, _ in factors for p in parties_from_mask(s)]
    ordered_dims = tuple(dims.dims[p - 1] for p in order)
    perm = [order.index(j) for j in range(1, dims.n + 1)]
    return (padded.reshape(ordered_dims + ordered_dims)
            .transpose(perm + [p + dims.n for p in perm]).reshape(dims.total, dims.total))


@PROPERTY
@given(dims=subsystem_dims(max_total=48), seed=seeds, data=st.data())
def test_block_product_and_kraus_operators_match_kron_constructions(dims, seed, data):
    """Random disjoint, possibly non-contiguous blocks, with or without
    uncovered parties; and the Kraus operators against the kron chain
    they were built with before."""
    rng = np.random.default_rng(seed)
    low = data.draw(st.sampled_from([0, 1]))  # label 0 leaves a party uncovered
    labels = data.draw(st.lists(st.integers(low, dims.n), min_size=dims.n, max_size=dims.n))
    masks = {}
    for j, label in enumerate(labels):
        if label:
            masks[label] = masks.get(label, 0) | 1 << j
    parts = {}
    for s in masks.values():
        d_s = dims.block_dim(s)
        parts[s] = rng.normal(size=(d_s, d_s)) + 1j * rng.normal(size=(d_s, d_s))
    assert np.array_equal(block_product(parts, dims), kron_permute_product(parts, dims))

    t = data.draw(st.integers(0, dims.full_mask))
    scale = math.sqrt(2.0**dims.n / dims.total)
    combos = itertools.product(*inversion._channel_generators(dims, t))
    for got, combo in zip(kraus_operators(dims, t), combos, strict=True):
        assert np.array_equal(got, scale * functools.reduce(np.kron, combo))


@PROPERTY
@given(dims=subsystem_dims(max_total=48), seed=seeds)
def test_reference_inversions_equal_the_single_mask_routes(dims, seed):
    mat = random_operator(dims, seed)
    masks = []
    for t, by_sum, by_kraus in reference_inversions(mat, dims):
        masks.append(t)
        assert np.array_equal(by_sum, invert_sum(mat, dims, t))
        assert np.array_equal(by_kraus, invert_kraus(mat, dims, t))
    assert masks == list(dims.subset_masks())


@pytest.mark.parametrize("local_dims", [(2, 3), (2, 2, 2), (3, 2, 2)])
def test_reference_inversions_stream_above_the_hold_budget(local_dims, monkeypatch):
    """Within REFERENCE_HOLD_BYTES the pass takes no partial trace; above
    it every invert_sum streams its 2^N reductions, with the same results."""
    dims = SubsystemDims(local_dims)
    mat = random_operator(dims, 7)
    traced = []
    monkeypatch.setattr(inversion, "partial_trace",
                        lambda m, d, s: traced.append(s) or partial_trace(m, d, s))
    held = list(reference_inversions(mat, dims))
    assert traced == []
    monkeypatch.setattr(inversion, "REFERENCE_HOLD_BYTES", 0)
    streamed = list(reference_inversions(mat, dims))
    assert traced == list(dims.subset_masks()) * (1 << dims.n)
    for (t, by_sum, by_kraus), (u, by_sum2, by_kraus2) in zip(held, streamed, strict=True):
        assert t == u
        assert np.array_equal(by_sum, by_sum2) and np.array_equal(by_kraus, by_kraus2)
