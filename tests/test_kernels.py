"""Property tests pinning the fast kernels to their reference routes: the
Walsh-Hadamard subset sum, the depth-first reduction sweep, the factor
kernel behind invert_product, apply_detection_map and the state-based
marginal witnesses, its stacked form (every member as its own single
call) and the all-masks stacks built on it, the stacked smallest
eigenvalue, its block form behind coarse_grain_invert and
choi_matrix, the signed tree and butterfly of invert_sum (pinned to the
ascending embed loop, and bounded in memory), the signed-embed sum of
the witnesses from marginals, the broadcast embed and block product (with the
Kraus operators built on it), the aligned mask blocks the reference
routes take (each member as its own one-mask call, the Kraus form
building its transfer matrices once per local dimension), the member axis
every stacked layer takes (each member as its own call) and the one the
purity sweep and the signed subset sum take, the Gram-product purity
profile of a factor state (within a tolerance of the dense sweep of its
density matrix), the invariant table every scalar
family reads, the Cholesky PSD certificate (shifting its operand in
place, pinned to the copy it shifted before) and the certified stack
minimum, pinned to eigvalsh, and the row-block forms of the finiteness
and Hermiticity checks and of the Gram symmetrization, pinned to their
one-shot expressions.  The formulas the kernels replaced are kept
here as oracles."""

import contextlib
import functools
import itertools
import math
import operator
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qinvert import inversion, tensor
from qinvert.constraints import (
    correlation_constraint,
    is_psd,
    correlation_report,
    entropy_inequalities,
    marginal_report,
    marginal_witnesses,
    marginal_witnesses_from_marginals,
    monogamy_check,
    monogamy_report,
    shadow_report,
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
    inversion_stacks,
    kraus_operators,
    odd_inversions,
)
from qinvert.states import linear_entropies
from qinvert.tensor import (
    TOL_HERM,
    block_product,
    certified_min_eigenvalue,
    embed,
    herm_defect,
    min_eigenvalue,
    partial_trace,
    psd_violation,
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
def subsystem_dims(draw, max_total=64, max_n=None):
    """N first, uniform over every party count up to ``max_n`` that
    ``max_total`` allows (2^N <= max_total), then each local dimension in
    2..4 within the room the parties still to come leave, so large N is
    drawn as often as small."""
    n = draw(st.integers(1, min(max_total.bit_length() - 1, max_n or max_total)))
    dims = []
    for i in range(n):
        room = max_total // (math.prod(dims) << (n - 1 - i))
        dims.append(draw(st.integers(2, min(4, room))))
    return SubsystemDims(tuple(dims))


def bit_identical(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


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
    # leading axes are member axes, so only the last axis's length counts
    for bad in ([], [1.0, 2.0, 3.0], 1.0, [[1.0, 2.0, 3.0]], np.empty((2, 0))):
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


# how far a factor's purity profile, and the reports built from it, may
# lie from the dense sweep of its density matrix
PROFILE_TOL = 1e-13


@PROPERTY
@given(dims=subsystem_dims(max_total=48), seed=seeds)
def test_pure_purity_profile_matches_the_density_route(dims, seed):
    psi = haar_pure(dims, seed)
    rho = psi.density()
    want = subset_purities(rho.matrix, dims)
    assert np.max(np.abs(psi.purities - want)) <= PROFILE_TOL
    table = invariant_table(psi).values
    assert np.max(np.abs(table - invariant_table(rho).values)) <= PROFILE_TOL
    # the paired route makes every odd-size invariant of a pure state exactly 0
    odd = [t for t in range(1 << dims.n) if mask_size(t) % 2]
    assert not table[odd].any()
    taus, rho_taus = linear_entropies(psi), linear_entropies(rho)
    assert taus.keys() == rho_taus.keys()
    assert max(abs(taus[s] - rho_taus[s]) for s in taus) <= 2 * PROFILE_TOL
    for family in (correlation_report, entropy_inequalities):
        got, ref = family(psi).entries, family(rho).entries
        assert [(e.label, e.theorem) for e in got] == [(e.label, e.theorem) for e in ref]
        assert max(abs(e.value - r.value) for e, r in zip(got, ref)) <= 8 * PROFILE_TOL
    # within one state, monogamy is twice the table and correlation is the
    # table: bit for bit
    monogamy = [e.value for e in monogamy_report(psi).entries]
    assert monogamy == [2.0 * v for v in table[1:].tolist()]
    assert [e.value for e in correlation_report(psi).entries] == table[1:].tolist()
    # the routes before the profile (the signed list over a tau dict, which
    # drops the norm residue at the empty and full sets, and each bipartite
    # concurrence from a reduced density matrix) agree to rounding
    signed = [0.0 if s in (0, dims.full_mask) else -rho_taus[s] for s in range(1 << dims.n)]
    old = signed_subset_sums(signed)[1:]
    assert np.max(np.abs(np.array(monogamy) - old)) <= 1e-12
    for s in range(1, dims.full_mask):
        rho_s = rho.reduce(s).matrix
        want_s = 2.0 * (1.0 - trace_product(rho_s, rho_s).real)
        assert abs(bipartite_concurrence_squared(psi, s) - want_s) <= 2 * PROFILE_TOL


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dims=subsystem_dims(max_total=48), seed=seeds, rank=st.sampled_from(["1", "2", "D"]))
def test_factor_purities_match_the_dense_sweep_of_the_gram_density(dims, seed, rank):
    d = dims.total
    r = {"1": 1, "2": 2, "D": d}[rank]
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    g /= np.linalg.norm(g)
    got = tensor.factor_purities(g, dims)
    want = subset_purities(g @ g.conj().T, dims)
    assert got.shape == want.shape and not got.flags.writeable
    assert np.max(np.abs(got - want)) <= PROFILE_TOL
    assert abs(got[0] - np.linalg.norm(g) ** 4) <= PROFILE_TOL
    if r == 1:  # a pure state: each complement pair shares one product
        assert np.array_equal(got, got[::-1])


def old_entropy_sums(purities, skip=0):
    """The signed tau list the scalar families read before the invariant
    table: sum over nonempty S other than ``skip`` of
    (-1)^{|S & T| + 1} tau_S, tau_S = 2 (1 - purities[S])."""
    signed = -(2.0 * (1.0 - purities))
    signed[[0, skip]] = 0.0
    return signed_subset_sums(signed)


@PROPERTY
@given(dims=subsystem_dims(max_total=48), seed=seeds, pure=st.booleans())
def test_scalar_families_are_views_of_the_invariant_table(dims, seed, pure):
    state = haar_pure(dims, seed) if pure else ginibre_mixed(dims, seed)
    n, full = dims.n, dims.full_mask
    values = invariant_table(state).values
    table = [values[t] for t in range(1 << n)]
    correlation = [e.value for e in correlation_report(state).entries]
    assert correlation == table[1:]
    assert [correlation_constraint(state, t) for t in range(1, 1 << n)] == table[1:]
    old = 0.5 * old_entropy_sums(state.purities)
    assert np.max(np.abs(np.array(correlation) - old[1:])) <= 1e-12
    if pure:
        monogamy = [e.value for e in monogamy_report(state).entries]
        assert monogamy == [2.0 * v for v in table[1:]]
        assert [monogamy_check(state, t) for t in range(1, 1 << n)] == monogamy
        old = old_entropy_sums(state.purities, full)
        assert np.max(np.abs(np.array(monogamy) - old[1:])) <= 1e-12
    if n not in (2, 3):
        [line] = entropy_inequalities(state).entries
        assert line.value == table[full]
        assert abs(line.value - 0.5 * old_entropy_sums(state.purities)[full]) <= 1e-12
    m = state.density().matrix if pure else state.matrix
    same = np.array([e.value for e in shadow_report(m, m, dims).entries])
    apart = np.array([e.value for e in shadow_report(m, m.copy(), dims).entries])
    assert np.array_equal(same.view(np.uint64), apart.view(np.uint64))
    if pure:  # the factor route against the dense sweep of the matrix
        assert np.max(np.abs(same - table)) <= 8 * PROFILE_TOL
    else:
        assert np.array_equal(same.view(np.uint64), np.array(table).view(np.uint64))


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
# the signed-embed loop of the witnesses from marginals


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
@example(dims=SubsystemDims((2,) * 6), seed=6)  # D = 64: 32 odd masks in one signed sum
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
# the broadcast embed and the mask blocks of the reference routes


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
@given(dims=subsystem_dims(max_total=32), lead=st.lists(st.integers(1, 2), max_size=3),
       seed=seeds)
def test_mask_blocks_are_bit_identical_to_one_mask_calls(dims, lead, seed):
    """Every aligned block range(k 2^m, (k+1) 2^m) of both reference forms
    is the (2^m, lead.., D, D) stack of their one-mask calls in ascending
    mask order, bit for bit, with 0 to 3 member axes."""
    d = dims.total
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(*lead, d, d)) + 1j * rng.normal(size=(*lead, d, d))
    for form in (invert_sum, invert_kraus):
        one = [form(mat, dims, t) for t in dims.subset_masks()]
        assert all(x.shape == (*lead, d, d) for x in one), form
        for m in range(dims.n + 1):
            for k in range(1 << (dims.n - m)):
                block = range(k << m, (k + 1) << m)
                stack = form(mat, dims, block)
                assert stack.shape == (1 << m, *lead, d, d), (form, block)
                for t, got in zip(block, stack, strict=True):
                    assert bit_identical(got, one[t]), (form, block, t)


@PROPERTY
@given(dims=subsystem_dims(max_total=48), seed=seeds)
def test_all_masks_calls_are_bit_identical_to_one_mask_calls(dims, seed):
    """invert_sum and invert_kraus on the block of all masks return the
    (2^N, D, D) stack of their one-mask calls in ascending mask order, bit
    for bit.  A mask beyond the parties raises a ValueError naming it."""
    mat = random_operator(dims, seed)
    d = dims.total
    for form in (invert_sum, invert_kraus):
        stack = form(mat, dims, range(1 << dims.n))
        assert stack.shape == (1 << dims.n, d, d), form
        for t in dims.subset_masks():
            one = form(mat, dims, t)
            assert one.shape == (d, d)
            assert bit_identical(stack[t], one), (form, t)
        for bad in (-1, 1 << dims.n):
            with pytest.raises(ValueError, match=f"mask {re.escape(bin(bad))} "):
                form(mat, dims, bad)


@pytest.mark.parametrize("form", [invert_sum, invert_kraus])
def test_misaligned_blocks_and_blocks_beyond_the_parties_are_rejected(form):
    """A block that is not range(k 2^m, (k+1) 2^m), or one beyond the
    parties, raises a ValueError naming it."""
    dims = SubsystemDims((2, 3, 2))
    mat = random_operator(dims, 1)
    misaligned = (range(1, 3), range(2, 5), range(0, 3), range(0, 0), range(0, 4, 2),
                  range(-2, 0), range(4, 3))
    beyond = (range(8, 9), range(0, 16), range(8, 16))
    for blocks, reason in ((misaligned, "is not an aligned block"), (beyond, "addresses parties")):
        for bad in blocks:
            with pytest.raises(ValueError, match=f"mask block {re.escape(str(bad))} {reason}"):
                form(mat, dims, bad)


def test_the_kraus_form_builds_each_local_dimensions_transfers_once_per_call():
    """One invert_kraus call, for one mask or for a block, with or without
    a member axis, builds the transfer matrices of both signs once for
    each distinct local dimension: 4 at (2,3,2,3), not one per party."""
    dims = SubsystemDims((2, 3, 2, 3))
    mat = random_operator(dims, 1)
    built = []
    real = inversion._transfer

    def counted(generators):
        built.append(generators.shape)
        return real(generators)

    for operand in (mat, np.stack([mat, mat])):
        for t in (0, 0b0101, range(4, 8), range(1 << dims.n)):
            built.clear()
            with mock.patch.object(inversion, "_transfer", counted):
                invert_kraus(operand, dims, t)
            assert sorted(built) == [(1, 2, 2), (3, 2, 2), (3, 3, 3), (6, 3, 3)], t


def ascending_embed_sum(mat, dims, t):
    """I_T as written before the tree: every embedded reduction added to
    one sum in ascending subset order, with its own sign; also returns
    the sum of the reductions' largest magnitudes."""
    out = np.zeros(np.shape(mat), dtype=np.complex128)
    scale = 0.0
    for s in dims.subset_masks():
        mat_s = partial_trace(mat, dims, s)
        scale += float(np.max(np.abs(mat_s)))
        term = embed(mat_s, s, dims)
        if mask_size(s & t) % 2:
            out -= term
        else:
            out += term
    return out, scale


@PROPERTY
@given(dims=subsystem_dims(max_total=32), lead=st.lists(st.integers(1, 3), max_size=2),
       seed=seeds)
def test_invert_sum_matches_the_ascending_embed_loop(dims, lead, seed):
    """One mask and every aligned block of invert_sum agree with the signed
    embeds added in ascending subset order, with 0 to 2 member axes,
    within the rounding of both orders: (2^N - 1 + N) ulps of the summed
    term sizes, which are at most prod_j (1 + d_j) max|mat|."""
    d = dims.total
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(*lead, d, d)) + 1j * rng.normal(size=(*lead, d, d))
    oracle = [ascending_embed_sum(mat, dims, t) for t in dims.subset_masks()]
    ulps = ((1 << dims.n) + dims.n) * EPS
    for t, (want, scale) in enumerate(oracle):
        assert np.max(np.abs(invert_sum(mat, dims, t) - want)) <= ulps * scale, t
    for m in range(dims.n + 1):
        for k in range(1 << (dims.n - m)):
            block = range(k << m, (k + 1) << m)
            stack = invert_sum(mat, dims, block)
            assert stack.shape == (1 << m, *lead, d, d), block
            for t, got in zip(block, stack, strict=True):
                want, scale = oracle[t]
                assert np.max(np.abs(got - want)) <= ulps * scale, (block, t)


@pytest.mark.parametrize("local_dims, t", [((2,) * 6, 0b101101), ((2,) * 7, range(4, 8))])
def test_invert_sum_holds_at_most_its_stated_bound(local_dims, t):
    """Beyond mat, one mask at 6 qubits and a block of 4 at 7 qubits hold
    at most the bound of invert_sum's docstring,
    16 (prod_j (1 + d_j^2) + (2^m + max(N - m, 2^(m-1))) D^2) bytes, plus
    the largest peak of one embed of a reduction, measured alone."""
    dims = SubsystemDims(local_dims)
    mat = random_operator(dims, 7)
    d, n = dims.total, dims.n
    m = len(t).bit_length() - 1 if isinstance(t, range) else 0
    embed_peak = 0
    for s, mat_s in reduction_sweep(mat, dims):
        tracemalloc.start()
        try:
            embed(mat_s, s, dims)
            embed_peak = max(embed_peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    held = math.prod(1 + x * x for x in local_dims) + ((1 << m) + max(n - m, (1 << m) // 2)) * d * d
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        invert_sum(mat, dims, t)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 16 * held + embed_peak


@PROPERTY
@given(dims=subsystem_dims(max_total=48), k=st.integers(1, 4), seed=seeds, data=st.data())
def test_stacked_factor_kernel_is_bit_identical_to_single_calls(dims, k, seed, data):
    """One _apply_factors call on a (K, D, D) stack, with one weight per
    block in [-1, 1], gives every member bit for bit as its own K = 1
    call, with either diagonal add."""
    labels = data.draw(st.lists(st.integers(0, dims.n), min_size=dims.n, max_size=dims.n))
    blocks = {sum(1 << i for i, x in enumerate(labels) if x == label) for label in labels if label}
    weights = {b: data.draw(st.floats(-1.0, 1.0)) for b in blocks}
    stack = np.stack([random_operator(dims, seed + i) for i in range(k)])
    with mock.patch.object(inversion, "SLICE_ADD_ENTRIES",
                           data.draw(st.sampled_from([1, 1 << 30]))):
        got = inversion._apply_factors(stack, dims, weights)
    assert got.shape == stack.shape
    for i in range(k):
        assert bit_identical(got[i], inversion._apply_factors(stack[i], dims, weights)[0])


@PROPERTY
@given(dims=subsystem_dims(max_total=48), m=st.integers(1, 4), seed=seeds, low=st.integers(0, 6))
def test_the_butterfly_traces_each_party_once_for_both_signs(dims, m, seed, low):
    """inversion_stacks on M operands hands _block_trace (2^low - 1) M
    operators in its butterfly over parties 1..low, one trace per party
    for both halves of the doubled stack (twice that if each copy were
    traced), and 2^N M for each of the N - low parties after it; every
    stack is bit for bit invert_product, with either diagonal add."""
    d = dims.total
    mats = np.stack([random_operator(dims, seed + k) for k in range(m)])
    low = min(low, dims.n)
    traced = []
    real = inversion._block_trace

    def counted(flat, dims, block):
        traced.append(len(flat))
        return real(flat, dims, block)

    for entries in (1, 1 << 30):
        traced.clear()
        with mock.patch.object(inversion, "STACK_HOLD_BYTES", (16 << low) * m * d**2), \
                mock.patch.object(inversion, "SLICE_ADD_ENTRIES", entries), \
                mock.patch.object(inversion, "_block_trace", counted):
            got = np.concatenate(list(inversion_stacks(mats, dims)))
        assert sum(traced) == ((1 << low) - 1) * m + (dims.n - low) * (m << dims.n)
        for t in range(1 << dims.n):
            for k in range(m):
                assert bit_identical(got[t, k], invert_product(mats[k], dims, t))


@pytest.mark.parametrize("depth", ["per_mask", "one_level", "shared_leaves", "full"])
@PROPERTY
@given(dims=subsystem_dims(), seed=seeds)
def test_odd_inversions_yield_each_odd_mask_once_as_invert_product(depth, dims, seed):
    """Every odd-size mask comes once, as a fresh operator bit for bit its
    invert_product, whether the hold bound allows no operator (the
    per-mask route), one (a one-level tree, mat's trace taken again for
    its second child), one and a half (mat's trace held, then leaves that
    share their node's trace) or every party (second children formed in
    place of their nodes)."""
    hold = {"per_mask": 0, "one_level": 16 * dims.total**2, "shared_leaves": 24 * dims.total**2,
            "full": 1 << 30}[depth]
    mat = random_operator(dims, seed)
    before = mat.copy()
    with mock.patch.object(inversion, "STACK_HOLD_BYTES", hold):
        got = list(odd_inversions(mat, dims))
    assert sorted(t for t, _ in got) == [t for t in dims.subset_masks() if mask_size(t) % 2]
    assert bit_identical(mat, before)
    for t, w in got:
        assert w.flags.writeable and not np.shares_memory(w, mat)
        assert bit_identical(w, invert_product(mat, dims, t))


@PROPERTY
@given(dims=subsystem_dims(), seed=seeds)
@example(dims=SubsystemDims((3, 3, 3)), seed=2)
@example(dims=SubsystemDims((2, 3, 4)), seed=3)
@example(dims=SubsystemDims((2,) * 8), seed=4)  # D = 256: a one-level tree
def test_exactly_hermitian_input_gives_exactly_hermitian_inversions_and_detection(dims, seed):
    """On exactly Hermitian finite input every odd_inversions member and the
    detection map's output are exactly Hermitian (herm_defect 0.0): each
    trace, real scale and diagonal add maps conjugate entry pairs to
    conjugate pairs, which lets marginal and detect skip checking what
    they build from a validated state.  Every member is invert_product's
    byte for byte."""
    m = random_operator(dims, seed)
    h = m + m.conj().T
    assert herm_defect(h) == 0.0
    got = list(odd_inversions(h, dims))
    assert len(got) == 1 << (dims.n - 1)
    for t, w in got:
        assert herm_defect(w) == 0.0
        assert bit_identical(w, invert_product(h, dims, t))
    rng = np.random.default_rng(seed)
    act_on = int(rng.integers(1, dims.full_mask + 1))
    params = DetectionParams(t=int(rng.integers(0, dims.full_mask + 1)) & act_on, act_on=act_on,
                             alpha=float(rng.uniform()), beta=float(rng.uniform()))
    assert herm_defect(apply_detection_map(h, dims, params)) == 0.0


@PROPERTY
@given(dims=subsystem_dims(), seed=seeds, t=st.integers(0, 63), cut=st.integers(0, 6))
def test_invert_product_on_consecutive_party_blocks_is_the_one_call(dims, seed, t, cut):
    """The factors of parties 1..cut, then those of the rest, on the first
    call's result give I_T bit for bit, as odd_inversions' tree relies on."""
    mat = random_operator(dims, seed)
    t &= dims.full_mask
    low = dims.full_mask & ((1 << cut) - 1)
    whole = invert_product(mat, dims, t)
    split = invert_product(invert_product(mat, dims, t, low), dims, t, dims.full_mask ^ low)
    assert bit_identical(split, whole)
    assert bit_identical(invert_product(mat, dims, t, dims.full_mask), whole)


@PROPERTY
@given(dims=subsystem_dims(max_total=48), seed=seeds, low=st.integers(0, 6))
def test_inversion_stacks_are_bit_identical_to_invert_product(dims, seed, low):
    """The stacks hold I_T(mat) for every T in ascending order, bit for bit
    as invert_product, whether all 2^N masks fit in one stack or the hold
    bound splits them into stacks of 2^m (m = 0: one mask per stack)."""
    mat = random_operator(dims, seed)
    m = min(low, dims.n)
    with mock.patch.object(inversion, "STACK_HOLD_BYTES", (16 << m) * dims.total**2):
        stacks = list(inversion_stacks(mat, dims))
    assert [len(stack) for stack in stacks] == [1 << m] * (1 << (dims.n - m))
    for t, got in enumerate(itertools.chain.from_iterable(stacks)):
        assert bit_identical(got, invert_product(mat, dims, t))


@PROPERTY
@given(dims=subsystem_dims(max_total=48), m=st.integers(1, 5), seed=seeds, data=st.data())
def test_member_stacks_are_bit_identical_to_per_member_calls(dims, m, seed, data):
    """Every layer on a (M, D, D) stack of operands gives each member its
    own call's result bit for bit: the reduction sweep and the embeds of
    its reductions, both reference forms on one mask and on the block of
    all masks, the mask-major all-masks stacks whatever the hold bound,
    and the smallest eigenvalue of the flattened Hermitian stacks."""
    d = dims.total
    mats = np.stack([random_operator(dims, seed + k) for k in range(m)])
    sweep = dict(reduction_sweep(mats, dims))
    assert sorted(sweep) == list(dims.subset_masks())
    for k in range(m):
        for s, mat_s in reduction_sweep(mats[k], dims):
            assert bit_identical(sweep[s][k], mat_s)
            assert bit_identical(embed(sweep[s], s, dims)[k], embed(mat_s, s, dims))
    t = data.draw(st.integers(0, dims.full_mask))
    every = range(1 << dims.n)
    for form in (invert_sum, invert_kraus):
        stack = form(mats, dims, every)
        assert stack.shape == (1 << dims.n, m, d, d), form
        one = form(mats, dims, t)
        assert one.shape == (m, d, d), form
        for k in range(m):
            assert bit_identical(stack[:, k], form(mats[k], dims, every)), form
            assert bit_identical(one[k], form(mats[k], dims, t)), form
    low = min(data.draw(st.integers(0, 6)), dims.n)
    with mock.patch.object(inversion, "STACK_HOLD_BYTES", (16 << low) * m * d**2):
        got = list(inversion_stacks(mats, dims))
    assert [s.shape for s in got] == [(1 << low, m, d, d)] * (1 << (dims.n - low))
    got = np.concatenate(got)
    for k in range(m):
        assert bit_identical(got[:, k], np.concatenate(list(inversion_stacks(mats[k], dims))))
    herm = got + got.conj().swapaxes(-1, -2)
    assert min_eigenvalue(herm.reshape(-1, d, d)) == min(min_eigenvalue(herm[:, k])
                                                         for k in range(m))


@PROPERTY
@given(dims=subsystem_dims(max_total=48), m=st.integers(1, 5), seed=seeds)
def test_purity_profiles_and_signed_sums_take_a_member_axis(dims, m, seed):
    """The purity sweep of a (M, D, D) stack and the signed subset sums of
    a (M, 2^N) array give each row its one-operand call bit for bit."""
    mats = np.stack([random_operator(dims, seed + k) for k in range(m)])
    profiles = subset_purities(mats, dims)
    assert profiles.shape == (m, 1 << dims.n) and not profiles.flags.writeable
    sums = signed_subset_sums(profiles)
    assert sums.shape == (m, 1 << dims.n)
    for k in range(m):
        one = subset_purities(mats[k], dims)
        assert profiles[k].tobytes() == one.tobytes()
        assert sums[k].tobytes() == signed_subset_sums(one).tobytes()


@PROPERTY
@given(dims=subsystem_dims(max_total=24), k=st.integers(1, 5), seed=seeds, data=st.data())
def test_stacked_min_eigenvalue_is_the_least_and_names_a_bad_member(dims, k, seed, data):
    stack = np.stack([h + h.conj().T for h in (random_operator(dims, seed + i) for i in range(k))])
    assert min_eigenvalue(stack) == min(min_eigenvalue(h) for h in stack)
    bad = data.draw(st.integers(0, k - 1))
    i, j = data.draw(st.lists(st.integers(0, dims.total - 1), min_size=2, max_size=2, unique=True))
    skewed = stack.copy()
    skewed[bad, i, j] += 1e-6
    with pytest.raises(ValueError, match=f"operator {bad} of the stack is not Hermitian"):
        min_eigenvalue(skewed)
    broken = stack.copy()
    broken[bad, i, i] = np.nan
    broken[-1, j, j] = np.inf
    with pytest.raises(ValueError, match=rf"operator stack has non-finite .* at index \({bad}, "):
        min_eigenvalue(broken)


# ---------------------------------------------------------------------------
# the Cholesky PSD certificate against eigvalsh

TOL_PSD = 1e-9


def planted(d, low, seed):
    """A Hermitian operator with smallest eigenvalue ``low`` (up to the
    rounding of the product) and the others in [0, 2/d]: a near-boundary
    density operator."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    lam = rng.uniform(0.0, 2.0 / d, size=d)
    lam[0] = low
    h = (q * lam) @ q.conj().T
    return (h + h.conj().T) / 2.0


@contextlib.contextmanager
def counted_eigen_solves():
    calls = []
    real = np.linalg.eigvalsh
    with mock.patch.object(np.linalg, "eigvalsh", lambda a: calls.append(a) or real(a)):
        yield calls


PSD_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)
planted_lows = st.floats(-2 * TOL_PSD, 2 * TOL_PSD)


@PSD_PROPERTY
@given(d=st.integers(1, 64), low=planted_lows, seed=seeds)
def test_psd_certificate_is_never_false_and_a_failure_is_the_eigvalsh_value(d, low, seed):
    h = planted(d, low, seed)
    lo = float(np.linalg.eigvalsh(h)[0])
    with counted_eigen_solves() as solves:
        got = psd_violation(h, TOL_PSD)
    if lo < -TOL_PSD - 1e-13:
        assert got == lo
    # a violation is only ever reported with eigvalsh's value below -tol
    assert got is None or (got == lo and lo < -TOL_PSD)
    if lo > -TOL_PSD + 1e-10:
        assert solves == []  # certified by the Cholesky alone


@pytest.mark.parametrize("d", [1, 7, 64])
@pytest.mark.parametrize("offset", [-1e-11, -2e-12, -5e-13, -2e-13, 2e-13, 5e-13, 1e-11])
def test_psd_verdict_next_to_the_tolerance_is_the_eigvalsh_verdict(d, offset):
    h = planted(d, -TOL_PSD + offset, d)
    lo = float(np.linalg.eigvalsh(h)[0])
    got = psd_violation(h, TOL_PSD)
    assert abs(lo - (-TOL_PSD + offset)) < 1e-13
    assert got == (lo if lo < -TOL_PSD else None)


@PSD_PROPERTY
@given(d=st.integers(2, 64), low=planted_lows, seed=seeds)
def test_an_upper_triangle_off_within_the_hermiticity_tolerance_gets_the_eigvalsh_verdict(
    d, low, seed
):
    h = planted(d, low, seed)
    rng = np.random.default_rng(seed + 1)
    upper = np.triu_indices(d, 1)
    k = upper[0].size
    skewed = h.copy()
    skewed[upper] += TOL_HERM / 2 * (rng.uniform(-1, 1, k) + 1j * rng.uniform(-1, 1, k))
    assert herm_defect(skewed) <= TOL_HERM
    lo = float(np.linalg.eigvalsh(skewed)[0])
    got = psd_violation(skewed, TOL_PSD)
    # both the Cholesky and eigvalsh read the lower triangle
    assert lo == float(np.linalg.eigvalsh(h)[0])
    assert got == psd_violation(h, TOL_PSD)
    if abs(lo + TOL_PSD) > 1e-13:
        assert (got is None) == (lo >= -TOL_PSD) == is_psd(skewed)


@PROPERTY
@given(dims=subsystem_dims(max_total=64), rank=st.integers(1, 3), seed=seeds)
def test_low_rank_states_are_certified_without_an_eigen_solve(dims, rank, seed):
    rank = min(rank, dims.total)
    mixed = ginibre_mixed(dims, seed, rank=rank).matrix
    pure = haar_pure(dims, seed).density().matrix
    with counted_eigen_solves() as solves:
        assert psd_violation(mixed, TOL_PSD) is None
        assert psd_violation(pure, TOL_PSD) is None
    assert solves == []


@pytest.mark.parametrize("d, rank", [(128, 1), (256, 2), (512, 1)])
def test_large_low_rank_states_are_certified(d, rank):
    dims = SubsystemDims((2,) * (d.bit_length() - 1))
    with counted_eigen_solves() as solves:
        assert psd_violation(ginibre_mixed(dims, d, rank=rank).matrix, TOL_PSD) is None
    assert solves == []


@PROPERTY
@given(d=st.integers(1, 16), lows=st.lists(planted_lows, min_size=1, max_size=4), seed=seeds)
def test_psd_certificate_of_a_stack_judges_every_member(d, lows, seed):
    stack = np.stack([planted(d, low, seed + i) for i, low in enumerate(lows)])
    got = psd_violation(stack, TOL_PSD)
    lo = np.linalg.eigvalsh(stack)[..., 0]
    assert got is None or got == float(lo.min())
    if np.all(np.abs(lo + TOL_PSD) > 1e-13):
        assert (got is None) == all(psd_violation(h, TOL_PSD) is None for h in stack)


def copy_certifies(h, tol):
    """The certificate as it was before it shifted its operand in place:
    ``np.linalg.cholesky`` of a shifted copy.  Kept as the oracle of the
    in-place route, with the copy it factors."""
    d = h.shape[-1]
    shifted = np.array(h, dtype=np.complex128, order="C")
    shift = tol - tensor._rounding_bound(h, tol)
    shifted.reshape(shifted.shape[:-2] + (d * d,))[..., :: d + 1] += np.expand_dims(shift, -1)
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False, shifted
    return True, shifted


class Interrupted(Exception):
    pass


@PSD_PROPERTY
@given(d=st.integers(1, 24), lows=st.lists(planted_lows, min_size=1, max_size=3), seed=seeds,
       stacked=st.booleans(), tol=st.sampled_from([TOL_PSD, 0.0, -TOL_PSD]),
       raises=st.booleans())
def test_the_in_place_certificate_is_the_copy_route_and_restores_its_operand(
    d, lows, seed, stacked, tol, raises
):
    """On success, on failure and when the factorization raises, the
    certificate of an owned operand factors that operand itself, shifted
    bit for bit as the copy route shifts its copy, gives the copy route's
    verdict and leaves the operand's bytes as they were."""
    h = planted(d, lows[0], seed)
    if stacked:
        h = np.stack([h] + [planted(d, low, seed + i) for i, low in enumerate(lows[1:], 1)])
    before = h.tobytes()
    want, shifted = copy_certifies(h, tol)
    factored = []
    real = np.linalg.cholesky

    def cholesky(a):
        factored.append((a is h, a.tobytes()))
        if raises:
            raise Interrupted
        return real(a)

    with mock.patch.object(np.linalg, "cholesky", cholesky):
        if raises:
            with pytest.raises(Interrupted):
                tensor._cholesky_certifies(h, tol, True)
        else:
            assert tensor._cholesky_certifies(h, tol, True) is want
    assert factored == [(True, shifted.tobytes())]
    assert h.tobytes() == before
    if not raises:
        assert psd_violation(h, tol, True) == psd_violation(h, tol)
        assert h.tobytes() == before


def one_shot_finite(a):
    """The finiteness check before it ran in row blocks, as its message or
    None.  Kept as the oracle of the blocked check."""
    bad = ~np.isfinite(a)
    if bad.any():
        index = tuple(int(i) for i in np.argwhere(bad)[0])
        return (f"operator has non-finite entries (NaN or inf); "
                f"the first is {a[index]} at index {index}")
    return None


def finite_message(a):
    try:
        tensor._require_finite(a, "operator")
    except ValueError as exc:
        return str(exc)
    return None


SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324]


def special_operand(lead, n, seed, plants):
    """A random complex (lead.., n, n) operand with the special values of
    ``plants``, (flat index, value, imaginary part?) triples, planted."""
    rng = np.random.default_rng(seed)
    shape = tuple(lead) + (n, n)
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    parts = a.reshape(-1).view(np.float64)
    for flat, value, imag in plants:
        parts[2 * (flat % a.size) + imag] = value
    return a


block_cases = dict(
    lead=st.lists(st.integers(1, 3), max_size=2), n=st.integers(1, 12),
    hold=st.integers(0, 4096), seed=seeds,
    plants=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(SPECIALS),
                              st.integers(0, 1)), max_size=4),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(**block_cases)
def test_the_blocked_checks_are_the_one_shot_expressions(lead, n, hold, seed, plants):
    """With the block budget patched down to cross row-block edges of
    operators and stacks, herm_defect is exactly the one-shot maximum and
    the finiteness check raises the one-shot message, naming the first
    non-finite entry in C order, or passes as it did."""
    a = special_operand(lead, n, seed, plants)
    before = a.tobytes()
    with np.errstate(invalid="ignore"), mock.patch.object(tensor, "HOLD_BYTES", hold):
        defect = np.max(np.abs(a - a.conj().swapaxes(-1, -2)), axis=(-2, -1))
        want = float(defect) if a.ndim == 2 else defect
        got = herm_defect(a)
        messages = [finite_message(x) for x in (a, a.reshape(-1))]
    assert type(got) is type(want)
    np.testing.assert_array_equal(got, want)
    assert messages == [one_shot_finite(a), one_shot_finite(a.reshape(-1))]
    assert a.tobytes() == before


@settings(max_examples=100, deadline=None, derandomize=True)
@given(**block_cases)
def test_the_blocked_adjoint_sum_is_the_out_of_place_sum(lead, n, hold, seed, plants):
    """m + m^dag added in place by mirrored blocks, across block edges, is
    the out-of-place complex sum bit for bit, signed zeros included."""
    m = special_operand(lead, n, seed, plants)
    with np.errstate(invalid="ignore"), mock.patch.object(tensor, "HOLD_BYTES", hold):
        want = m + m.conj().swapaxes(-1, -2)
        tensor._add_adjoint(m)
    assert bit_identical(m, want)


def test_min_eigenvalue_checks_hold_no_operator_sized_temporary():
    """At D = 512 the finiteness and Hermiticity checks run in row blocks
    of at most tensor.HOLD_BYTES, so min_eigenvalue holds no D x D
    temporary of its own (the one-shot checks held two and a half)."""
    d = 512
    h = planted(d, 0.0, 5)
    min_eigenvalue(h[:4, :4])
    tracemalloc.start()
    try:
        low = min_eigenvalue(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < h.nbytes
    assert low == float(np.linalg.eigvalsh(h)[0])


@PSD_PROPERTY
@given(d=st.integers(1, 16), k=st.integers(1, 6), seed=seeds, data=st.data(),
       case=st.sampled_from(["psd", "indefinite", "tied", "below"]))
def test_certified_min_eigenvalue_is_the_eigvalsh_minimum(d, k, seed, data, case):
    """On a stack whose last ``solved`` members are solved, the result is
    the stacked eigvalsh minimum bit for bit: a psd or indefinite stack,
    a solved minimizer tied with an unsolved copy of it (certified with no
    second solve), and a minimizer outside the solved members (which the
    certificate must reject, so the rest is solved too).  Only where an
    unsolved member lies within rounding below the solved minimum may the
    result be that little above it.  A running minimum below the stack
    stands."""
    solved = data.draw(st.integers(1, k))
    split = k - solved
    rng = np.random.default_rng(seed)
    lows = rng.uniform(0.0, 1.0 / d, k) if case == "psd" else rng.uniform(-1.0, 1.0, k)
    if case == "below" and split:
        lows[data.draw(st.integers(0, split - 1))] = lows.min() - 0.1
    stack = np.stack([planted(d, low, seed + i) for i, low in enumerate(lows)])
    if case == "tied":
        stack[-1] = planted(d, lows.min() - 0.1, seed)
        if split:
            stack[data.draw(st.integers(0, split - 1))] = stack[-1]
    lo = np.linalg.eigvalsh(stack)[..., 0]
    with counted_eigen_solves() as solves:
        got = certified_min_eigenvalue(stack, solved)
    want = float(lo.min())
    gap = float(lo[split:].min()) - float(lo[:split].min()) if split else 0.0
    if not 0.0 < gap < 1e-12:
        assert got == want
    assert want <= got <= want + 1e-12
    if case == "tied":
        assert len(solves) == 1
    if case == "below" and split:
        assert len(solves) == 2
    assert certified_min_eigenvalue(stack, solved, want - 1.0) == want - 1.0


def test_certified_min_eigenvalue_checks_every_member():
    stack = np.stack([planted(4, 0.1, i) for i in range(3)])
    skewed = stack.copy()
    skewed[0, 1, 2] += 1e-6
    with pytest.raises(ValueError, match="operator 0 of the stack is not Hermitian"):
        certified_min_eigenvalue(skewed, 1)
    broken = stack.copy()
    broken[0, 2, 2] = np.nan
    with pytest.raises(ValueError, match=r"operator stack has non-finite .* at index \(0, "):
        certified_min_eigenvalue(broken, 1)
