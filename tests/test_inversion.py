import numpy as np
import pytest

from qinvert.dims import SubsystemDims
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
    kraus_transfers,
)
from qinvert.states import DensityMatrix
from qinvert.tensor import block_product, min_eigenvalue
from qinvert.zoo import (
    bell_state,
    ginibre_mixed,
    random_local_unitary,
    stream_rng,
)


def max_dev(a, b):
    return float(np.max(np.abs(a - b)))


def test_single_party_inversion_flips_basis_state():
    dims = SubsystemDims((2,))
    rho = np.diag([1.0, 0.0]).astype(complex)
    out = invert_sum(rho, dims, 0b1)
    assert np.allclose(out, np.diag([0.0, 1.0]))


def test_empty_mask_all_plus_signs():
    dims = SubsystemDims((2,))
    rho = np.eye(2, dtype=complex) / 2
    out = invert_sum(rho, dims, 0)
    assert np.allclose(out, 1.5 * np.eye(2))


def test_bell_state_is_fixed_point_of_full_inversion():
    rho = bell_state().density()
    out = invert_sum(rho.matrix, rho.dims, 0b11)
    assert max_dev(out, rho.matrix) < 1e-12


def test_invert_product_single_party():
    dims = SubsystemDims((3,))
    rho = ginibre_mixed(dims, 1).matrix
    out = invert_product(rho, dims, 0b1)
    assert max_dev(out, np.eye(3) - rho) < 1e-12


def test_single_qubit_kraus_is_spin_flip():
    dims = SubsystemDims((2,))
    rho = ginibre_mixed(dims, 2).matrix
    sy = np.array([[0, -1j], [1j, 0]])
    assert max_dev(invert_kraus(rho, dims, 0b1), sy @ rho.conj() @ sy) < 1e-13
    assert max_dev(invert_kraus(rho, dims, 0b1), np.eye(2) - rho) < 1e-12


@pytest.mark.parametrize("local_dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2)])
def test_cross_form_equality(local_dims):
    dims = SubsystemDims(local_dims)
    for k in range(20):
        rho = ginibre_mixed(dims, 100, member=k).matrix
        for t in dims.subset_masks():
            ref = invert_sum(rho, dims, t)
            assert max_dev(ref, invert_product(rho, dims, t)) < 1e-11
            assert max_dev(ref, invert_kraus(rho, dims, t)) < 1e-11


def test_invert_product_factor_order_is_irrelevant():
    # the per-party factors commute: applying them in reverse party order
    # changes nothing beyond rounding
    from qinvert.tensor import embed, partial_trace

    dims = SubsystemDims((2, 3, 2))
    rho = ginibre_mixed(dims, 99).matrix
    t = 0b101
    out = np.array(rho)
    for j in reversed(range(1, dims.n + 1)):
        bit = 1 << (j - 1)
        keep = dims.full_mask ^ bit
        traced = embed(partial_trace(out, dims, keep), keep, dims)
        out = traced - out if t & bit else traced + out
    assert max_dev(out, invert_product(rho, dims, t)) < 1e-12


def test_invert_sum_output_is_hermitian_and_positive():
    dims = SubsystemDims((2, 3))
    for k in range(20):
        rho = ginibre_mixed(dims, 101, member=k).matrix
        for t in dims.subset_masks():
            out = invert_sum(rho, dims, t)
            assert max_dev(out, out.conj().T) < 1e-12
            assert min_eigenvalue(out) >= -1e-9


def test_local_unitary_covariance():
    dims = SubsystemDims((2, 2, 2))
    rng = stream_rng(55)
    for k in range(5):
        rho = ginibre_mixed(dims, 102, member=k).matrix
        u = random_local_unitary(dims, rng)
        rotated = u @ rho @ u.conj().T
        for t in dims.subset_masks():
            lhs = invert_sum(rotated, dims, t)
            rhs = u @ invert_sum(rho, dims, t) @ u.conj().T
            assert max_dev(lhs, rhs) < 1e-10


@pytest.mark.parametrize("local_dims", [(2, 2), (2, 2, 2), (2, 3, 2)])
def test_parity_sums(local_dims):
    dims = SubsystemDims(local_dims)
    eye = np.eye(dims.total)
    scale = 2.0 ** (1 - dims.n)
    for k in range(5):
        rho = ginibre_mixed(dims, 103, member=k).matrix
        odd = sum(
            invert_sum(rho, dims, t)
            for t in dims.subset_masks()
            if bin(t).count("1") % 2 == 1
        )
        even = sum(
            invert_sum(rho, dims, t)
            for t in dims.subset_masks()
            if bin(t).count("1") % 2 == 0
        )
        assert max_dev(scale * odd, eye - rho) < 1e-11
        assert max_dev(scale * even, eye + rho) < 1e-11


def test_factorization_on_product_states():
    dims = SubsystemDims((2, 2, 3))
    for k, s in enumerate((0b001, 0b011, 0b101)):
        sc = dims.full_mask ^ s
        rho_s = ginibre_mixed(SubsystemDims(dims.dims_of(s)), 104, member=2 * k)
        rho_c = ginibre_mixed(SubsystemDims(dims.dims_of(sc)), 104, member=2 * k + 1)
        prod = DensityMatrix.from_product({s: rho_s, sc: rho_c}, dims)
        for t in dims.subset_masks():
            t_s = _restrict(t, s)
            t_c = _restrict(t, sc)
            lhs = invert_sum(prod.matrix, dims, t)
            rhs = block_product(
                {
                    s: invert_sum(rho_s.matrix, rho_s.dims, t_s),
                    sc: invert_sum(rho_c.matrix, rho_c.dims, t_c),
                },
                dims,
            )
            assert max_dev(lhs, rhs) < 1e-11


def _restrict(t, block):
    out = 0
    pos = 0
    j = 0
    while block >> j:
        if block >> j & 1:
            if t >> j & 1:
                out |= 1 << pos
            pos += 1
        j += 1
    return out


def test_kraus_operators_reproduce_channel():
    """Every mask's transfer-matrix route is the explicit sum K rho* K^dag
    over its Kraus operators, local dims up to 5 included."""
    for local in ((2, 3), (4,), (5,), (2, 5), (4, 3)):
        dims = SubsystemDims(local)
        rho = ginibre_mixed(dims, 105).matrix
        conj = rho.conj()
        for t in dims.subset_masks():
            total = sum(k @ conj @ k.conj().T for k in kraus_operators(dims, t))
            assert max_dev(total, invert_kraus(rho, dims, t)) < 1e-11, (local, t)


@pytest.mark.parametrize(("local", "built_for", "party"), [
    ((2, 3), (3, 2), 1),  # the same D = 6, every party of the wrong size
    ((2, 2), (4,), 1),
    ((2, 2), (2,), 2),  # a party missing
    ((2,), (2, 2), 2),  # a party too many
    ((2, 3, 4), (2, 3, 3), 3),
])
def test_kraus_transfers_for_other_dims_are_rejected(local, built_for, party):
    """Prebuilt transfer matrices must have one (d_j^2, d_j^2) matrix per
    party of either sign; any other raises a ValueError naming the first
    party that does not match, for one mask and for a block."""
    dims = SubsystemDims(local)
    rho = ginibre_mixed(dims, 1).matrix
    wrong = kraus_transfers(SubsystemDims(built_for))
    for t in (0, range(1 << dims.n)):
        with pytest.raises(ValueError, match=f"do not match party {party} of dims "):
            invert_kraus(rho, dims, t, wrong)
    plus, minus = kraus_transfers(dims)
    for bad in ((plus, minus[:-1]), (plus[:-1], minus)):
        with pytest.raises(ValueError, match=f"do not match party {dims.n} of dims "):
            invert_kraus(rho, dims, 0, bad)
    assert np.array_equal(invert_kraus(rho, dims, 0, (plus, minus)), invert_kraus(rho, dims, 0))


def test_kraus_operator_count():
    dims = SubsystemDims((2, 3))
    # party 1 plus channel: 3 ops, party 2 minus channel: 3 ops
    assert len(list(kraus_operators(dims, 0b10))) == 9
    assert len(list(kraus_operators(dims, 0b01))) == 1 * 6


# ---------------------------------------------------------------------------
# coarse graining


def test_grouping_validation():
    Grouping(blocks=(0b001, 0b110), n=3)
    with pytest.raises(ValueError):
        Grouping(blocks=(0b001, 0b011), n=3)  # overlap
    with pytest.raises(ValueError):
        Grouping(blocks=(0b001,), n=3)  # no cover
    with pytest.raises(ValueError):
        Grouping(blocks=(0b001, 0b110, 0), n=3)  # empty block


def test_coarse_grain_three_parties_pair_block():
    dims = SubsystemDims((2, 2, 2))
    rho = ginibre_mixed(dims, 106).matrix
    g = Grouping(blocks=(0b001, 0b110), n=3)
    out = coarse_grain_invert(rho, dims, g, 0b10)
    avg = 0.5 * (invert_sum(rho, dims, 0b010) + invert_sum(rho, dims, 0b100))
    assert max_dev(out, avg) < 1e-12
    # independent route: invert directly on the merged two-party system
    merged = SubsystemDims((2, 4))
    assert max_dev(out, invert_sum(rho, merged, 0b10)) < 1e-11


def test_coarse_grain_trivial_grouping_matches_plain_inversion():
    dims = SubsystemDims((2, 3))
    rho = ginibre_mixed(dims, 107).matrix
    g = Grouping(blocks=(0b01, 0b10), n=2)
    for t in dims.subset_masks():
        assert max_dev(coarse_grain_invert(rho, dims, g, t), invert_sum(rho, dims, t)) < 1e-12


def test_coarse_grain_single_block_parity_average():
    dims = SubsystemDims((2, 2, 2))
    rho = ginibre_mixed(dims, 108).matrix
    g = Grouping(blocks=(0b111,), n=3)
    out = coarse_grain_invert(rho, dims, g, 0b1)
    assert max_dev(out, np.eye(8) - rho) < 1e-11
    out_plus = coarse_grain_invert(rho, dims, g, 0)
    assert max_dev(out_plus, np.eye(8) + rho) < 1e-11


def test_coarse_grain_four_parties_two_blocks():
    dims = SubsystemDims((2, 2, 2, 2))
    rho = ginibre_mixed(dims, 109).matrix
    g = Grouping(blocks=(0b0011, 0b1100), n=4)
    merged = SubsystemDims((4, 4))
    for t_coarse in range(4):
        out = coarse_grain_invert(rho, dims, g, t_coarse)
        direct = invert_sum(rho, merged, t_coarse)
        assert max_dev(out, direct) < 1e-11


def test_coarse_grain_invalid_mask():
    dims = SubsystemDims((2, 2))
    g = Grouping(blocks=(0b11,), n=2)
    with pytest.raises(ValueError):
        coarse_grain_invert(np.eye(4), dims, g, 0b10)


# ---------------------------------------------------------------------------
# detection maps


def test_detection_on_bell_reduction_criterion():
    rho = bell_state().density()
    params = DetectionParams(t=0b10, act_on=0b10, alpha=1.0)
    out = apply_detection_map(rho.matrix, rho.dims, params)
    eigs = np.linalg.eigvalsh(out)
    assert np.allclose(sorted(eigs), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_detection_on_product_states_stays_positive():
    dims = SubsystemDims((2, 2))
    for k in range(10):
        a = ginibre_mixed(SubsystemDims((2,)), 110, member=2 * k).matrix
        b = ginibre_mixed(SubsystemDims((2,)), 110, member=2 * k + 1).matrix
        rho = np.kron(a, b)
        params = DetectionParams(t=0b10, act_on=0b10, alpha=1.0)
        out = apply_detection_map(rho, dims, params)
        assert min_eigenvalue(out) >= -1e-9


def test_detection_alpha_zero_is_positive_everywhere():
    dims = SubsystemDims((2, 2))
    for k in range(10):
        rho = ginibre_mixed(dims, 111, member=k).matrix
        params = DetectionParams(t=0b11, act_on=0b11, alpha=0.0, beta=1.0)
        out = apply_detection_map(rho, dims, params)
        assert min_eigenvalue(out) >= -1e-9


def test_detection_identity_outside_act_on():
    dims = SubsystemDims((2, 2, 2))
    rho = ginibre_mixed(dims, 112).matrix
    params = DetectionParams(t=0b010, act_on=0b010, alpha=1.0)
    out = apply_detection_map(rho, dims, params)
    # acting on party 2 only: same as the inversion factor at party 2
    dims2 = SubsystemDims((2, 2, 2))
    from qinvert.tensor import embed, partial_trace

    expected = embed(partial_trace(rho, dims2, 0b101), 0b101, dims2) - rho
    assert max_dev(out, expected) < 1e-12


def test_detection_params_validation():
    with pytest.raises(ValueError):
        DetectionParams(t=0b01, act_on=0b10, alpha=1.0)  # t not inside act_on
    with pytest.raises(ValueError):
        DetectionParams(t=0b01, act_on=0b01, alpha=1.5)
    with pytest.raises(ValueError):
        DetectionParams(t=0b01, act_on=0b11, alpha=1.0, beta=-0.2)


def test_detection_mixed_weights_interpolate():
    rho = bell_state().density()
    lo = apply_detection_map(rho.matrix, rho.dims, DetectionParams(t=0b10, act_on=0b10, alpha=0.0))
    hi = apply_detection_map(rho.matrix, rho.dims, DetectionParams(t=0b10, act_on=0b10, alpha=1.0))
    mid = apply_detection_map(rho.matrix, rho.dims, DetectionParams(t=0b10, act_on=0b10, alpha=0.5))
    assert max_dev(mid, 0.5 * (lo + hi)) < 1e-12


# ---------------------------------------------------------------------------
# Choi matrices


@pytest.mark.parametrize("local_dims", [(2,), (3,), (2, 2)])
def test_choi_of_inversion_after_transpose_is_psd(local_dims):
    dims = SubsystemDims(local_dims)
    for t in dims.subset_masks():
        choi = choi_matrix("t_inversion_after_transpose", dims, t=t)
        assert min_eigenvalue(choi) >= -1e-9


def test_choi_of_plain_reduction_map_is_not_psd():
    dims = SubsystemDims((2,))
    choi = choi_matrix("t_inversion", dims, t=0b1)
    # 1 (x) 1 minus the unnormalized maximally entangled projector: min eig 1 - d
    assert abs(min_eigenvalue(choi) - (1.0 - 2.0)) < 1e-12


def test_choi_detection_alpha_zero_is_psd():
    dims = SubsystemDims((2, 2))
    params = DetectionParams(t=0b01, act_on=0b11, alpha=0.0, beta=0.7)
    choi = choi_matrix("detection", dims, params=params)
    assert min_eigenvalue(choi) >= -1e-9


def test_choi_reproduces_map_action():
    dims = SubsystemDims((2,))
    rho = ginibre_mixed(dims, 113).matrix
    choi = choi_matrix("t_inversion", dims, t=0b1)
    d = dims.total
    # Phi(X)[a,b] = sum_ij X[i,j] Choi[(i,a),(j,b)]
    recon = np.einsum("ij,iajb->ab", rho, choi.reshape(d, d, d, d))
    assert max_dev(recon, invert_sum(rho, dims, 0b1)) < 1e-12


def test_choi_errors():
    dims = SubsystemDims((2, 2))
    with pytest.raises(ValueError):
        choi_matrix("no_such_map", dims)
    with pytest.raises(ValueError):
        choi_matrix("detection", dims)
    with pytest.raises(ValueError):
        choi_matrix("t_inversion", SubsystemDims((8, 8)), t=0, cap=4000)


@pytest.mark.parametrize("name, own", [("alpha", 1), ("beta", 2)])
def test_detection_weight_mapping_names_exactly_its_parties(name, own):
    # t = {1}, act_on = {1, 2}: alpha weights party 1, beta weights party 2
    params = DetectionParams(t=0b01, act_on=0b11, **{name: {own: 0.5}})
    assert getattr(params, name) == {own: 0.5}
    with pytest.raises(ValueError, match=f"{name} has no weight for party {own}"):
        DetectionParams(t=0b01, act_on=0b11, **{name: {}})
    with pytest.raises(ValueError, match=f"{name} names party 9"):
        DetectionParams(t=0b01, act_on=0b11, **{name: {own: 0.5, 9: 0.3}})
    with pytest.raises(ValueError, match=f"{name} names party {3 - own}"):
        DetectionParams(t=0b01, act_on=0b11, **{name: {1: 0.5, 2: 0.5}})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5, 1.5])
@pytest.mark.parametrize("name, t", [("alpha", 0b00), ("beta", 0b01)])
def test_a_scalar_weight_of_no_party_is_still_checked(name, t, value):
    # act_on = {1}: t = {} leaves alpha no party, t = {1} leaves beta none
    with pytest.raises(ValueError, match=rf"{name} = {value} is outside \[0, 1\]"):
        DetectionParams(t=t, act_on=0b01, **{name: value})
    assert getattr(DetectionParams(t=t, act_on=0b01, **{name: 0.5}), name) == {}


def test_choi_matrix_honours_the_cap():
    dims = SubsystemDims((2, 2))
    with pytest.raises(ValueError, match="exceeds the dimension cap 15"):
        choi_matrix("t_inversion", dims, t=0b01, cap=15)
    assert choi_matrix("t_inversion", dims, t=0b01, cap=16).shape == (16, 16)
