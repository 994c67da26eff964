import pytest

from qinvert.dims import (
    SubsystemDims,
    mask_bitstring,
    mask_from_parties,
    parse_party_list,
    parties_from_mask,
    relative_mask,
)


def test_dims_basic_properties():
    dims = SubsystemDims((2, 3, 2))
    assert dims.n == 3
    assert dims.total == 12
    assert dims.full_mask == 0b111
    assert dims.dims_of(0b101) == (2, 2)
    assert dims.block_dim(0b011) == 6
    assert dims.block_dim(0) == 1
    assert dims.complement(0b001) == 0b110


def test_dims_rejects_trivial_parties():
    with pytest.raises(ValueError):
        SubsystemDims((2, 1, 2))
    with pytest.raises(ValueError):
        SubsystemDims(())


def test_dims_cap():
    SubsystemDims((2,) * 12)  # 4096 exactly
    with pytest.raises(ValueError):
        SubsystemDims((2,) * 13)
    SubsystemDims((2,) * 13, cap=8192)
    with pytest.raises(ValueError):
        SubsystemDims((4, 4), cap=8)


def test_mask_roundtrip():
    assert mask_from_parties([1, 3]) == 0b101
    assert parties_from_mask(0b101) == (1, 3)
    assert parties_from_mask(0) == ()
    with pytest.raises(ValueError):
        mask_from_parties([0])


def test_mask_validation():
    dims = SubsystemDims((2, 2))
    assert dims.validate_mask(0b11) == 0b11
    with pytest.raises(ValueError):
        dims.validate_mask(0b100)
    with pytest.raises(ValueError):
        dims.validate_mask(-1)


def test_bitstring_party_one_leftmost():
    assert mask_bitstring(0b001, 3) == "100"
    assert mask_bitstring(0b100, 3) == "001"
    assert mask_bitstring(0b011, 4) == "1100"


def test_parse_party_list():
    assert parse_party_list("1,3") == 0b101
    assert parse_party_list("") == 0
    with pytest.raises(ValueError):
        parse_party_list("1,x")
    with pytest.raises(ValueError, match="names party 3 more than once"):
        parse_party_list("3,1,3")


@pytest.mark.parametrize("text, token", [
    ("0_1", "0_1"), ("\u0661,2", "\u0661"), ("1,\uff12", "\uff12"), ("1, 2_", " 2_"),
])
def test_parse_party_list_refuses_separators_and_non_ascii_digits(text, token):
    """int() reads "0_1" as 1 and the Arabic-Indic digit one as 1; a party
    list is plain ASCII, so the error names the list and the token."""
    with pytest.raises(ValueError, match=f"party list {text!r} holds {token!r}, "
                                         "not a plain ASCII number"):
        parse_party_list(text)


def test_relative_mask_restricts_and_reindexes():
    assert relative_mask(0b101, 0b111) == 0b101
    assert relative_mask(0b100, 0b110) == 0b10
    assert relative_mask(0b1011, 0b1010) == 0b11
    assert relative_mask(0b0001, 0b1010) == 0
