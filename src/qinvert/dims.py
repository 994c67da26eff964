"""Subsystem dimensions and party-subset bitmasks.

Parties are numbered 1..N.  A subset of parties is a plain ``int`` bitmask
with bit (j-1) set when party j belongs to the subset; party 1 is the
leftmost (most significant) tensor factor, so the global index of the
basis state |i_1 ... i_N> is sum_j i_j * prod_{k>j} d_k.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from typing import Iterable, Iterator

DEFAULT_DIM_CAP = 4096


def mask_from_parties(parties: Iterable[int]) -> int:
    """Bitmask for a collection of 1-based party indices."""
    mask = 0
    for p in parties:
        if p < 1:
            raise ValueError(f"party indices are 1-based, got {p}")
        mask |= 1 << (p - 1)
    return mask


def parties_from_mask(mask: int) -> tuple[int, ...]:
    """Sorted 1-based party indices contained in ``mask``."""
    return tuple(j + 1 for j in range(mask.bit_length()) if mask >> j & 1)


def mask_size(mask: int) -> int:
    return mask.bit_count()


def iter_masks(n: int) -> Iterator[int]:
    """All subsets of {1..n} in ascending bitmask order (starts with 0)."""
    return iter(range(1 << n))


def mask_bitstring(mask: int, n: int) -> str:
    """Zero-padded bitstring with party 1 as the leftmost character."""
    return "".join("1" if mask >> j & 1 else "0" for j in range(n))


def relative_mask(mask: int, within: int) -> int:
    """Restrict ``mask`` to the parties of ``within`` and re-index it
    against those parties counted in ascending order, as the mask of a
    subsystem whose party j is the j-th party of ``within``."""
    out = 0
    for pos, p in enumerate(parties_from_mask(within)):
        if mask >> (p - 1) & 1:
            out |= 1 << pos
    return out


def parse_party_list(text: str) -> int:
    """Parse a comma-separated 1-based party list such as ``"1,3"``; a
    blank list is the empty mask and a repeated party is an error."""
    text = text.strip()
    if not text:
        return 0
    try:
        parties = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"cannot parse party list {text!r}") from exc
    for pos, p in enumerate(parties):
        if p in parties[:pos]:
            raise ValueError(f"party list {text!r} names party {p} more than once")
    return mask_from_parties(parties)


@dataclass(frozen=True)
class SubsystemDims:
    """Ordered local dimensions d_1..d_N of a tensor-product space."""

    dims: tuple[int, ...]
    cap: InitVar[int] = DEFAULT_DIM_CAP

    def __post_init__(self, cap: int) -> None:
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) < 1:
            raise ValueError("at least one party is required")
        for d in dims:
            if d < 2:
                raise ValueError(f"local dimensions must be >= 2, got {d}")
        total = math.prod(dims)
        if total > cap:
            raise ValueError(
                f"total dimension {total} exceeds the cap {cap}"
            )

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def total(self) -> int:
        return math.prod(self.dims)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def validate_mask(self, mask: int) -> int:
        if mask < 0 or mask >> self.n:
            raise ValueError(
                f"mask {bin(mask)} addresses parties beyond the {self.n} available"
            )
        return mask

    def complement(self, mask: int) -> int:
        return self.full_mask ^ self.validate_mask(mask)

    def dims_of(self, mask: int) -> tuple[int, ...]:
        """Local dimensions of the parties in ``mask``, in party order."""
        self.validate_mask(mask)
        return tuple(d for j, d in enumerate(self.dims) if mask >> j & 1)

    def block_dim(self, mask: int) -> int:
        """Total dimension of the subsystem selected by ``mask``."""
        return math.prod(self.dims_of(mask)) if mask else 1

    def subset_masks(self) -> Iterator[int]:
        return iter_masks(self.n)
