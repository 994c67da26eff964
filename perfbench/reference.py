"""Reference values for the benchmark's correctness gate.

Nothing here calls into ``qinvert``.  The inversion map is applied as
the product of per-party factors ``X -> Tr_j(X) (x) 1_j +/- X``, written
directly on the reshaped operator, so the values it gives are
independent of the partial-trace and embedding routes that the
constraint families, the invariant table and the witnesses use.  The
seeded states follow the recipes the README documents (Philox streams
from ``SeedSequence(seed, spawn_key=(member,))``).
"""

from __future__ import annotations

import json
import math
from typing import Iterator

import numpy as np


def stream_rng(seed: int, member: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(member,)))
    )


def ginibre(dims: tuple[int, ...], seed: int, member: int = 0) -> np.ndarray:
    """G G^dag / Tr(G G^dag) for a full-rank complex Gaussian G."""
    d = math.prod(dims)
    rng = stream_rng(seed, member)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    mat = g @ g.conj().T
    mat = (mat + mat.conj().T) / 2.0
    return mat / np.trace(mat).real


def haar_vector(dims: tuple[int, ...], seed: int, member: int = 0) -> np.ndarray:
    """Normalized complex Gaussian vector."""
    d = math.prod(dims)
    rng = stream_rng(seed, member)
    z = rng.normal(size=d) + 1j * rng.normal(size=d)
    return z / np.linalg.norm(z)


def state_file_text(dims: tuple[int, ...], state: np.ndarray) -> str:
    """A state file holding ``state`` (a vector is a pure state, a
    matrix a mixed one), as the README specifies the format."""
    if state.ndim == 1:
        data = [[z.real, z.imag] for z in state.tolist()]
        kind = "pure"
    else:
        data = [[[z.real, z.imag] for z in row] for row in state.tolist()]
        kind = "mixed"
    return json.dumps({"dims": list(dims), "kind": kind, "data": data}) + "\n"


def party_factor(
    x: np.ndarray, dims: tuple[int, ...], j: int, weight: float
) -> np.ndarray:
    """Tr_j(x) (x) 1_j + weight * x for the 0-based party ``j``."""
    d_total = x.shape[0]
    left = math.prod(dims[:j])
    d = dims[j]
    right = d_total // (left * d)
    x6 = x.reshape(left, d, right, left, d, right)
    traced = x6[:, 0, :, :, 0, :].copy()
    for i in range(1, d):
        traced += x6[:, i, :, :, i, :]
    out = weight * x6
    for i in range(d):
        out[:, i, :, :, i, :] += traced
    return out.reshape(d_total, d_total)


def _descend(
    x: np.ndarray, dims: tuple[int, ...], lo: int, hi: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (t, product of the factors of parties lo..hi-1 applied to x)
    for every mask t over those parties, along a binary tree."""
    if lo == hi:
        yield 0, x
        return
    for bit, weight in ((0, 1.0), (1 << lo, -1.0)):
        for t, out in _descend(party_factor(x, dims, lo, weight), dims, lo + 1, hi):
            yield t | bit, out


def inversions(rho: np.ndarray, dims: tuple[int, ...]) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (t, I_T(rho)) for every mask t; all 2^N outputs cost
    2^(N+1) factor applications."""
    yield from _descend(np.asarray(rho, dtype=np.complex128), dims, 0, len(dims))


def squared_invariants(rho: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """C_T^2 = Tr[rho I_T(rho)] for every mask, indexed by mask.

    The factors are self-adjoint for the Frobenius inner product and
    commute, so with T = A + B split between the leading parties and
    the last (up to) three, C_T^2 = <F_A rho, F_B rho>: two short trees
    instead of one deep one."""
    rho = np.asarray(rho, dtype=np.complex128)
    n = len(dims)
    mid = max(n - 3, 0)
    tail = list(_descend(rho, dims, mid, n))
    out = np.zeros(1 << n)
    for t_a, x in _descend(rho, dims, 0, mid):
        for t_b, y in tail:
            out[t_a | t_b] = np.vdot(x, y).real
    return out


def witness_min_eigs(rho: np.ndarray, dims: tuple[int, ...]) -> dict[int, float]:
    """Smallest eigenvalue of the marginal witness I_T(rho) + rho for
    every odd-size mask t."""
    return {
        t: float(np.linalg.eigvalsh(inv + rho)[0])
        for t, inv in inversions(rho, dims)
        if t.bit_count() % 2 == 1
    }


def inversion_min_eig(rho: np.ndarray, dims: tuple[int, ...]) -> float:
    """Smallest eigenvalue of I_T(rho) over every mask t."""
    return min(float(np.linalg.eigvalsh(inv)[0]) for _, inv in inversions(rho, dims))


def detection_min_eig(
    rho: np.ndarray, dims: tuple[int, ...], act_on: tuple[int, ...], t: tuple[int, ...]
) -> float:
    """Smallest eigenvalue of the detection map with unit weights acting
    on the 1-based parties ``act_on``, minus signs on ``t``."""
    out = np.asarray(rho, dtype=np.complex128)
    for p in sorted(act_on):
        out = party_factor(out, dims, p - 1, -1.0 if p in t else 1.0)
    return float(np.linalg.eigvalsh(out)[0])


def linear_entropies(c_squared: np.ndarray, n: int) -> np.ndarray:
    """tau_S = 2 (1 - Tr rho_S^2), with the purities recovered from the
    squared invariants by the inverse Hadamard transform."""
    masks = range(1 << n)
    signs = np.array(
        [[1.0 if (s & t).bit_count() % 2 == 0 else -1.0 for t in masks] for s in masks]
    )
    purities = signs @ c_squared / (1 << n)
    return 2.0 * (1.0 - purities)
