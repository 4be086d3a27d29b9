"""One subspace engine: seeded images and null spaces under a single cutoff.

``image`` is the randomized range finder (Halko, Martinsson and Tropp 2011,
arXiv:0909.4061) made exact by a known rank: the image of a linear map whose
rank is given in closed form is sampled on a fixed number of seeded Gaussian
tensors and the singular values must show exactly that rank.  ``kernel``
returns a null space under the same relative cutoff ``RTOL``, and
``lstsq_factors`` the compact factors of the minimum-norm least-squares
solve (the pseudoinverse, never formed) together with that null space.

Packed coordinates.  A symmetry class of valence-v tensors on R^n is given
by consecutive slot groups, each symmetric (``"sym"``) or antisymmetric
(``"alt"``).  Its ``Packing`` keeps one representative entry per orbit of
the group action (sorted indices within each group, strictly increasing in
an antisymmetric one) scaled by the square root of the orbit size, so
packing is an isometry from the class onto R^P, and unpacking spreads each
packed value back over its orbit with the permutation signs.  ``image``
runs its SVD on the packed images that its map returns, which every basis
map computes in packed coordinates.  ``Packing.pack_checked`` packs full
tensors claimed to lie in a class (the Weyl rows and the Kulkarni images)
and raises RuntimeError unless unpacking gives each back to ``RTOL`` of
its own norm.  The rank gate and cutoff are those of the unpacked SVD,
whose singular values the packed one shares; ``numerical_rank`` is the
one rule that counts every rank.  Each row ``image`` returns is then
checked with the class's own residual kernel against its bound, the only
class check of a sampled image.
One single-slot group per axis is the trivial packing (P = n^v), for maps
whose images have no symmetry.  The rows stay packed (``PackedRows``):
a combination of them is formed in the P packed coordinates and only the
result is spread back to all n^v entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

__all__ = [
    "RTOL", "Packing", "PackedRows", "packing", "image", "kernel", "lstsq_factors",
    "numerical_rank",
]

# relative singular-value cutoff shared by every rank decision
RTOL = 1e-10

# samples beyond the rank: they keep sigma_rank well clear of the cutoff and
# expose a rank larger than claimed
_OVERSAMPLE = 8

# bytes of unpacked tensors per chunk: per call of the sampled map in
# ``image``, per stack of ``PackedRows.unpacked_chunks`` and per seed chunk
# of the check suites (one stacked valence-6 array); the index-plan kernels
# hold a few chunk-sized temporaries, and the C_k residual and a batched
# slot sum go in blocks of about this size (``_per_chunk``), so chunks are kept small
_CHUNK_BYTES = 1 << 19


@dataclass(frozen=True, eq=False)
class Packing:
    """Orbit coordinates of a symmetry class; build it with ``packing``.

    ``rep`` holds the flat index of each orbit's representative entry and
    ``weight`` the square root of the orbit size; ``index`` maps every
    flat entry to its orbit and ``coef`` is the permutation sign over the
    orbit's weight (0 on entries an antisymmetric group forces to vanish).
    """

    shape: tuple[int, ...]
    rep: np.ndarray
    weight: np.ndarray
    index: np.ndarray
    coef: np.ndarray

    def pack(self, flat: np.ndarray) -> np.ndarray:
        """Packed coordinates of class members, raveled along the last axis."""
        return flat[..., self.rep] * self.weight

    def unpack(self, packed: np.ndarray) -> np.ndarray:
        """Raveled tensors with the given packed coordinates."""
        out = packed[..., self.index]
        out *= self.coef
        return out

    def pack_checked(self, flat: np.ndarray) -> np.ndarray:
        """``pack`` of raveled tensors claimed to lie in the class, one per row.

        Raises RuntimeError unless unpacking gives each row back to ``RTOL`` of
        its own norm (1 for a zero row; a NaN fails), so the joint gap is within it too.
        """
        packed = self.pack(flat)
        scale = np.linalg.norm(flat, axis=-1)
        ratio = np.linalg.norm(self.unpack(packed) - flat, axis=-1) / np.where(scale, scale, 1.0)
        if not np.all(ratio <= RTOL):
            raise RuntimeError(f"a row leaves its symmetry class: relative gap {ratio.max():.3e}")
        return packed


def _group_table(n: int, kind: str, size: int):
    """Representatives, orbit sizes, and each entry's orbit and sign for one group."""
    entries = np.indices((n,) * size).reshape(size, -1).T
    ordered = np.sort(entries, axis=1)
    codes = ordered @ n ** np.arange(size - 1, -1, -1)
    if kind == "sym":
        sign = np.ones(len(entries))
    elif kind == "alt":
        inversions = sum(
            entries[:, i] > entries[:, j] for i in range(size) for j in range(i + 1, size)
        )
        repeated = np.any(ordered[:, 1:] == ordered[:, :-1], axis=1)
        sign = np.where(repeated, 0.0, (-1.0) ** inversions)
    else:
        raise ValueError(f"group kind must be 'sym' or 'alt', got {kind!r}")
    rep = np.flatnonzero((codes == np.arange(len(entries))) & (sign != 0.0))
    slot = np.full(len(entries), -1)
    slot[rep] = np.arange(len(rep))
    index = np.maximum(slot[codes], 0)  # forced zeros point anywhere, with sign 0
    orbit = np.bincount(index, weights=(sign != 0.0).astype(float), minlength=len(rep))
    return rep, orbit, index, sign


def _per_chunk(item_bytes: int) -> int:
    """Items per chunk: as many as keep ``item_bytes`` each within ``_CHUNK_BYTES`` (at least 1)."""
    return max(1, _CHUNK_BYTES // item_bytes)


@dataclass(frozen=True, eq=False)
class PackedRows:
    """Rows in the packed coordinates of one symmetry class, shape (count, P).

    The cached bases hold orthonormal rows; packing is an isometry, so they
    stay orthonormal unpacked.
    """

    rows: np.ndarray
    pk: Packing

    def __len__(self) -> int:
        return len(self.rows)

    def unpack(self, packed: np.ndarray) -> np.ndarray:
        """Full tensors, of shape ``packed.shape[:-1] + pk.shape``, with these packed coordinates."""
        return self.pk.unpack(packed).reshape(packed.shape[:-1] + self.pk.shape)

    def combine(self, coeff: np.ndarray) -> np.ndarray:
        """Full tensors sum_i coeff[..., i] * row_i, combined before unpacking."""
        return self.unpack(coeff @ self.rows)

    def combine_each(self, coeff: np.ndarray) -> np.ndarray:
        """``combine`` of each coefficient vector on the last axis of coeff, in C order.

        Each is its own vector-matrix product, (1, d) @ rows, as a lone
        vector's ``combine`` is, so a stack of draws holds the same bits
        (a stacked (S, d) @ rows would be one matrix product).
        """
        if coeff.ndim == 1:
            return self.combine(coeff)
        packed = (coeff[..., None, :] @ self.rows)[..., 0, :]
        return np.ascontiguousarray(self.unpack(packed))

    def unpacked(self) -> np.ndarray:
        """Every row as a full tensor, stacked; a fresh array the caller owns."""
        return self.unpack(self.rows)

    def unpacked_chunks(self) -> Iterator[np.ndarray]:
        """The unpacked rows, stacked in consecutive chunks of at most ``_CHUNK_BYTES``."""
        step = _per_chunk(8 * len(self.pk.index))
        for start in range(0, len(self.rows), step):
            yield self.unpack(self.rows[start : start + step])

    def entries(self, flat: np.ndarray) -> np.ndarray:
        """Entries of every unpacked row at the raveled indices ``flat``, rows first."""
        return self.rows[:, self.pk.index[flat]] * self.pk.coef[flat]


@lru_cache(maxsize=None)
def packing(n: int, groups: tuple[tuple[str, int], ...]) -> Packing:
    """Packing of the class given by consecutive (kind, size) slot groups.

    Groups of size 0 are dropped; the entries are read in C order, first
    group most significant.
    """
    rep, orbit, index, sign = (np.zeros(1, dtype=np.intp), np.ones(1),
                               np.zeros(1, dtype=np.intp), np.ones(1))
    valence = 0
    for kind, size in groups:
        if size < 0:
            raise ValueError(f"group size must be >= 0, got {size}")
        if size == 0:
            continue
        g_rep, g_orbit, g_index, g_sign = _group_table(n, kind, size)
        rep = np.add.outer(rep * n**size, g_rep).ravel()
        orbit = np.multiply.outer(orbit, g_orbit).ravel()
        index = np.add.outer(index * len(g_rep), g_index).ravel()
        sign = np.multiply.outer(sign, g_sign).ravel()
        valence += size
    weight = np.sqrt(orbit)
    table = Packing((n,) * valence, rep, weight, index, sign / weight[index])
    for array in (table.rep, table.weight, table.index, table.coef):
        array.flags.writeable = False
    return table


def image(
    apply: Callable[[np.ndarray], np.ndarray],
    pk: Packing,
    rank: int,
    residual: Callable[[np.ndarray], np.ndarray],
    bound: float,
) -> PackedRows:
    """``rank`` orthonormal rows spanning the image of a linear map.

    ``apply`` maps a batch of tensors of shape ``pk.shape`` (batch axis
    first) to their images in the class of ``pk``, one packed row each.
    The samples come from ``default_rng(0)``, so the rows are identical on
    every run; they are returned read-only in the packed coordinates of
    ``pk``.  Raises RuntimeError if the sampled images do not have
    numerical rank exactly ``rank``, or if ``residual`` of a stack of
    unpacked rows exceeds ``bound`` on any row (a NaN fails).
    """
    basis = PackedRows(_sampled_rows(apply, pk, rank), pk)
    res = np.concatenate([residual(stack) for stack in basis.unpacked_chunks()])
    if not np.all(res <= bound):
        raise RuntimeError(
            f"an image row fails its class check: residual {res.max():.3e} > {bound:.0e}"
        )
    return basis


def _sampled_rows(
    apply: Callable[[np.ndarray], np.ndarray], pk: Packing, rank: int
) -> np.ndarray:
    """``image``'s rows before their check; the samples and the SVD are freed on return."""
    rng = np.random.default_rng(0)
    count = rank + _OVERSAMPLE
    # the map runs on chunks of samples, so the samples are never held all
    # at once; the draws are those of a single call
    packed = np.empty((count, len(pk.rep)))
    step = _per_chunk(8 * len(pk.index))
    for start in range(0, count, step):
        samples = rng.standard_normal((min(step, count - start),) + pk.shape)
        packed[start : start + step] = apply(samples)
    _, s, vt = np.linalg.svd(packed, full_matrices=False)
    s = np.append(s, 0.0)  # s[rank] exists even if rank is the ambient dimension
    if numerical_rank(s) != rank:
        raise RuntimeError(
            f"image rank check failed: expected {rank}, singular ratios "
            f"{s[rank - 1] / s[0]:.3e} and {s[rank] / s[0]:.3e} around the cutoff {RTOL:.0e}"
        )
    rows = vt[:rank].copy()  # not a view: the oversampled rows are dropped
    rows.flags.writeable = False
    return rows


def numerical_rank(s: np.ndarray) -> int:
    """The count of singular values ``s`` above ``RTOL`` times the largest; every rank uses it."""
    return int(np.sum(s > RTOL * s.max(initial=0.0)))


def kernel(matrix: np.ndarray) -> np.ndarray:
    """Orthonormal rows v spanning the null space {v : matrix @ v = 0}."""
    return lstsq_factors(matrix)[2]


def lstsq_factors(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compact factors (ut, vs) of the pseudoinverse, and the kernel, from one SVD.

    With the singular triples above ``RTOL`` times the largest, ``ut`` is
    U_r^T and ``vs`` is V_r diag(1 / s_r), so ``vs @ (ut @ b)`` is the
    minimum-norm least-squares solution of ``matrix @ x = b``, equal to
    ``np.linalg.pinv(matrix, rcond=RTOL) @ b``.  The third factor holds the
    remaining right singular vectors, which span the null space.
    """
    u, s, vt = np.linalg.svd(matrix, full_matrices=matrix.shape[0] < matrix.shape[1])
    rank = numerical_rank(s)
    return np.ascontiguousarray(u[:, :rank].T), vt[:rank].T / s[:rank], vt[rank:]
