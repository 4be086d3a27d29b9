"""Young symmetrizer for the two-row shape (k+2, 2) and numeric bases of its image.

The operator acts on valence k+4 tensors stored derivative-first:
slots (d_1, ..., d_k, c_1, c_2, c_3, c_4).  The tableau is labelled
curvature-first: labels 1..4 are the curvature slots c_1..c_4 and labels
5..k+4 are the derivative slots d_1..d_k.  Row 1 holds labels {1,3,5,...,k+4},
row 2 holds {2,4}; the columns are {1,2} and {3,4}.  Row and column sums are
unnormalized group sums (no 1/|group| factors).

Every slot permutation here runs through a cached index plan, keyed by the
dimension, the valence and the slot groups, never by the batch length: the
row sums are the orbit sums of ``spaces._orbit_sums`` (one ``bincount``,
batch axis first), the column antisymmetrization is one signed gather of
those sums, weighted in place, and the C_k symmetry defects are one gather
of the permuted copies, one signed matrix product and one batched norm;
every C_k membership check reads them through ``_ck_residual``.  Every
image of the symmetrizer lies in the class Sym^k (x) L^2 (x) L^2
(``_ck_packing``); ``_packed_young`` gives the image in its packed
coordinates, gathering the orbit sums only at the packed representatives.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .spaces import (
    Space,
    Tensor,
    _check_slots,
    _in_blocks,
    _norm,
    _normal_draws,
    _orbit_plan,
    _orbit_sums,
    memoized,
)
from .subspace import Packing, PackedRows, image, packing

__all__ = [
    "young_apply",
    "tableau_apply",
    "young_eigenvalue",
    "hook_content_dim",
    "is_member_Ck",
    "ck_residuals",
    "basis_Ck",
    "random_ck",
]


@lru_cache(maxsize=None)
def _tableau_plan(
    n: int, valence: int, row1: tuple[int, ...], row2: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Orbit ids and weights of the row group, and the signed column table.

    Row s of ``table`` reads, for every entry, the orbit id of the entry
    with the columns of the set bits of s swapped; ``signs[s]`` is
    (-1)^(number of set bits).
    """
    ids, weight = _orbit_plan(n, valence, (row1, row2))
    swapped = [np.arange(n**valence).reshape((n,) * valence)]
    for i, j in zip(row1, row2):
        swapped += [t.swapaxes(i, j) for t in swapped]
    table = ids[np.array([t.ravel() for t in swapped])]
    signs = np.array([(-1.0) ** bin(s).count("1") for s in range(len(swapped))])
    table.flags.writeable = signs.flags.writeable = False
    return ids, weight, table, signs


def tableau_sum(data: np.ndarray, row1, row2, lead: int = 0) -> np.ndarray:
    """Apply the unnormalized two-row tableau symmetrizer on the given axes.

    ``data`` holds tensors on its trailing axes after ``lead`` batch axes;
    the rows list 0-based axes of the tensor.  Rows are summed first, then
    the columns (the leading pairs of (row1, row2)) are antisymmetrized;
    this order gives the eigenvalue 12 on g KN g at k=0.  The row sums are
    weighted orbit sums (one ``bincount``) and the column antisymmetrization
    is one signed gather of them over the 2^c swap patterns of c columns.
    """
    row1, row2 = tuple(int(a) for a in row1), tuple(int(a) for a in row2)
    ids, weight, table, signs = _tableau_plan(data.shape[-1], data.ndim - lead, row1, row2)
    # a batch goes in blocks: each tensor takes its orbit ids, sums and signed terms
    item_bytes = 8 * (len(signs) + 2) * len(ids)
    blocks = _in_blocks(lambda d: tableau_sum(d, row1, row2, 1), (data,), lead, item_bytes)
    if blocks is not None:
        return blocks
    # one signs @ terms product per tensor, as a lone tensor takes it
    terms = np.take(_orbit_sums(data, ids) * weight, table, axis=-1)
    return (signs @ terms).reshape(data.shape)


def _label_axes(k: int) -> tuple[list[int], list[int]]:
    """Axes for the (k+2,2) tableau under the label/storage dictionary."""
    # label l in 1..4 -> storage axis k+l-1; label l >= 5 -> axis l-5
    row1 = [k, k + 2] + list(range(k))
    row2 = [k + 1, k + 3]
    return row1, row2


def _ck_packing(n: int, k: int) -> Packing:
    """Packing of Sym^k (x) L^2 (x) L^2, the class of every (k+2, 2) symmetrizer image.

    The derivative slots lie in row 1 alone, so the row sums leave them
    symmetric; the column antisymmetrization makes each curvature pair
    antisymmetric.
    """
    return packing(n, (("sym", k), ("alt", 2), ("alt", 2)))


@lru_cache(maxsize=None)
def _packed_young_plan(n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``_tableau_plan`` of the (k+2, 2) symmetrizer with its column table read at ``pk.rep``."""
    row1, row2 = _label_axes(k)
    ids, weight, table, signs = _tableau_plan(n, k + 4, tuple(row1), tuple(row2))
    at_rep = np.ascontiguousarray(table[:, _ck_packing(n, k).rep])
    at_rep.flags.writeable = False
    return ids, weight, at_rep, signs


def _packed_young(sums: np.ndarray, n: int, k: int) -> np.ndarray:
    """Young symmetrizer of shape (k+2, 2) in the packed coordinates of ``_ck_packing``.

    ``sums`` holds, for each tensor of a batch (batch axis first), the plain
    sum of its entries over each orbit of the row group, indexed by the
    orbit ids of ``_packed_young_plan`` (one ``bincount``).  The weighted
    sums are read through the signed column table only at the P packed
    representatives (360 of 4096 entries at n=4, k=2); the result has shape
    (rows, P).  Packing is an isometry, so norms and inner products of
    images can be read off the packed rows.  A tensor with a non-finite
    orbit sum (a NaN or inf entry) gets an all-NaN image: some row orbits,
    such as that of an entry with all indices equal, are read only at
    forced zeros, which the packed image skips.
    """
    _, weight, at_rep, signs = _packed_young_plan(n, k)
    packed = (signs @ np.take(sums * weight, at_rep, axis=1)) * _ck_packing(n, k).weight
    packed[~np.isfinite(sums).all(axis=1)] = np.nan
    return packed


def _ck_images(batch: np.ndarray, k: int) -> np.ndarray:
    """``pack`` of ``_young`` of each tensor of a batch (axis 0), bit for bit, via orbit sums."""
    ids = _packed_young_plan(batch.shape[-1], k)[0]
    return _packed_young(_orbit_sums(batch, ids), batch.shape[-1], k)


def young_apply(t: Tensor, k: int) -> Tensor:
    """Young symmetrizer of shape (k+2, 2) on a valence k+4 tensor."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if t.valence != k + 4:
        raise ValueError(f"need valence {k + 4} for k={k}, got {t.valence}")
    return Tensor(t.space, _young(t.data, k))


def _young(t: np.ndarray, k: int, lead: int = 0) -> np.ndarray:
    """``young_apply`` of shape (k + 2, 2) on each tensor of t after ``lead`` axes."""
    return tableau_sum(t, *_label_axes(k), lead=lead)


def tableau_apply(t: Tensor, row1_slots, row2_slots) -> Tensor:
    """Tableau symmetrizer with explicit 1-based slot lists (slots = axes+1).

    ValueError unless the slots are distinct slots of t and row 2 is no longer than row 1.
    """
    row1, row2 = list(row1_slots), list(row2_slots)
    if len(row2) > len(row1):
        raise ValueError(f"second row {row2} is longer than the first {row1}")
    axes = [s - 1 for s in _check_slots(t.valence, row1 + row2)]
    return Tensor(t.space, tableau_sum(t.data, axes[: len(row1)], axes[len(row1) :]))


def young_eigenvalue(k: int) -> float:
    """Scale by which the shape (k+2,2) symmetrizer acts on its own image.

    It equals the hook product of the shape.
    """
    return 2.0 * (k + 3) * (k + 2) * math.factorial(k)


def hook_content_dim(n: int, k: int) -> int:
    """Dimension of C_k, the GL(n) irreducible of shape (k+2, 2).

    Hook-content formula: the content product n(n-1) * prod_{c=0}^{k+1} (n+c)
    over the hook product young_eigenvalue(k).
    """
    contents = n * (n - 1) * math.prod(n + c for c in range(k + 2))
    return contents // int(young_eigenvalue(k))


@lru_cache(maxsize=None)
def _defect_plan(n: int, k: int) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Names, permuted-copy gather table and signed combination of the C_k defects.

    On a valence k+4 tensor d (derivative slots first, curvature slot 1 at
    axis c = k), row t of ``table`` gathers the t-th distinct permuted copy
    of d (the identity first), and defect i is ``signs[i] @ copies``.
    """
    if k not in (0, 1, 2):
        raise NotImplementedError(f"k={k} not supported (need 0, 1 or 2)")
    v, c = k + 4, k

    def perm(images: dict[int, int]) -> tuple[int, ...]:
        # the copy reads source axis images[axis] at each listed axis
        return tuple(images.get(axis, axis) for axis in range(v))

    d = perm({})
    defects = {
        "antisym_12": {d: 1.0, perm({c: c + 1, c + 1: c}): 1.0},
        "antisym_34": {d: 1.0, perm({c + 2: c + 3, c + 3: c + 2}): 1.0},
        "pair_symmetry": {d: 1.0, perm({c: c + 2, c + 1: c + 3, c + 2: c, c + 3: c + 1}): -1.0},
        # first Bianchi: cyclic images over curvature slots (2, 3, 4)
        "first_bianchi": {
            d: 1.0,
            perm({c + 1: c + 2, c + 2: c + 3, c + 3: c + 1}): 1.0,
            perm({c + 1: c + 3, c + 2: c + 1, c + 3: c + 2}): 1.0,
        },
    }
    if k >= 1:
        # second Bianchi: cyclic images over (last derivative slot, c_1, c_2)
        a = c - 1
        defects["second_bianchi"] = {
            d: 1.0,
            perm({a: c, c: c + 1, c + 1: a}): 1.0,
            perm({a: c + 1, c: a, c + 1: c}): 1.0,
        }
    if k == 2:
        defects["derivative_symmetry"] = {d: 0.5, perm({0: 1, 1: 0}): -0.5}
    copies = list(dict.fromkeys(p for terms in defects.values() for p in terms))
    signs = np.array([[terms.get(p, 0.0) for p in copies] for terms in defects.values()])
    flat = np.arange(n**v).reshape((n,) * v)
    table = np.array([flat.transpose(p).ravel() for p in copies])
    table.flags.writeable = signs.flags.writeable = False
    return tuple(defects), table, signs


def _ck_defect_norms(d: np.ndarray, k: int) -> np.ndarray:
    """Norms of the C_k symmetry defects of each valence k + 4 slice of d, defect first.

    One gather of the permuted copies of every slice, one signed matrix
    product and one batched norm; a NaN or inf stays in its own slice.  The
    slices go in blocks whose permuted copies take about ``_CHUNK_BYTES``.
    """
    table, signs = _defect_plan(d.shape[-1], k)[1:]
    flat = d.reshape(-1, table.shape[1])

    def slice_norms(block: np.ndarray) -> np.ndarray:
        # per slice: the same gather, matrix product and norm as a lone tensor
        defects = signs @ np.take(block, table, axis=1)
        return np.sqrt(np.einsum("bdi,bdi->db", defects, defects)).T

    norms = _in_blocks(slice_norms, (flat,), 1, 8 * table.size)
    return (slice_norms(flat) if norms is None else norms).T


def _ck_residual(t: np.ndarray, k: int, lead: int) -> np.ndarray:
    """Largest C_k residual over the slices and symmetries of each tensor after ``lead`` axes.

    Each is relative to max(|t|, 1), and NaN if any of its residuals is.
    """
    norms = _ck_defect_norms(t, k)
    worst = norms.reshape(norms.shape[:1] + t.shape[:lead] + (-1,)).max(axis=(0, -1))
    return worst / np.maximum(_norm(t, lead), 1.0)


def ck_residuals(t: Tensor, k: int) -> dict[str, float | np.ndarray]:
    """Absolute residuals of the defining symmetries of C_k, keyed by name.

    A tensor of valence k + 4 + b is read as a batch of C_k candidates over
    its b leading axes: each residual is then an array of shape (n,) * b
    holding the norm of every slice, and a float when b is 0.
    """
    names = _defect_plan(t.space.dim, k)[0]  # NotImplementedError for another k
    if t.valence < k + 4:
        raise ValueError(f"need valence {k + 4} for k={k}, got {t.valence}")
    b = t.valence - (k + 4)  # batch axes
    res = dict(zip(names, _ck_defect_norms(t.data, k).reshape((-1,) + t.data.shape[:b])))
    return res if b else {name: float(v) for name, v in res.items()}


def is_member_Ck(t: Tensor, k: int, tol: float = 1e-9) -> bool:
    """Check membership in the curvature space C_k by its defining symmetries.

    C_0: pair-antisymmetric, pair-symmetric, first Bianchi.
    C_1: trailing four slots in C_0, plus the differential Bianchi cycle.
    C_2: symmetric derivative pair, each contraction in C_1.
    """
    if t.valence != k + 4:
        raise ValueError(f"need valence {k + 4} for k={k}, got {t.valence}")
    return bool(_ck_residual(t.data, k, 0) <= tol)


# Hard cap on the ambient dimension n**(k+4) of the projection problem.
_BASIS_AMBIENT_LIMIT = 100_000


@lru_cache(maxsize=None)
def _ck_stack(n: int, k: int) -> PackedRows:
    """Orthonormal basis of C_k in packed coordinates; C_k uses no metric, so n keys it."""
    if k not in (0, 1, 2):
        raise NotImplementedError(f"k={k} not supported (need 0, 1 or 2)")
    v = k + 4
    if n**v > _BASIS_AMBIENT_LIMIT:
        raise RuntimeError(f"basis_Ck ambient dimension {n**v} exceeds the supported limit")
    # each row passes the membership test of is_member_Ck(tol=1e-7)
    return image(
        lambda batch: _ck_images(batch, k),
        _ck_packing(n, k),
        hook_content_dim(n, k),
        lambda stack: _ck_residual(stack, k, 1),
        1e-7,
    )


def basis_Ck(space: Space, k: int) -> list[Tensor]:
    """Orthonormal numeric basis of C_k, the image of the Young symmetrizer.

    The symmetrizer is applied to dim C_k + 8 seeded Gaussian tensors and
    one SVD of the images, in the packed coordinates of Sym^k (x) L^2 (x)
    L^2, gives the basis; the numerical rank must equal the hook-content
    dimension, or RuntimeError is raised.  Every basis vector is checked
    against the defining symmetries.  The basis is cached packed per
    (n, k) for every signature and is identical on every run.
    """
    return [Tensor(space, b) for b in _ck_stack(space.dim, k).unpacked()]


def _ck_draws(n: int, k: int, seeds) -> np.ndarray:
    """Random elements of C_k: normal coefficients against the cached basis.

    One seed gives one tensor; a tuple of seeds stacks theirs on a leading
    axis (see ``spaces._normal_draws`` and ``PackedRows.combine_each``).
    """
    basis = _ck_stack(n, k)
    return basis.combine_each(_normal_draws(seeds, len(basis))[0])


@memoized
def _ck_chunk(space: Space, k: int, seeds: tuple[int, ...]) -> np.ndarray:
    """``_ck_draws`` of one chunk of seeds, shared in a run scope."""
    return _ck_draws(space.dim, k, seeds)


def random_ck(space: Space, k: int, seed: int) -> Tensor:
    """Random element of C_k: normal coefficients against the cached basis."""
    return Tensor(space, _ck_draws(space.dim, k, seed))
