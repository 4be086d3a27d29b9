"""Young symmetrizer for the two-row shape (k+2, 2) and numeric bases of its image.

The operator acts on valence k+4 tensors stored derivative-first:
slots (d_1, ..., d_k, c_1, c_2, c_3, c_4).  The tableau is labelled
curvature-first: labels 1..4 are the curvature slots c_1..c_4 and labels
5..k+4 are the derivative slots d_1..d_k.  Row 1 holds labels {1,3,5,...,k+4},
row 2 holds {2,4}; the columns are {1,2} and {3,4}.  Row and column sums are
unnormalized group sums (no 1/|group| factors).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .spaces import Space, Tensor, _group_sum, memoized
from .subspace import PackedRows, image, packing

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


def _alt_sum(data: np.ndarray, i: int, j: int) -> np.ndarray:
    return data - np.swapaxes(data, i, j)


def tableau_sum(data: np.ndarray, row1: list[int], row2: list[int]) -> np.ndarray:
    """Apply the unnormalized two-row tableau symmetrizer on the given axes.

    Rows are summed first, then the columns (the leading pairs of (row1,
    row2)) are antisymmetrized; this order gives the eigenvalue 12 on
    g KN g at k=0.
    """
    out = _group_sum(data, row1)
    out = _group_sum(out, row2)
    for i, j in zip(row1, row2):
        out = _alt_sum(out, i, j)
    return out


def _label_axes(k: int) -> tuple[list[int], list[int]]:
    """Axes for the (k+2,2) tableau under the label/storage dictionary."""
    # label l in 1..4 -> storage axis k+l-1; label l >= 5 -> axis l-5
    row1 = [k, k + 2] + list(range(k))
    row2 = [k + 1, k + 3]
    return row1, row2


def young_apply(t: Tensor, k: int) -> Tensor:
    """Young symmetrizer of shape (k+2, 2) on a valence k+4 tensor."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if t.valence != k + 4:
        raise ValueError(f"need valence {k + 4} for k={k}, got {t.valence}")
    row1, row2 = _label_axes(k)
    return Tensor(t.space, tableau_sum(t.data, row1, row2))


def tableau_apply(t: Tensor, row1_slots, row2_slots) -> Tensor:
    """Tableau symmetrizer with explicit 1-based slot lists (slots = axes+1)."""
    r1 = [s - 1 for s in row1_slots]
    r2 = [s - 1 for s in row2_slots]
    return Tensor(t.space, tableau_sum(t.data, r1, r2))


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


def _second_bianchi_cycle(d: np.ndarray, a: int, c: int) -> np.ndarray:
    """d plus its two cyclic images over axes (a, c, c+1)."""
    v = d.ndim
    ax = list(range(v))
    ax1 = list(ax)
    ax1[a], ax1[c], ax1[c + 1] = ax[c], ax[c + 1], ax[a]
    ax2 = list(ax)
    ax2[a], ax2[c], ax2[c + 1] = ax[c + 1], ax[a], ax[c]
    return d + np.transpose(d, ax1) + np.transpose(d, ax2)


def _ck_defects(d: np.ndarray, k: int, b: int) -> dict[str, np.ndarray]:
    """Norms of the C_k symmetry defects of each slice over the b leading axes of d."""
    lead = list(range(b + k))
    c = b + k  # axis of curvature slot 1

    def norms(x: np.ndarray) -> np.ndarray:
        flat = x.reshape(x.shape[:b] + (-1,))
        # one fused pass per slice; NaN and inf propagate as in np.linalg.norm
        return np.sqrt(np.einsum("...i,...i->...", flat, flat))

    res = {
        "antisym_12": norms(d + np.swapaxes(d, c, c + 1)),
        "antisym_34": norms(d + np.swapaxes(d, c + 2, c + 3)),
        "pair_symmetry": norms(d - np.transpose(d, lead + [c + 2, c + 3, c, c + 1])),
        # first Bianchi: cyclic sum over curvature slots (2,3,4)
        "first_bianchi": norms(
            d
            + np.transpose(d, lead + [c, c + 2, c + 3, c + 1])
            + np.transpose(d, lead + [c, c + 3, c + 1, c + 2])
        ),
    }
    if k >= 1:
        # second Bianchi: cyclic sum over (last derivative slot, c_1, c_2)
        res["second_bianchi"] = norms(_second_bianchi_cycle(d, c - 1, c))
    if k == 2:
        res["derivative_symmetry"] = norms(d - 0.5 * (d + np.swapaxes(d, b, b + 1)))
    return res


def ck_residuals(t: Tensor, k: int) -> dict[str, float | np.ndarray]:
    """Absolute residuals of the defining symmetries of C_k, keyed by name.

    A tensor of valence k + 4 + b is read as a batch of C_k candidates over
    its b leading axes: each residual is then an array of shape (n,) * b
    holding the norm of every slice, and a float when b is 0.
    """
    if k not in (0, 1, 2):
        raise NotImplementedError(f"k={k} not supported (need 0, 1 or 2)")
    if t.valence < k + 4:
        raise ValueError(f"need valence {k + 4} for k={k}, got {t.valence}")
    b = t.valence - (k + 4)  # batch axes
    res = _ck_defects(t.data, k, b)
    return res if b else {name: float(v) for name, v in res.items()}


def is_member_Ck(t: Tensor, k: int, tol: float = 1e-9) -> bool:
    """Check membership in the curvature space C_k by its defining symmetries.

    C_0: pair-antisymmetric, pair-symmetric, first Bianchi.
    C_1: trailing four slots in C_0, plus the differential Bianchi cycle.
    C_2: symmetric derivative pair, each contraction in C_1.
    """
    if t.valence != k + 4:
        raise ValueError(f"need valence {k + 4} for k={k}, got {t.valence}")
    scale = max(t.norm(), 1.0)
    res = ck_residuals(t, k)
    return all(v <= tol * scale for v in res.values())


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
    row1, row2 = _label_axes(k)
    # batched symmetrizer: same tableau on axes shifted by the batch axis; its
    # images are symmetric in the derivative slots and antisymmetric in each
    # curvature pair, so they are packed as Sym^k (x) L^2 (x) L^2
    basis = image(
        lambda batch: tableau_sum(batch, [a + 1 for a in row1], [a + 1 for a in row2]),
        packing(n, (("sym", k), ("alt", 2), ("alt", 2))),
        hook_content_dim(n, k),
    )
    # the membership test of is_member_Ck(tol=1e-7), on a chunk of vectors at once
    for stack in basis.unpacked_chunks():
        scale = np.maximum(np.linalg.norm(stack.reshape(len(stack), -1), axis=1), 1.0)
        if not all(np.all(v <= 1e-7 * scale) for v in _ck_defects(stack, k, 1).values()):
            raise RuntimeError("projected basis vector fails the symmetry checks")
    return basis


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


@memoized
def random_ck(space: Space, k: int, seed: int) -> Tensor:
    """Random element of C_k: normal coefficients against the cached basis."""
    basis = _ck_stack(space.dim, k)
    coeff = np.random.default_rng(seed).standard_normal(len(basis))
    return Tensor(space, basis.combine(coeff))
