"""Subspace engine: seeded images with a hard rank check, null spaces,
and the packed coordinates of symmetry classes."""

import itertools
import math

import numpy as np
import pytest

from curvjet.curvature import _nk_images, _nk_stack, nk_basis
from curvjet.jets import (
    _extension_solver,
    _h_solver,
    _hess_kernel_stack,
    _parallel_ricci_dirs,
    random_two_jet,
)
from curvjet.spaces import Space, _group_sum
from curvjet.subspace import RTOL, PackedRows, image, kernel, numerical_rank, packing
from curvjet.young import _ck_stack, _label_axes, basis_Ck, hook_content_dim, tableau_sum


def _vectors(n: int):
    """The trivial packing of R^n: one single-slot group."""
    return packing(n, (("sym", 1),))


def _coordinate_projector(r: int):
    def apply(batch):
        out = np.zeros_like(batch)
        out[:, :r] = batch[:, :r]
        return out

    return apply


def _beyond(r: int):
    """The residual kernel of the first r coordinates: each row's norm past them."""
    return lambda stack: np.linalg.norm(stack[:, r:], axis=1)


def test_image_spans_the_range():
    rows = image(_coordinate_projector(3), _vectors(7), 3, _beyond(3), 1e-12).unpacked()
    assert rows.shape == (3, 7)
    assert np.allclose(rows @ rows.T, np.eye(3), atol=1e-12)
    assert np.linalg.norm(rows[:, 3:]) < 1e-12


def test_image_is_reproducible():
    a = image(_coordinate_projector(4), _vectors(9), 4, _beyond(4), 1e-12)
    b = image(_coordinate_projector(4), _vectors(9), 4, _beyond(4), 1e-12)
    assert np.array_equal(a.rows, b.rows)


@pytest.mark.parametrize("claimed", [2, 4])
def test_image_rejects_a_wrong_rank(claimed):
    with pytest.raises(RuntimeError, match="rank check failed"):
        image(_coordinate_projector(3), _vectors(7), claimed, _beyond(3), 1e-12)


def test_image_of_the_identity_fills_the_space():
    rows = image(lambda batch: batch, _vectors(5), 5, _beyond(5), 0.0).unpacked()
    assert np.allclose(rows @ rows.T, np.eye(5), atol=1e-12)


def test_image_rejects_a_row_that_fails_the_residual_kernel():
    # the image of the first 3 coordinates checked against the first 2 names its worst row
    rows = image(_coordinate_projector(3), _vectors(7), 3, _beyond(3), 1e-12).unpacked()
    worst = _beyond(2)(rows).max()
    with pytest.raises(RuntimeError, match=f"class check: residual {worst:.3e} > 1e-12"):
        image(_coordinate_projector(3), _vectors(7), 3, _beyond(2), 1e-12)
    with pytest.raises(RuntimeError, match="class check: residual nan"):
        image(_coordinate_projector(3), _vectors(7), 3, lambda s: np.full(len(s), np.nan), 1.0)


def test_numerical_rank_is_relative():
    M = np.random.default_rng(2).standard_normal((6, 4)) @ np.diag([1.0, 1.0, 1.0, 0.0])
    s = np.linalg.svd(M, compute_uv=False)
    assert numerical_rank(s) == numerical_rank(np.linalg.svd(1e-12 * M, compute_uv=False)) == 3
    assert numerical_rank(np.zeros(3)) == 0


def test_kernel_of_a_known_matrix():
    M = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    null = kernel(M)
    assert null.shape == (1, 3)
    assert np.linalg.norm(M @ null.T) < 1e-14
    assert np.isclose(abs(null[0] @ np.array([1.0, -1.0, 0.0])) ** 2, 2.0)


def test_kernel_of_zero_is_everything():
    assert kernel(np.zeros((2, 4))).shape == (4, 4)


def test_hess_kernel_matches_reference_svd():
    """Same null space as a direct full SVD of the second-Ricci system."""
    sp = Space(4)
    basis = basis_Ck(sp, 2)
    cols = np.array([(-np.einsum("abuivi,i->abuv", b.data, sp.eps)).ravel() for b in basis]).T
    s = np.linalg.svd(cols, compute_uv=False)
    nullity = len(basis) - int(np.sum(s > RTOL * s[0]))
    stack = _hess_kernel_stack(sp).unpacked()
    assert len(stack) == nullity > 0
    hess = -np.einsum("kabuivi,i->kabuv", stack, sp.eps)
    assert np.linalg.norm(hess) < 1e-10
    flat = stack.reshape(len(stack), -1)
    assert np.allclose(flat @ flat.T, np.eye(len(stack)), atol=1e-10)


# the slot-group patterns the bases and solvers are packed in
PATTERNS = {
    "C_0": (("sym", 0), ("alt", 2), ("alt", 2)),
    "C_1": (("sym", 1), ("alt", 2), ("alt", 2)),
    "C_2": (("sym", 2), ("alt", 2), ("alt", 2)),
    "N_2": (("sym", 2), ("sym", 2)),
    "N_4": (("sym", 4), ("sym", 2)),
    "cycle": (("sym", 1), ("alt", 3), ("alt", 2)),
}


def _project(x: np.ndarray, groups) -> np.ndarray:
    """Average of x over every signed permutation within each slot group."""
    start = 0
    for kind, size in groups:
        slots = list(range(start, start + size))
        total = np.zeros_like(x)
        for perm in itertools.permutations(range(size)):
            axes = list(range(x.ndim))
            for slot, p in zip(slots, perm):
                axes[slot] = start + p
            inversions = sum(perm[i] > perm[j] for i in range(size) for j in range(i + 1, size))
            sign = (-1) ** inversions if kind == "alt" else 1
            total += sign * np.transpose(x, axes)
        x = total / math.factorial(size)
        start += size
    return x


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_packing_round_trip_is_isometric(name, n):
    groups = PATTERNS[name]
    pk = packing(n, groups)
    member = _project(np.random.default_rng(1).standard_normal(pk.shape), groups).ravel()
    packed = pk.pack(member)
    assert packed.shape == pk.rep.shape
    assert np.allclose(pk.unpack(packed), member, rtol=0, atol=1e-14)
    assert np.isclose(np.linalg.norm(packed), np.linalg.norm(member), rtol=1e-14)


@pytest.mark.parametrize(
    "n, name, size",
    [(4, "C_2", 360), (5, "C_2", 1500), (4, "N_4", 350), (4, "cycle", 96), (5, "cycle", 500)],
)
def test_packed_dimensions(n, name, size):
    assert len(packing(n, PATTERNS[name]).rep) == size


def test_image_rejects_images_outside_the_class():
    # a map that packs full images checks their class with pack_checked
    pk = packing(3, (("sym", 2),))
    with pytest.raises(RuntimeError, match="symmetry class"):
        image(lambda batch: pk.pack_checked(batch.reshape(len(batch), -1)), pk, 6, _beyond(9), 0.0)


def test_pack_checked_checks_each_row_against_its_own_norm():
    # a large antisymmetric row and a small symmetric one: the joint gap is
    # 1e-12 of the joint norm, but the small row leaves the class entirely
    pk = packing(3, (("alt", 2),))
    member = np.array([[0.0, 1, 2], [-1, 0, 3], [-2, -3, 0]]).ravel() * 1e6
    outside = np.eye(3).ravel() * 1e-6
    batch = np.stack([member, outside])
    assert np.linalg.norm(pk.unpack(pk.pack(batch)) - batch) <= RTOL * np.linalg.norm(batch)
    assert np.array_equal(pk.pack_checked(batch[:1]), pk.pack(batch[:1]))
    with pytest.raises(RuntimeError, match="symmetry class"):
        pk.pack_checked(batch)
    # a zero row is measured against 1, and a NaN fails
    assert np.array_equal(pk.pack_checked(np.zeros((2, 9))), np.zeros((2, 3)))
    with pytest.raises(RuntimeError, match="symmetry class"):
        pk.pack_checked(np.stack([member, np.full(9, np.nan)]))


def _full_image(apply, shape, rank) -> np.ndarray:
    """Rows from an SVD of the unpacked images, on the samples ``image`` draws."""
    samples = np.random.default_rng(0).standard_normal((rank + 8,) + shape)
    return np.linalg.svd(apply(samples).reshape(len(samples), -1), full_matrices=False)[2][:rank]


def _projector_gap(a: np.ndarray, b: np.ndarray) -> float:
    a, b = a.reshape(len(a), -1), b.reshape(len(b), -1)
    return float(np.abs(a.T @ a - b.T @ b).max())


def test_packed_c2_spans_the_full_image():
    sp = Space(3)
    row1, row2 = _label_axes(2)
    full = _full_image(
        lambda batch: tableau_sum(batch, row1, row2, lead=1),
        (3,) * 6,
        hook_content_dim(3, 2),
    )
    assert _projector_gap(_ck_stack(sp.dim, 2).unpacked(), full) <= 1e-12


def test_packed_n4_spans_the_full_image():
    sp = Space(3)
    sym, bi = [0, 1, 2, 3], [4, 5]
    full = _full_image(
        lambda batch: _group_sum(tableau_sum(batch, sym, bi, lead=1), (sym, bi), lead=1),
        (3,) * 6,
        hook_content_dim(3, 2),
    )
    assert _projector_gap(_nk_stack(sp.dim, 4).unpacked(), full) <= 1e-12


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_packed_nk_images_are_the_packed_full_images_bit_for_bit(n, m):
    # the basis build maps Gaussian draws through _nk_images; packing the
    # full images P A P gives the same bits, so the cached bases are unchanged
    sym, bi = tuple(range(m)), (m, m + 1)
    draws = np.random.default_rng(0).standard_normal((3,) + (n,) * (m + 2))
    full = _group_sum(tableau_sum(draws, sym, bi, lead=1), (sym, bi), lead=1)
    pk = packing(n, (("sym", m), ("sym", 2)))
    assert np.array_equal(_nk_images(draws, m), pk.pack(full.reshape(len(draws), -1)))


def test_nk_basis_is_reproducible():
    """The cached N_4 basis is rebuilt bit for bit from the fixed sample seed."""
    sp = Space(4)
    first = _nk_stack(sp.dim, 4).unpacked()
    _nk_stack.cache_clear()
    assert np.array_equal(first, _nk_stack(sp.dim, 4).unpacked())


@pytest.mark.parametrize(
    "builder, use",
    [
        (_ck_stack, lambda sp: basis_Ck(sp, 1)),
        (_nk_stack, lambda sp: nk_basis(sp, 3)),
        (_h_solver, lambda sp: random_two_jet(sp, 0)),
    ],
    ids=["ck", "nk", "h_solver"],
)
def test_signatures_share_the_cached_basis(builder, use):
    # C_k, N_m and the Bianchi-cycle system use no metric: a second
    # signature in the same dimension reads the basis the first one built
    use(Space(4))
    misses = builder.cache_info().misses
    use(Space(4, (-1, 1, 1, 1)))
    assert builder.cache_info().misses == misses


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize(
    "builder, degree", [(_ck_stack, 0), (_ck_stack, 1), (_ck_stack, 2), (_nk_stack, 4)],
    ids=["C_0", "C_1", "C_2", "N_4"],
)
def test_combine_matches_the_unpacked_stack(builder, degree, n):
    basis = builder(n, degree)
    stack = basis.unpacked()
    rng = np.random.default_rng(5)
    for shape in ((len(basis),), (2, 3, len(basis))):  # one draw and a batch of them
        coeff = rng.standard_normal(shape)
        expect = np.tensordot(coeff, stack, (len(shape) - 1, 0))
        got = basis.combine(coeff)
        assert got.shape == expect.shape
        assert np.linalg.norm(got - expect) <= 1e-14 * np.linalg.norm(expect)


def test_unpacked_chunks_cover_every_row_once():
    # 20 rows of 16^4 entries are 10 MB unpacked: more than one chunk
    pk = packing(16, (("sym", 1),) * 4)
    basis = PackedRows(np.random.default_rng(2).standard_normal((20, len(pk.rep))), pk)
    chunks = list(basis.unpacked_chunks())
    assert len(chunks) > 1
    assert np.array_equal(np.concatenate(chunks), basis.unpacked())


def test_cached_bases_and_solvers_stay_packed():
    # no cache holds a full-coordinate row of n^(k+4) entries: every basis
    # and solver factor keeps the packed width of its symmetry class
    n, sp = 4, Space(4, (-1, 1, 1, 1))
    assert _ck_stack(n, 2).rows.shape == (126, 360)
    for k in (0, 1, 2):
        width = len(packing(n, PATTERNS[f"C_{k}"]).rep)
        assert _ck_stack(n, k).rows.shape == (hook_content_dim(n, k), width)
        assert width < n ** (k + 4)
    for m in (2, 3, 4):
        assert _nk_stack(n, m).rows.shape[1] == len(packing(n, (("sym", m), ("sym", 2))).rep)
        assert _nk_stack(n, m).rows.shape[1] < n ** (m + 2)
    ut, vs, pairs, pk = _h_solver(n)
    assert ut.shape[1] == len(pk.rep) == 96
    directions, system, ut, vs, free = _extension_solver(sp)
    assert directions.rows.shape[1] == free.rows.shape[1] == 360
    assert all(n**6 not in a.shape for a in (system, ut, vs))
    assert _parallel_ricci_dirs(sp).rows.shape[1] == len(packing(n, PATTERNS["C_1"]).rep)
