"""Tableau symmetrizer: calibration, eigenvalues, membership, numeric bases."""

import numpy as np
import pytest

from curvjet.curvature import jacobi_form, kn_pair, kulkarni
from curvjet.spaces import Space, Tensor, random_tensor, sym_product, tensor_product
from curvjet.young import (
    _ck_images,
    _ck_packing,
    _ck_stack,
    _label_axes,
    _packed_young,
    _packed_young_plan,
    basis_Ck,
    ck_residuals,
    hook_content_dim,
    is_member_Ck,
    random_ck,
    tableau_sum,
    young_apply,
    young_eigenvalue,
)

E3 = Space(3)
E4 = Space(4)


def rel(a: Tensor, b: Tensor) -> float:
    return (a - b).norm() / max(a.norm(), b.norm(), 1.0)


def test_eigenvalue_constants():
    assert young_eigenvalue(0) == 12.0
    assert young_eigenvalue(1) == 24.0
    assert young_eigenvalue(2) == 80.0


def test_zero_maps_to_zero():
    z = Tensor(E3, np.zeros((3,) * 4))
    assert young_apply(z, 0).norm() == 0.0


def test_wrong_valence_rejected():
    with pytest.raises(ValueError):
        young_apply(random_tensor(E3, 4, 0), 1)


def test_calibration_constant_curvature():
    """The shipped composition order gives factor 12 on g kn g at k=0."""
    for sp in (E3, E4, Space(4, (1, 1, 1, -1))):
        g = sp.metric_tensor()
        gg = kn_pair(g, g)
        assert rel(young_apply(gg, 0), 12.0 * gg) < 1e-13


def test_quasi_idempotent_k0():
    for seed in range(5):
        t = random_tensor(E4, 4, seed)
        once = young_apply(t, 0)
        twice = young_apply(once, 0)
        assert rel(twice, 12.0 * once) < 1e-12


@pytest.mark.parametrize("sp", [E3, E4])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_eigenvalue_on_members(sp, k):
    lam = young_eigenvalue(k)
    for seed in range(10):
        t = random_ck(sp, k, seed)
        assert rel(young_apply(t, k), lam * t) < 1e-10


@pytest.mark.parametrize("k", [0, 1, 2])
def test_image_passes_membership(k):
    for seed in range(5):
        t = random_tensor(E3, k + 4, 100 + seed)
        y = young_apply(t, k)
        assert is_member_Ck(y, k, tol=1e-9)


def test_unprojected_random_fails_membership():
    hits = sum(
        is_member_Ck(random_tensor(E3, 4, s), 0, tol=1e-9) for s in range(100)
    )
    assert hits == 0


def test_members_are_fixed_up_to_factor():
    # membership predicate and projector image agree in both directions
    for k in (0, 1, 2):
        t = random_ck(E3, k, 7)
        assert rel(young_apply(t, k), young_eigenvalue(k) * t) < 1e-10


def test_residual_report_keys():
    t = random_ck(E3, 1, 3)
    res = ck_residuals(t, 1)
    assert set(res) >= {"antisym_12", "antisym_34", "pair_symmetry", "first_bianchi"}
    assert all(v < 1e-10 for v in res.values())


def test_second_bianchi_detects_violation():
    # a C_0 tensor padded with a derivative slot generically breaks the
    # derivative-cycle condition while keeping the pointwise ones
    R = random_ck(E3, 0, 11)
    vec = random_tensor(E3, 1, 12)
    padded = tensor_product(vec, R)
    res = ck_residuals(padded, 1)
    assert res["antisym_12"] < 1e-12
    assert res["second_bianchi"] > 1e-3


@pytest.mark.parametrize(
    "n,k,expected",
    [
        (2, 0, 1),
        (3, 0, 6),
        (4, 0, 20),
        (3, 1, 15),
        (4, 1, 60),
        (3, 2, 27),
        (4, 2, 126),
        (5, 0, 50),
        (5, 1, 175),
        (5, 2, 420),
    ],
)
def test_basis_dimensions(n, k, expected):
    # k=0 column checked against n^2(n^2-1)/12
    sp = Space(n)
    basis = basis_Ck(sp, k)
    assert len(basis) == expected
    assert expected == hook_content_dim(n, k)
    if k == 0:
        assert expected == n * n * (n * n - 1) // 12


@pytest.mark.parametrize("n,k", [(n, k) for n in (3, 4) for k in (0, 1, 2)])
def test_basis_is_orthonormal_and_member(n, k):
    basis = basis_Ck(Space(n), k)
    M = np.stack([b.data.ravel() for b in basis])
    assert np.allclose(M @ M.T, np.eye(len(basis)), atol=1e-10)
    assert all(is_member_Ck(b, k, tol=1e-8) for b in basis)


def test_basis_is_reproducible():
    """The cached basis is rebuilt bit for bit from the fixed sample seed."""
    sp = Space(4)
    first = np.stack([b.data for b in basis_Ck(sp, 2)])
    _ck_stack.cache_clear()
    again = np.stack([b.data for b in basis_Ck(sp, 2)])
    assert np.array_equal(first, again)


def test_random_ck_deterministic_and_member():
    a = random_ck(E4, 1, 5)
    b = random_ck(E4, 1, 5)
    assert np.array_equal(a.data, b.data)
    assert is_member_Ck(a, 1, tol=1e-9)


def test_resource_limit():
    with pytest.raises(RuntimeError):
        basis_Ck(Space(8), 2)  # 8^6 coefficients exceeds the ambient budget


def test_mixed_product_eigenvalue():
    """g (x) R in the leading slots maps to -2(k+2)! times the completed
    symmetric product; the opposite arrangement is annihilated."""
    for sp in (E3, E4):
        g = sp.metric_tensor()
        for seed in (5, 6):
            R = random_ck(sp, 0, seed)
            lhs = young_apply(tensor_product(g, R), 2)
            rhs = kulkarni(sym_product(jacobi_form(R), g))
            assert rel(lhs, -48.0 * rhs) < 1e-10
            dead = young_apply(tensor_product(R, g), 2)
            assert dead.norm() < 1e-10 * max(lhs.norm(), 1.0)


@pytest.mark.parametrize("k,batch", [(0, 1), (0, 2), (1, 1), (2, 1)])
def test_batched_residuals_match_per_slice_loop(k, batch):
    sp = Space(3, (1, -1, 1))
    data = random_tensor(sp, k + 4 + batch, 9).data
    data[(0,) * batch] = random_ck(sp, k, 10).data  # one slice is a member
    got = ck_residuals(Tensor(sp, data), k)
    for index in np.ndindex((3,) * batch):
        ref = ck_residuals(Tensor(sp, data[index]), k)
        assert set(got) == set(ref)
        for name, value in ref.items():
            assert got[name][index] == value
    assert max(got[name][(0,) * batch] for name in got) < 1e-12


@pytest.mark.parametrize("n", [3, 4])
def test_packed_young_is_the_packed_full_image(n):
    # a batch of two: a random tensor, then the same tensor with a NaN where
    # the packed image reads only forced zeros
    sp = Space(n, (-1,) + (1,) * (n - 1))
    t = random_tensor(sp, 6, 11)
    bad = t.data.copy()
    bad[(0,) * 6] = np.nan
    ids = _packed_young_plan(n, 2)[0]
    sums = np.stack([np.bincount(ids, d.ravel(), n**6) for d in (t.data, bad)])
    packed = _packed_young(sums, n, 2)
    expect = _ck_packing(n, 2).pack(young_apply(t, 2).data.ravel())
    assert np.linalg.norm(packed[0] - expect) <= 1e-14 * np.linalg.norm(expect)
    assert np.isnan(packed[1]).all()


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_packed_ck_images_are_the_packed_tableau_sums_bit_for_bit(n, k):
    # the basis build maps Gaussian draws through _ck_images; packing the
    # full images gives the same bits, so the cached bases are unchanged
    draws = np.random.default_rng(0).standard_normal((5,) + (n,) * (k + 4))
    full = tableau_sum(draws, *_label_axes(k), lead=1).reshape(len(draws), -1)
    assert np.array_equal(_ck_images(draws, k), _ck_packing(n, k).pack(full))
