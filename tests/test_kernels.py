"""Index-plan kernels against explicit permutation sums and transpose formulas."""

import itertools
import math

import numpy as np
import pytest

from curvjet.curvature import _slot_sum
from curvjet.jets import TwoJet, random_two_jet, validate_two_jet
from curvjet.spaces import Space, Tensor, _group_sum
from curvjet.young import (
    _label_axes,
    ck_residuals,
    random_ck,
    tableau_apply,
    tableau_sum,
    young_apply,
)


def _permuted(data: np.ndarray, axes, images, lead: int) -> np.ndarray:
    """data with tensor axis images[i] read at tensor axis axes[i]."""
    perm = list(range(data.ndim))
    for a, b in zip(axes, images):
        perm[lead + a] = lead + b
    return data.transpose(perm)


def _explicit_group_sum(data: np.ndarray, groups, lead: int = 0) -> np.ndarray:
    out = np.zeros_like(data)
    for images in itertools.product(*(itertools.permutations(g) for g in groups)):
        axes = [a for g in groups for a in g]
        out += _permuted(data, axes, [b for img in images for b in img], lead)
    return out


def _repeated_index_tensor(n: int, v: int, seed: int) -> np.ndarray:
    """Random tensor whose nonzero entries all have a repeated index."""
    data = np.random.default_rng(seed).standard_normal((n,) * v)
    for idx in np.ndindex(data.shape):
        if len(set(idx)) == v:
            data[idx] = 0.0
    return data


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("v", [2, 3, 4, 5, 6])
def test_group_sum_matches_the_permutation_sum(n, v):
    data = np.random.default_rng(v).standard_normal((n,) * v)
    for groups in ([list(range(v))], [[0, v - 1]], [[v - 1, 0, 1][: min(v, 3)]]):
        expect = _explicit_group_sum(data, groups)
        assert np.abs(_group_sum(data, groups) - expect).max() <= 1e-13 * np.abs(expect).max()


@pytest.mark.parametrize("n", [3, 4])
def test_group_sum_on_repeated_indices_and_several_groups(n):
    data = _repeated_index_tensor(n, 5, 1)
    for groups in ([[0, 1, 2]], [[0, 2], [1, 3, 4]], [[4, 1], [0, 3]]):
        expect = _explicit_group_sum(data, groups)
        assert np.abs(_group_sum(data, groups) - expect).max() <= 1e-13 * np.abs(expect).max()


def test_group_sum_over_a_leading_batch_axis():
    batch = np.random.default_rng(2).standard_normal((5, 3, 3, 3, 3))
    groups = [[0, 1], [2, 3]]
    got = _group_sum(batch, groups, lead=1)
    assert np.abs(got - _explicit_group_sum(batch, groups, lead=1)).max() <= 1e-13
    # each tensor of the batch is summed as it would be alone, to the bit
    assert all(np.array_equal(got[i], _group_sum(batch[i], groups)) for i in range(5))


def _explicit_tableau(data: np.ndarray, row1, row2, lead: int = 0) -> np.ndarray:
    """Signed column sum over the column group of the row-group sum."""
    rows = _explicit_group_sum(data, [row1, row2], lead)
    out = np.zeros_like(data)
    columns = list(zip(row1, row2))
    for subset in itertools.product((False, True), repeat=len(columns)):
        axes = [a for swap, col in zip(subset, columns) if swap for a in col]
        images = [b for swap, col in zip(subset, columns) if swap for b in col[::-1]]
        out += (-1) ** sum(subset) * _permuted(rows, axes, images, lead)
    return out


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("lead", [0, 1])
def test_tableau_sum_matches_the_signed_row_column_sum(k, lead):
    row1, row2 = _label_axes(k)
    data = np.random.default_rng(k).standard_normal((2,) * lead + (3,) * (k + 4))
    expect = _explicit_tableau(data, row1, row2, lead)
    got = tableau_sum(data, row1, row2, lead)
    assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()


@pytest.mark.parametrize("k", [0, 1, 2])
def test_tableau_apply_on_the_label_slots_is_young_apply(k):
    sp = Space(3, (-1, 1, 1))
    t = Tensor(sp, np.random.default_rng(k).standard_normal((3,) * (k + 4)))
    row1, row2 = _label_axes(k)
    got = tableau_apply(t, [a + 1 for a in row1], [a + 1 for a in row2])
    assert got.space == sp and np.array_equal(got.data, young_apply(t, k).data)


@pytest.mark.parametrize("rows", [((1, 4, 5), (3, 2)), ((2, 5), (4,)), ((5, 1), (4, 2))])
def test_tableau_apply_matches_the_signed_row_column_sum(rows):
    # 1-based slots; a slot outside both rows is left alone
    t = Tensor(Space(3), np.random.default_rng(5).standard_normal((3,) * 5))
    row1, row2 = ([s - 1 for s in row] for row in rows)
    expect = _explicit_tableau(t.data, row1, row2)
    got = tableau_apply(t, *rows)
    assert np.abs(got.data - expect).max() <= 1e-13 * np.abs(expect).max()


@pytest.mark.parametrize(
    "rows", [((1, 1), (2, 3)), ((0, 2), (3, 4)), ((1, 9), (2, 3)), ((1,), (2, 3))],
    ids=["repeated", "slot_0", "slot_9", "second_row_longer"],
)
def test_tableau_apply_rejects_malformed_slots(rows):
    t = Tensor(Space(3), np.random.default_rng(6).standard_normal((3,) * 4))
    with pytest.raises(ValueError):
        tableau_apply(t, *rows)


def _transpose_defects(d: np.ndarray, k: int) -> dict[str, float]:
    """The C_k defects of one tensor, each spelled out with transposes."""
    c = k
    lead = list(range(k))

    def cyc(a, b, e):
        ax1, ax2 = list(range(d.ndim)), list(range(d.ndim))
        ax1[a], ax1[b], ax1[e] = b, e, a
        ax2[a], ax2[b], ax2[e] = e, a, b
        return d + d.transpose(ax1) + d.transpose(ax2)

    out = {
        "antisym_12": d + np.swapaxes(d, c, c + 1),
        "antisym_34": d + np.swapaxes(d, c + 2, c + 3),
        "pair_symmetry": d - d.transpose(lead + [c + 2, c + 3, c, c + 1]),
        "first_bianchi": cyc(c + 1, c + 2, c + 3),
    }
    if k >= 1:
        out["second_bianchi"] = cyc(c - 1, c, c + 1)
    if k == 2:
        out["derivative_symmetry"] = d - 0.5 * (d + np.swapaxes(d, 0, 1))
    return {name: float(np.linalg.norm(x)) for name, x in out.items()}


@pytest.mark.parametrize("k", [0, 1, 2])
def test_ck_defects_match_the_transpose_formulas(k):
    d = np.random.default_rng(k).standard_normal((3,) * (k + 4))
    got = ck_residuals(Tensor(Space(3), d), k)
    expect = _transpose_defects(d, k)
    assert list(got) == list(expect)
    for name, value in expect.items():
        assert float(got[name]) == pytest.approx(value, rel=1e-14)
    member = random_ck(Space(3), k, 4)
    assert max(ck_residuals(member, k).values()) <= 1e-13


@pytest.mark.parametrize("part", ["dR", "d2R"])
def test_nan_stays_in_its_slice(part):
    sp = Space(3)
    j = random_two_jet(sp, 0)
    data = getattr(j, part).data.copy()
    k = data.ndim - 5  # read as C_1 slices over the leading axes
    data[(1,) * (data.ndim - 4) + (0, 1, 2, 0)] = np.nan
    batch = data.ndim - (k + 4)
    res = ck_residuals(Tensor(sp, data), k)
    bad = (1,) * batch
    assert any(np.isnan(v[bad]) for v in res.values())
    for v in res.values():
        assert np.isfinite(np.delete(v.ravel(), np.ravel_multi_index(bad, v.shape))).all()
    jet = TwoJet(**{**{p: getattr(j, p) for p in ("R", "dR", "d2R")}, part: Tensor(sp, data)})
    ok, residuals = validate_two_jet(jet)
    assert not ok and math.isnan(residuals["derivative" if part == "dR" else "second_derivative"])


def test_slot_sum_matches_the_per_slot_einsum():
    n, v = 3, 4
    rng = np.random.default_rng(1)
    a = rng.standard_normal((n,) * v)
    M = rng.standard_normal((2, n, n))  # one leading axis
    expect = np.zeros((2,) + a.shape)
    letters = "abcd"
    for slot in range(v):
        out = "".join("X" if i == slot else letters[i] for i in range(v))
        src = "".join("x" if i == slot else letters[i] for i in range(v))
        expect += np.einsum(f"lXx,{src}->l{out}", M, a)
    got = _slot_sum(M, a)
    assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()
