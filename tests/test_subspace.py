"""Subspace engine: seeded images with a hard rank check, null spaces."""

import numpy as np
import pytest

from curvjet.jets import _hess_kernel_stack
from curvjet.spaces import Space
from curvjet.subspace import RTOL, image, kernel
from curvjet.young import basis_Ck


def _coordinate_projector(r: int):
    def apply(batch):
        out = np.zeros_like(batch)
        out[:, :r] = batch[:, :r]
        return out

    return apply


def test_image_spans_the_range():
    rows = image(_coordinate_projector(3), (7,), 3)
    assert rows.shape == (3, 7)
    assert np.allclose(rows @ rows.T, np.eye(3), atol=1e-12)
    assert np.linalg.norm(rows[:, 3:]) < 1e-12


def test_image_is_reproducible():
    a = image(_coordinate_projector(4), (9,), 4)
    b = image(_coordinate_projector(4), (9,), 4)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("claimed", [2, 4])
def test_image_rejects_a_wrong_rank(claimed):
    with pytest.raises(RuntimeError):
        image(_coordinate_projector(3), (7,), claimed)


def test_image_of_the_identity_fills_the_space():
    rows = image(lambda batch: batch, (5,), 5)
    assert np.allclose(rows @ rows.T, np.eye(5), atol=1e-12)


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
    stack = _hess_kernel_stack(sp)
    assert len(stack) == nullity > 0
    hess = -np.einsum("kabuivi,i->kabuv", stack, sp.eps)
    assert np.linalg.norm(hess) < 1e-10
    flat = stack.reshape(len(stack), -1)
    assert np.allclose(flat @ flat.T, np.eye(len(stack)), atol=1e-10)
