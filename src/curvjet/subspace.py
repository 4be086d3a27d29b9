"""One subspace engine: seeded images and null spaces under a single cutoff.

``image`` is the randomized range finder (Halko, Martinsson and Tropp 2011,
arXiv:0909.4061) made exact by a known rank: the image of a linear map whose
rank is given in closed form is sampled on a fixed number of seeded Gaussian
tensors and the singular values must show exactly that rank.  ``kernel``
returns a null space under the same relative cutoff ``RTOL``, and
``lstsq_factors`` the compact factors of the minimum-norm least-squares
solve (the pseudoinverse, never formed) together with that null space.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["RTOL", "image", "kernel", "lstsq_factors"]

# relative singular-value cutoff shared by every rank decision
RTOL = 1e-10

# samples beyond the rank: they keep sigma_rank well clear of the cutoff and
# expose a rank larger than claimed
_OVERSAMPLE = 8


def image(
    apply: Callable[[np.ndarray], np.ndarray], shape: tuple[int, ...], rank: int
) -> np.ndarray:
    """``rank`` orthonormal rows spanning the image of a linear map.

    ``apply`` maps a batch of tensors of the given shape (batch axis first)
    to a batch of images.  The samples come from ``default_rng(0)``, so the
    rows are identical on every run.  Raises RuntimeError unless the sampled
    images have numerical rank exactly ``rank``.
    """
    samples = np.random.default_rng(0).standard_normal((rank + _OVERSAMPLE,) + tuple(shape))
    images = apply(samples).reshape(len(samples), -1)
    _, s, vt = np.linalg.svd(images, full_matrices=False)
    s = np.append(s, 0.0)  # s[rank] exists even if rank is the ambient dimension
    if not (s[rank - 1] > RTOL * s[0] and s[rank] <= RTOL * s[0]):
        raise RuntimeError(
            f"image rank check failed: expected {rank}, singular ratios "
            f"{s[rank - 1] / s[0]:.3e} and {s[rank] / s[0]:.3e} around the cutoff {RTOL:.0e}"
        )
    return vt[:rank]


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
    rank = int(np.sum(s > RTOL * s.max(initial=0.0)))
    return np.ascontiguousarray(u[:, :rank].T), vt[:rank].T / s[:rank], vt[rank:]
