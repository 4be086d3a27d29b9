"""Polynomial metrics and exact jet evaluation at the origin.

A metric germ is a dense coefficient field normalized so its value at the
origin is the signature matrix: a tensor-valued polynomial of total degree
<= d in n variables is an array of shape (C(n+d, d), *tensor_shape) whose
rows follow the monomials in graded order, so truncating to a lower degree
is taking a prefix of rows.  ``PolyMetric`` holds the (rows, n, n) field of
the metric, and ``christoffel`` returns a (rows, n, n, n) field.  Christoffel
symbols come from the standard Levi-Civita formula with a truncated Neumann
series for the inverse metric; the curvature tensor and its first two
covariant derivatives are then evaluated exactly at the origin (polynomial
arithmetic is exact under truncation, nothing is rounded).

A product multiplies the tensor parts of every cached pair of rows whose
degrees fit under the cap in one batched matmul, then sums the pairs of
each product row as one segment; derivatives are a cached row map with
exponent multipliers.

The cubic seed metric turns a one-jet (R, dR) into a germ whose curvature
two-jet reproduces (R, dR); the sign convention of the quadratic and cubic
coefficients is pinned by that round trip.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, count, product

import numpy as np

from .jets import TwoJet, _read_only
from .spaces import (
    Space,
    Tensor,
    _in_blocks,
    _integer,
    _normal_draws,
    _real,
    _tail,
    space_from_dict,
    space_to_dict,
)

__all__ = [
    "PolyMetric",
    "christoffel",
    "curvature_two_jet",
    "seed_metric",
    "random_poly_metric",
    "poly_metric_to_dict",
    "poly_metric_from_dict",
]


@dataclass(frozen=True, eq=False)
class PolyMetric:
    """Symmetric polynomial metric germ with g(0) = signature matrix.

    ``field[r]`` is the (n, n) coefficient matrix of the r-th graded monomial
    (layout below); the row count sets the degree.  The field is copied read-only.
    """

    space: Space
    field: np.ndarray

    def __post_init__(self) -> None:
        n = self.space.dim
        G = _read_only(np.array(self.field, dtype=float))
        object.__setattr__(self, "field", G)
        if G.ndim != 3 or G.shape[1:] != (n, n) or _rows(n, self.degree) != len(G):
            raise ValueError(f"metric field of shape {G.shape} is not (C(n+d, d), n, n)")
        if not np.isfinite(G).all():
            raise ValueError("metric coefficients must be finite")
        if not np.array_equal(G, G.transpose(0, 2, 1)):
            raise ValueError("metric entries must be symmetric")
        if not np.array_equal(G[0], self.space.metric_matrix()):
            raise ValueError("metric at the origin must equal the signature matrix")

    @property
    def degree(self) -> int:
        return next(d for d in count() if _rows(self.space.dim, d) >= len(self.field))


# ---------------------------------------------------------------------------
# coefficient-field arithmetic
#
# A "field" is a tensor-valued polynomial in n variables, stored densely as
# an array of shape (C(n+d, d), *tensor_shape).  Row r holds the tensor
# coefficient of the r-th monomial of total degree <= d in graded order:
# the constant, then x_0 .. x_{n-1}, then the quadratic monomials, and so
# on.  The rows of degree <= d' < d are a prefix, so truncation is slicing
# and each step keeps only the rows it needs: for a two-jet, the inverse
# metric and the Christoffel symbols to degree 3, their derivative and the
# lowered curvature to degree 2, the covariant derivative to degree 1.
# Products and derivatives run on index tables cached per (n, d).  The pairs
# of a product table are sorted by their product row, so the pairs that
# land on one row are a contiguous segment and np.add.reduceat sums each
# segment in one fixed order; every tensor entry is summed in the same
# order, and Gamma^k_ij == Gamma^k_ji holds bitwise.  (A dense 0/1 segment
# matrix in place of reduceat breaks that symmetry at n=3.)  Every field
# operation also takes leading (seed) axes in front of the row axis, which
# ride along as outer axes of each product and sum, so each field of a
# batch gets the same sums as alone.


def _rows(n: int, degree: int) -> int:
    return math.comb(n + degree, degree)


def _exponent(n: int, variables) -> tuple[int, ...]:
    """Exponent tuple of the product of the listed variables."""
    e = [0] * n
    for v in variables:
        e[v] += 1
    return tuple(e)


@lru_cache(maxsize=None)
def _monomials(n: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples of total degree <= degree, in graded order."""
    return tuple(
        _exponent(n, combo)
        for total in range(degree + 1)
        for combo in combinations_with_replacement(range(n), total)
    )


@lru_cache(maxsize=None)
def _row_index(n: int, degree: int) -> dict[tuple[int, ...], int]:
    return {e: r for r, e in enumerate(_monomials(n, degree))}


def _segments(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable order that groups equal keys, and the start of each group.

    Every key in range(max + 1) occurs in the tables below, so group r sums
    into row r.
    """
    order = np.argsort(keys, kind="stable")
    return order, np.flatnonzero(np.diff(keys[order], prepend=-1))


@lru_cache(maxsize=None)
def _product_table(n: int, cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row pairs whose degrees sum to at most cap, grouped by the row of their
    product, and the start of each product row's segment."""
    mons = _monomials(n, cap)
    index = _row_index(n, cap)
    left, right, target = [], [], []
    for i, a in enumerate(mons):
        for j, b in enumerate(mons):
            if sum(a) + sum(b) <= cap:
                left.append(i)
                right.append(j)
                target.append(index[tuple(x + y for x, y in zip(a, b))])
    order, starts = _segments(np.array(target))
    return tuple(_read_only(t) for t in (np.array(left)[order], np.array(right)[order], starts))


@lru_cache(maxsize=None)
def _gradient_table(n: int, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """For variable v and row k of degree <= cap: the row of x_v m_k, and x_v's exponent there."""
    index = _row_index(n, cap + 1)
    source = np.empty((n, _rows(n, cap)), dtype=np.intp)
    factor = np.empty((n, _rows(n, cap)))
    for k, e in enumerate(_monomials(n, cap)):
        for v in range(n):
            source[v, k] = index[tuple(x + (u == v) for u, x in enumerate(e))]
            factor[v, k] = e[v] + 1
    return _read_only(source), _read_only(factor)


@lru_cache(maxsize=None)
def _power_segments(n: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Ordered tuples (v_1, ..., v_order) grouped by the row of x_{v_1} ... x_{v_order}.

    Segment r sums into the r-th monomial of degree ``order``.
    """
    index = _row_index(n, order)
    first = _rows(n, order - 1)
    rows = [index[_exponent(n, vs)] - first for vs in product(range(n), repeat=order)]
    return tuple(_read_only(t) for t in _segments(np.array(rows)))


@lru_cache(maxsize=None)
def _contraction(
    spec: str, lead: int
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], int]:
    """Plan of a two-factor einsum spec, batched over a pair axis after ``lead`` axes, as a matmul.

    Every index the factors share is summed.  Returns the axis orders that
    put the factors in (lead, pair, free, summed) and (lead, pair, summed,
    free) form, the axis order of the result, and the number of free axes of
    the first.
    """
    inputs, result = spec.split("->")
    first, second = inputs.split(",")
    summed = [c for c in first if c in second]
    free_a = [c for c in first if c not in summed]
    free_b = [c for c in second if c not in summed]
    front = tuple(range(lead + 1))
    to_a = front + tuple(lead + 1 + first.index(c) for c in free_a + summed)
    to_b = front + tuple(lead + 1 + second.index(c) for c in summed + free_b)
    to_out = front + tuple(lead + 1 + (free_a + free_b).index(c) for c in result)
    return to_a, to_b, to_out, len(free_a)


def _mul(a: np.ndarray, b: np.ndarray, spec: str, n: int, cap: int) -> np.ndarray:
    """Product truncated at total degree cap; tensor parts contract by an einsum spec.

    Both factors need rows up to degree cap and the same leading axes, if
    any, in front of the row axis.  The tensor parts of every row pair are
    multiplied in one batched matmul, and the pairs of each product row are
    summed as one segment.
    """
    lead = a.ndim - 1 - spec.index(",")
    left, right, starts = _product_table(n, cap)
    # a batch goes in blocks: each field's row pairs take copies of both factors and products
    pair_bytes = 8 * len(left) * sum(n ** len(part) for part in re.split(",|->", spec))
    blocks = _in_blocks(lambda a, b: _mul(a, b, spec, n, cap), (a, b), lead, pair_bytes)
    if blocks is not None:
        return blocks
    to_a, to_b, to_out, n_free = _contraction(spec, lead)
    a = np.take(a, left, axis=lead).transpose(to_a)
    b = np.take(b, right, axis=lead).transpose(to_b)
    outer = a.shape[:lead]
    free_a, summed = a.shape[lead + 1 : lead + 1 + n_free], a.shape[lead + 1 + n_free :]
    pairs = np.matmul(
        a.reshape(outer + (len(left), math.prod(free_a), -1)),
        b.reshape(outer + (len(right), math.prod(summed), -1)),
    )
    out = np.add.reduceat(pairs, starts, axis=lead)
    shape = outer + (len(starts),) + free_a + b.shape[lead + 1 + len(summed) :]
    return out.reshape(shape).transpose(to_out)


def _grad(a: np.ndarray, n: int, cap: int, lead: int = 0) -> np.ndarray:
    """Gradient truncated at degree cap, derivative slot first in the tensor part.

    The field, with ``lead`` leading axes, needs rows up to degree cap + 1.
    """
    source, factor = _gradient_table(n, cap)
    factor = factor.reshape(factor.shape + (1,) * (a.ndim - 1 - lead))
    terms = factor * np.take(a, source, axis=lead)
    return np.moveaxis(terms, lead, lead + 1)


def _inverse_field(G: np.ndarray, eps: np.ndarray, cap: int) -> np.ndarray:
    """Truncated Neumann series for the inverse metric; exact under truncation."""
    n = len(eps)
    # the signature matrix is its own inverse
    B = -eps[:, None] * G[..., : _rows(n, cap), :, :]
    B[..., 0, :, :] = 0.0
    inv = np.zeros_like(B)
    inv[..., 0, :, :] = np.diag(eps)
    cur = inv
    for _ in range(cap):
        cur = _mul(B, cur, "ij,jk->ik", n, cap)
        inv = inv + cur
    return inv


def _gamma_field(G: np.ndarray, eps: np.ndarray, cap: int) -> np.ndarray:
    """Christoffel coefficients [..., r, k, i, j] to degree cap; G needs degree cap + 1."""
    n = len(eps)
    T = _grad(G, n, cap, G.ndim - 3)  # [r, a, i, j] = d_a g_ij
    U = T + _tail(T, (0, 2, 1, 3)) - _tail(T, (0, 2, 3, 1))
    return 0.5 * _mul(_inverse_field(G, eps, cap), U, "kl,ijl->kij", n, cap)


def _jet_fields(G: np.ndarray, eps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lowered curvature and its first two covariant derivatives at the origin, as arrays.

    G is a metric field with rows up to degree 4 at least, after any leading
    axes; each result keeps them.
    """
    n = len(eps)
    lead = G.ndim - 3
    gamma = _gamma_field(G, eps, cap=3)

    # derivative of the connection, arranged [r, i, j, k, l] = d_i Gamma^l_{jk}
    t1 = _tail(_grad(gamma, n, 2, lead), (0, 1, 3, 4, 2))
    t2 = _tail(t1, (0, 2, 1, 3, 4))
    t3 = _mul(gamma, gamma, "lim,mjk->ijkl", n, 2)
    t4 = _tail(t3, (0, 2, 1, 3, 4))
    upper = (t1 - t2) + (t3 - t4)

    # pairing with the metric; this orientation makes the commutator of the
    # stored second derivative match the curvature rotation, and reproduces
    # seed metrics with coefficient +1
    lowered = _mul(upper, G, "ijkm,ml->ijkl", n, 2)

    cov5 = _grad(lowered, n, 1, lead)
    for spec in ("mai,mjkl->aijkl", "maj,imkl->aijkl", "mak,ijml->aijkl", "mal,ijkm->aijkl"):
        cov5 = cov5 - _mul(gamma, lowered, spec, n, 1)

    cov0 = cov5[..., 0, :, :, :, :, :]
    gamma0 = gamma[..., 0, :, :, :]
    d2 = cov5[..., 1 : n + 1, :, :, :, :, :].copy()  # linear rows: the derivative along e_b
    for spec in (
        "mba,mijkl->baijkl",
        "mbi,amjkl->baijkl",
        "mbj,aimkl->baijkl",
        "mbk,aijml->baijkl",
        "mbl,aijkm->baijkl",
    ):
        d2 -= np.einsum("..." + spec.replace(",", ",...").replace("->", "->..."), gamma0, cov0)

    return lowered[..., 0, :, :, :, :], cov0, d2


def _two_jet_of_field(G: np.ndarray, sp: Space) -> TwoJet:
    """The two-jet at the origin of one metric field G with rows up to degree 4 at least."""
    return TwoJet(*(Tensor(sp, t) for t in _jet_fields(G, sp.eps)))


# ---------------------------------------------------------------------------
# public operations


def christoffel(gm: PolyMetric) -> np.ndarray:
    """Christoffel symbols as a field indexed [r, k, i, j], to total degree D - 1.

    Row r holds the coefficients of the r-th graded monomial; the field is
    symmetric in the lower pair (i, j) bitwise.
    """
    if gm.degree < 1:
        raise ValueError("truncation degree too low for Christoffel symbols")
    return _gamma_field(gm.field, gm.space.eps, gm.degree - 1)


def curvature_two_jet(gm: PolyMetric) -> TwoJet:
    """Evaluate (R, dR, d2R) of the metric at the origin, exactly.

    Indices are lowered with the full metric before differentiating; the
    second derivative is stored outer-slot first.  Degree 4 input keeps the
    fourth metric derivatives that d2R consumes, hence the precondition.
    """
    if gm.degree < 4:
        raise ValueError("truncation degree must be at least 4 for a two-jet")
    return _two_jet_of_field(gm.field, gm.space)


# Sign of the quadratic/cubic seed coefficients under this module's curvature
# conventions; pinned by the constant-curvature round trip.
_SEED_SIGN = -1.0


def _seed_field(R: Tensor, dR: Tensor) -> np.ndarray:
    """Metric field of the cubic seed germ of (R, dR), with rows up to degree 4.

    Entries are g0 plus one third of the Jacobi-slot arrangement of R and
    one sixth of the directional derivative term, both converted to a
    bilinear form with the background metric.  The quartic rows are zero.
    """
    if R.valence != 4 or dR.valence != 5:
        raise ValueError("seed metric expects a one-jet (valences 4 and 5)")
    if dR.space != R.space:
        raise ValueError("one-jet components live on different spaces")
    return _seed_fields(R.data, dR.data, R.space.eps)


def _seed_fields(R: np.ndarray, dR: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """``_seed_field`` of each one-jet (R, dR) of a batch; the fields keep the leading axes."""
    n = len(eps)
    outer = R.shape[:-4]
    # [i, j, k, l] = R[i, k, l, j] and [i, j, k, l, m] = dR[m, i, k, l, j]; the
    # Jacobi arrangement is symmetric in (i, j) up to roundoff, so average it
    # and the entries match bitwise
    quad = _tail(R, (0, 3, 1, 2))
    quad = _SEED_SIGN * (quad + _tail(quad, (1, 0, 2, 3))) / 6.0
    cubic = _tail(dR, (1, 4, 2, 3, 0))
    cubic = _SEED_SIGN * (cubic + _tail(cubic, (1, 0, 2, 3, 4))) / 12.0

    G = np.zeros(outer + (_rows(n, 4), n, n))
    G[..., 0, :, :] = np.diag(eps)
    for order, part in ((2, quad), (3, cubic)):
        tuples, starts = _power_segments(n, order)
        terms = np.moveaxis(part.reshape(outer + (n, n, -1)), -1, len(outer))
        terms = np.take(terms, tuples, axis=len(outer))
        rows = slice(_rows(n, order - 1), _rows(n, order))
        G[..., rows, :, :] = np.add.reduceat(terms, starts, axis=len(outer))
    return G


def seed_metric(R: Tensor, dR: Tensor) -> PolyMetric:
    """Cubic metric germ whose curvature two-jet starts with (R, dR)."""
    return PolyMetric(R.space, _seed_field(R, dR))


def random_poly_metric(
    space: Space, seed: int, degree: int = 4, amplitude: float = 0.25
) -> PolyMetric:
    """Random symmetric polynomial perturbation of the flat metric.

    Coefficient size decays geometrically with the monomial degree to keep
    the Neumann inverse well conditioned.
    """
    if degree < 1:
        raise ValueError("perturbation needs degree at least 1")
    return PolyMetric(space, _random_fields(space, (seed,), degree, amplitude)[0])


def _random_fields(space: Space, seeds, degree: int = 4, amplitude: float = 0.25) -> np.ndarray:
    """The fields of ``random_poly_metric`` for several seeds, stacked on a leading axis.

    Each seed's ``default_rng`` draws the coefficient column of every entry
    i <= j in turn (row-major).
    """
    n = space.dim
    mons = _monomials(n, degree)
    scale = np.array([amplitude ** sum(e) for e in mons[1:]])
    upper = np.triu_indices(n)
    (draws,) = _normal_draws(seeds, (len(upper[0]), len(mons) - 1))
    columns = np.swapaxes(scale * draws, -1, -2)
    G = np.zeros((len(seeds), len(mons), n, n))
    G[:, 0] = space.metric_matrix()
    G[:, 1:, upper[0], upper[1]] = G[:, 1:, upper[1], upper[0]] = columns
    return G


def poly_metric_to_dict(gm: PolyMetric) -> dict:
    """Plain-document form: signature header plus (i, j, exponents, value) records.

    Nonzero coefficients only, for i <= j, exponents in lexicographic order.
    """
    n, degree = gm.space.dim, gm.degree
    mons = _monomials(n, degree)
    order = sorted(range(len(mons)), key=mons.__getitem__)
    records = []
    for i, j in combinations_with_replacement(range(n), 2):
        column = gm.field[:, i, j].tolist()
        records.extend([i, j, list(mons[r]), column[r]] for r in order if column[r] != 0.0)
    return {**space_to_dict(gm.space), "degree": degree, "entries": records}


def poly_metric_from_dict(doc: dict) -> PolyMetric:
    space = space_from_dict(doc)
    n, degree = space.dim, _integer(doc["degree"], "degree")
    if degree < 0 or _rows(n, degree) > 100_000:
        raise ValueError(f"metric degree {degree} is negative or needs over 100000 field rows")
    index = _row_index(n, degree)
    G = np.zeros((len(index), n, n))
    for i, j, exps, c in doc["entries"]:
        i, j = _integer(i, "an entry index"), _integer(j, "an entry index")
        key = tuple(_integer(x, "an exponent") for x in exps)
        # reject rather than truncate or wrap: either would lose data silently
        if not (0 <= i < n and 0 <= j < n) or key not in index:
            raise ValueError(f"entry record ({i}, {j}, {list(key)}) is outside the ring")
        G[index[key], i, j] = G[index[key], j, i] = _real(c, "a metric coefficient")
    return PolyMetric(space, G)
