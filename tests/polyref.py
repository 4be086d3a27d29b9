"""Dict-based truncated polynomials: the reference for the dense field arithmetic.

``curvjet.polymetric`` stores a tensor-valued polynomial as a dense array of
coefficient rows in graded monomial order.  The tests check that arithmetic
entry by entry against ``TruncPoly``, which keeps the coefficients in a dict
keyed by exponent tuples and multiplies term by term; ``entries`` and
``from_entries`` convert a metric field to and from its n x n matrix of
``TruncPoly`` entries.
"""

from __future__ import annotations

import numpy as np

from curvjet.polymetric import PolyMetric, _monomials, _row_index
from curvjet.spaces import Space


class TruncPoly:
    """Real polynomial in a fixed number of variables, truncated by total degree.

    Coefficients are kept in a dict keyed by exponent tuples; terms above the
    truncation degree are dropped on construction and after every product.
    """

    __slots__ = ("nvars", "degree", "coeff")

    def __init__(self, nvars: int, degree: int, coeff: dict | None = None) -> None:
        self.nvars = int(nvars)
        self.degree = int(degree)
        if self.nvars < 1 or self.degree < 0:
            raise ValueError("need at least one variable and a nonnegative degree")
        clean: dict[tuple[int, ...], float] = {}
        for exps, c in (coeff or {}).items():
            e = tuple(int(x) for x in exps)
            if len(e) != self.nvars or any(x < 0 for x in e):
                raise ValueError(f"bad exponent tuple {exps!r}")
            value = float(c)
            if value == 0.0 or sum(e) > self.degree:
                continue
            clean[e] = clean.get(e, 0.0) + value
        self.coeff = clean

    @classmethod
    def constant(cls, nvars: int, degree: int, value: float) -> "TruncPoly":
        return cls(nvars, degree, {(0,) * nvars: value})

    def value0(self) -> float:
        """Value at the origin."""
        return self.coeff.get((0,) * self.nvars, 0.0)

    def diff(self, v: int) -> "TruncPoly":
        """Partial derivative with respect to variable v."""
        out: dict[tuple[int, ...], float] = {}
        for e, c in self.coeff.items():
            if e[v]:
                lowered = list(e)
                lowered[v] -= 1
                out[tuple(lowered)] = e[v] * c
        return TruncPoly(self.nvars, self.degree, out)

    def __call__(self, point) -> float:
        x = np.asarray(point, dtype=float)
        total = 0.0
        for e, c in self.coeff.items():
            total += c * float(np.prod(x**np.array(e)))
        return total

    def _check_ring(self, other: "TruncPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("polynomials in different variable counts")

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = TruncPoly.constant(self.nvars, self.degree, other)
        self._check_ring(other)
        merged = dict(self.coeff)
        for e, c in other.coeff.items():
            merged[e] = merged.get(e, 0.0) + c
        return TruncPoly(self.nvars, min(self.degree, other.degree), merged)

    __radd__ = __add__

    def __neg__(self):
        return TruncPoly(self.nvars, self.degree, {e: -c for e, c in self.coeff.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, TruncPoly) else -float(other))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return TruncPoly(
                self.nvars, self.degree, {e: c * float(other) for e, c in self.coeff.items()}
            )
        self._check_ring(other)
        degree = min(self.degree, other.degree)
        out: dict[tuple[int, ...], float] = {}
        for ea, ca in self.coeff.items():
            if sum(ea) > degree:
                continue
            for eb, cb in other.coeff.items():
                if sum(ea) + sum(eb) > degree:
                    continue
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0.0) + ca * cb
        return TruncPoly(self.nvars, degree, out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.coeff == other.coeff


def poly_of_column(n: int, degree: int, column: np.ndarray) -> TruncPoly:
    """TruncPoly whose coefficient of the r-th graded monomial is column[r]."""
    return TruncPoly(n, degree, dict(zip(_monomials(n, degree), column.tolist())))


def entries(gm: PolyMetric) -> tuple[tuple[TruncPoly, ...], ...]:
    """The metric field as an n x n matrix of TruncPoly."""
    n, degree = gm.space.dim, gm.degree
    return tuple(
        tuple(poly_of_column(n, degree, gm.field[:, i, j]) for j in range(n)) for i in range(n)
    )


def from_entries(space: Space, degree: int, entries) -> PolyMetric:
    """Metric from an n x n matrix of TruncPoly entries truncated at degree."""
    n = space.dim
    if len(entries) != n or any(len(row) != n for row in entries):
        raise ValueError("entry matrix must be n x n")
    index = _row_index(n, degree)
    G = np.zeros((len(index), n, n))
    for i, row in enumerate(entries):
        for k, entry in enumerate(row):
            if entry.nvars != n:
                raise ValueError("entries must be polynomials in n coordinates")
            for e, c in entry.coeff.items():
                if e not in index:
                    raise ValueError("entry exceeds the truncation degree")
                G[index[e], i, k] = c
    return PolyMetric(space, G)
