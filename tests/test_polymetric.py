"""Truncated polynomial metrics: connection, exact jet evaluation, seeding."""

import json

import numpy as np
import pytest

from curvjet.curvature import kn_pair, ricci
from curvjet.jets import validate_two_jet
from curvjet.polymetric import (
    PolyMetric,
    _gamma_field,
    _monomials,
    _mul,
    _row_index,
    _rows,
    _seed_field,
    _two_jet_of_field,
    christoffel,
    curvature_two_jet,
    poly_metric_from_dict,
    poly_metric_to_dict,
    random_poly_metric,
    seed_metric,
)
from curvjet.spaces import Space, Tensor
from curvjet.young import random_ck
from polyref import TruncPoly, entries, from_entries, poly_of_column

E3 = Space(3)
E4 = Space(4)


def rel(a: np.ndarray, b: np.ndarray) -> float:
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1.0)


def flat_metric(sp: Space, degree: int = 4) -> PolyMetric:
    n = sp.dim
    rows = [
        [TruncPoly.constant(n, degree, sp.signature[i] if i == j else 0.0) for j in range(n)]
        for i in range(n)
    ]
    return from_entries(sp, degree, tuple(tuple(row) for row in rows))


def perturbed_metric(sp: Space, i: int, j: int, p: TruncPoly) -> PolyMetric:
    base = flat_metric(sp, p.degree)
    rows = [list(row) for row in entries(base)]
    rows[i][j] = rows[i][j] + p
    if i != j:
        rows[j][i] = rows[j][i] + p
    return from_entries(sp, p.degree, tuple(tuple(row) for row in rows))


class TestTruncPoly:
    def test_evaluate_and_diff(self):
        # p = 1 + 2 x0 + 3 x0 x1
        p = TruncPoly(2, 4, {(0, 0): 1.0, (1, 0): 2.0, (1, 1): 3.0})
        assert p((0.5, 2.0)) == pytest.approx(1.0 + 1.0 + 3.0)
        d = p.diff(0)
        assert d((7.0, 2.0)) == pytest.approx(2.0 + 6.0)
        assert p.diff(1).coeff == {(1, 0): 3.0}

    def test_product_truncates(self):
        x = TruncPoly(1, 2, {(1,): 1.0})
        sq = x * x
        assert sq.coeff == {(2,): 1.0}
        assert (sq * x).coeff == {}  # degree 3 falls out of the ring

    def test_ring_mismatch_rejected(self):
        a = TruncPoly(2, 4, {})
        b = TruncPoly(3, 4, {})
        with pytest.raises(ValueError):
            a + b

    def test_scalar_arithmetic(self):
        p = TruncPoly(1, 3, {(1,): 1.0})
        q = 2.0 * p - p
        assert q == p


class TestPolyMetric:
    def test_asymmetric_rejected(self):
        n = 2
        rows = [
            [TruncPoly.constant(n, 4, 1.0), TruncPoly(n, 4, {(1, 0): 1.0})],
            [TruncPoly.constant(n, 4, 0.0), TruncPoly.constant(n, 4, 1.0)],
        ]
        with pytest.raises(ValueError, match="symmetric"):
            from_entries(Space(2), 4, tuple(tuple(r) for r in rows))

    def test_wrong_value_at_origin_rejected(self):
        p = TruncPoly.constant(3, 4, 0.5)
        base = flat_metric(E3)
        rows = [list(r) for r in entries(base)]
        rows[0][0] = rows[0][0] + p
        with pytest.raises(ValueError, match="origin"):
            from_entries(E3, 4, tuple(tuple(r) for r in rows))

    def test_field_is_read_only_and_sets_the_degree(self):
        gm = random_poly_metric(E3, 5, degree=3)
        assert gm.degree == 3 and gm.field.shape == (20, 3, 3)
        assert not gm.field.flags.writeable

    @pytest.mark.parametrize("rows", [9, 11])
    def test_row_count_must_fill_a_degree(self, rows):
        G = np.zeros((rows, 3, 3))
        G[0] = np.eye(3)
        with pytest.raises(ValueError, match="shape"):
            PolyMetric(E3, G)

    def test_non_finite_field_rejected(self):
        G = np.array(random_poly_metric(E3, 5).field)
        G[4, 1, 2] = G[4, 2, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            PolyMetric(E3, G)

    @pytest.mark.parametrize(
        "case, match",
        [("shape", "n x n"), ("nvars", "coordinates"), ("degree", "truncation degree")],
    )
    def test_from_entries_rejects_bad_entries(self, case, match):
        rows = [list(r) for r in entries(flat_metric(E3, 3))]
        if case == "shape":
            rows = rows[:2]
        elif case == "nvars":
            rows[1][1] = TruncPoly.constant(4, 3, 1.0)
        else:
            rows[1][1] = TruncPoly(3, 4, {(0, 0, 0): 1.0, (0, 4, 0): 1.0})
        with pytest.raises(ValueError, match=match):
            from_entries(E3, 3, rows)

    def test_random_is_valid_and_deterministic(self):
        a = random_poly_metric(E3, 5)
        b = random_poly_metric(E3, 5)
        assert entries(a)[0][1].coeff == entries(b)[0][1].coeff
        c = random_poly_metric(E3, 6)
        assert entries(a)[0][1].coeff != entries(c)[0][1].coeff


class TestChristoffel:
    def test_flat_metric_has_no_symbols(self):
        gamma = christoffel(flat_metric(E4))
        assert not gamma.any()

    def test_single_entry_hand_oracle(self):
        # g_00 = 1 + x1: the only symbols are
        #   Gamma^0_01 = (1/2) (1 + x1)^(-1)  and  Gamma^1_00 = -1/2
        gm = perturbed_metric(E3, 0, 0, TruncPoly(3, 4, {(0, 1, 0): 1.0}))
        gamma = christoffel(gm)
        index = _row_index(3, 3)

        def column(coeff):
            out = np.zeros(len(index))
            for e, c in coeff.items():
                out[index[e]] = c
            return out

        assert np.array_equal(
            gamma[:, 0, 0, 1],
            column({(0, 0, 0): 0.5, (0, 1, 0): -0.5, (0, 2, 0): 0.5, (0, 3, 0): -0.5}),
        )
        assert np.array_equal(gamma[:, 1, 0, 0], column({(0, 0, 0): -0.5}))
        assert not gamma[:, 0, 0, 0].any()
        assert not gamma[:, 2, 2, 2].any()

    def test_symmetric_in_lower_slots(self):
        gamma = christoffel(random_poly_metric(E3, 7))
        assert np.array_equal(gamma, gamma.swapaxes(2, 3))

    def test_degree_too_low(self):
        with pytest.raises(ValueError, match="degree"):
            christoffel(flat_metric(E3, degree=0))

    @pytest.mark.parametrize("sp", [E3, Space(4, (-1, 1, 1, 1))])
    def test_is_the_dense_gamma_field(self, sp):
        n, degree = sp.dim, 4
        gm = random_poly_metric(sp, 9, degree=degree)
        gamma = christoffel(gm)
        assert gamma.dtype == float and gamma.shape == (_rows(n, degree - 1), n, n, n)
        assert np.array_equal(gamma, _gamma_field(gm.field, sp.eps, degree - 1))

    @pytest.mark.parametrize("sp", [E3, Space(3, (1, -1, 1))])
    def test_matches_truncpoly_arithmetic(self, sp):
        # reference by TruncPoly products and derivatives: Neumann series
        # for the inverse, then the Levi-Civita formula entry by entry
        n, degree = sp.dim, 3
        gm = random_poly_metric(sp, 8, degree=degree)
        g = entries(gm)
        eps = sp.signature
        B = [[-eps[i] * (g[i][k] - g[i][k].value0()) for k in range(n)] for i in range(n)]
        inv = [[TruncPoly.constant(n, degree, eps[i] * (i == k)) for k in range(n)] for i in range(n)]
        power = inv
        for _ in range(degree):
            power = [
                [sum((B[i][j] * power[j][k] for j in range(n)), TruncPoly(n, degree, {}))
                 for k in range(n)]
                for i in range(n)
            ]
            inv = [[inv[i][k] + power[i][k] for k in range(n)] for i in range(n)]
        gamma = christoffel(gm)
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    ref = TruncPoly(n, degree - 1, {})
                    for l in range(n):
                        u = g[j][l].diff(i) + g[i][l].diff(j) - g[i][j].diff(l)
                        ref = ref + 0.5 * (inv[k][l] * u)
                    got = poly_of_column(n, degree - 1, gamma[:, k, i, j])
                    for e in set(ref.coeff) | set(got.coeff):
                        assert got.coeff.get(e, 0.0) == pytest.approx(
                            ref.coeff.get(e, 0.0), rel=1e-12, abs=1e-14
                        )


class TestCurvatureTwoJet:
    def test_flat_metric_is_flat(self):
        j = curvature_two_jet(flat_metric(E3))
        assert j.R.norm() == j.dR.norm() == j.d2R.norm() == 0.0

    def test_degree_too_low(self):
        with pytest.raises(ValueError, match="degree"):
            curvature_two_jet(flat_metric(E3, degree=3))

    def test_conformal_space_form(self):
        # g = (1 + (kappa/4)|x|^2)^(-2) delta has constant curvature kappa and
        # parallel curvature at the origin
        kappa = 0.8
        c = kappa / 4.0
        n = 3
        t = TruncPoly(n, 4, {tuple(2 * int(k == v) for k in range(n)): c for v in range(n)})
        one = TruncPoly.constant(n, 4, 1.0)
        conf = one - 2.0 * t + 3.0 * (t * t)
        rows = tuple(
            tuple(conf if i == j else TruncPoly.constant(n, 4, 0.0) for j in range(n))
            for i in range(n)
        )
        j = curvature_two_jet(from_entries(E3, 4, rows))
        g = E3.metric_tensor()
        assert rel(j.R.data, (-kappa / 2.0) * kn_pair(g, g).data) < 1e-12
        assert ricci(j.R).ric.data == pytest.approx(kappa * 2.0 * np.eye(3), abs=1e-12)
        assert j.dR.norm() < 1e-12
        ok, res = validate_two_jet(j)
        assert ok, res

    @pytest.mark.parametrize("sp,count", [(E3, 6), (E4, 3)])
    def test_random_metrics_give_valid_jets(self, sp, count):
        for seed in range(count):
            j = curvature_two_jet(random_poly_metric(sp, seed))
            ok, res = validate_two_jet(j, tol=1e-8)
            assert ok, (seed, res)

    def test_naturality_under_orthogonal_change(self):
        # pulling the metric back along a constant rotation transforms the
        # whole jet tensorially
        sp = E3
        n = sp.dim
        rng = np.random.default_rng(11)
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        gm = random_poly_metric(sp, 12)

        lin = [TruncPoly(n, 4, {tuple(int(t == v) for t in range(n)): Q[k, v] for v in range(n)}) for k in range(n)]

        def compose(p: TruncPoly) -> TruncPoly:
            out = TruncPoly(n, 4, {})
            for e, cf in p.coeff.items():
                term = TruncPoly.constant(n, 4, cf)
                for k, power in enumerate(e):
                    for _ in range(power):
                        term = term * lin[k]
                out = out + term
            return out

        g = entries(gm)
        origin = (0,) * n
        pulled = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                entry = sum(
                    (Q[k, i] * Q[l, j]) * compose(g[k][l])
                    for k in range(n)
                    for l in range(n)
                )
                # mirror and snap g(0) = Q^T Q = id, exact only in theory
                coeff = dict(entry.coeff)
                coeff.pop(origin, None)
                if i == j:
                    coeff[origin] = 1.0
                pulled[i][j] = pulled[j][i] = TruncPoly(n, 4, coeff)
        jp = curvature_two_jet(from_entries(sp, 4, tuple(tuple(r) for r in pulled)))
        j = curvature_two_jet(gm)

        pull4 = np.einsum("abcd,ai,bj,ck,dl->ijkl", j.R.data, Q, Q, Q, Q)
        pull5 = np.einsum("eabcd,ez,ai,bj,ck,dl->zijkl", j.dR.data, Q, Q, Q, Q, Q)
        pull6 = np.einsum("feabcd,fy,ez,ai,bj,ck,dl->yzijkl", j.d2R.data, Q, Q, Q, Q, Q, Q)
        assert rel(jp.R.data, pull4) < 1e-9
        assert rel(jp.dR.data, pull5) < 1e-9
        assert rel(jp.d2R.data, pull6) < 1e-9


class TestSeedMetric:
    def test_zero_jet_gives_flat_metric(self):
        n = E3.dim
        gm = seed_metric(Tensor(E3, np.zeros((n,) * 4)), Tensor(E3, np.zeros((n,) * 5)))
        g = entries(gm)
        for i in range(n):
            for j in range(n):
                expect = {(0,) * n: 1.0} if i == j else {}
                assert g[i][j].coeff == expect

    def test_constant_curvature_round_trip_pins_sign(self):
        # the quadratic coefficient sign is frozen by requiring the space-form
        # input back with factor +1, not -1
        g = E3.metric_tensor()
        for lam in (1.0, -2.0):
            R = lam * kn_pair(g, g)
            j = curvature_two_jet(seed_metric(R, Tensor(E3, np.zeros((3,) * 5))))
            assert rel(j.R.data, R.data) < 1e-12
            assert j.dR.norm() < 1e-12

    @pytest.mark.parametrize("sp", [E3, E4])
    def test_generic_round_trip(self, sp):
        for seed in range(3):
            R = random_ck(sp, 0, 20 + seed)
            dR = random_ck(sp, 1, 30 + seed)
            j = curvature_two_jet(seed_metric(R, dR))
            assert rel(j.R.data, R.data) < 1e-8
            assert rel(j.dR.data, dR.data) < 1e-8

    @pytest.mark.parametrize("sp", [Space(4, (-1, 1, 1, 1)), Space(5)])
    def test_seed_field_matches_public_path(self, sp):
        # the seed field evaluated directly must agree with the jet of the
        # PolyMetric that seed_metric builds
        for seed in range(2):
            R = random_ck(sp, 0, 60 + seed)
            dR = random_ck(sp, 1, 70 + seed)
            direct = _two_jet_of_field(_seed_field(R, dR), sp)
            public = curvature_two_jet(seed_metric(R, dR))
            for part in ("R", "dR", "d2R"):
                a, b = getattr(direct, part).data, getattr(public, part).data
                assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b), part

    def test_origin_value_is_signature(self):
        gm = seed_metric(random_ck(E4, 0, 40), random_ck(E4, 1, 41))
        vals = np.array([[entry.value0() for entry in row] for row in entries(gm)])
        assert np.array_equal(vals, np.eye(4))


class TestSerialization:
    def test_round_trip(self):
        gm = random_poly_metric(E4, 50)
        doc = json.loads(json.dumps(poly_metric_to_dict(gm)))
        back = poly_metric_from_dict(doc)
        assert entries(back) == entries(gm)

    def test_rejects_bad_document(self):
        doc = poly_metric_to_dict(random_poly_metric(E3, 51))
        doc["entries"].append([0, 1, [5, 0, 0], 1.0])  # exponent above degree
        with pytest.raises(ValueError):
            poly_metric_from_dict(doc)

    @pytest.mark.parametrize("degree", [-1, 1000])
    def test_rejects_degree_outside_the_dense_range(self, degree):
        # degree 1000 in three variables would need C(1003, 3) field rows
        doc = poly_metric_to_dict(random_poly_metric(E3, 51))
        doc["degree"] = degree
        with pytest.raises(ValueError, match="degree"):
            poly_metric_from_dict(doc)

    @pytest.mark.parametrize("i, j", [(3, 0), (-1, 0), (0, -1)])
    def test_rejects_entry_index_outside_the_ring(self, i, j):
        # a negative index would otherwise overwrite the entry at n - 1
        doc = poly_metric_to_dict(random_poly_metric(E3, 51))
        doc["entries"].append([i, j, [1, 0, 0], 0.1])
        with pytest.raises(ValueError, match="outside the ring"):
            poly_metric_from_dict(doc)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_coefficient(self, value):
        doc = poly_metric_to_dict(random_poly_metric(E3, 51))
        doc["entries"][-1][3] = value
        with pytest.raises(ValueError, match="must be finite"):
            poly_metric_from_dict(json.loads(json.dumps(doc)))


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_mul_matches_truncpoly_products(cap):
    # field products against TruncPoly arithmetic, entry by entry, at n=5 and
    # with a contraction that reorders the free indices
    n = 5
    rng = np.random.default_rng(cap)
    a = rng.standard_normal((_rows(n, cap), 2, 3))
    b = rng.standard_normal((_rows(n, cap), 3, 2, 2))
    got = _mul(a, b, "ij,jkl->lik", n, cap)
    mons = _monomials(n, cap)

    def poly(column):
        return poly_of_column(n, cap, column)

    for l, i, k in np.ndindex(2, 2, 2):
        ref = sum((poly(a[:, i, j]) * poly(b[:, j, k, l]) for j in range(3)), TruncPoly(n, cap))
        expect = np.array([ref.coeff.get(e, 0.0) for e in mons])
        assert np.allclose(got[:, l, i, k], expect, rtol=1e-13, atol=1e-13)
