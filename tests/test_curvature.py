"""Curvature operators: traces, products, derivation and star actions."""

import itertools

import numpy as np
import pytest

from curvjet.curvature import (
    _decompose,
    _kn_metric,
    _trace_free_ric,
    decompose,
    divergence,
    exterior_ricci_derivative,
    is_member_Nk,
    jacobi_form,
    kn_pair,
    kulkarni,
    nk_basis,
    one_form_star_factor,
    pair_derivation,
    random_nk,
    ricci,
    ricci_derivative,
    ricci_of_star,
    skew_action,
    star_action,
    star_identity_residuals,
)
from curvjet.spaces import (
    Space,
    SymBiform,
    Tensor,
    metric_trace,
    permute,
    random_tensor,
    tensor_product,
)
from curvjet.young import _ck_draws, basis_Ck, is_member_Ck, random_ck, young_apply

E3 = Space(3)
E4 = Space(4)


def rel(a: Tensor, b: Tensor) -> float:
    return (a - b).norm() / max(a.norm(), b.norm(), 1.0)


def random_skew(sp: Space, seed: int) -> Tensor:
    t = random_tensor(sp, 2, seed)
    return t - permute(t, (2, 1))


def einstein_tensor(sp: Space, seed: int, lam: float = 2.5) -> Tensor:
    g = sp.metric_tensor()
    W = decompose(random_ck(sp, 0, seed)).weyl_part
    return W + lam * kn_pair(g, g)


class TestRicci:
    def test_zero(self):
        z = Tensor(E3, np.zeros((3,) * 4))
        out = ricci(z)
        assert out.ric.norm() == 0.0 and out.scalar == 0.0

    def test_constant_curvature_value(self):
        # magnitude 2(n-1) on g kn g; the sign follows the trace convention
        g = E3.metric_tensor()
        out = ricci(kn_pair(g, g))
        assert rel(out.ric, -4.0 * g) < 1e-14
        assert out.scalar == pytest.approx(-12.0)

    def test_ric_symmetric_and_scalar_consistent(self):
        out = ricci(random_ck(E4, 0, 3))
        assert rel(out.ric, permute(out.ric, (2, 1))) < 1e-13
        assert out.scalar == pytest.approx(
            float(metric_trace(out.ric, 1, 2).data), rel=1e-12
        )

    def test_weyl_part_is_ricci_flat(self):
        W = decompose(random_ck(E4, 0, 4)).weyl_part
        out = ricci(W)
        assert out.ric.norm() < 1e-10 * max(W.norm(), 1.0)


class TestKulkarni:
    def test_metric_pair_hand_oracle(self):
        # h(u,v;x,y) = g(u,v) g(x,y) completes to the constant-curvature
        # tensor 2(g_ac g_bd - g_ad g_bc)
        g = E4.metric_tensor()
        hg = SymBiform(E4, 2, tensor_product(g, g))
        out = kulkarni(hg)
        gd = g.data
        expect = 2.0 * (
            np.einsum("ac,bd->abcd", gd, gd) - np.einsum("ad,bc->abcd", gd, gd)
        )
        assert np.allclose(out.data, expect, atol=1e-14)
        assert rel(out, kn_pair(g, g)) < 1e-14

    def test_zero(self):
        h = SymBiform(E3, 2, Tensor(E3, np.zeros((3,) * 4)))
        assert kulkarni(h).norm() == 0.0

    @pytest.mark.parametrize("m,k", [(2, 0), (3, 1), (4, 2)])
    def test_image_in_Ck(self, m, k):
        h = SymBiform(E3, m, random_tensor(E3, m + 2, 50 + m))
        assert is_member_Ck(kulkarni(h), k, tol=1e-9)

    def test_trivial_kernel_on_N4(self):
        basis = nk_basis(E3, 4)
        cols = np.stack([kulkarni(b).data.ravel() for b in basis], axis=1)
        rank = np.linalg.matrix_rank(cols, tol=1e-8)
        assert rank == len(basis)
        smin = np.linalg.svd(cols, compute_uv=False)[-1]
        for seed in range(50):
            h = random_nk(E3, 4, seed)
            assert kulkarni(h).norm() >= 0.5 * smin * h.norm() > 0.0


    @pytest.mark.parametrize("sp", [E3, Space(4, (-1, 1, 1, 1)), Space(5, (-1, -1, 1, 1, 1))])
    def test_kn_products_are_the_four_einsum_sum_bit_for_bit(self, sp):
        # A owedge B as four einsums, in this order; kn_pair and the Ricci part
        # of _decompose read it off _kulkarni at m = 2, lone and batched
        def four_einsums(A, B):
            return (
                np.einsum("...ac,...bd->...abcd", A, B)
                + np.einsum("...bd,...ac->...abcd", A, B)
                - np.einsum("...ad,...bc->...abcd", A, B)
                - np.einsum("...bc,...ad->...abcd", A, B)
            )

        n = sp.dim
        a, b = random_tensor(sp, 2, 1), random_tensor(sp, 2, 2)
        a, b = a + permute(a, (2, 1)), b + permute(b, (2, 1))
        assert np.array_equal(kn_pair(a, b).data, four_einsums(a.data, b.data))
        R = _ck_draws(n, 0, (1, 2, 3))
        ric0 = _trace_free_ric(R, sp.eps)[0]
        expect = four_einsums(sp.metric_matrix(), ric0) * (-1.0 / (n - 2))
        assert np.array_equal(_decompose(R, sp)[1], expect)
        assert np.array_equal(_decompose(R[1], sp)[1], expect[1])


class TestDecompose:
    def test_constant_curvature_is_pure_scalar(self):
        g = E3.metric_tensor()
        R = kn_pair(g, g)
        d = decompose(R)
        assert rel(d.scalar_part, R) < 1e-13
        assert d.ricci_part.norm() < 1e-13 * R.norm()
        assert d.weyl_part.norm() < 1e-13 * R.norm()

    def test_zero(self):
        d = decompose(Tensor(E4, np.zeros((4,) * 4)))
        assert d.scalar_part.norm() == d.ricci_part.norm() == d.weyl_part.norm() == 0.0

    def test_round_trip(self):
        R = random_ck(E4, 0, 6)
        d = decompose(R)
        assert rel(d.scalar_part + d.ricci_part + d.weyl_part, R) < 1e-10

    def test_parts_have_expected_traces(self):
        R = random_ck(E4, 0, 7)
        d = decompose(R)
        assert ricci(d.weyl_part).ric.norm() < 1e-10 * max(R.norm(), 1.0)
        ric_mid = ricci(d.ricci_part).ric
        assert abs(float(metric_trace(ric_mid, 1, 2).data)) < 1e-10

    def test_low_dimension_unsupported(self):
        g = Space(2).metric_tensor()
        with pytest.raises(NotImplementedError):
            decompose(kn_pair(g, g))

    @pytest.mark.parametrize("sp", [E3, Space(4, (-1, 1, 1, 1))])
    def test_cached_metric_product_is_read_only_g_owedge_g(self, sp):
        g = sp.metric_tensor()
        gg = _kn_metric(sp)
        assert np.array_equal(gg, kn_pair(g, g).data)
        assert not gg.flags.writeable and _kn_metric(sp) is gg


class TestSkewAction:
    def test_kills_metric(self):
        B = random_skew(E4, 8)
        assert skew_action(B, E4.metric_tensor()).norm() < 1e-13

    def test_leibniz_over_tensor_product(self):
        B = random_skew(E3, 9)
        a = random_tensor(E3, 2, 10)
        b = random_tensor(E3, 1, 11)
        lhs = skew_action(B, tensor_product(a, b))
        rhs = tensor_product(skew_action(B, a), b) + tensor_product(
            a, skew_action(B, b)
        )
        assert rel(lhs, rhs) < 1e-13

    def test_kills_constant_curvature(self):
        g = E4.metric_tensor()
        B = random_skew(E4, 12)
        gg = kn_pair(g, g)
        assert skew_action(B, gg).norm() < 1e-12 * gg.norm()

    def test_rejects_non_skew(self):
        sym = E3.metric_tensor()
        with pytest.raises(ValueError):
            skew_action(sym, random_tensor(E3, 2, 0))


class TestStarAction:
    def test_one_form_is_ricci_composition(self):
        R = random_ck(E4, 0, 13)
        alpha = random_tensor(E4, 1, 14)
        out = star_action(R, alpha)
        ric = ricci(R).ric.data
        expect = np.einsum("ab,b,b->a", ric, E4.eps, alpha.data)
        assert np.allclose(out.data, expect, atol=1e-12)

    def test_scalar_trace_vanishes(self):
        for seed in range(5):
            R = random_ck(E4, 0, 20 + seed)
            Rp = random_ck(E4, 0, 30 + seed)
            st = star_action(R, ricci(Rp).ric)
            tr = abs(float(metric_trace(st, 1, 2).data))
            assert tr < 1e-12 * max(st.norm(), 1.0)

    def test_constant_curvature_star_itself_is_zero(self):
        # every derivation kills g kn g, so anything star g kn g vanishes
        g = E4.metric_tensor()
        gg = kn_pair(g, g)
        assert star_action(gg, gg).norm() < 1e-12 * gg.norm() ** 2
        R = random_ck(E4, 0, 15)
        assert star_action(R, gg).norm() < 1e-12 * max(R.norm() * gg.norm(), 1.0)

    def test_preserves_curvature_symmetries(self):
        R = random_ck(E3, 0, 16)
        Rp = random_ck(E3, 0, 17)
        assert is_member_Ck(star_action(R, Rp), 0, tol=1e-9)

    def test_preserves_plain_symmetry(self):
        R = random_ck(E3, 0, 18)
        sym = E3.metric_tensor() * 0.0 + (
            random_tensor(E3, 2, 19) + permute(random_tensor(E3, 2, 19), (2, 1))
        )
        out = star_action(R, sym)
        assert rel(out, permute(out, (2, 1))) < 1e-13


class TestStarIdentities:
    @pytest.mark.parametrize("sp", [E3, E4])
    def test_residuals_small(self, sp):
        for seed in range(15):
            R = random_ck(sp, 0, 100 + seed)
            Rp = random_ck(sp, 0, 200 + seed)
            res = star_identity_residuals(R, Rp, seed=seed)
            assert set(res) == {"six_term", "jacobi", "ricci_trace", "scalar_trace"}
            for name, v in res.items():
                assert v < 1e-12, (name, v)

    @staticmethod
    def jacobi_loop(R: Tensor, Rp: Tensor, seed: int) -> float:
        """Reference: the Jacobi-diagonal samples one scalar contraction at a time."""
        SS = star_action(R, Rp).data
        T1 = np.einsum("aiiqrs,i->aqrs", pair_derivation(R, Rp), R.space.eps)
        scale = max(np.linalg.norm(SS), 1.0)
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(8):
            x, y = rng.standard_normal(R.space.dim), rng.standard_normal(R.space.dim)
            lhs = float(np.einsum("abcd,a,b,c,d->", SS, x, y, x, y))
            rhs = -2.0 * (
                float(np.einsum("aqrs,a,q,r,s->", T1, x, y, x, y))
                + float(np.einsum("aqrs,a,q,r,s->", T1, y, x, y, x))
            )
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), scale))
        return worst

    @pytest.mark.parametrize("sp", [E3, Space(4, (-1, 1, 1, 1)), Space(5)], ids=str)
    def test_each_star_once_and_the_jacobi_samples_batched(self, sp, monkeypatch):
        import curvjet.curvature as curvature

        calls, rotate = [], curvature._rotate

        def counted(R, T, eps):
            calls.append((R, T))
            return rotate(R, T, eps)

        monkeypatch.setattr(curvature, "_rotate", counted)
        for seed in range(3):
            R, Rp = random_ck(sp, 0, 100 + seed), random_ck(sp, 0, 200 + seed)
            calls.clear()
            res = star_identity_residuals(R, Rp, seed=seed)
            # R on R' (R*R' and its pair trace), R on ric' (R*ric'); the third
            # rotation is R' on ric, the Ricci terms of the six-term expansion
            by_R = [T for rot, T in calls if rot is R.data]
            assert len(by_R) == 2 and by_R[0] is Rp.data and by_R[1].shape == (sp.dim,) * 2
            assert [rot is Rp.data for rot, _ in calls].count(True) == 1
            assert res["ricci_trace"] == ricci_of_star(R, Rp)[2]
            assert abs(res["jacobi"] - self.jacobi_loop(R, Rp, seed)) <= 1e-15

    def test_nan_reaches_the_jacobi_residual(self):
        Rp = random_ck(E4, 0, 200).data.copy()
        Rp[0, 1, 0, 1] = np.nan
        res = star_identity_residuals(random_ck(E4, 0, 100), Tensor(E4, Rp))
        assert np.isnan(res["jacobi"])

    def test_ricci_of_star_contract(self):
        for seed in range(10):
            R = random_ck(E4, 0, 300 + seed)
            Rp = random_ck(E4, 0, 400 + seed)
            lhs, rhs, d = ricci_of_star(R, Rp)
            assert d < 1e-10

    def test_ricci_of_star_zero_input(self):
        z = Tensor(E4, np.zeros((4,) * 4))
        lhs, rhs, d = ricci_of_star(z, z)
        assert lhs.norm() == rhs.norm() == 0.0 and d == 0.0

    def test_star_against_weyl_is_ricci_flat(self):
        R = random_ck(E4, 0, 21)
        W = decompose(random_ck(E4, 0, 22)).weyl_part
        out = star_action(R, W)
        assert ricci(out).ric.norm() < 1e-10 * max(out.norm(), 1.0)

    def test_einstein_jacobi_corollary(self):
        R = einstein_tensor(E4, 23)
        SS = star_action(R, R)
        assert ricci(SS).ric.norm() < 1e-10 * max(SS.norm(), 1.0)
        T1 = np.einsum("aiiqrs,i->aqrs", pair_derivation(R, R), E4.eps)
        rng = np.random.default_rng(24)
        for _ in range(10):
            x, y = rng.standard_normal(4), rng.standard_normal(4)
            lhs = float(np.einsum("abcd,a,b,c,d->", SS.data, x, y, y, x))
            rhs = -4.0 * float(np.einsum("aqrs,a,q,r,s->", T1, x, y, y, x))
            assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), abs(rhs), 1.0)

    @pytest.mark.parametrize("part", ["scalar_part", "ricci_part", "weyl_part"])
    def test_type_preservation(self, part):
        R = random_ck(E4, 0, 25)
        d = decompose(random_ck(E4, 0, 26))
        Rp = getattr(d, part)
        out = star_action(R, Rp)
        if out.norm() < 1e-10 * max(Rp.norm(), 1.0):
            return  # the scalar summand is annihilated
        od = decompose(out)
        off = sum(
            getattr(od, q).norm()
            for q in ("scalar_part", "ricci_part", "weyl_part")
            if q != part
        )
        assert off < 1e-9 * out.norm()

    def test_rotation_ricci_combination_projects_to_zero(self):
        # the (2,2) symmetrizer annihilates rotation-of-ricci 4-tensors
        for seed in range(5):
            R = random_ck(E4, 0, 500 + seed)
            ricp = ricci(random_ck(E4, 0, 600 + seed)).ric
            K = Tensor(E4, pair_derivation(R, ricp))
            assert young_apply(K, 0).norm() < 1e-10 * max(K.norm(), 1.0)


class TestDivergence:
    def test_zero(self):
        z = Tensor(E4, np.zeros((4,) * 5))
        assert divergence(z).norm() == 0.0

    def test_rejects_non_member(self):
        with pytest.raises(ValueError):
            divergence(random_tensor(E4, 5, 27))

    def test_contracted_second_bianchi(self):
        for seed in range(10):
            dR = random_ck(E4, 1, 700 + seed)
            div = divergence(dR)
            dric = exterior_ricci_derivative(dR)
            # div(z; x, y) = dric(x, y, z)
            lhs = div.data
            rhs = np.transpose(dric.data, (2, 0, 1))
            assert np.linalg.norm(lhs - rhs) < 1e-10 * max(
                np.linalg.norm(lhs), 1.0
            )

    def test_trace_free_slice_has_zero_divergence(self):
        basis = basis_Ck(E4, 1)
        M = np.stack([ricci_derivative(b).data.ravel() for b in basis], axis=1)
        u, s, vt = np.linalg.svd(M)
        rank = int(np.sum(s > 1e-10 * s[0]))
        null = vt[rank:]
        assert null.shape[0] > 0  # the slice is nonempty at n=4
        coeff = null[0]
        dR = Tensor(E4, sum(c * b.data for c, b in zip(coeff, basis)))
        assert ricci_derivative(dR).norm() < 1e-10
        assert divergence(dR).norm() < 1e-10 * max(dR.norm(), 1.0)


class TestNk:
    def test_jacobi_form_of_curvature_is_member(self):
        for seed in range(50):
            R = random_ck(E3, 0, 800 + seed)
            assert is_member_Nk(jacobi_form(R), tol=1e-9)

    def test_metric_is_not_member(self):
        h = SymBiform(E3, 0, E3.metric_tensor())
        assert not is_member_Nk(h)

    def test_zero_is_member(self):
        h = SymBiform(E3, 2, Tensor(E3, np.zeros((3,) * 4)))
        assert is_member_Nk(h)

    @pytest.mark.parametrize(
        "n,m,expected",
        [(3, 2, 6), (3, 3, 15), (3, 4, 27), (4, 2, 20), (4, 4, 126)],
    )
    def test_dimension_matches_curvature_space(self, n, m, expected):
        # dim N_{k+2} = dim C_k
        sp = Space(n)
        assert len(nk_basis(sp, m)) == expected
        assert len(basis_Ck(sp, m - 2)) == expected

    def test_random_nk_members(self):
        for seed in range(5):
            h = random_nk(E3, 3, seed)
            assert is_member_Nk(h, tol=1e-9)


def test_sphere_factor_report():
    """Neither unit-curvature normalization reproduces the n-fold factor; the
    measured values are +-(n-1). Both candidates are reported."""
    out = one_form_star_factor(E4)
    assert out["target_factor"] == 4.0
    assert out["minus_half_kn"] == pytest.approx(3.0, abs=1e-12)
    assert out["plus_half_kn"] == pytest.approx(-3.0, abs=1e-12)
    assert out["match"] is None


def star_action_per_ordered_pair(R: Tensor, A: Tensor) -> np.ndarray:
    """Reference R*A from the star_action docstring: one einsum per ordered pair."""
    eps = R.space.eps
    M = np.einsum("ajdc,j,c->adjc", R.data, eps, eps)
    E = ricci(R).ric.data * eps[None, :]
    v = A.valence
    out = np.zeros_like(A.data)
    base = "abcdefgh"[:v]
    for i in range(v):
        sub_in = base[:i] + "z" + base[i + 1 :]
        out += np.einsum(f"{sub_in},{base[i]}z->{base}", A.data, E)
        for m in range(v):
            if m != i:
                sub_in = list(base)
                sub_in[i], sub_in[m] = "q", "r"
                out += np.einsum(f"{''.join(sub_in)},{base[i]}{base[m]}qr->{base}", A.data, M)
    return out


def star_action_pair_kernel(R: Tensor, A: Tensor) -> np.ndarray:
    """Reference R*A in expanded form: the Ricci endomorphism in each slot, plus
    K = M + M^T with M[a,d,j,c] = eps_j eps_c R[a,j,d,c] in each unordered slot pair."""
    eps = R.space.eps
    M = np.einsum("ajdc,j,c->adjc", R.data, eps, eps)
    K = M + M.transpose(1, 0, 3, 2)
    E = ricci(R).ric.data * eps[None, :]
    v = A.valence
    out = np.zeros_like(A.data)
    base = "abcdefgh"[:v]
    for i in range(v):
        sub_in = base[:i] + "z" + base[i + 1 :]
        out += np.einsum(f"{sub_in},{base[i]}z->{base}", A.data, E)
    for i, m in itertools.combinations(range(v), 2):
        sub_in = list(base)
        sub_in[i], sub_in[m] = "q", "r"
        out += np.einsum(f"{''.join(sub_in)},{base[i]}{base[m]}qr->{base}", A.data, K)
    return out


def pair_derivation_per_slot(R: Tensor, T: Tensor) -> np.ndarray:
    """Reference (R_{e_a,e_b} . T): one einsum per slot of T."""
    K = np.einsum("abuc,c->abuc", R.data, R.space.eps)
    v = T.valence
    out = np.zeros((R.space.dim,) * 2 + T.data.shape)
    base = "cdefghij"[:v]
    for m in range(v):
        sub_in = base[:m] + "z" + base[m + 1 :]
        out -= np.einsum(f"{sub_in},xy{base[m]}z->xy{base}", T.data, K)
    return out


def skew_action_per_slot(B: Tensor, A: Tensor) -> np.ndarray:
    """Reference (B.A): one einsum per slot of A."""
    W = np.einsum("ba,a->ba", B.data, B.space.eps)
    v = A.valence
    out = np.zeros_like(A.data)
    base = "abcdefgh"[:v]
    for m in range(v):
        sub_in = base[:m] + "z" + base[m + 1 :]
        out -= np.einsum(f"{sub_in},{base[m]}z->{base}", A.data, W)
    return out


SLOT_SIGNATURES = [(1, 1, 1), (-1, 1, 1, 1), (1, 1, -1, -1, 1)]
SLOT_CASES = [(sig, v) for sig in SLOT_SIGNATURES for v in range(7 if len(sig) < 5 else 6)]
SLOT_IDS = [f"{sig}-v{v}" for sig, v in SLOT_CASES]


def close_to(got: np.ndarray, ref: np.ndarray) -> bool:
    return np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize(
    "other", [Space(4, (-1, 1, 1, 1)), Space(3)], ids=["signature", "dimension"]
)
def test_binary_operations_reject_mismatched_spaces(other):
    R, g = random_ck(E4, 0, 1), E4.metric_tensor()
    B = Tensor(E4, np.triu(np.ones((4, 4)), 1) - np.tril(np.ones((4, 4)), -1))
    R_other, g_other = random_ck(other, 0, 1), other.metric_tensor()
    with pytest.raises(ValueError, match="mismatched spaces"):
        pair_derivation(R, R_other)
    with pytest.raises(ValueError, match="mismatched spaces"):
        pair_derivation(R_other, R)
    with pytest.raises(ValueError, match="mismatched spaces"):
        kn_pair(g, g_other)
    with pytest.raises(ValueError, match="mismatched spaces"):
        skew_action(B, R_other)
    with pytest.raises(ValueError, match="mismatched spaces"):
        star_action(R, R_other)


@pytest.mark.parametrize("signature", SLOT_SIGNATURES)
@pytest.mark.parametrize("valence", [0, 1, 2, 3, 4, 5, 6])
def test_star_action_matches_per_ordered_pair_reference(signature, valence):
    sp = Space(len(signature), signature)
    R = random_ck(sp, 0, 5)
    A = random_tensor(sp, valence, 6)
    assert close_to(star_action(R, A).data, star_action_per_ordered_pair(R, A))


@pytest.mark.parametrize("sp", [E3, E4, Space(4, (-1, 1, 1, 1))], ids=str)
@pytest.mark.parametrize("valence", [0, 1, 2, 3, 4, 5])
def test_star_action_matches_the_ricci_and_pair_kernel_expansion(sp, valence):
    R = random_ck(sp, 0, 8)
    A = random_tensor(sp, valence, 9)
    got, ref = star_action(R, A).data, star_action_pair_kernel(R, A)
    assert got.shape == ref.shape
    assert np.linalg.norm(got - ref) <= 1e-13 * max(np.linalg.norm(ref), 1e-300)


@pytest.mark.parametrize("signature, valence", SLOT_CASES, ids=SLOT_IDS)
def test_pair_derivation_matches_per_slot_reference(signature, valence):
    sp = Space(len(signature), signature)
    R = random_ck(sp, 0, 5)
    T = random_tensor(sp, valence, 6)
    assert close_to(pair_derivation(R, T), pair_derivation_per_slot(R, T))


@pytest.mark.parametrize("signature, valence", SLOT_CASES, ids=SLOT_IDS)
def test_skew_action_matches_per_slot_reference(signature, valence):
    sp = Space(len(signature), signature)
    B = random_skew(sp, 7)
    A = random_tensor(sp, valence, 6)
    assert close_to(skew_action(B, A).data, skew_action_per_slot(B, A))
