"""Two-jet constraints, trace operators, Einstein criterion and extension."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvjet.curvature import (
    _kn_metric,
    _ric,
    _rotate,
    decompose,
    is_member_Nk,
    jacobi_form,
    kn_pair,
    pair_derivation,
    star_action,
)
from curvjet.jets import (
    JacobiFit,
    SectionTwoJet,
    TwoJet,
    _extension_solver,
    _h_solver,
    _packed_cycle,
    _parallel_ricci_dirs,
    einstein_check,
    einstein_extend,
    extension_solution_dim,
    fit_jacobi_relation,
    hat_embed,
    jet_traces,
    random_einstein_one_jet,
    random_section_jet,
    random_two_jet,
    sym_jacobi,
    tilde_ops,
    two_jet_from_dict,
    two_jet_to_dict,
    validate_section_jet,
    validate_two_jet,
    weitzenbock_check,
    weitzenbock_special,
)
from curvjet.spaces import Space, Tensor, metric_trace, random_tensor, sym_product
from curvjet.young import _ck_stack, basis_Ck, random_ck, young_apply

E3 = Space(3)
E4 = Space(4)


def rel(a: np.ndarray, b: np.ndarray) -> float:
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1.0)


def _second_bianchi_cycle(d: np.ndarray, a: int, c: int) -> np.ndarray:
    """Reference: d plus its two cyclic images over axes (a, c, c+1), by transposes."""
    ax1, ax2 = list(range(d.ndim)), list(range(d.ndim))
    ax1[a], ax1[c], ax1[c + 1] = c, c + 1, a
    ax2[a], ax2[c], ax2[c + 1] = c + 1, a, c
    return d + np.transpose(d, ax1) + np.transpose(d, ax2)


def zero_jet(sp: Space) -> TwoJet:
    n = sp.dim
    return TwoJet(
        Tensor(sp, np.zeros((n,) * 4)),
        Tensor(sp, np.zeros((n,) * 5)),
        Tensor(sp, np.zeros((n,) * 6)),
    )


def constant_curvature_jet(sp: Space, lam: float = 1.0) -> TwoJet:
    # g owedge g is annihilated by its own rotations, so d2R = 0 is consistent
    g = sp.metric_tensor()
    n = sp.dim
    return TwoJet(
        lam * kn_pair(g, g),
        Tensor(sp, np.zeros((n,) * 5)),
        Tensor(sp, np.zeros((n,) * 6)),
    )


# spaces of the full-coordinate references of the Einstein trace defects and the fit
REFERENCE_SPACES = [Space(3), Space(4, (-1, 1, 1, 1)), Space(5), Space(5, (-1, -1, 1, 1, 1))]


def reference_jet(sp: Space, kind: str, seed: int = 3) -> TwoJet:
    """An extended Einstein jet, the same pushed off the Einstein kernel, or a generic jet."""
    if kind == "generic":
        return random_two_jet(sp, seed)
    j = einstein_extend(*random_einstein_one_jet(sp, seed))
    if kind == "perturbed":
        j = TwoJet(j.R, j.dR, j.d2R + 1e-2 * random_ck(sp, 2, seed))
    return j


def full_coordinate_trace_defects(j: TwoJet) -> tuple[float, float]:
    """The two trace defects of einstein_check on full tensors, one metric_trace per slot pair."""
    sp = j.space
    n = sp.dim
    SS = star_action(j.R, j.R)
    projected, embedded = young_apply(j.d2R, 2), hat_embed(SS)
    defect = Tensor(sp, projected.data - embedded.data / (n + 4.0))
    scale_b = max(projected.norm(), embedded.norm() / (n + 4.0), 1.0)
    worst_b = max(metric_trace(defect, i, k).norm() for i in range(1, 7) for k in range(i + 1, 7))
    R2 = sym_jacobi(j, 2)
    completed = sym_product(jacobi_form(SS), sp.metric_tensor())
    defect_form = Tensor(sp, R2.tensor.data - completed.tensor.data / (n + 4.0))
    scale_c = max(R2.norm(), completed.norm() / (n + 4.0), 1.0)
    worst_c = max(metric_trace(defect_form, i, k).norm() for i, k in ((1, 2), (1, 5), (5, 6)))
    return worst_b / scale_b, worst_c / scale_c


def full_coordinate_fit(j: TwoJet) -> tuple[float, float]:
    """The least-squares fit of R^(2) = c * g . R^(0) on the full SymBiform tensors."""
    R2 = sym_jacobi(j, 2).tensor.data.ravel()
    G = sym_product(sym_jacobi(j, 0), j.space.metric_tensor()).tensor.data.ravel()
    if not R2.any():
        return 0.0, 0.0  # an exact fit, as fit_jacobi_relation reports it
    c = float(R2 @ G) / float(G @ G)
    return c, float(np.linalg.norm(R2 - c * G)) / float(np.linalg.norm(R2))


def jet_with_nan(j: TwoJet, part: str, entry: tuple[int, ...]) -> TwoJet:
    parts = {"R": j.R, "dR": j.dR, "d2R": j.d2R}
    data = parts[part].data.copy()
    data[entry] = np.nan
    parts[part] = Tensor(j.space, data)
    return TwoJet(**parts)


def hess_kernel_c2(sp: Space, seed: int) -> Tensor:
    """A C_2 element with vanishing second Ricci derivative; needs dim >= 4."""
    basis = basis_Ck(sp, 2)
    cols = [
        (-np.einsum("abuivi,i->abuv", b.data, sp.eps)).ravel() for b in basis
    ]
    M = np.array(cols).T
    u, s, vt = np.linalg.svd(M, full_matrices=True)
    rank = int(np.sum(s > 1e-10 * s[0]))
    null = vt[rank:]
    assert null.shape[0] > 0
    rng = np.random.default_rng(seed)
    coeff = null.T @ rng.standard_normal(null.shape[0])
    return Tensor(sp, sum(c * b.data for c, b in zip(coeff, basis)))


class TestValidate:
    def test_zero_jet_passes(self):
        ok, res = validate_two_jet(zero_jet(E3))
        assert ok and max(res.values()) == 0.0

    @pytest.mark.parametrize("sp", [E3, E4])
    def test_constant_curvature_passes(self, sp):
        ok, res = validate_two_jet(constant_curvature_jet(sp, 2.0))
        assert ok, res

    def test_generic_curvature_alone_fails_ricci_identity(self):
        # a generic R rotates itself, so d2R = 0 breaks the commutator
        n = E4.dim
        j = TwoJet(
            random_ck(E4, 0, 0),
            Tensor(E4, np.zeros((n,) * 5)),
            Tensor(E4, np.zeros((n,) * 6)),
        )
        ok, res = validate_two_jet(j)
        assert not ok
        assert res["ricci_identity"] > 1e-3
        assert res["curvature"] < 1e-12 and res["derivative"] < 1e-12

    def test_reports_bad_derivative(self):
        j = random_two_jet(E3, 0)
        bad = TwoJet(j.R, random_tensor(E3, 5, 1), j.d2R)
        ok, res = validate_two_jet(bad)
        assert not ok and res["derivative"] > 1e-3

    @pytest.mark.parametrize("part", ["R", "dR", "d2R"])
    def test_nan_component_fails(self, part):
        j = random_two_jet(E3, 0)
        parts = {"R": j.R, "dR": j.dR, "d2R": j.d2R}
        data = parts[part].data.copy()
        data.flat[-1] = np.nan
        parts[part] = Tensor(E3, data)
        ok, _ = validate_two_jet(TwoJet(**parts))
        assert not ok

    @pytest.mark.parametrize("part", ["background", "Rp", "dRp", "d2Rp"])
    def test_nan_section_component_fails(self, part):
        sj = random_section_jet(E3, 0, random_ck(E3, 0, 1))
        parts = {"background": sj.background, "Rp": sj.Rp, "dRp": sj.dRp, "d2Rp": sj.d2Rp}
        data = parts[part].data.copy()
        data.flat[-1] = np.nan
        parts[part] = Tensor(E3, data)
        ok, _ = validate_section_jet(SectionTwoJet(**parts))
        assert not ok

    def test_rejects_wrong_valence(self):
        with pytest.raises(ValueError):
            TwoJet(random_tensor(E3, 3, 0), random_tensor(E3, 5, 1), random_tensor(E3, 6, 2))

    def test_rejects_mixed_spaces(self):
        j3, j4 = random_two_jet(E3, 0), random_two_jet(E4, 0)
        with pytest.raises(ValueError):
            TwoJet(j3.R, j3.dR, j4.d2R)

    @pytest.mark.parametrize("slot", range(4))
    def test_section_jet_rejects_wrong_valence(self, slot):
        parts = components(drawn_jet(SectionTwoJet, 0))
        parts[slot] = random_tensor(E4, parts[slot].valence + 1, 0)
        with pytest.raises(ValueError, match=r"valences \(4, 4, 5, 6\)"):
            SectionTwoJet(*parts)

    @pytest.mark.parametrize("slot", range(4))
    def test_section_jet_rejects_mixed_spaces(self, slot):
        parts = components(drawn_jet(SectionTwoJet, 0))
        other = Space(4, (-1, 1, 1, 1))
        parts[slot] = Tensor(other, parts[slot].data)
        with pytest.raises(ValueError, match="different spaces"):
            SectionTwoJet(*parts)


class TestRandomTwoJet:
    @pytest.mark.parametrize("sp", [E3, E4, Space(4, (1, 1, 1, -1))])
    def test_valid(self, sp):
        for seed in range(5):
            ok, res = validate_two_jet(random_two_jet(sp, seed))
            assert ok, res

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_deterministic(self, seed):
        a = random_two_jet(E3, seed)
        b = random_two_jet(E3, seed)
        assert np.array_equal(a.d2R.data, b.d2R.data)
        assert np.array_equal(a.R.data, b.R.data)

    def test_seeds_differ(self):
        a, b = random_two_jet(E3, 0), random_two_jet(E3, 1)
        assert not np.allclose(a.R.data, b.R.data)

    def test_draw_computes_one_rotation(self, monkeypatch):
        # the particular second derivative and the validation share pair_derivation(R, R),
        # and the caller's validation reads the residuals the draw computed
        import curvjet.jets as jets

        calls = []

        def counted(R, T, eps):
            calls.append(1)
            return _rotate(R, T, eps)

        monkeypatch.setattr(jets, "_rotate", counted)
        validate_two_jet(random_two_jet(E3, 5))
        assert len(calls) == 1

    def test_section_draw_computes_one_rotation(self, monkeypatch):
        # the draw, its validation, the caller's validation and the Weitzenboeck
        # check share pair_derivation(background, Rp)
        import curvjet.jets as jets

        calls = []

        def counted(R, T, eps):
            calls.append(1)
            return _rotate(R, T, eps)

        monkeypatch.setattr(jets, "_rotate", counted)
        sj = random_section_jet(E4, 3, random_ck(E4, 0, 10))
        validate_section_jet(sj)
        weitzenbock_check(sj)
        assert len(calls) == 1

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            random_two_jet(Space(6), 0)

    def test_section_path(self):
        bg = random_ck(E4, 0, 10)
        sj = random_section_jet(E4, 3, bg)
        assert isinstance(sj, SectionTwoJet)
        ok, res = validate_section_jet(sj)
        assert ok, res


def rebuilt(j: TwoJet) -> TwoJet:
    """A new jet from copies of j's arrays, so none of j's cached values carry over."""
    return TwoJet(*(Tensor(j.space, t.data.copy()) for t in (j.R, j.dR, j.d2R)))


CACHE_SPACES = [E3, Space(4, (-1, 1, 1, 1)), Space(5, (-1, -1, 1, 1, 1))]


def components(j) -> list[Tensor]:
    """The components of a jet of either type, in field order."""
    return [getattr(j, f.name) for f in dataclasses.fields(j)]


def drawn_jet(kind: type, seed: int):
    """A drawn jet of either type on E4; a section jet over a drawn background."""
    if kind is TwoJet:
        return random_two_jet(E4, seed)
    return random_section_jet(E4, seed, random_ck(E4, 0, 20_000 + seed))


# per jet type: its fields, its validation, a check that reads the components
# afresh, and the values it caches
JET_TYPES = {
    TwoJet: (
        ["R", "dR", "d2R"],
        validate_two_jet,
        einstein_check,
        ("rotation", "residuals", "einstein_gaps", "star_square"),
    ),
    SectionTwoJet: (
        ["background", "Rp", "dRp", "d2Rp"],
        validate_section_jet,
        weitzenbock_check,
        ("rotation", "residuals"),
    ),
}
jet_types = pytest.mark.parametrize("kind", list(JET_TYPES), ids=lambda kind: kind.__name__)


class TestJetCache:
    @pytest.mark.parametrize("sp", CACHE_SPACES, ids=str)
    def test_drawn_residuals_equal_a_fresh_validation(self, sp):
        for seed in range(3):
            j = random_two_jet(sp, seed)
            assert validate_two_jet(j) == validate_two_jet(rebuilt(j))

    def test_returned_dict_is_the_callers_own(self):
        j = random_two_jet(E3, 1)
        _, first = validate_two_jet(j)
        expect = dict(first)
        first["ricci_identity"] = 1.0
        first.clear()
        assert validate_two_jet(j) == (True, expect)

    @pytest.mark.parametrize("target", ["base", "view"])
    @jet_types
    def test_writes_to_handed_arrays_do_not_reach_the_jet(self, kind, target):
        # the components are views into one writeable base array
        _, validate, check, _ = JET_TYPES[kind]
        clean = reference_jet(E4, "einstein") if kind is TwoJet else drawn_jet(kind, 3)
        parts = components(clean)
        base = np.concatenate([t.data.ravel() for t in parts])
        cuts = np.cumsum([t.data.size for t in parts[:-1]])
        views = [a.reshape(t.data.shape) for a, t in zip(np.split(base, cuts), parts)]
        j = kind(*(Tensor(E4, v) for v in views))
        expect_valid, expect_check = validate(clean), check(clean)
        assert validate(j) == expect_valid  # cached before the write
        if target == "base":
            base[:] = np.nan
        else:
            for v in views:
                v[...] = 1.0
        assert validate(j) == expect_valid
        assert check(j) == expect_check  # computed after the write
        assert not any(t.data.flags.writeable for t in components(j))

    @jet_types
    def test_cached_values_are_read_only_and_not_fields(self, kind):
        names, _, _, cached = JET_TYPES[kind]
        j = drawn_jet(kind, 2)
        assert [f.name for f in dataclasses.fields(kind)] == names
        with pytest.raises(TypeError):
            j.residuals["ricci_identity"] = 1.0
        for name in cached:
            value = getattr(j, name)
            assert not isinstance(value, np.ndarray) or not value.flags.writeable
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(j, name, None)
            assert name not in repr(j)

    @jet_types
    def test_pickle_and_copy_rebuild_the_jet(self, kind):
        import copy
        import pickle

        _, validate, _, cached = JET_TYPES[kind]
        j = drawn_jet(kind, 3)
        expect = validate(j)
        for other in (pickle.loads(pickle.dumps(j)), copy.deepcopy(j), copy.copy(j)):
            assert type(other) is kind
            assert not any(name in vars(other) for name in cached)
            assert not any(t.data.flags.writeable for t in components(other))
            assert validate(other) == expect

    @pytest.mark.parametrize("sp", CACHE_SPACES, ids=str)
    def test_extended_report_equals_the_rebuilt_jets(self, sp):
        for seed in range(3):
            j = einstein_extend(*random_einstein_one_jet(sp, seed))
            assert einstein_check(j) == einstein_check(rebuilt(j))

    def test_check_reads_the_gaps_of_the_extension(self, monkeypatch):
        import curvjet.jets as jets

        calls, gaps = [], jets._one_jet_gaps

        def counted(R, dR, eps):
            calls.append(1)
            return gaps(R, dR, eps)

        monkeypatch.setattr(jets, "_one_jet_gaps", counted)
        einstein_check(einstein_extend(*random_einstein_one_jet(E4, 1)))
        assert len(calls) == 1

    def test_extension_computes_one_rotation(self, monkeypatch):
        # the provisional second derivative and the caller's validation share
        # pair_derivation(R, R)
        import curvjet.jets as jets

        calls = []

        def counted(R, T, eps):
            calls.append(1)
            return _rotate(R, T, eps)

        R, dR = random_einstein_one_jet(E4, 2)
        monkeypatch.setattr(jets, "_rotate", counted)
        validate_two_jet(einstein_extend(R, dR))
        assert len(calls) == 1

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("lorentzian", [False, True], ids=["euclidean", "lorentzian"])
    def test_weyl_rows_draw_the_weyl_part_of_decompose(self, n, lorentzian):
        # the draws of random_einstein_one_jet, in order: C_0 coefficients, then the scale
        sp = Space(n, (-1,) * lorentzian + (1,) * (n - lorentzian))
        for seed in range(3):
            rng = np.random.default_rng(seed)
            basis0 = _ck_stack(n, 0)
            raw = Tensor(sp, basis0.combine(rng.standard_normal(len(basis0))))
            expect = rng.standard_normal() * _kn_metric(sp) + decompose(raw).weyl_part.data
            R, _ = random_einstein_one_jet(sp, seed)
            assert rel(R.data, expect) <= 1e-14


class TestTracesAndJacobi:
    def test_hessian_ricci_symmetric_in_form_slots(self):
        j = random_two_jet(E4, 2)
        hess = jet_traces(j)[0].data
        assert rel(hess, np.transpose(hess, (0, 1, 3, 2))) < 1e-13

    def test_sym_jacobi_constant_curvature_oracle(self):
        # R^(0)(xi, xi; x, x) = 2 (g(x, xi)^2 - g(x, x) g(xi, xi)) on g owedge g
        g = E4.metric_tensor()
        form = sym_jacobi(constant_curvature_jet(E4), 0)
        rng = np.random.default_rng(3)
        for _ in range(10):
            xi, x = rng.standard_normal(4), rng.standard_normal(4)
            val = float(np.einsum("abcd,a,b,c,d->", form.tensor.data, xi, xi, x, x))
            expect = 2.0 * (float(x @ xi) ** 2 - float(x @ x) * float(xi @ xi))
            assert val == pytest.approx(expect, rel=1e-11, abs=1e-11)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_sym_jacobi_lands_in_Nk(self, k):
        for seed in range(5):
            j = random_two_jet(E4, 40 + seed)
            assert is_member_Nk(sym_jacobi(j, k), tol=1e-8)

    def test_rough_laplacian_tilde_trace(self):
        # the contracted tableau of d2R equals 80 nabla*nabla R + 16 R*R
        for seed in range(10):
            j = random_two_jet(E4, 60 + seed)
            lap = jet_traces(j)[2].data
            SS = star_action(j.R, j.R).data
            tilde_lap = tilde_ops(j)[1].data
            assert rel(tilde_lap, 80.0 * lap + 16.0 * SS) < 1e-12

    def test_hat_embed_lands_in_C2(self):
        from curvjet.young import is_member_Ck

        S = random_ck(E4, 0, 70)
        assert is_member_Ck(hat_embed(S), 2, tol=1e-9)


class TestWeitzenbock:
    @pytest.mark.parametrize("sp", [E3, E4])
    def test_special_form_on_random_jets(self, sp):
        for seed in range(10):
            res = weitzenbock_special(random_two_jet(sp, seed))
            assert res["special"] < 1e-12, (seed, res)

    def test_einstein_form_needs_flat_hessian(self):
        # on the kernel of the second Ricci derivative the tableau term drops
        d2 = hess_kernel_c2(E4, 5)
        n = E4.dim
        j = TwoJet(
            Tensor(E4, np.zeros((n,) * 4)), Tensor(E4, np.zeros((n,) * 5)), d2
        )
        res = weitzenbock_special(j)
        assert res["hessian_ricci"] < 1e-12
        assert res["einstein_form"] < 1e-12

    def test_section_calibrated_and_projected(self):
        for seed in range(5):
            sj = random_section_jet(E4, 80 + seed, random_ck(E4, 0, seed))
            res = weitzenbock_check(sj)
            assert res["calibrated"] < 1e-12
            assert res["strict"] < 1e-12
            assert res["displayed_projected"] < 1e-12
            assert np.isfinite(res["displayed_raw"])

    def test_zero_section(self):
        n = E4.dim
        sj = SectionTwoJet(
            random_ck(E4, 0, 90),
            Tensor(E4, np.zeros((n,) * 4)),
            Tensor(E4, np.zeros((n,) * 5)),
            Tensor(E4, np.zeros((n,) * 6)),
        )
        res = weitzenbock_check(sj)
        assert res["calibrated"] == res["strict"] == 0.0


class TestHierarchy:
    @staticmethod
    def traces_of(sp: Space, d2: np.ndarray):
        eps = sp.eps
        hess = -np.einsum("abuivi,i->abuv", d2, eps)
        div_der = -np.einsum("aiizuv,i->azuv", d2, eps)
        lap = -np.einsum("iiabcd,i->abcd", d2, eps)
        return hess, div_der, lap

    @pytest.mark.parametrize("sp", [E3, E4])
    def test_divergence_derivative_from_hessian(self, sp):
        # first relation: nabla delta nabla R is the alternated Ricci hessian
        for seed in range(10):
            d2 = random_ck(sp, 2, seed).data
            hess, div_der, _ = self.traces_of(sp, d2)
            expect = np.transpose(hess, (0, 2, 1, 3)) - np.transpose(hess, (0, 2, 3, 1))
            assert rel(div_der, expect) < 1e-12

    @pytest.mark.parametrize("sp", [E3, E4])
    def test_rough_laplacian_from_hessian_tableau(self, sp):
        for seed in range(10):
            d2 = random_ck(sp, 2, 100 + seed).data
            hess, _, lap = self.traces_of(sp, d2)
            tab = young_apply(Tensor(sp, np.transpose(hess, (0, 2, 1, 3))), 0).data
            assert rel(lap, 0.25 * tab) < 1e-12

    @pytest.mark.parametrize("sp", [E3, E4])
    def test_rough_laplacian_from_divergence(self, sp):
        for seed in range(10):
            d2 = random_ck(sp, 2, 200 + seed).data
            _, div_der, lap = self.traces_of(sp, d2)
            assert rel(lap, div_der - np.transpose(div_der, (1, 0, 2, 3))) < 1e-12

    def test_vanishing_chain(self):
        # hessian kernel forces both downstream traces to vanish
        for seed in range(5):
            d2 = hess_kernel_c2(E4, 300 + seed).data
            hess, div_der, lap = self.traces_of(E4, d2)
            scale = max(np.linalg.norm(d2), 1.0)
            assert np.linalg.norm(hess) < 1e-10 * scale
            assert np.linalg.norm(div_der) < 1e-10 * scale
            assert np.linalg.norm(lap) < 1e-10 * scale


class TestEinsteinCheck:
    def test_constant_curvature_is_einstein(self):
        ok, report = einstein_check(constant_curvature_jet(E3, -1.5))
        assert ok
        assert max(report.values()) < 1e-10

    def test_generic_jet_is_not(self):
        ok, report = einstein_check(random_two_jet(E4, 7))
        assert not ok
        assert report["ricci_proportional"] > 1e-3

    def test_report_keys(self):
        _, report = einstein_check(zero_jet(E3))
        assert set(report) == {
            "ricci_proportional",
            "ricci_derivative",
            "hessian_ricci",
            "tableau_trace_defect",
            "form_trace_defect",
        }

    def test_verdicts_agree_on_extended_and_perturbed(self):
        for seed in range(5):
            R, dR = random_einstein_one_jet(E4, seed)
            j = einstein_extend(R, dR)
            ok, rep = einstein_check(j)
            assert ok, rep
            assert rep["tableau_trace_defect"] < 1e-8
            assert rep["form_trace_defect"] < 1e-8
            # pushing the jet off the kernel flips all three formulations
            bad = TwoJet(j.R, j.dR, j.d2R + 1e-2 * random_ck(E4, 2, seed))
            ok2, rep2 = einstein_check(bad)
            assert not ok2
            assert rep2["tableau_trace_defect"] > 1e-8
            assert rep2["form_trace_defect"] > 1e-8

    @pytest.mark.parametrize("kind", ["einstein", "perturbed", "generic"])
    def test_trace_defects_match_the_trace_loop(self, kind):
        # the packed images against one metric_trace per slot pair of the full tensors
        for sp in REFERENCE_SPACES:
            j = reference_jet(sp, kind)
            _, report = einstein_check(j)
            tableau, form = full_coordinate_trace_defects(j)
            assert report["tableau_trace_defect"] == pytest.approx(tableau, rel=1e-12, abs=1e-15)
            assert report["form_trace_defect"] == pytest.approx(form, rel=1e-12, abs=1e-15)

    # d2R entries: every index equal (its row orbit meets the packed image
    # only at forced zeros), each curvature pair repeated, and a generic one
    NAN_ENTRIES = [(0,) * 6, (3,) * 6, (0, 1, 2, 2, 0, 1), (1, 0, 0, 1, 3, 3), (2, 1, 0, 3, 1, 2)]

    @pytest.mark.parametrize(
        "entry", NAN_ENTRIES, ids=["diagonal_0", "diagonal_3", "c1_eq_c2", "c3_eq_c4", "generic"]
    )
    def test_nan_in_d2R_gives_nan_trace_defects(self, entry):
        ok, report = einstein_check(jet_with_nan(reference_jet(E4, "einstein"), "d2R", entry))
        assert not ok
        assert np.isnan(report["tableau_trace_defect"])
        assert np.isnan(report["form_trace_defect"])

    def test_einstein_display_of_tilde_trace(self):
        # on Einstein jets the projected trace collapses to the pair-symmetric
        # curvature action
        for seed in range(5):
            R, dR = random_einstein_one_jet(E4, 20 + seed)
            j = einstein_extend(R, dR)
            tilde_hess = tilde_ops(j)[0].data
            SS = star_action(j.R, j.R).data
            expect = -4.0 * (
                np.transpose(SS, (0, 2, 1, 3)) + np.transpose(SS, (0, 2, 3, 1))
            )
            assert rel(tilde_hess, expect) < 1e-9


class TestFit:
    def test_zero_curvature_rejected(self):
        with pytest.raises(ValueError):
            fit_jacobi_relation(zero_jet(E3))

    def test_constant_curvature_family_fits_zero(self):
        for lam in (1.0, -3.0, 0.25):
            fit = fit_jacobi_relation(constant_curvature_jet(E4, lam))
            assert fit == JacobiFit(0.0, 0.0)

    def test_generic_jet_has_large_residual(self):
        fit = fit_jacobi_relation(random_two_jet(E4, 11))
        assert fit.residual > 1e-2

    def test_vanishing_jacobi_form_rejected(self):
        # the totally antisymmetric 4-form is nonzero, but its Jacobi form
        # (a symmetrization over two of its slots) vanishes
        form = np.zeros((4,) * 4)
        for perm in itertools.permutations(range(4)):
            form[perm] = np.linalg.det(np.eye(4)[list(perm)])
        j = TwoJet(
            Tensor(E4, form),
            Tensor(E4, np.zeros((4,) * 5)),
            random_tensor(E4, 6, 0),
        )
        with pytest.raises(ValueError, match="vanishing Jacobi form"):
            fit_jacobi_relation(j)

    @pytest.mark.parametrize("kind", ["einstein", "perturbed", "generic"])
    def test_fit_matches_full_coordinates(self, kind):
        for sp in REFERENCE_SPACES:
            j = reference_jet(sp, kind)
            fit = fit_jacobi_relation(j)
            c, residual = full_coordinate_fit(j)
            assert fit.c == pytest.approx(c, rel=1e-12, abs=1e-15)
            assert fit.residual == pytest.approx(residual, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize(
        "part, entry",
        [("R", (0, 1, 0, 1)), ("R", (2, 3, 1, 0)), ("d2R", (0,) * 6), ("d2R", (0, 1, 2, 2, 0, 1))],
    )
    def test_nan_gives_nan_fit(self, part, entry):
        fit = fit_jacobi_relation(jet_with_nan(reference_jet(E4, "einstein"), part, entry))
        assert np.isnan(fit.c) and np.isnan(fit.residual)

    def test_nan_in_R_gives_nan_fit_where_the_second_derivative_vanishes(self):
        # an extended Einstein jet at n=3 has d2R = 0, so R^(2) vanishes
        j = reference_jet(E3, "einstein")
        assert not j.d2R.data.any()
        fit = fit_jacobi_relation(jet_with_nan(j, "R", (0, 1, 0, 1)))
        assert np.isnan(fit.c) and np.isnan(fit.residual) and not fit.clean

    def test_residual_is_scale_free(self):
        j = random_two_jet(E4, 12)
        scaled = TwoJet(j.R, j.dR, 2.0 * j.d2R)
        a, b = fit_jacobi_relation(j), fit_jacobi_relation(scaled)
        assert b.c == pytest.approx(2.0 * a.c, rel=1e-12)


class TestExtend:
    def test_rejects_non_einstein_curvature(self):
        R = random_ck(E4, 0, 13)
        dR = Tensor(E4, np.zeros((4,) * 5))
        with pytest.raises(ValueError, match="not Einstein"):
            einstein_extend(R, dR)

    def test_rejects_nonparallel_derivative(self):
        R, _ = random_einstein_one_jet(E4, 14)
        with pytest.raises(ValueError, match="nonparallel"):
            einstein_extend(R, random_ck(E4, 1, 15))

    def test_rejects_swapped_valences(self):
        R, dR = random_einstein_one_jet(E4, 14)
        with pytest.raises(ValueError, match=r"valences \(4, 5\), got \(5, 4\)"):
            einstein_extend(dR, R)

    def test_rejects_mismatched_spaces(self):
        R, dR = random_einstein_one_jet(E4, 14)
        lorentz = Space(4, (-1, 1, 1, 1))
        with pytest.raises(ValueError, match="mismatched spaces"):
            einstein_extend(R, Tensor(lorentz, dR.data))

    @pytest.mark.parametrize("part", ["R", "dR"])
    def test_rejects_nan(self, part):
        R, dR = random_einstein_one_jet(E4, 16)
        one_jet = {"R": R.data.copy(), "dR": dR.data.copy()}
        one_jet[part][(0, 1, 0, 1) if part == "R" else (0, 0, 1, 0, 1)] = np.nan
        with pytest.raises(ValueError):
            einstein_extend(Tensor(E4, one_jet["R"]), Tensor(E4, one_jet["dR"]))

    @pytest.mark.parametrize("sp", [E3, E4])
    def test_round_trip(self, sp):
        for seed in range(3):
            R, dR = random_einstein_one_jet(sp, seed)
            j = einstein_extend(R, dR)
            assert rel(j.R.data, R.data) < 1e-12
            assert np.linalg.norm(j.dR.data - dR.data) < 1e-8 * max(dR.norm(), 1.0)
            ok, res = validate_two_jet(j)
            assert ok, res
            assert einstein_check(j)[0]

    @pytest.mark.parametrize("sig", [(1, 1, 1), (-1, 1, 1), (1, 1, 1, 1), (-1, 1, 1, 1)])
    def test_extension_differs_from_seed_jet_by_c2(self, sig):
        # jet isomorphism cross-check: the exact two-jet of the seed metric and
        # the extension share (R, dR), so their second derivatives differ by C_2
        from curvjet.polymetric import curvature_two_jet, seed_metric
        from curvjet.young import is_member_Ck

        sp = Space(len(sig), sig)
        for seed in range(5):
            R, dR = random_einstein_one_jet(sp, seed)
            gap = einstein_extend(R, dR).d2R.data - curvature_two_jet(seed_metric(R, dR)).d2R.data
            assert is_member_Ck(Tensor(sp, gap), 2, 1e-9), (sig, seed)

    def test_solution_dim_reported(self):
        dim = extension_solution_dim(E4)
        assert dim >= 0
        assert extension_solution_dim(E4) == dim  # cached and stable


class TestSerialization:
    def test_round_trip(self):
        import json

        j = random_two_jet(E4, 16)
        doc = two_jet_to_dict(j)
        back = two_jet_from_dict(json.loads(json.dumps(doc)))
        assert np.array_equal(back.R.data, j.R.data)
        assert np.array_equal(back.dR.data, j.dR.data)
        assert np.array_equal(back.d2R.data, j.d2R.data)

    def test_rejects_inconsistent_document(self):
        doc = two_jet_to_dict(random_two_jet(E3, 17))
        doc["dim"] = 4
        with pytest.raises(ValueError):
            two_jet_from_dict(doc)


class TestCompactSolvers:
    # the compact SVD factors must reproduce the pseudoinverse solution
    @pytest.mark.parametrize("sp", [E3, Space(4, (-1, 1, 1, 1))])
    def test_h_solver_matches_pinv(self, sp):
        from curvjet.jets import _h_solver
        from curvjet.subspace import RTOL

        n, stack0 = sp.dim, _ck_stack(sp.dim, 0).unpacked()
        ut, vs, pairs, pk = _h_solver(sp.dim)
        columns = []
        for x in range(n):
            for y in range(x, n):
                sym = np.zeros((n, n))
                sym[x, y] = sym[y, x] = 1.0
                columns += [
                    _second_bianchi_cycle(np.multiply.outer(sym, b), 1, 2).ravel()
                    for b in stack0
                ]
        pinv = np.linalg.pinv(np.array(columns).T, rcond=RTOL)
        j = random_two_jet(sp, 4)
        target = -_second_bianchi_cycle(0.5 * pair_derivation(j.R, j.R), 1, 2).ravel()
        expect = pinv @ target
        got = vs @ (ut @ pk.pack(target))
        assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)
        upper = [(x, y) for x in range(n) for y in range(x, n)]
        assert all(pairs[x, y] == pairs[y, x] == upper.index((x, y)) for x, y in upper)

    @pytest.mark.parametrize("sp", [E3, Space(4, (-1, 1, 1, 1))])
    def test_extension_solver_matches_pinv(self, sp):
        from curvjet.jets import _extension_solver
        from curvjet.subspace import RTOL

        _, system, ut, vs, _ = _extension_solver(sp)
        target = np.random.default_rng(0).standard_normal(system.shape[0])
        expect = np.linalg.pinv(system, rcond=RTOL) @ target
        got = vs @ (ut @ target)
        assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)


def _full_coordinate_particular_d2(R: Tensor) -> np.ndarray:
    """``_particular_d2`` with the C_0 basis and the solver's ``ut`` unpacked."""
    n = R.space.dim
    stack0 = _ck_stack(n, 0).unpacked()
    ut, vs, pairs, pk = _h_solver(n)
    particular = 0.5 * pair_derivation(R, R)
    cycle = _second_bianchi_cycle(particular, 1, 2)
    coeff = (vs @ (pk.unpack(ut) @ -cycle.ravel())).reshape(-1, len(stack0))
    return particular + np.tensordot(coeff[pairs], stack0, (2, 0))


def _full_coordinate_two_jet(sp: Space, seed: int) -> tuple[np.ndarray, ...]:
    """The draws of ``random_two_jet`` against unpacked C_k stacks."""
    rng = np.random.default_rng(seed)
    s0, s1, s2 = (_ck_stack(sp.dim, k).unpacked() for k in (0, 1, 2))
    R = np.tensordot(rng.standard_normal(len(s0)), s0, (0, 0))
    dR = np.tensordot(rng.standard_normal(len(s1)), s1, (0, 0))
    homogeneous = np.tensordot(rng.standard_normal(len(s2)), s2, (0, 0))
    return R, dR, _full_coordinate_particular_d2(Tensor(sp, R)) + homogeneous


def _full_coordinate_extension(R: Tensor) -> np.ndarray:
    """The second derivative of ``einstein_extend`` against the unpacked C_2 stack."""
    directions, _, ut, vs, _ = _extension_solver(R.space)
    provisional = _full_coordinate_particular_d2(R)
    coeff = vs @ (ut @ (-80.0 * _ric(provisional, R.space.eps).ravel()))
    return provisional + np.tensordot(coeff, directions.unpacked(), (0, 0)) / 80.0


class TestPackedPath:
    # every draw is combined in packed coordinates and unpacked once; the
    # references combine the unpacked stacks, so only the last bits may differ
    SIGNATURES = [(1, 1, 1), (-1, 1, 1, 1), (1, 1, 1, 1)]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("sig", SIGNATURES, ids=str)
    def test_random_two_jet_matches_full_coordinates(self, sig, seed):
        sp = Space(len(sig), sig)
        j = random_two_jet(sp, seed)
        for got, expect in zip((j.R, j.dR, j.d2R), _full_coordinate_two_jet(sp, seed)):
            assert rel(got.data, expect) <= 1e-13

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("sig", SIGNATURES, ids=str)
    def test_einstein_extend_matches_full_coordinates(self, sig, seed):
        sp = Space(len(sig), sig)
        R, dR = random_einstein_one_jet(sp, seed)
        dirs = _parallel_ricci_dirs(sp)
        if len(dirs):
            # the draws of random_einstein_one_jet: C_0, the g KN g scale, then dR
            rng = np.random.default_rng(seed)
            rng.standard_normal(len(_ck_stack(sp.dim, 0)) + 1)
            coeff = rng.standard_normal(len(dirs))
            assert rel(dR.data, np.tensordot(coeff, dirs.unpacked(), (0, 0))) <= 1e-13
        assert rel(einstein_extend(R, dR).d2R.data, _full_coordinate_extension(R)) <= 1e-13

    @pytest.mark.parametrize("n", [3, 4])
    def test_packed_h_solver_matches_the_unpacked_product(self, n):
        ut, vs, _, pk = _h_solver(n)
        j = random_two_jet(Space(n), 4)
        target = -_second_bianchi_cycle(0.5 * pair_derivation(j.R, j.R), 1, 2).ravel()
        expect = vs @ (pk.unpack(ut) @ target)
        assert rel(vs @ (ut @ pk.pack(target)), expect) <= 1e-13

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_gathered_cycle_equals_the_packed_full_cycle(self, n):
        R = random_ck(Space(n), 0, 9)
        d = 0.5 * pair_derivation(R, R)
        expect = _h_solver(n)[3].pack(_second_bianchi_cycle(d, 1, 2).ravel())
        assert np.array_equal(_packed_cycle(d), expect)


class TestBatchedSliceChecks:
    def test_nan_in_middle_slice_fails_two_jet(self):
        j = random_two_jet(E3, 0)
        d2 = j.d2R.data.copy()
        d2[1, 1, 0, 1, 2, 0] = np.nan
        ok, res = validate_two_jet(TwoJet(j.R, j.dR, Tensor(E3, d2)))
        assert not ok and np.isnan(res["second_derivative"])

    @pytest.mark.parametrize("part", ["dRp", "d2Rp"])
    def test_nan_in_middle_slice_fails_section_jet(self, part):
        sj = random_section_jet(E3, 0, random_ck(E3, 0, 1))
        parts = {"background": sj.background, "Rp": sj.Rp, "dRp": sj.dRp, "d2Rp": sj.d2Rp}
        data = parts[part].data.copy()
        data[(1,) * (data.ndim - 4) + (0, 1, 2, 0)] = np.nan
        parts[part] = Tensor(E3, data)
        name = {"dRp": "derivative", "d2Rp": "second_derivative"}[part]
        ok, res = validate_section_jet(SectionTwoJet(**parts))
        assert not ok and np.isnan(res[name])
