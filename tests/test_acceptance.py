"""Acceptance gate: one test per stated criterion, at the stated tolerances.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  Shared Einstein extensions are built once per module; total
runtime stays within the desk-scale budget.
"""

import numpy as np
import pytest

from curvjet.curvature import (
    kulkarni,
    nk_basis,
    star_action,
    star_identity_residuals,
)
from curvjet.identities import verify_identity
from curvjet.jets import (
    TwoJet,
    einstein_check,
    einstein_extend,
    fit_jacobi_relation,
    jet_traces,
    random_einstein_one_jet,
    random_section_jet,
    random_two_jet,
    tilde_ops,
    validate_two_jet,
    weitzenbock_check,
    weitzenbock_special,
)
from curvjet.polymetric import curvature_two_jet, random_poly_metric, seed_metric
from curvjet.spaces import Space, Tensor
from curvjet.suites import make_config, run_suites
from curvjet.young import basis_Ck, random_ck, young_apply
from test_jets import constant_curvature_jet, hess_kernel_c2

E2 = Space(2)
E3 = Space(3)
E4 = Space(4)


def rel(a: np.ndarray, b: np.ndarray) -> float:
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1.0)


@pytest.fixture(scope="module")
def einstein_jets_n3():
    jets = []
    for seed in range(50):
        R, dR = random_einstein_one_jet(E3, seed)
        jets.append(einstein_extend(R, dR))
    return jets


@pytest.fixture(scope="module")
def einstein_jets_n4():
    jets = []
    for seed in range(50):
        R, dR = random_einstein_one_jet(E4, seed)
        jets.append(einstein_extend(R, dR))
    return jets


def test_criterion_01_young_eigenvalues():
    # factors 12, 24, 80 on C_0, C_1, C_2 at n = 3, 4
    for sp in (E3, E4):
        for k, factor in ((0, 12.0), (1, 24.0), (2, 80.0)):
            for seed in range(25):
                t = random_ck(sp, k, seed)
                assert rel(young_apply(t, k).data, factor * t.data) < 1e-10


def test_criterion_02_star_action_lemma_suite():
    # six-term difference form, Jacobi-operator form, Ricci and scalar traces
    for seed in range(100):
        R = random_ck(E4, 0, seed)
        Rp = random_ck(E4, 0, 10_000 + seed)
        res = star_identity_residuals(R, Rp, seed=seed)
        assert max(res.values()) < 1e-9, (seed, res)


def test_criterion_03_weitzenbock_formulas():
    # trace form on 50 random two-jets; Einstein form on flat-hessian jets;
    # full section form under the calibrated convention
    for seed in range(50):
        res = weitzenbock_special(random_two_jet(E4, seed))
        assert res["special"] < 1e-9, (seed, res)
        if res["hessian_ricci"] < 1e-9:
            assert res["einstein_form"] < 1e-9

    for seed in range(10):
        d2 = hess_kernel_c2(E4, seed)
        j = TwoJet(Tensor(E4, np.zeros((4,) * 4)), Tensor(E4, np.zeros((4,) * 5)), d2)
        res = weitzenbock_special(j)
        assert res["hessian_ricci"] < 1e-9
        assert res["einstein_form"] < 1e-9, (seed, res)

    for seed in range(50):
        sj = random_section_jet(E4, seed, random_ck(E4, 0, 20_000 + seed))
        res = weitzenbock_check(sj)
        assert res["calibrated"] < 1e-9, (seed, res)
        assert res["strict"] < 1e-9, (seed, res)


def test_criterion_04_trace_hierarchy():
    # the three trace relations on 50 random C_2 elements, then the vanishing
    # chain on constructed flat-hessian elements
    for sp in (E3, E4):
        for seed in range(50):
            d2 = random_ck(sp, 2, seed).data
            eps = sp.eps
            hess = -np.einsum("abuivi,i->abuv", d2, eps)
            dd = -np.einsum("aiizuv,i->azuv", d2, eps)
            lap = -np.einsum("iiabcd,i->abcd", d2, eps)
            first = np.transpose(hess, (0, 2, 1, 3)) - np.transpose(hess, (0, 2, 3, 1))
            assert rel(dd, first) < 1e-10
            tab = young_apply(Tensor(sp, np.transpose(hess, (0, 2, 1, 3))), 0).data
            assert rel(lap, 0.25 * tab) < 1e-10
            assert rel(lap, dd - np.transpose(dd, (1, 0, 2, 3))) < 1e-10

    for seed in range(10):
        d2 = hess_kernel_c2(E4, 100 + seed).data
        eps = E4.eps
        scale = max(np.linalg.norm(d2), 1.0)
        assert np.linalg.norm(np.einsum("aiizuv,i->azuv", d2, eps)) < 1e-10 * scale
        assert np.linalg.norm(np.einsum("iiabcd,i->abcd", d2, eps)) < 1e-10 * scale


def test_criterion_05_factor_identities():
    # projected display with coefficients -1, +2, +10 and overall factor 2;
    # contracted form equal to 80 nabla*nabla R + 16 R*R
    for sp in (E3, E4):
        for seed in range(50):
            res = verify_identity("assoc_hessian_expansion", sp, seed)
            assert res["projected_display"] < 1e-9, (sp.dim, seed, res)

            j = random_two_jet(sp, seed)
            lap = jet_traces(j)[2].data
            SS = star_action(j.R, j.R).data
            assert rel(tilde_ops(j)[1].data, 80.0 * lap + 16.0 * SS) < 1e-9


def test_criterion_06_embedding_trace_constants():
    # hat-embedding traces with constants -32 and -192 at n = 4, and the
    # auxiliary factors 3, 6, 2n - 4
    from curvjet.curvature import decompose
    from curvjet.jets import hat_embed

    n = 4
    for seed in range(50):
        S = decompose(random_ck(E4, 0, seed)).weyl_part
        hat = hat_embed(S).data
        hess = -np.einsum("abuivi,i->abuv", hat, E4.eps)
        lap = -np.einsum("iiabcd,i->abcd", hat, E4.eps)
        pair = np.transpose(S.data, (0, 2, 1, 3)) + np.transpose(S.data, (0, 2, 3, 1))
        assert rel(hess, -4.0 * (n + 4.0) * pair) < 1e-10
        assert rel(lap, -24.0 * (n + 4.0) * S.data) < 1e-10

    for name in ("embed_trace_22", "embed_trace_32", "embed_trace_inner"):
        for seed in range(50):
            assert verify_identity(name, E4, seed)["residual"] < 1e-10


def _three_verdicts(j: TwoJet, tol: float = 1e-8) -> tuple[bool, bool, bool]:
    verdict, rep = einstein_check(j, tol=tol)
    one_jet = rep["ricci_proportional"] <= tol and rep["ricci_derivative"] <= tol
    vb = one_jet and rep["tableau_trace_defect"] <= tol
    vc = one_jet and rep["form_trace_defect"] <= tol
    return verdict, vb, vc


def test_criterion_07_theorem_equivalence(einstein_jets_n3, einstein_jets_n4):
    # 100 Einstein-constructed jets plus 100 perturbations: the definitional
    # verdict and both trace-free-defect verdicts agree on every single one
    disagreements = 0
    count = 0
    for sp, jets in ((E3, einstein_jets_n3), (E4, einstein_jets_n4)):
        for seed, j in enumerate(jets):
            va, vb, vc = _three_verdicts(j)
            count += 1
            if not (va == vb == vc):
                disagreements += 1
            bad = TwoJet(j.R, j.dR, j.d2R + 1e-2 * random_ck(sp, 2, seed))
            va, vb, vc = _three_verdicts(bad)
            count += 1
            if not (va == vb == vc):
                disagreements += 1
    assert count == 200
    assert disagreements == 0


def test_criterion_08_eigenvalue_corollary(einstein_jets_n3, einstein_jets_n4):
    # any Einstein two-jet fitting the linear relation to 1e-9 has rough
    # Laplacian eigenvalue -(n+4)c/2; the symmetric family exercises c = 0
    checked = 0
    for jets in (einstein_jets_n3, einstein_jets_n4):
        for j in jets:
            fit = fit_jacobi_relation(j)
            if fit.residual < 1e-9:
                n = j.space.dim
                lap = jet_traces(j)[2].data
                gap = np.linalg.norm(lap + ((n + 4.0) * fit.c / 2.0) * j.R.data)
                assert gap < 1e-8 * j.R.norm()
                checked += 1

    for sp in (E3, E4):
        n = sp.dim
        for lam in (1.0, -2.0, 0.5):
            j = constant_curvature_jet(sp, lam)
            fit = fit_jacobi_relation(j)
            assert fit.residual < 1e-9
            lap = jet_traces(j)[2].data
            gap = np.linalg.norm(lap + ((n + 4.0) * fit.c / 2.0) * j.R.data)
            assert gap < 1e-8 * j.R.norm()
            checked += 1
    assert checked >= 6  # the implication is exercised, not vacuous


def test_criterion_09_extension_round_trip(einstein_jets_n4):
    # extension passes the Einstein criterion for 20 one-jets at n = 4 and the
    # seed metric reproduces the prescribed one-jet to 1e-8
    for seed in range(20):
        j = einstein_jets_n4[seed]
        ok, rep = einstein_check(j)
        assert ok, (seed, rep)

        R, dR = random_einstein_one_jet(E4, seed)
        provisional = curvature_two_jet(seed_metric(R, dR))
        assert rel(provisional.R.data, R.data) < 1e-8
        assert np.linalg.norm(provisional.dR.data - dR.data) < 1e-8 * max(dR.norm(), 1.0)


def test_criterion_10_structural_dimensions():
    # k = 0 projector rank, and trivial Kulkarni-Nomizu kernel on N_{k+2}
    for n, expected in ((2, 1), (3, 6), (4, 20)):
        assert len(basis_Ck(Space(n), 0)) == expected
        assert expected == n * n * (n * n - 1) // 12

    for m in (2, 3, 4):
        basis = nk_basis(E4, m)
        cols = np.stack([kulkarni(h).data.ravel() for h in basis], axis=1)
        rank = int(np.linalg.matrix_rank(cols, tol=1e-9))
        assert rank == len(basis)


def test_criterion_11_metric_pipeline_cross_validation():
    # exact curvature two-jets of 20 random polynomial metrics satisfy every
    # jet constraint
    cases = [(E3, seed) for seed in range(12)] + [(E4, seed) for seed in range(8)]
    assert len(cases) == 20
    for sp, seed in cases:
        j = curvature_two_jet(random_poly_metric(sp, seed))
        ok, res = validate_two_jet(j, tol=1e-8)
        assert ok, (sp.dim, seed, res)


# one sign pattern for each count of negative entries at n = 3 and n = 4
SIGNATURES = [
    tuple([-1] * neg + [1] * (n - neg)) for n in (3, 4) for neg in range(n + 1)
]


@pytest.mark.parametrize("signature", SIGNATURES, ids=lambda s: ",".join(map(str, s)))
def test_criterion_12_check_suites_in_every_signature(signature):
    # every `curvjet check` record passes in indefinite signatures as well
    records = run_suites(["all"], make_config(signature=signature, seeds=2))
    failed = [(r.name, r.residual, r.threshold) for r in records if not r.passed]
    assert records and not failed, failed
