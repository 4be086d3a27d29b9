"""Batched kernels against their per-seed calls, bitwise.

Every kernel that the check suites run on a chunk of seeds stacks the
seeds on a leading axis.  Its result for each seed must be the per-seed
result to the bit, so that a chunked check reports what a seed-by-seed one
does.  Five seeds are stacked in one Euclidean, one Lorentzian and one
split-signature space.
"""

import numpy as np
import pytest

from curvjet import jets as jets_module
from curvjet.curvature import (
    _kn_metric,
    _ric,
    _rotate,
    _star,
    _star_residuals,
    pair_derivation,
    ricci,
    star_action,
    star_identity_residuals,
)
from curvjet.identities import _verify_seeds, identity_names, verify_identity
from curvjet.jets import (
    TwoJet,
    _draw_section_jets,
    _draw_two_jets,
    _einstein_one_jets,
    _einstein_report,
    _einstein_verdicts,
    _extend,
    _hat_embed,
    _jacobi_fit,
    _section_residuals,
    _tilde,
    _two_jet_chunk,
    _two_jet_residuals,
    _weitzenbock,
    _weitzenbock_special,
    einstein_check,
    einstein_extend,
    fit_jacobi_relation,
    hat_embed,
    random_einstein_one_jet,
    random_section_jet,
    random_two_jet,
    tilde_ops,
    validate_section_jet,
    validate_two_jet,
    weitzenbock_check,
    weitzenbock_special,
)
from curvjet.polymetric import (
    _jet_fields,
    _random_fields,
    _seed_field,
    _seed_fields,
    curvature_two_jet,
    random_poly_metric,
)
from curvjet.spaces import Space, Tensor, _orbit_plan, _orbit_sums, _rel, _scalar_trace, _tail
from curvjet.suites import _einstein_jets, _verdicts_agree
from curvjet.young import _ck_draws, random_ck

SEEDS = (3, 4, 5, 6, 7)
SPACES = [Space(3), Space(4, (-1, 1, 1, 1)), Space(5, (-1, -1, 1, 1, 1))]


@pytest.fixture(params=SPACES, ids=lambda sp: "".join("+-"[s < 0] for s in sp.signature))
def sp(request):
    return request.param


def stacked(singles) -> np.ndarray:
    return np.stack([np.asarray(x) for x in singles])


def assert_bitwise(batched, singles, equal_nan=False):
    singles = stacked(singles)
    assert batched.shape == singles.shape
    assert np.array_equal(batched, singles, equal_nan=equal_nan)


def ck(sp, k, offset=0):
    return _ck_draws(sp.dim, k, tuple(s + offset for s in SEEDS))


def test_ck_draws(sp):
    for k in (0, 1, 2):
        assert_bitwise(ck(sp, k), [random_ck(sp, k, s).data for s in SEEDS])


def test_orbit_sums(sp):
    # each row of a stack sums as alone, into len(ids) bins and into the
    # 2 * size bins of d2R and g (x) R*R, and a NaN stays in its own row
    n = sp.dim
    ids = _orbit_plan(n, 4, ((0, 2), (1, 3)))[0]
    bins, size = jets_module._tableau_bins(n)
    rng = np.random.default_rng(2)
    for plan, total, shape in ((ids, None, (n,) * 4), (bins, 2 * size, (len(bins),))):
        data = rng.standard_normal((len(SEEDS),) + shape)
        data.reshape(len(SEEDS), -1)[2, 0] = np.nan
        sums = _orbit_sums(data, plan, total)
        assert_bitwise(sums, [_orbit_sums(t, plan, total)[0] for t in data], equal_nan=True)
        assert np.isnan(sums[2]).any() and not np.isnan(np.delete(sums, 2, axis=0)).any()


def test_two_jet_draws(sp):
    *_, residuals = _draw_two_jets(sp, SEEDS)
    jets = _two_jet_chunk(sp, SEEDS)
    singles = [random_two_jet(sp, s) for s in SEEDS]
    for part in ("R", "dR", "d2R"):
        assert_bitwise(getattr(jets, part), [getattr(j, part).data for j in singles])
    assert_bitwise(jets.rotation, [j.rotation for j in singles])
    assert_bitwise(jets.star_square, [j.star_square for j in singles])
    for key, values in residuals.items():
        assert_bitwise(values, [j.residuals[key] for j in singles])
    # and a fresh validation of each drawn jet
    fresh = _two_jet_residuals(jets.R, jets.dR, jets.d2R, _rotate(jets.R, jets.R, sp.eps))
    for key, values in fresh.items():
        expect = [validate_two_jet(TwoJet(j.R, j.dR, j.d2R))[1][key] for j in singles]
        assert_bitwise(values, expect)


def test_section_jet_draws_and_weitzenbock(sp):
    background = ck(sp, 0, 20_000)
    parts, rotation, residuals = _draw_section_jets(sp, SEEDS, background)
    singles = [random_section_jet(sp, s, Tensor(sp, b)) for s, b in zip(SEEDS, background)]
    for part, values in zip(("background", "Rp", "dRp", "d2Rp"), parts):
        assert_bitwise(values, [getattr(j, part).data for j in singles])
    assert_bitwise(rotation, [j.rotation for j in singles])
    fresh = _section_residuals(*parts, _rotate(parts[0], parts[1], sp.eps))
    for key, values in {**residuals, **fresh}.items():
        assert_bitwise(values, [validate_section_jet(j)[1][key] for j in singles])
    res = _weitzenbock(parts[0], parts[1], parts[3], rotation, sp.eps)
    for key, values in res.items():
        assert_bitwise(values, [weitzenbock_check(j)[key] for j in singles])


def test_einstein_one_jet_draws_extension_and_check(sp):
    R, dR = _einstein_one_jets(sp, SEEDS)
    singles = [random_einstein_one_jet(sp, s) for s in SEEDS]
    assert_bitwise(R, [r.data for r, _ in singles])
    assert_bitwise(dR, [d.data for _, d in singles])
    d2R, rotation, einstein_gaps = _extend(sp, R, dR)
    extended = [einstein_extend(r, d) for r, d in singles]
    assert_bitwise(d2R, [j.d2R.data for j in extended])
    assert_bitwise(rotation, [j.rotation for j in extended])
    for gaps, i in zip(einstein_gaps, (0, 1)):
        assert_bitwise(gaps, [j.einstein_gaps[i] for j in extended])
    SS = stacked([j.star_square for j in extended])
    # an Einstein jet and a perturbed one that fails the check
    for d2, jets_d2 in ((d2R, extended), (d2R + 1e-2 * ck(sp, 2), None)):
        checked = jets_d2 or [TwoJet(j.R, j.dR, Tensor(sp, d)) for j, d in zip(extended, d2)]
        report = _einstein_report(d2, SS, einstein_gaps, sp.eps)
        singles_checked = [einstein_check(j) for j in checked]
        assert_bitwise(_einstein_verdicts(report)[0], [v for v, _ in singles_checked])
        for key, values in report.items():
            assert_bitwise(values, [rep[key] for _, rep in singles_checked])


def test_jacobi_fit(sp):
    # Einstein jets; jets with d2R = 0.7 g (x) R, which fit cleanly with c = 0.7
    # and a gap of 0.35 |n - 4| |R| / max(|R|, 1); the lam * g owedge g family
    # (an exact fit, c = 0); an Einstein jet with a NaN entry in d2R; and a
    # family jet with a NaN entry in R and d2R = 0
    R, dR = _einstein_one_jets(sp, SEEDS)
    d2R = _extend(sp, R, dR)[0]
    scaled = 0.7 * np.einsum("ab,...cdef->...abcdef", np.diag(sp.eps), R[:2])
    family = np.array([1.0, -2.0, 0.5])[:, None, None, None, None] * _kn_metric(sp)
    R = np.concatenate([R, R[:2], family, R[:1], family[:1]])
    dR = np.concatenate([dR, np.zeros((7,) + dR.shape[1:])])
    d2R = np.concatenate([d2R, scaled, np.zeros((3,) + d2R.shape[1:]), d2R[:1], d2R[:1] * 0.0])
    d2R[-2, 0, 1, 0, 1, 0, 1] = np.nan
    R[-1, 0, 1, 0, 1] = np.nan
    c, residual, gap = _jacobi_fit(d2R, R, sp.eps)
    singles = [TwoJet(*(Tensor(sp, t) for t in parts)) for parts in zip(R, dR, d2R)]
    fits = [fit_jacobi_relation(j) for j in singles]
    assert_bitwise(c, [f.c for f in fits], equal_nan=True)
    assert_bitwise(residual, [f.residual for f in fits], equal_nan=True)
    lone = [_jacobi_fit(j.d2R.data, j.R.data, sp.eps)[2] for j in singles]
    assert_bitwise(gap, lone, equal_nan=True)
    # the gap is taken only where the fit is clean, as one norm of the full tensor
    assert np.array_equal(np.isnan(gap), ~(residual < 1e-9))
    for i in np.flatnonzero(residual < 1e-9):
        lap = -np.einsum("iiabcd,i->abcd", d2R[i], sp.eps)
        corollary = lap + ((sp.dim + 4.0) * fits[i].c / 2.0) * R[i]
        assert gap[i] == np.linalg.norm(corollary) / max(np.linalg.norm(R[i]), 1.0)
    assert np.all(residual[5:10] < 1e-9) and np.all(c[5:7] != 0.0)
    assert np.all(c[7:10] == 0.0) and np.all(residual[7:10] == 0.0) and np.all(gap[7:10] == 0.0)
    assert np.isnan([c[-2:], residual[-2:], gap[-2:]]).all() and np.isfinite(c[:-2]).all()


def agree_one(verdict, rep) -> bool:
    """Whether the verdicts of one jet's report agree, read off its floats."""
    one_jet = rep["ricci_proportional"] <= 1e-8 and rep["ricci_derivative"] <= 1e-8
    tableau = one_jet and rep["tableau_trace_defect"] <= 1e-8
    form = one_jet and rep["form_trace_defect"] <= 1e-8
    return verdict == tableau == form


def test_verdict_agreement_on_report_arrays(sp):
    # the reports that suite_einstein reads (Einstein jets and perturbed ones),
    # and one whose Hessian verdict disagrees with both trace verdicts on jets 1 and 3
    R, _, d2R, SS, gaps = _einstein_jets(sp, SEEDS)
    # R*R read off the extension's rotation is a fresh R*R to the bit
    assert np.array_equal(SS, _star(R, R, sp.eps))
    reports = [_einstein_report(d2, SS, gaps, sp.eps) for d2 in (d2R, d2R + 1e-2 * ck(sp, 2))]
    reports.append({**reports[0], "hessian_ricci": np.array([0.0, 1.0, 0.0, 1.0, 0.0])})
    for report in reports:
        singles = [{key: float(v[i]) for key, v in report.items()} for i in range(len(SEEDS))]
        expect = [agree_one(_einstein_verdicts(rep)[0], rep) for rep in singles]
        assert_bitwise(_verdicts_agree(report), expect)
    assert expect == [True, False, True, False, True]


@pytest.mark.parametrize("valence", [1, 2, 4, 5])
def test_star_action_pair_derivation_and_ricci(sp, valence):
    R = ck(sp, 0)
    A = np.random.default_rng(valence).standard_normal((len(SEEDS),) + (sp.dim,) * valence)
    tensors = [(Tensor(sp, r), Tensor(sp, a)) for r, a in zip(R, A)]
    assert_bitwise(_star(R, A, sp.eps), [star_action(r, a).data for r, a in tensors])
    assert_bitwise(_rotate(R, A, sp.eps), [pair_derivation(r, a) for r, a in tensors])
    ric = _ric(R, sp.eps)
    scalar = _scalar_trace(ric, sp.eps)
    assert_bitwise(ric, [ricci(r).ric.data for r, _ in tensors])
    assert_bitwise(scalar, [ricci(r).scalar for r, _ in tensors])


def test_star_identity_residuals(sp):
    R, Rp = ck(sp, 0), ck(sp, 0, 10_000)
    xy = stacked([np.random.default_rng(s).standard_normal((8, 2, sp.dim)) for s in SEEDS])
    res = _star_residuals(R, Rp, sp.eps, xy)
    singles = [
        star_identity_residuals(Tensor(sp, r), Tensor(sp, rp), seed=s)
        for r, rp, s in zip(R, Rp, SEEDS)
    ]
    for key, values in res.items():
        assert_bitwise(values, [r[key] for r in singles])


def test_rel_on_every_layout(sp):
    rng = np.random.default_rng(1)
    a = rng.standard_normal((len(SEEDS),) + (sp.dim,) * 4)
    b = a + 1e-3 * rng.standard_normal(a.shape)
    for x, y in ((a, b), (_tail(a, (1, 0, 3, 2)), b), (np.moveaxis(a, 0, -1)[..., 0], b[0])):
        lead = 1 if x.ndim == 5 else 0
        if lead:
            assert_bitwise(_rel(x, y, 1), [_rel(np.array(u), np.array(v)) for u, v in zip(x, y)])
        else:
            assert _rel(x, y) == _rel(np.ascontiguousarray(x), y)


def test_tilde_hat_and_trace_weitzenbock(sp):
    jets = _two_jet_chunk(sp, SEEDS)
    singles = [random_two_jet(sp, s) for s in SEEDS]
    for got, i in zip(_tilde(jets.d2R, sp.eps), (0, 1)):
        assert_bitwise(got, [tilde_ops(j)[i].data for j in singles])
    assert_bitwise(_hat_embed(jets.R, sp.eps), [hat_embed(j.R).data for j in singles])
    res = _weitzenbock_special(jets.d2R, jets.star_square, sp.eps)
    for key, values in res.items():
        assert_bitwise(values, [weitzenbock_special(j)[key] for j in singles])


def test_two_jet_of_field(sp):
    fields = _random_fields(sp, SEEDS)
    singles = [curvature_two_jet(random_poly_metric(sp, s)) for s in SEEDS]
    for got, part in zip(_jet_fields(fields, sp.eps), ("R", "dR", "d2R")):
        assert_bitwise(got, [getattr(j, part).data for j in singles])
    R, dR = ck(sp, 0), ck(sp, 1, 30_000)
    seeded = _seed_fields(R, dR, sp.eps)
    assert_bitwise(seeded, [_seed_field(Tensor(sp, r), Tensor(sp, d)) for r, d in zip(R, dR)])


@pytest.mark.parametrize("name", identity_names())
def test_identity_verifiers(sp, name):
    res = _verify_seeds(name, sp, SEEDS)
    singles = [verify_identity(name, sp, s) for s in SEEDS]
    assert list(res) == list(singles[0])
    for key, values in res.items():
        assert_bitwise(values, [r[key] for r in singles])


# A failed draw or extension names the first jet that fails, alone or in a chunk.
LORENTZ4 = SPACES[1]


def spoiled(real, values):
    """``real`` with the ``ricci_identity`` residuals replaced by ``values``, one per jet."""

    def spoil(*parts):
        res = real(*parts)
        return {**res, "ricci_identity": np.reshape(values, np.shape(res["ricci_identity"]))}

    return spoil


def test_a_failed_two_jet_draw_names_the_first_failing_jet(monkeypatch):
    real = jets_module._two_jet_residuals
    monkeypatch.setattr(jets_module, "_two_jet_residuals", spoiled(real, [np.nan]))
    with pytest.raises(RuntimeError, match="^two-jet construction failed: {.*'ricci_identity': nan}$"):
        random_two_jet(LORENTZ4, SEEDS[0])
    monkeypatch.setattr(jets_module, "_two_jet_residuals", spoiled(real, [0.5]))
    with pytest.raises(RuntimeError) as lone:
        random_two_jet(LORENTZ4, SEEDS[2])
    # in a chunk, jet 2 fails first and is named with its own residuals
    monkeypatch.setattr(jets_module, "_two_jet_residuals", spoiled(real, [0, 0, 0.5, np.nan, 0]))
    with pytest.raises(RuntimeError) as chunk:
        _draw_two_jets(LORENTZ4, SEEDS)
    assert str(chunk.value) == str(lone.value)


def test_a_failed_section_jet_draw_names_the_first_failing_jet(monkeypatch):
    real = jets_module._section_residuals
    background = ck(LORENTZ4, 0, 20_000)
    monkeypatch.setattr(jets_module, "_section_residuals", spoiled(real, [np.inf]))
    with pytest.raises(RuntimeError, match="^section jet construction failed: {.*'ricci_identity': inf}$"):
        random_section_jet(LORENTZ4, SEEDS[0], Tensor(LORENTZ4, background[0]))
    monkeypatch.setattr(jets_module, "_section_residuals", spoiled(real, [1.0]))
    with pytest.raises(RuntimeError) as lone:
        random_section_jet(LORENTZ4, SEEDS[1], Tensor(LORENTZ4, background[1]))
    monkeypatch.setattr(jets_module, "_section_residuals", spoiled(real, [0, 1.0, np.nan, 0, 0]))
    with pytest.raises(RuntimeError) as chunk:
        _draw_section_jets(LORENTZ4, SEEDS, background)
    assert str(chunk.value) == str(lone.value)


def test_an_uncancelled_extension_names_the_first_failing_jet(monkeypatch):
    R, dR = _einstein_one_jets(LORENTZ4, SEEDS)
    real = jets_module._extension_solver(LORENTZ4)
    # a solver whose correction is zero leaves each jet's whole defect
    zero = (*real[:2], 0.0 * real[2], *real[3:])
    monkeypatch.setattr(jets_module, "_extension_solver", lambda space: zero)
    with pytest.raises(RuntimeError, match=r"^extension failed: .* \(residual \d\.\d{3}e\+\d\d\)$") as lone:
        einstein_extend(Tensor(LORENTZ4, R[0]), Tensor(LORENTZ4, dR[0]))
    with pytest.raises(RuntimeError) as chunk:
        _extend(LORENTZ4, R, dR)
    assert str(chunk.value) == str(lone.value)


def test_a_nan_extension_gap_fails():
    # finite, Einstein and parallel, but so large that the solve overflows to NaN
    R, dR = _einstein_one_jets(LORENTZ4, SEEDS)
    R[2] = 1e200 * _kn_metric(LORENTZ4)
    with np.errstate(all="ignore"):
        with pytest.raises(RuntimeError, match=r"^extension failed: .*\(residual nan\)$"):
            einstein_extend(Tensor(LORENTZ4, R[2]), Tensor(LORENTZ4, dR[2]))
        with pytest.raises(RuntimeError, match=r"\(residual nan\)$"):
            _extend(LORENTZ4, R, dR)
