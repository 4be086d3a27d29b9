"""Named check suites over seeded inputs, aggregated into CheckRecords.

Every suite maps a run configuration to records whose residuals are maxima
over the configured seeds, so a single record summarizes one identity at one
dimension.  The default configuration covers dimensions 3 and 4 with 25
seeds; full mode widens to dimension 5 and 100 seeds for nightly runs.
``run_suites`` holds one run scope (``spaces.run_scope``) open for all the
suites it runs, so each seeded input (random tensors, jets, Einstein
extensions, identity residuals) is built once per run and shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .curvature import (
    _nk_stack,
    kn_pair,
    kulkarni,
    ricci_of_star,
    star_action,
    star_identity_residuals,
)
from .identities import _ricci_flat_input, identity_names, verify_identity
from .jets import (
    RANDOM_JET_DIMS,
    TwoJet,
    _div_der,
    _eigenvalue_gap,
    _hess_kernel_stack,
    _hess_ric,
    _rough_lap,
    einstein_check,
    einstein_extend,
    fit_jacobi_relation,
    hat_embed,
    jet_traces,
    random_einstein_one_jet,
    random_two_jet,
    tilde_ops,
    validate_two_jet,
    weitzenbock_check,
    weitzenbock_special,
)
from .polymetric import curvature_two_jet, random_poly_metric, seed_metric
from .report import CheckRecord
from .spaces import Space, SymBiform, Tensor, _rel, memoized, run_scope
from .young import _ck_stack, random_ck, young_apply, young_eigenvalue

__all__ = ["RunConfig", "make_config", "suite_names", "run_suites"]

# keys of verify_identity results that document projection-only raw forms
_REPORT_ONLY = {"raw_display"}


def _worst(*values: float) -> float:
    """The largest value, or NaN if any value is NaN (``max`` would drop it)."""
    return math.nan if any(math.isnan(v) for v in values) else max(values)


@memoized
def _einstein_jet(sp: Space, seed: int) -> TwoJet:
    """Einstein extension of the seeded Einstein one-jet."""
    return einstein_extend(*random_einstein_one_jet(sp, seed))


def _verdicts_agree(verdict: bool, rep: dict[str, float]) -> bool:
    """Whether the definitional, tableau-trace and form-trace verdicts agree."""
    one_jet = rep["ricci_proportional"] <= 1e-8 and rep["ricci_derivative"] <= 1e-8
    tableau = one_jet and rep["tableau_trace_defect"] <= 1e-8
    form = one_jet and rep["form_trace_defect"] <= 1e-8
    return verdict == tableau == form


@dataclass(frozen=True)
class RunConfig:
    """Effective parameters of a check run."""

    dims: tuple[int, ...] = (3, 4)
    signature: tuple[int, ...] | None = None
    seeds: int = 25
    base_seed: int = 0
    tol: float = 1e-9
    full: bool = False

    def spaces(self) -> list[Space]:
        if self.signature is not None:
            return [Space(len(self.signature), self.signature)]
        return [Space(n) for n in self.dims]

    def seed_range(self) -> range:
        return range(self.base_seed, self.base_seed + self.seeds)

    def echo(self) -> dict:
        return {
            "dims": list(self.dims),
            "signature": list(self.signature) if self.signature else None,
            "seeds": self.seeds,
            "base_seed": self.base_seed,
            "tol": self.tol,
            "full": self.full,
        }


def make_config(
    dim: int | None = None,
    signature: tuple[int, ...] | None = None,
    seed: int = 0,
    tol: float = 1e-9,
    full: bool = False,
    seeds: int | None = None,
) -> RunConfig:
    dims = (dim,) if dim is not None else ((3, 4, 5) if full else (3, 4))
    count = seeds if seeds is not None else (100 if full else 25)
    if count < 1:
        raise ValueError(f"need at least one seed, got {count}")
    if dim is not None and signature is not None and dim != len(signature):
        raise ValueError("the dimension contradicts the signature length")
    for n in (len(signature),) if signature is not None else dims:
        if n not in RANDOM_JET_DIMS:
            raise ValueError(f"checks need a dimension in {RANDOM_JET_DIMS}, got {n}")
    return RunConfig(dims, signature, count, seed, tol, full)


def suite_eigenvalue(cfg: RunConfig) -> list[CheckRecord]:
    out = []
    for sp in cfg.spaces():
        for k in (0, 1, 2):
            factor = young_eigenvalue(k)
            worst = 0.0
            for seed in cfg.seed_range():
                t = random_ck(sp, k, seed)
                worst = _worst(worst, _rel(young_apply(t, k).data, factor * t.data))
            out.append(CheckRecord(f"eigenvalue/n{sp.dim}/k{k}", worst, cfg.tol))
    return out


def suite_star(cfg: RunConfig) -> list[CheckRecord]:
    out = []
    for sp in cfg.spaces():
        worst: dict[str, float] = {}
        worst_ric = 0.0
        for seed in cfg.seed_range():
            R = random_ck(sp, 0, seed)
            Rp = random_ck(sp, 0, seed + 10_000)
            for key, v in star_identity_residuals(R, Rp, seed=seed).items():
                worst[key] = _worst(worst.get(key, 0.0), v)
            worst_ric = _worst(worst_ric, ricci_of_star(R, Rp)[2])
        for key in sorted(worst):
            out.append(CheckRecord(f"star/n{sp.dim}/{key}", worst[key], cfg.tol))
        out.append(CheckRecord(f"star/n{sp.dim}/ricci_of_star", worst_ric, cfg.tol))
    return out


def suite_weitzenbock(cfg: RunConfig) -> list[CheckRecord]:
    out = []
    for sp in cfg.spaces():
        worst_special = 0.0
        worst_section = {"calibrated": 0.0, "strict": 0.0, "displayed_projected": 0.0}
        for seed in cfg.seed_range():
            worst_special = _worst(
                worst_special, weitzenbock_special(random_two_jet(sp, seed))["special"]
            )
            sj = random_two_jet(sp, seed, background=random_ck(sp, 0, seed + 20_000))
            res = weitzenbock_check(sj)
            for key in worst_section:
                worst_section[key] = _worst(worst_section[key], res[key])
        out.append(CheckRecord(f"weitzenbock/n{sp.dim}/special", worst_special, cfg.tol))
        for key in sorted(worst_section):
            out.append(
                CheckRecord(f"weitzenbock/n{sp.dim}/{key}", worst_section[key], cfg.tol)
            )

        kernel = _hess_kernel_stack(sp)
        if len(kernel):  # the einstein form needs a flat Ricci hessian
            n = sp.dim
            worst_einstein = 0.0
            rng = np.random.default_rng(cfg.base_seed)
            for _ in range(min(cfg.seeds, len(kernel))):
                coeff = rng.standard_normal(len(kernel))
                j = TwoJet(
                    Tensor(sp, np.zeros((n,) * 4)),
                    Tensor(sp, np.zeros((n,) * 5)),
                    Tensor(sp, kernel.combine(coeff)),
                )
                worst_einstein = _worst(
                    worst_einstein, weitzenbock_special(j)["einstein_form"]
                )
            out.append(
                CheckRecord(f"weitzenbock/n{sp.dim}/einstein_form", worst_einstein, cfg.tol)
            )
    return out


def suite_hierarchy(cfg: RunConfig) -> list[CheckRecord]:
    out = []
    for sp in cfg.spaces():
        eps = sp.eps
        worst = {"divergence_derivative": 0.0, "laplacian_tableau": 0.0, "laplacian_divergence": 0.0}
        for seed in cfg.seed_range():
            d2 = random_ck(sp, 2, seed).data
            hess, dd, lap = _hess_ric(d2, eps), _div_der(d2, eps), _rough_lap(d2, eps)
            worst["divergence_derivative"] = _worst(
                worst["divergence_derivative"],
                _rel(dd, np.transpose(hess, (0, 2, 1, 3)) - np.transpose(hess, (0, 2, 3, 1))),
            )
            tab = young_apply(Tensor(sp, np.transpose(hess, (0, 2, 1, 3))), 0).data
            worst["laplacian_tableau"] = _worst(worst["laplacian_tableau"], _rel(lap, 0.25 * tab))
            worst["laplacian_divergence"] = _worst(
                worst["laplacian_divergence"], _rel(lap, dd - np.transpose(dd, (1, 0, 2, 3)))
            )
        for key in sorted(worst):
            out.append(CheckRecord(f"hierarchy/n{sp.dim}/{key}", worst[key], cfg.tol))

        kernel = _hess_kernel_stack(sp)
        if len(kernel):
            worst_chain = 0.0
            rng = np.random.default_rng(cfg.base_seed)
            for _ in range(min(cfg.seeds, len(kernel))):
                d2 = kernel.combine(rng.standard_normal(len(kernel)))
                scale = max(float(np.linalg.norm(d2)), 1.0)
                worst_chain = _worst(
                    worst_chain,
                    float(np.linalg.norm(_div_der(d2, eps))) / scale,
                    float(np.linalg.norm(_rough_lap(d2, eps))) / scale,
                )
            out.append(CheckRecord(f"hierarchy/n{sp.dim}/vanishing_chain", worst_chain, cfg.tol))
    return out


def suite_tilde(cfg: RunConfig) -> list[CheckRecord]:
    out = []
    for sp in cfg.spaces():
        worst_lap = 0.0
        for seed in cfg.seed_range():
            j = random_two_jet(sp, seed)
            lap = jet_traces(j)[2].data
            SS = star_action(j.R, j.R).data
            worst_lap = _worst(worst_lap, _rel(tilde_ops(j)[1].data, 80.0 * lap + 16.0 * SS))
        out.append(CheckRecord(f"tilde/n{sp.dim}/rough_laplacian_80_16", worst_lap, cfg.tol))

        worst_keys: dict[str, float] = {}
        for seed in cfg.seed_range():
            for name in ("assoc_hessian_expansion", "assoc_hessian_difference"):
                for key, v in verify_identity(name, sp, seed).items():
                    if key in _REPORT_ONLY:
                        continue
                    full = f"{name}/{key}"
                    worst_keys[full] = _worst(worst_keys.get(full, 0.0), v)
        for key in sorted(worst_keys):
            out.append(CheckRecord(f"tilde/n{sp.dim}/{key}", worst_keys[key], cfg.tol))
    return out


def suite_embed(cfg: RunConfig) -> list[CheckRecord]:
    out = []
    for sp in cfg.spaces():
        n = sp.dim
        eps = sp.eps
        worst_hess, worst_lap = 0.0, 0.0
        for seed in cfg.seed_range():
            S = _ricci_flat_input(sp, seed)
            hat = hat_embed(S).data
            pair = np.transpose(S.data, (0, 2, 1, 3)) + np.transpose(S.data, (0, 2, 3, 1))
            worst_hess = _worst(worst_hess, _rel(_hess_ric(hat, eps), -4.0 * (n + 4.0) * pair))
            worst_lap = _worst(worst_lap, _rel(_rough_lap(hat, eps), -24.0 * (n + 4.0) * S.data))
        out.append(CheckRecord(f"embed/n{n}/hessian_constant", worst_hess, cfg.tol))
        out.append(CheckRecord(f"embed/n{n}/laplacian_constant", worst_lap, cfg.tol))

        for name in ("embed_trace_22", "embed_trace_32", "embed_trace_inner"):
            worst = 0.0
            for seed in cfg.seed_range():
                worst = _worst(worst, verify_identity(name, sp, seed)["residual"])
            out.append(CheckRecord(f"embed/n{n}/{name}", worst, cfg.tol))
    return out


def suite_einstein(cfg: RunConfig) -> list[CheckRecord]:
    out = []
    for sp in cfg.spaces():
        disagreements = 0
        worst_defect = 0.0
        worst_display = 0.0
        for seed in cfg.seed_range():
            j = _einstein_jet(sp, seed)
            verdict, rep = einstein_check(j)
            disagreements += not _verdicts_agree(verdict, rep)
            worst_defect = _worst(worst_defect, *rep.values())

            tilde_hess = tilde_ops(j)[0].data
            SS = star_action(j.R, j.R).data
            display = -4.0 * (
                np.transpose(SS, (0, 2, 1, 3)) + np.transpose(SS, (0, 2, 3, 1))
            )
            worst_display = _worst(worst_display, _rel(tilde_hess, display))

            bad = TwoJet(j.R, j.dR, j.d2R + 1e-2 * random_ck(sp, 2, seed))
            disagreements += not _verdicts_agree(*einstein_check(bad))
        total = 2 * len(cfg.seed_range())
        out.append(
            CheckRecord(f"einstein/n{sp.dim}/verdict_agreement", disagreements / total, cfg.tol)
        )
        out.append(CheckRecord(f"einstein/n{sp.dim}/extension_defect", worst_defect, cfg.tol))
        out.append(CheckRecord(f"einstein/n{sp.dim}/trace_display", worst_display, cfg.tol))
    return out


def suite_fit(cfg: RunConfig) -> list[CheckRecord]:
    out = []
    for sp in cfg.spaces():
        n = sp.dim
        g = sp.metric_tensor()
        zero5 = Tensor(sp, np.zeros((n,) * 5))
        zero6 = Tensor(sp, np.zeros((n,) * 6))
        worst_family, worst_corollary = 0.0, 0.0
        for lam in (1.0, -2.0, 0.5):
            j = TwoJet(lam * kn_pair(g, g), zero5, zero6)
            fit = fit_jacobi_relation(j)
            worst_family = _worst(worst_family, abs(fit.c), fit.residual)
            if fit.residual < 1e-9:
                worst_corollary = _worst(worst_corollary, _eigenvalue_gap(j, fit.c))
        for seed in cfg.seed_range():
            j = _einstein_jet(sp, seed)
            fit = fit_jacobi_relation(j)
            if fit.residual < 1e-9:
                worst_corollary = _worst(worst_corollary, _eigenvalue_gap(j, fit.c))
        out.append(CheckRecord(f"fit/n{n}/symmetric_family", worst_family, cfg.tol))
        out.append(CheckRecord(f"fit/n{n}/corollary", worst_corollary, 10.0 * cfg.tol))
    return out


def suite_dimensions(cfg: RunConfig) -> list[CheckRecord]:
    out = []
    for sp in cfg.spaces():
        n = sp.dim
        expected = n * n * (n * n - 1) // 12
        gap = abs(len(_ck_stack(n, 0)) - expected)
        out.append(CheckRecord(f"dimensions/n{n}/c0_rank", float(gap), cfg.tol))
        for m in (2, 3, 4):
            basis = _nk_stack(n, m)
            out.append(
                CheckRecord(
                    f"dimensions/n{n}/nk_matches_ck_m{m}",
                    float(abs(len(basis) - len(_ck_stack(n, m - 2)))),
                    cfg.tol,
                )
            )
            # one basis vector unpacked and one image at a time: the unpacked
            # basis or a list of images would each hold 15625 x 420 floats at n=5
            cols = np.empty((n ** (m + 2), len(basis)))
            for c, row in enumerate(basis.rows):
                b = basis.unpack(row)
                cols[:, c] = kulkarni(SymBiform(sp, m, Tensor(sp, b))).data.ravel()
            rank = int(np.linalg.matrix_rank(cols, tol=1e-9))
            out.append(
                CheckRecord(
                    f"dimensions/n{n}/kulkarni_kernel_m{m}",
                    float(len(basis) - rank),
                    cfg.tol,
                )
            )
    return out


def suite_metric(cfg: RunConfig) -> list[CheckRecord]:
    out = []
    for sp in cfg.spaces():
        n = sp.dim
        worst_valid = 0.0
        worst_trip = 0.0
        for seed in cfg.seed_range():
            j = curvature_two_jet(random_poly_metric(sp, seed))
            _, res = validate_two_jet(j)
            worst_valid = _worst(worst_valid, *res.values())
            R = random_ck(sp, 0, seed)
            dR = random_ck(sp, 1, seed + 30_000)
            back = curvature_two_jet(seed_metric(R, dR))
            worst_trip = _worst(
                worst_trip, _rel(back.R.data, R.data), _rel(back.dR.data, dR.data)
            )
        out.append(CheckRecord(f"metric/n{n}/jet_validity", worst_valid, cfg.tol))
        out.append(CheckRecord(f"metric/n{n}/seed_round_trip", worst_trip, cfg.tol))
    return out


def suite_identities(cfg: RunConfig) -> list[CheckRecord]:
    out = []
    for sp in cfg.spaces():
        for name in identity_names():
            worst: dict[str, float] = {}
            for seed in cfg.seed_range():
                for key, v in verify_identity(name, sp, seed).items():
                    if key in _REPORT_ONLY:
                        continue
                    worst[key] = _worst(worst.get(key, 0.0), v)
            for key in sorted(worst):
                out.append(
                    CheckRecord(f"identities/n{sp.dim}/{name}/{key}", worst[key], cfg.tol)
                )
    return out


_SUITES: dict[str, Callable[[RunConfig], list[CheckRecord]]] = {
    "eigenvalue": suite_eigenvalue,
    "star": suite_star,
    "weitzenbock": suite_weitzenbock,
    "hierarchy": suite_hierarchy,
    "tilde": suite_tilde,
    "embed": suite_embed,
    "einstein": suite_einstein,
    "fit": suite_fit,
    "dimensions": suite_dimensions,
    "metric": suite_metric,
    "identities": suite_identities,
}


def suite_names() -> tuple[str, ...]:
    return tuple(_SUITES) + ("all",)


def run_suites(names: list[str], cfg: RunConfig) -> list[CheckRecord]:
    """Run the named suites in registry order; 'all' expands to every suite."""
    selected = list(_SUITES) if "all" in names else [n for n in _SUITES if n in names]
    unknown = set(names) - set(_SUITES) - {"all"}
    if unknown:
        raise KeyError(f"unknown suite names: {sorted(unknown)}")
    records: list[CheckRecord] = []
    with run_scope():
        for name in selected:
            records.extend(_SUITES[name](cfg))
    return records
