"""Named check suites over seeded inputs, aggregated into CheckRecords.

A suite maps a run configuration and one space to records, each summarizing
one identity at one dimension.  A record that is the worst residual over the
configured seeds comes from ``_worst_over``, so a NaN on any seed fails it,
and it keeps the loop seed of that worst value and the number of seeds
reduced; only ``einstein/*/verdict_agreement`` (a share of verdicts),
``fit/*`` (which adds a fixed family of symmetric jets), the kernel-draw
records and ``dimensions/*`` (no seeds) are reduced otherwise, and carry no
seed unless a seeded value is their worst.  The default configuration covers
dimensions 3 and 4 with 25 seeds; full mode widens to dimension 5 and 100
seeds for nightly runs.
A suite runs its seeds in chunks (``_chunks``) along one seed axis: it
draws the inputs of each seed of a chunk from that seed's own
``default_rng``, stacks them on a leading axis, and every kernel it calls
carries that axis along.  ``residuals(seeds)`` gives one value per seed of
a chunk for each key; ``_over_seeds`` concatenates each key's values over
the chunks in seed order, and ``_worst_over`` reduces each key in one pass
(``_seeded_worst``); ``einstein``'s verdict agreement and ``fit``'s
corollary read the same concatenated values.  A chunk holds as many seeds
as keep one stacked valence-6 array within ``subspace._CHUNK_BYTES``
(``_chunk``: 89 at n=3, 16 at n=4, 4 at n=5).  Seeded inputs live only in
chunk stacks: no suite walks the seeds or basis vectors one at a time or
builds a per-seed jet (``fit`` fits each stack of Einstein jets at once;
``dimensions`` maps chunks of N_m basis vectors).  The run-scope
memo holds only what the chunk functions return, read-only arrays, tuples
of them and read-only mappings of them, never a per-seed input or a stack
of the whole run.
Each kernel gives every seed the bits of a call on that seed alone, so the
records do not depend on the chunk length.
``run_suites`` runs each selected suite on every configured space.  A task
is one suite on one space; the tasks run largest space first, each space's
suites in registry order, and each space in its own run scope
(``spaces.run_scope``), so each seeded input is built once per space and
shared by its suites, and no input is shared across spaces.
The tasks are split across the CPUs that no BLAS thread claims (see
``_pool_size``).  A pipe holds one token per free CPU.  Before each suite,
a process that finds a token and has two or more tasks left forks a helper
and hands it every whole space after its current one, or, with one space
left, the tail half of its suites.  The helper inherits every basis and
memoized input built so far, so nothing is rebuilt, sends its records back
through a pipe and returns its token when it has run its last suite.
Without a free token everything runs in one process.  The records are
merged in suite-major order (every space of a suite, then the next suite),
so the report does not depend on how the tasks were split.
"""

from __future__ import annotations

import functools
import os
import pickle
import sys
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import spaces as _spaces
from .curvature import _kn_metric, _kulkarni, _nk_stack, _ric, _rotate, _star_of, _star_residuals
from .identities import Residuals, _ricci_flat_input, _verify_seeds, identity_names
from .jets import (
    _CLEAN_FIT,
    RANDOM_JET_DIMS,
    _div_der,
    _draw_section_jets,
    _einstein_one_jets,
    _einstein_report,
    _einstein_verdicts,
    _extend,
    _hat_embed,
    _hess_kernel_stack,
    _hessian_tableau,
    _jacobi_fit,
    _rough_lap,
    _tilde,
    _two_jet_chunk,
    _two_jet_residuals,
    _weitzenbock,
    _weitzenbock_special,
)
from .polymetric import _jet_fields, _random_fields, _seed_fields
from .report import CheckRecord
from .spaces import (
    Space,
    _norm,
    _normal_draws,
    _rel,
    _sym_biform,
    _tail,
    memoized,
    run_scope,
    space_to_dict,
)
from .subspace import _per_chunk, numerical_rank
from .young import _ck_chunk, _ck_packing, _ck_stack, _young, young_eigenvalue

__all__ = ["RunConfig", "make_config", "suite_names", "run_suites", "run_suites_timed"]

# keys of verify_identity results that document projection-only raw forms
_REPORT_ONLY = {"raw_display"}

# the seeds of one chunk
Seeds = tuple[int, ...]


def _worst_rows(*values: np.ndarray) -> np.ndarray:
    """The worst of the values of each seed: the largest, or NaN if any is NaN."""
    return np.max(np.stack(values), axis=0)


@memoized
def _einstein_jets(sp: Space, seeds: Seeds):
    """Einstein extensions of the seeded Einstein one-jets of one chunk: (R, dR, d2R, SS, gaps).

    ``SS`` is R*R, read off the rotation that ``_extend`` computed, and
    ``gaps`` are the one-jet gaps that it checked.  The rotations (n^6
    floats per seed, which no suite reads) are not kept.
    """
    R, dR = _einstein_one_jets(sp, seeds)
    d2R, rotation, gaps = _extend(sp, R, dR)
    return R, dR, d2R, _star_of(rotation, sp.eps, 4), gaps


def _verdicts_agree(rep: Residuals) -> np.ndarray:
    """Whether the definitional, tableau-trace and form-trace verdicts agree, jet by jet."""
    verdict, tableau, form = _einstein_verdicts(rep)
    return (verdict == tableau) & (tableau == form)


@dataclass(frozen=True)
class RunConfig:
    """Effective parameters of a check run."""

    dims: tuple[int, ...]
    signature: tuple[int, ...] | None
    seeds: int
    base_seed: int
    tol: float
    full: bool

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


@dataclass(frozen=True)
class Worst:
    """Worst value of one residual key, the loop seed that gave it, and the sample count."""

    value: float
    seed: int | None
    samples: int

    def record(self, name: str, threshold: float) -> CheckRecord:
        return CheckRecord(name, self.value, threshold, self.seed, self.samples)


def _chunk(sp: Space) -> int:
    """Seeds per chunk on sp: as many as keep one stacked valence-6 array within ``_CHUNK_BYTES``.

    That is 89 seeds at n=3, 16 at n=4 and 4 at n=5.
    """
    return _per_chunk(8 * sp.dim**6)


def _chunks(cfg: RunConfig, sp: Space) -> list[Seeds]:
    """The configured seeds in consecutive chunks of ``_chunk(sp)``."""
    seeds, size = cfg.seed_range(), _chunk(sp)
    return [tuple(seeds[i : i + size]) for i in range(0, len(seeds), size)]


def _over_seeds(
    cfg: RunConfig, sp: Space, residuals: Callable[[Seeds], Residuals]
) -> tuple[list[int], Residuals]:
    """The configured seeds and each residual key's values over them, in seed order.

    ``residuals(seeds)`` maps each key to one value per seed of a chunk
    (``_chunks``), the same keys for every chunk; each key's values are
    concatenated over the chunks in seed order.
    """
    chunks = _chunks(cfg, sp)
    found = [residuals(seeds) for seeds in chunks]
    values = {key: np.concatenate([f[key] for f in found]) for key in found[0]}
    return [s for seeds in chunks for s in seeds], values


def _worst_over(
    cfg: RunConfig, sp: Space, residuals: Callable[[Seeds], Residuals]
) -> dict[str, Worst]:
    """Worst value of each residual key over the configured seeds (see ``_over_seeds``).

    Keys keep their order; a NaN on any seed makes its key NaN.  The seed
    kept is the loop seed (not a suite's offset seed) of the first NaN, or
    else of the first largest value.
    """
    seeds, values = _over_seeds(cfg, sp, residuals)
    return {key: _seeded_worst(v, seeds) for key, v in values.items()}


def _seeded_worst(values, seeds: Sequence[int | None]) -> Worst:
    """Worst of one value per seed: the first NaN, else the first largest (at least 0.0).

    No values give 0.0 with no seed and no samples.
    """
    values = np.maximum(np.asarray(values, dtype=float), 0.0)
    if len(values) == 0:
        return Worst(0.0, None, 0)
    nan = np.flatnonzero(np.isnan(values))
    at = int(nan[0]) if len(nan) else int(np.argmax(values))
    return Worst(float(values[at]), seeds[at], len(values))


def _records(cfg: RunConfig, prefix: str, worst: dict[str, Worst]) -> list[CheckRecord]:
    """One record per key of ``worst``, in sorted key order."""
    return [worst[key].record(f"{prefix}/{key}", cfg.tol) for key in sorted(worst)]


def _draws_worst(values) -> Worst:
    """Worst of values that come from no loop seed (fixed families, kernel draws)."""
    return _seeded_worst(values, (None,) * len(values))


def _offset(seeds: Seeds, offset: int) -> Seeds:
    return tuple(s + offset for s in seeds)


def _identity_worst(cfg: RunConfig, sp: Space, name: str) -> dict[str, Worst]:
    """Worst residuals of a registered identity, without its report-only keys."""

    def residuals(seeds: Seeds) -> Residuals:
        res = _verify_seeds(name, sp, seeds)
        return {key: v for key, v in res.items() if key not in _REPORT_ONLY}

    return _worst_over(cfg, sp, residuals)


def _kernel_draws(cfg: RunConfig, sp: Space) -> np.ndarray:
    """Up to ``cfg.seeds`` random C_2 elements with vanishing second Ricci derivative, stacked.

    The draws come in turn from ``default_rng(cfg.base_seed)``; the stack is
    empty when that kernel is trivial.
    """
    kernel = _hess_kernel_stack(sp)
    count = min(cfg.seeds, len(kernel))
    (coeff,) = _normal_draws(cfg.base_seed, (count, len(kernel)))
    return kernel.combine_each(coeff)


def suite_eigenvalue(cfg: RunConfig, sp: Space) -> list[CheckRecord]:
    out = []
    for k in (0, 1, 2):
        factor = young_eigenvalue(k)

        def residual(seeds: Seeds) -> Residuals:
            t = _ck_chunk(sp, k, seeds)
            return {f"k{k}": _rel(_young(t, k, 1), factor * t, 1)}

        out += _records(cfg, f"eigenvalue/n{sp.dim}", _worst_over(cfg, sp, residual))
    return out


def suite_star(cfg: RunConfig, sp: Space) -> list[CheckRecord]:
    def residuals(seeds: Seeds) -> Residuals:
        # each seed draws its own 8 Jacobi samples, as star_identity_residuals does
        (xy,) = _normal_draws(seeds, (8, 2, sp.dim))
        R, Rp = _ck_chunk(sp, 0, seeds), _ck_chunk(sp, 0, _offset(seeds, 10_000))
        return _star_residuals(R, Rp, sp.eps, xy)

    worst = _worst_over(cfg, sp, residuals)
    # ricci_trace is the relative difference that ricci_of_star returns
    return _records(cfg, f"star/n{sp.dim}", worst) + [
        worst["ricci_trace"].record(f"star/n{sp.dim}/ricci_of_star", cfg.tol)
    ]


def suite_weitzenbock(cfg: RunConfig, sp: Space) -> list[CheckRecord]:
    eps = sp.eps

    def residuals(seeds: Seeds) -> Residuals:
        background = _ck_chunk(sp, 0, _offset(seeds, 20_000))
        (_, Rp, _, d2Rp), rotation, _ = _draw_section_jets(sp, seeds, background)
        res = _weitzenbock(background, Rp, d2Rp, rotation, eps)
        j = _two_jet_chunk(sp, seeds)
        return {
            "special": _weitzenbock_special(j.d2R, j.star_square, eps)["special"],
            **{key: res[key] for key in ("calibrated", "displayed_projected", "strict")},
        }

    prefix = f"weitzenbock/n{sp.dim}"
    worst = _worst_over(cfg, sp, residuals)
    out = [w.record(f"{prefix}/{key}", cfg.tol) for key, w in worst.items()]
    draws = _kernel_draws(cfg, sp)
    if len(draws):  # the einstein form needs a flat Ricci hessian
        # R = 0, so R*R vanishes
        forms = _weitzenbock_special(draws, np.zeros(draws.shape[:-2]), eps)["einstein_form"]
        out.append(_draws_worst(forms).record(f"{prefix}/einstein_form", cfg.tol))
    return out


def suite_hierarchy(cfg: RunConfig, sp: Space) -> list[CheckRecord]:
    eps = sp.eps

    def residuals(seeds: Seeds) -> Residuals:
        d2 = _ck_chunk(sp, 2, seeds)
        hess, dd, lap = _ric(d2, eps), _div_der(d2, eps), _rough_lap(d2, eps)
        return {
            "divergence_derivative": _rel(
                dd, _tail(hess, (0, 2, 1, 3)) - _tail(hess, (0, 2, 3, 1)), 1
            ),
            "laplacian_tableau": _rel(lap, 0.25 * _hessian_tableau(hess, 1), 1),
            "laplacian_divergence": _rel(lap, dd - _tail(dd, (1, 0, 2, 3)), 1),
        }

    prefix = f"hierarchy/n{sp.dim}"
    out = _records(cfg, prefix, _worst_over(cfg, sp, residuals))
    draws = _kernel_draws(cfg, sp)
    if len(draws):
        scale = np.maximum(_norm(draws, 1), 1.0)
        chains = [_norm(trace(draws, eps), 1) / scale for trace in (_div_der, _rough_lap)]
        # draw by draw, each draw's two traces in turn
        chain = _draws_worst(np.stack(chains, axis=1).ravel())
        out.append(chain.record(f"{prefix}/vanishing_chain", cfg.tol))
    return out


def suite_tilde(cfg: RunConfig, sp: Space) -> list[CheckRecord]:
    eps = sp.eps

    def residual(seeds: Seeds) -> Residuals:
        j = _two_jet_chunk(sp, seeds)
        lap = _rough_lap(j.d2R, eps)
        tilde_lap = _tilde(j.d2R, eps)[1]
        return {"rough_laplacian_80_16": _rel(tilde_lap, 80.0 * lap + 16.0 * j.star_square, 1)}

    out = _records(cfg, f"tilde/n{sp.dim}", _worst_over(cfg, sp, residual))
    for name in ("assoc_hessian_difference", "assoc_hessian_expansion"):
        out += _records(cfg, f"tilde/n{sp.dim}/{name}", _identity_worst(cfg, sp, name))
    return out


def suite_embed(cfg: RunConfig, sp: Space) -> list[CheckRecord]:
    n = sp.dim
    eps = sp.eps

    def residuals(seeds: Seeds) -> Residuals:
        S = _ricci_flat_input(sp, seeds)
        hat = _hat_embed(S, eps)
        pair = _tail(S, (0, 2, 1, 3)) + _tail(S, (0, 2, 3, 1))
        return {
            "hessian_constant": _rel(_ric(hat, eps), -4.0 * (n + 4.0) * pair, 1),
            "laplacian_constant": _rel(_rough_lap(hat, eps), -24.0 * (n + 4.0) * S, 1),
        }

    out = _records(cfg, f"embed/n{n}", _worst_over(cfg, sp, residuals))
    for name in ("embed_trace_22", "embed_trace_32", "embed_trace_inner"):
        worst = _identity_worst(cfg, sp, name)["residual"]
        out.append(worst.record(f"embed/n{n}/{name}", cfg.tol))
    return out


def suite_einstein(cfg: RunConfig, sp: Space) -> list[CheckRecord]:
    eps = sp.eps

    def residuals(seeds: Seeds) -> Residuals:
        _, _, d2R, SS, gaps = _einstein_jets(sp, seeds)
        rep = _einstein_report(d2R, SS, gaps, eps)
        tilde_hess = _tilde(d2R, eps)[0]
        display = -4.0 * (_tail(SS, (0, 2, 1, 3)) + _tail(SS, (0, 2, 3, 1)))
        # the same one-jet with a perturbed d2R: the same gaps and the same R*R
        bad = _einstein_report(d2R + _ck_chunk(sp, 2, seeds) * 1e-2, SS, gaps, eps)
        agree = [_verdicts_agree(r) for r in (rep, bad)]
        return {
            "extension_defect": _worst_rows(*rep.values()),
            "trace_display": _rel(tilde_hess, display, 1),
            "agreement": np.stack(agree, axis=1),  # two verdicts per seed, not a maximum
        }

    prefix = f"einstein/n{sp.dim}"
    seeds, values = _over_seeds(cfg, sp, residuals)
    agree = values.pop("agreement")
    disagreement = np.count_nonzero(~agree) / agree.size
    out = [CheckRecord(f"{prefix}/verdict_agreement", disagreement, cfg.tol, None, agree.size)]
    worst = {key: _seeded_worst(v, seeds) for key, v in values.items()}
    return out + _records(cfg, prefix, worst)


def suite_fit(cfg: RunConfig, sp: Space) -> list[CheckRecord]:
    n, eps = sp.dim, sp.eps
    # the symmetric family lam * g owedge g, with vanishing derivatives
    lam_g = np.array([1.0, -2.0, 0.5])[:, None, None, None, None] * _kn_metric(sp)
    c, residual, gaps = _jacobi_fit(np.zeros(lam_g.shape[:1] + (n,) * 6), lam_g, eps)
    family = _draws_worst(np.stack([np.abs(c), residual], axis=1).ravel())

    def fits(seeds: Seeds) -> Residuals:
        R, _, d2R, _, _ = _einstein_jets(sp, seeds)
        _, residual, gaps = _jacobi_fit(d2R, R, eps)
        return {"residual": residual, "gap": gaps}

    seeds, values = _over_seeds(cfg, sp, fits)
    # the eigenvalue corollary applies only where the Jacobi relation fits:
    # the family's clean gaps, from no loop seed, then the seeds' in order
    clean = np.concatenate([residual, values["residual"]]) < _CLEAN_FIT
    origins = [None] * len(gaps) + seeds
    corollary = _seeded_worst(
        np.concatenate([gaps, values["gap"]])[clean],
        [seed for seed, ok in zip(origins, clean) if ok],
    )
    return [
        family.record(f"fit/n{n}/symmetric_family", cfg.tol),
        corollary.record(f"fit/n{n}/corollary", 10.0 * cfg.tol),
    ]


def _packed_kulkarni(n: int, m: int) -> np.ndarray:
    """The Kulkarni image of each N_m basis vector, one packed row each.

    The images lie in the C_{m-2} class Sym^{m-2} (x) L^2 (x) L^2, where
    packing is an isometry (420 x 1500 at n=5, m=4, against 420 x 15625
    unpacked); each chunk of basis vectors is checked in its class.
    """
    pk = _ck_packing(n, m - 2)
    cols = [
        pk.pack_checked(_kulkarni(_sym_biform(stack, m, 1), m).reshape(len(stack), -1))
        for stack in _nk_stack(n, m).unpacked_chunks()
    ]
    return np.concatenate(cols)


def suite_dimensions(cfg: RunConfig, sp: Space) -> list[CheckRecord]:
    n = sp.dim
    expected = n * n * (n * n - 1) // 12
    gap = abs(len(_ck_stack(n, 0)) - expected)
    out = [CheckRecord(f"dimensions/n{n}/c0_rank", float(gap), cfg.tol)]
    for m in (2, 3, 4):
        basis = _nk_stack(n, m)
        gap = abs(len(basis) - len(_ck_stack(n, m - 2)))
        out.append(CheckRecord(f"dimensions/n{n}/nk_matches_ck_m{m}", float(gap), cfg.tol))
        rank = numerical_rank(np.linalg.svd(_packed_kulkarni(n, m), compute_uv=False))
        out.append(
            CheckRecord(f"dimensions/n{n}/kulkarni_kernel_m{m}", float(len(basis) - rank), cfg.tol)
        )
    return out


def suite_metric(cfg: RunConfig, sp: Space) -> list[CheckRecord]:
    eps = sp.eps

    def residuals(seeds: Seeds) -> Residuals:
        R_g, dR_g, d2R_g = _jet_fields(_random_fields(sp, seeds), eps)
        validity = _two_jet_residuals(R_g, dR_g, d2R_g, _rotate(R_g, R_g, eps))
        R = _ck_chunk(sp, 0, seeds)
        dR = _ck_chunk(sp, 1, _offset(seeds, 30_000))
        back_R, back_dR, _ = _jet_fields(_seed_fields(R, dR, eps), eps)
        return {
            "jet_validity": _worst_rows(*validity.values()),
            "seed_round_trip": _worst_rows(_rel(back_R, R, 1), _rel(back_dR, dR, 1)),
        }

    return _records(cfg, f"metric/n{sp.dim}", _worst_over(cfg, sp, residuals))


def suite_identities(cfg: RunConfig, sp: Space) -> list[CheckRecord]:
    out = []
    for name in identity_names():
        out += _records(cfg, f"identities/n{sp.dim}/{name}", _identity_worst(cfg, sp, name))
    return out


_SUITES: dict[str, Callable[[RunConfig, Space], list[CheckRecord]]] = {
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


# the variables that set the BLAS thread count, in the order OpenBLAS reads them
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _pool_size() -> int:
    """Processes that may run suites at once; 1 means the whole run stays in this process.

    Every process keeps the BLAS thread count it inherits: one per usable
    CPU, unless a BLAS thread variable sets it (read as OpenBLAS reads them).
    So there is one process per ``blas_threads`` CPUs, and only one with the
    default count: on 2 vCPUs with OpenBLAS, two processes of two BLAS
    threads each made the default check about 5% and ``--full`` about 14%
    slower than one.
    """
    cpus = _usable_cpus()
    blas_threads = cpus
    for var in _BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            blas_threads = min(int(value), cpus)
            break
    return max(1, cpus // blas_threads)


def _maxrss_mb() -> float | None:
    """Peak resident size of this process so far, in MB; None without ``resource``."""
    try:
        import resource
    except ImportError:  # not on this platform
        return None
    per_mb = 1024 * 1024 if sys.platform == "darwin" else 1024  # bytes on macOS, KB elsewhere
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / per_mb


# a task is one suite on one space: (index into the spaces, index into the suite names)
_Task = tuple[int, int]


class _Done(NamedTuple):
    """One task's records and wall seconds, the process that ran it and its peak size after."""

    records: list[CheckRecord]
    seconds: float
    pid: int
    maxrss_mb: float | None


class _Tokens:
    """A pipe that holds one byte per CPU that no process of the run is using.

    Every process forked in the run inherits both ends; ``take`` does not
    wait when the pipe is empty.
    """

    def __init__(self, count: int):
        self.read, self.write = os.pipe()
        os.set_blocking(self.read, False)
        os.write(self.write, b"." * count)

    def take(self) -> bool:
        try:
            return os.read(self.read, 1) == b"."
        except BlockingIOError:
            return False

    def give(self) -> None:
        os.write(self.write, b".")

    def close(self) -> None:
        os.close(self.read)
        os.close(self.write)


class _Child(NamedTuple):
    """A forked process and the read end of the pipe that carries its pickled outcome."""

    pid: int
    fd: int


class HelperTraceback(Exception):
    """The traceback, as text, of an error that a forked check process met."""


def _fork(work: Callable[[], dict]) -> _Child:
    """Run ``work`` in a forked child that pickles its result, or its error, into a pipe."""
    # a forked child would write the parent's buffered output a second time
    sys.stdout.flush()
    sys.stderr.flush()
    read, write = os.pipe()
    # fork, not spawn: the child inherits every basis, solver and memoized input
    # built so far; OpenBLAS stops its own threads before a fork (its atfork handler)
    pid = os.fork()
    if pid:
        os.close(write)
        return _Child(pid, read)
    status = 1
    try:  # the child never returns into its parent's stack
        os.close(read)
        try:
            outcome = work()
        except BaseException as exc:
            outcome = _portable(exc)
        with os.fdopen(write, "wb") as pipe:
            pickle.dump(outcome, pipe)
        status = 0
    finally:
        os._exit(status)


def _portable(exc: BaseException) -> tuple[BaseException, str]:
    """exc with its traceback text; a RuntimeError naming its type where exc does not pickle."""
    import traceback  # only on this error path: not needed to import curvjet

    text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        exc = RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc, text


def _collect(child: _Child) -> dict | BaseException:
    """Wait for a child; its results, or the error it met with its traceback as the cause."""
    try:
        with os.fdopen(child.fd, "rb") as pipe:
            data = pipe.read()
    finally:
        status = os.waitpid(child.pid, 0)[1]
    try:
        outcome = pickle.loads(data)
    except Exception:
        code = os.waitstatus_to_exitcode(status)
        return RuntimeError(f"check process {child.pid} ended with code {code} and no records")
    if isinstance(outcome, tuple):
        exc, text = outcome
        exc.__cause__ = HelperTraceback(text)
        return exc
    return outcome


def _hand_off(tasks: list[_Task]) -> tuple[list[_Task], list[_Task]]:
    """Split a process's remaining tasks into the ones it keeps and a helper's.

    The helper gets every whole space after the first one, or, when one
    space is left, the tail half of its suites.
    """
    first = tasks[0][0]
    cut = next((i for i, (s, _) in enumerate(tasks) if s != first), (len(tasks) + 1) // 2)
    return tasks[:cut], tasks[cut:]


@dataclass
class _Run:
    """The suites and spaces of one run, and the CPU tokens its processes share (None: no fork)."""

    cfg: RunConfig
    names: list[str]
    spaces: list[Space]
    tokens: _Tokens | None = None

    def tasks(self) -> list[_Task]:
        """Every task, largest space first, each space's suites in registry order."""
        order = sorted(range(len(self.spaces)), key=lambda s: -self.spaces[s].dim)
        return [(s, k) for s in order for k in range(len(self.names))]

    def work(self, tasks: list[_Task]) -> dict[_Task, _Done]:
        """Run ``tasks`` here, in order, forking a helper wherever a token is free.

        Each space runs in its own run scope.  Before each suite, if a token
        is free and two or more tasks remain, a forked helper takes part of
        them (see ``_hand_off``) and inherits every basis and memoized input
        built so far.  When this process has run its last suite it puts its
        token back, then waits for every helper it forked, also after an
        error; the first error, its own before its helpers', is raised.
        """
        tasks = list(tasks)
        done: dict[_Task, _Done] = {}
        helpers: list[_Child] = []
        outcomes: list[dict | BaseException] = []
        try:
            while tasks:
                space = tasks[0][0]
                with run_scope():
                    while tasks and tasks[0][0] == space:
                        if self.tokens is not None and len(tasks) >= 2 and self.tokens.take():
                            tasks, given = _hand_off(tasks)
                            helpers.append(_fork(functools.partial(self._help, given, space)))
                        s, k = tasks.pop(0)
                        start = time.perf_counter()
                        records = _SUITES[self.names[k]](self.cfg, self.spaces[s])
                        seconds = time.perf_counter() - start
                        done[s, k] = _Done(records, seconds, os.getpid(), _maxrss_mb())
        except BaseException as exc:
            outcomes.append(exc)
        if self.tokens is not None:
            self.tokens.give()
        outcomes += [_collect(child) for child in helpers]
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome
            done.update(outcome)
        return done

    def _help(self, tasks: list[_Task], space_in_scope: int) -> dict[_Task, _Done]:
        """A helper's run: whole spaces start from an empty memo, a space's tail shares it."""
        if tasks[0][0] != space_in_scope:
            _spaces._MEMO = None  # the inherited inputs belong to another space
        return self.work(tasks)


def _run_tasks(cfg: RunConfig, names: list[str], spaces: list[Space]) -> dict[_Task, _Done]:
    """Every (space, suite) task of a run, split across the free CPUs.

    With one process allowed (``_pool_size``), one task or no ``fork``, all
    tasks run in this process.  Otherwise they run in a forked process that
    holds this process's CPU and splits them further, and this process only
    waits for it.  On 2 vCPUs with one BLAS thread, a default check whose
    first worker was this process peaked at 49.4-52.2 MB, against
    45.3-47.8 MB with a forked one.  That gap is no saving: a forked child
    counts a file-backed page (a library or module) only once it touches
    it, and just after the fork its file-backed pages read 8.4 MB below
    those that the waiting parent still holds.
    """
    run = _Run(cfg, names, spaces)
    tasks = run.tasks()
    free = _pool_size() - 1
    if free < 1 or len(tasks) < 2 or not hasattr(os, "fork"):
        return run.work(tasks)
    run.tokens = _Tokens(free)
    try:
        outcome = _collect(_fork(functools.partial(run.work, tasks)))
    finally:
        run.tokens.close()
    if isinstance(outcome, BaseException):
        raise outcome
    return outcome


def _memory(done: list[_Done]) -> dict:
    """Peak resident sizes of this process and of each process that ran a suite.

    ``largest_process_mb`` is what one ``ru_maxrss`` reads.  With forked
    processes the machine held several of them at once, so ``summed_mb``
    adds the peak of each.  A forked process's peak counts the pages it
    shares with its parent since the fork, so the sum bounds the concurrent
    peak from above and the largest process bounds it from below.
    """
    parent = _maxrss_mb()
    if parent is None:
        return {}
    peaks = {os.getpid(): parent}
    for d in done:
        peaks[d.pid] = max(peaks.get(d.pid, 0.0), d.maxrss_mb)
    return {
        "largest_process_mb": max(peaks.values()),
        "processes": len(peaks),
        "summed_mb": sum(peaks.values()),
        "this_process_mb": parent,
    }


def run_suites_timed(names: list[str], cfg: RunConfig) -> tuple[list[CheckRecord], dict]:
    """The records of ``run_suites`` and a timings document of the run.

    The document holds the wall seconds of each suite on each space, each
    space's total and the largest peak resident size of a process that ran
    one of its suites, the number of processes that ran suites
    (``workers``), the wall seconds of the whole run and the peak resident
    sizes of its processes (see ``_memory``).
    """
    selected = list(_SUITES) if "all" in names else [n for n in _SUITES if n in names]
    unknown = set(names) - set(_SUITES) - {"all"}
    if unknown:
        raise KeyError(f"unknown suite names: {sorted(unknown)}")
    spaces = cfg.spaces()
    start = time.perf_counter()
    done = _run_tasks(cfg, selected, spaces)
    wall = time.perf_counter() - start
    # suite-major, as one process would run them: every space of a suite, then the next suite
    per_space = [[done[s, k] for k in range(len(selected))] for s in range(len(spaces))]
    records = [r for k in range(len(selected)) for tasks in per_space for r in tasks[k].records]
    space_docs = []
    for sp, tasks in zip(spaces, per_space):
        peaks = [d.maxrss_mb for d in tasks]
        space_docs.append(
            {
                **space_to_dict(sp),
                "maxrss_mb": None if None in peaks else max(peaks),
                "suite_s": {name: d.seconds for name, d in zip(selected, tasks)},
                "total_s": sum(d.seconds for d in tasks),
            }
        )
    timings = {
        "maxrss": _memory(list(done.values())),
        "spaces": space_docs,
        "wall_s": wall,
        "workers": len({d.pid for d in done.values()}),
    }
    return records, timings


def run_suites(names: list[str], cfg: RunConfig) -> list[CheckRecord]:
    """Run the named suites in registry order; 'all' expands to every suite.

    Records come suite by suite, each suite's spaces in configured order.
    """
    return run_suites_timed(names, cfg)[0]
