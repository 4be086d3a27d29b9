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
import math
import os
import pickle
import sys
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import spaces as _spaces
from .curvature import _kn_metric, _nk_stack, kulkarni, star_identity_residuals
from .identities import _ricci_flat_input, identity_names, verify_identity
from .jets import (
    RANDOM_JET_DIMS,
    JacobiFit,
    TwoJet,
    _div_der,
    _eigenvalue_gap,
    _hess_kernel_stack,
    _hess_ric,
    _hessian_tableau,
    _rough_lap,
    einstein_check,
    einstein_extend,
    fit_jacobi_relation,
    hat_embed,
    jet_traces,
    random_einstein_one_jet,
    random_section_jet,
    random_two_jet,
    tilde_ops,
    validate_two_jet,
    weitzenbock_check,
    weitzenbock_special,
)
from .polymetric import curvature_two_jet, random_poly_metric, seed_metric
from .report import CheckRecord
from .spaces import Space, SymBiform, Tensor, _rel, memoized, run_scope, space_to_dict
from .young import _ck_packing, _ck_stack, random_ck, young_apply, young_eigenvalue

__all__ = ["RunConfig", "make_config", "suite_names", "run_suites", "run_suites_timed"]

# keys of verify_identity results that document projection-only raw forms
_REPORT_ONLY = {"raw_display"}


def _worst(*values: float) -> float:
    """The largest value, or NaN if any value is NaN (``max`` would drop it)."""
    return math.nan if any(math.isnan(v) for v in values) else max(values)


@memoized
def _einstein_jet(sp: Space, seed: int) -> TwoJet:
    """Einstein extension of the seeded Einstein one-jet.

    Only the extended jet is memoized: it holds its own copies of R and dR.
    It is kept without the rotation that ``einstein_extend`` caches (n^6
    floats per seed, which no suite reads); a caller that validates the jet
    computes it again.
    """
    j = einstein_extend(*random_einstein_one_jet(sp, seed))
    vars(j).pop("rotation", None)
    return j


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


@dataclass(frozen=True)
class Worst:
    """Worst value of one residual key, the loop seed that gave it, and the sample count."""

    value: float
    seed: int | None
    samples: int

    def record(self, name: str, threshold: float) -> CheckRecord:
        return CheckRecord(name, self.value, threshold, self.seed, self.samples)


def _worst_over(cfg: RunConfig, residuals: Callable[[int], dict[str, float]]) -> dict[str, Worst]:
    """Worst value of each residual key over the configured seeds.

    Keys keep their first-seen order; a NaN on any seed makes its key NaN.
    The seed kept is the loop seed (not a suite's offset seed) of the first
    NaN, or else of the first largest value.
    """
    worst: dict[str, Worst] = {}
    for seed in cfg.seed_range():
        for key, v in residuals(seed).items():
            found = Worst(_worst(0.0, v), seed, 1)
            worst[key] = _merge(worst[key], found) if key in worst else found
    return worst


def _merge(a: Worst, b: Worst) -> Worst:
    """The worse of a and then b: b wins only over a non-NaN a, if NaN or larger."""
    later = not math.isnan(a.value) and (math.isnan(b.value) or b.value > a.value)
    top = b if later else a
    return Worst(top.value, top.seed, a.samples + b.samples)


def _records(cfg: RunConfig, prefix: str, worst: dict[str, Worst]) -> list[CheckRecord]:
    """One record per key of ``worst``, in sorted key order."""
    return [worst[key].record(f"{prefix}/{key}", cfg.tol) for key in sorted(worst)]


def _draws_worst(values: list[float]) -> Worst:
    """Worst of values that come from no loop seed (fixed families, kernel draws)."""
    return Worst(_worst(0.0, *values), None, len(values))


def _identity_worst(cfg: RunConfig, sp: Space, name: str) -> dict[str, Worst]:
    """Worst residuals of a registered identity, without its report-only keys."""

    def residuals(seed: int) -> dict[str, float]:
        res = verify_identity(name, sp, seed)
        return {key: v for key, v in res.items() if key not in _REPORT_ONLY}

    return _worst_over(cfg, residuals)


def _kernel_draws(cfg: RunConfig, sp: Space) -> list[np.ndarray]:
    """Up to ``cfg.seeds`` random C_2 elements with vanishing second Ricci derivative.

    The draws come from ``default_rng(cfg.base_seed)``; the list is empty
    when that kernel is trivial.
    """
    kernel = _hess_kernel_stack(sp)
    rng = np.random.default_rng(cfg.base_seed)
    count = min(cfg.seeds, len(kernel))
    return [kernel.combine(rng.standard_normal(len(kernel))) for _ in range(count)]


def suite_eigenvalue(cfg: RunConfig, sp: Space) -> list[CheckRecord]:
    out = []
    for k in (0, 1, 2):
        factor = young_eigenvalue(k)

        def residual(seed: int) -> dict[str, float]:
            t = random_ck(sp, k, seed)
            return {f"k{k}": _rel(young_apply(t, k).data, factor * t.data)}

        out += _records(cfg, f"eigenvalue/n{sp.dim}", _worst_over(cfg, residual))
    return out


def suite_star(cfg: RunConfig, sp: Space) -> list[CheckRecord]:
    worst = _worst_over(
        cfg,
        lambda seed: star_identity_residuals(
            random_ck(sp, 0, seed), random_ck(sp, 0, seed + 10_000), seed=seed
        ),
    )
    # ricci_trace is the relative difference that ricci_of_star returns
    return _records(cfg, f"star/n{sp.dim}", worst) + [
        worst["ricci_trace"].record(f"star/n{sp.dim}/ricci_of_star", cfg.tol)
    ]


def suite_weitzenbock(cfg: RunConfig, sp: Space) -> list[CheckRecord]:
    def residuals(seed: int) -> dict[str, float]:
        sj = random_section_jet(sp, seed, random_ck(sp, 0, seed + 20_000))
        res = weitzenbock_check(sj)
        return {
            "special": weitzenbock_special(random_two_jet(sp, seed))["special"],
            **{key: res[key] for key in ("calibrated", "displayed_projected", "strict")},
        }

    prefix = f"weitzenbock/n{sp.dim}"
    worst = _worst_over(cfg, residuals)
    out = [w.record(f"{prefix}/{key}", cfg.tol) for key, w in worst.items()]
    draws = _kernel_draws(cfg, sp)
    if draws:  # the einstein form needs a flat Ricci hessian
        n = sp.dim
        zero4, zero5 = Tensor(sp, np.zeros((n,) * 4)), Tensor(sp, np.zeros((n,) * 5))
        forms = (TwoJet(zero4, zero5, Tensor(sp, d2)) for d2 in draws)
        worst_form = _draws_worst([weitzenbock_special(j)["einstein_form"] for j in forms])
        out.append(worst_form.record(f"{prefix}/einstein_form", cfg.tol))
    return out


def suite_hierarchy(cfg: RunConfig, sp: Space) -> list[CheckRecord]:
    eps = sp.eps

    def residuals(seed: int) -> dict[str, float]:
        d2 = random_ck(sp, 2, seed).data
        hess, dd, lap = _hess_ric(d2, eps), _div_der(d2, eps), _rough_lap(d2, eps)
        return {
            "divergence_derivative": _rel(
                dd, np.transpose(hess, (0, 2, 1, 3)) - np.transpose(hess, (0, 2, 3, 1))
            ),
            "laplacian_tableau": _rel(lap, 0.25 * _hessian_tableau(sp, hess)),
            "laplacian_divergence": _rel(lap, dd - np.transpose(dd, (1, 0, 2, 3))),
        }

    prefix = f"hierarchy/n{sp.dim}"
    out = _records(cfg, prefix, _worst_over(cfg, residuals))
    draws = _kernel_draws(cfg, sp)
    if draws:
        chain = _draws_worst(
            [
                float(np.linalg.norm(trace(d2, eps))) / max(float(np.linalg.norm(d2)), 1.0)
                for d2 in draws
                for trace in (_div_der, _rough_lap)
            ]
        )
        out.append(chain.record(f"{prefix}/vanishing_chain", cfg.tol))
    return out


def suite_tilde(cfg: RunConfig, sp: Space) -> list[CheckRecord]:
    def residual(seed: int) -> dict[str, float]:
        j = random_two_jet(sp, seed)
        lap = jet_traces(j)[2].data
        return {
            "rough_laplacian_80_16": _rel(tilde_ops(j)[1].data, 80.0 * lap + 16.0 * j.star_square)
        }

    out = _records(cfg, f"tilde/n{sp.dim}", _worst_over(cfg, residual))
    for name in ("assoc_hessian_difference", "assoc_hessian_expansion"):
        out += _records(cfg, f"tilde/n{sp.dim}/{name}", _identity_worst(cfg, sp, name))
    return out


def suite_embed(cfg: RunConfig, sp: Space) -> list[CheckRecord]:
    n = sp.dim
    eps = sp.eps

    def residuals(seed: int) -> dict[str, float]:
        S = _ricci_flat_input(sp, seed)
        hat = hat_embed(S).data
        pair = np.transpose(S.data, (0, 2, 1, 3)) + np.transpose(S.data, (0, 2, 3, 1))
        return {
            "hessian_constant": _rel(_hess_ric(hat, eps), -4.0 * (n + 4.0) * pair),
            "laplacian_constant": _rel(_rough_lap(hat, eps), -24.0 * (n + 4.0) * S.data),
        }

    out = _records(cfg, f"embed/n{n}", _worst_over(cfg, residuals))
    for name in ("embed_trace_22", "embed_trace_32", "embed_trace_inner"):
        worst = _identity_worst(cfg, sp, name)["residual"]
        out.append(worst.record(f"embed/n{n}/{name}", cfg.tol))
    return out


def suite_einstein(cfg: RunConfig, sp: Space) -> list[CheckRecord]:
    agreement: list[bool] = []  # one entry per checked jet, not a maximum

    def residuals(seed: int) -> dict[str, float]:
        j = _einstein_jet(sp, seed)
        verdict, rep = einstein_check(j)
        tilde_hess = tilde_ops(j)[0].data
        SS = j.star_square
        display = -4.0 * (np.transpose(SS, (0, 2, 1, 3)) + np.transpose(SS, (0, 2, 3, 1)))
        bad = TwoJet(j.R, j.dR, j.d2R + 1e-2 * random_ck(sp, 2, seed))
        agreement.extend((_verdicts_agree(verdict, rep), _verdicts_agree(*einstein_check(bad))))
        return {
            "extension_defect": _worst(*rep.values()),
            "trace_display": _rel(tilde_hess, display),
        }

    prefix = f"einstein/n{sp.dim}"
    worst = _worst_over(cfg, residuals)
    disagreement = agreement.count(False) / len(agreement)
    out = [CheckRecord(f"{prefix}/verdict_agreement", disagreement, cfg.tol, None, len(agreement))]
    return out + _records(cfg, prefix, worst)


def suite_fit(cfg: RunConfig, sp: Space) -> list[CheckRecord]:
    n = sp.dim
    zero5 = Tensor(sp, np.zeros((n,) * 5))
    zero6 = Tensor(sp, np.zeros((n,) * 6))

    def corollary(j: TwoJet, fit: JacobiFit) -> dict[str, float]:
        # the eigenvalue corollary applies only where the Jacobi relation fits
        return {"corollary": _eigenvalue_gap(j, fit.c)} if fit.clean else {}

    def seeded(seed: int) -> dict[str, float]:
        j = _einstein_jet(sp, seed)
        return corollary(j, fit_jacobi_relation(j))

    family, family_corollary = [], []
    for lam in (1.0, -2.0, 0.5):
        j = TwoJet(Tensor(sp, lam * _kn_metric(sp)), zero5, zero6)
        fit = fit_jacobi_relation(j)
        family += [abs(fit.c), fit.residual]
        family_corollary += corollary(j, fit).values()
    worst_corollary = _merge(
        _draws_worst(family_corollary),
        _worst_over(cfg, seeded).get("corollary", Worst(0.0, None, 0)),
    )
    return [
        _draws_worst(family).record(f"fit/n{n}/symmetric_family", cfg.tol),
        worst_corollary.record(f"fit/n{n}/corollary", 10.0 * cfg.tol),
    ]


def suite_dimensions(cfg: RunConfig, sp: Space) -> list[CheckRecord]:
    n = sp.dim
    expected = n * n * (n * n - 1) // 12
    gap = abs(len(_ck_stack(n, 0)) - expected)
    out = [CheckRecord(f"dimensions/n{n}/c0_rank", float(gap), cfg.tol)]
    for m in (2, 3, 4):
        basis = _nk_stack(n, m)
        gap = abs(len(basis) - len(_ck_stack(n, m - 2)))
        out.append(CheckRecord(f"dimensions/n{n}/nk_matches_ck_m{m}", float(gap), cfg.tol))
        # Kulkarni images lie in the C_{m-2} class Sym^{m-2} (x) L^2 (x) L^2,
        # where packing is an isometry: the rank is taken on packed columns
        # (1500 x 420 at n=5, m=4, against 15625 x 420 unpacked), one basis
        # vector unpacked at a time
        pk = _ck_packing(n, m - 2)
        cols = np.empty((len(pk.rep), len(basis)))
        for c, row in enumerate(basis.rows):
            b = basis.unpack(row)
            cols[:, c] = pk.pack_checked(kulkarni(SymBiform(sp, m, Tensor(sp, b))).data.ravel())
        rank = int(np.linalg.matrix_rank(cols, tol=1e-9))
        out.append(
            CheckRecord(f"dimensions/n{n}/kulkarni_kernel_m{m}", float(len(basis) - rank), cfg.tol)
        )
    return out


def suite_metric(cfg: RunConfig, sp: Space) -> list[CheckRecord]:
    def residuals(seed: int) -> dict[str, float]:
        _, res = validate_two_jet(curvature_two_jet(random_poly_metric(sp, seed)))
        R = random_ck(sp, 0, seed)
        dR = random_ck(sp, 1, seed + 30_000)
        back = curvature_two_jet(seed_metric(R, dR))
        return {
            "jet_validity": _worst(*res.values()),
            "seed_round_trip": _worst(_rel(back.R.data, R.data), _rel(back.dR.data, dR.data)),
        }

    return _records(cfg, f"metric/n{sp.dim}", _worst_over(cfg, residuals))


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
    waits for it: on 2 vCPUs with one BLAS thread, a default check whose
    first worker was this process peaked at 49.4-52.2 MB, against
    45.3-47.8 MB with a forked one.
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
