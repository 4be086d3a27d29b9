"""One fresh benchmark process: read a JSON job on stdin, run it, report.

The driver (``run.py``) starts this file with ``PYTHONPATH`` pointing at the
checkout's ``src``.  A worker prints ``ready`` as soon as its set-up is done,
so the driver can time process start, ``import curvjet`` and cache warm-up
from outside, then prints one JSON line with its results.

Modes:
  stamp          versions of numpy and its BLAS, as numpy reports them
  import         import curvjet only (the set-up of ``check-cold``)
  probe          cold builds of each cached basis and solver, timed one by one
  tour           ``curvjet check`` in process, suite by suite, then via the CLI
  jets-lorentz4  warm Lorentzian jet pipeline over the given op seeds, then
                 the exact jets of the reference n=5 polynomial metrics
``tour`` always traces; the op loop traces when the job says so.
"""

from __future__ import annotations

import io
import json
import math
import os
import sys
import time
import traceback
from contextlib import redirect_stdout

import checks

LORENTZ4 = (-1, 1, 1, 1)


def _ready() -> None:
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, or None if not found."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def mode_stamp(job: dict) -> dict:
    import numpy

    _ready()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def mode_import(job: dict) -> dict:
    import curvjet  # noqa: F401

    _ready()
    return {}


def mode_probe(job: dict) -> dict:
    """Each basis and solver built once, cold, in a fixed order.

    Bases come first, so ``nk_basis``, the first ``random_two_jet`` (which
    builds the ``_h_solver`` system) and ``extension_solution_dim`` are each
    timed on top of warm bases, as the ``jets-lorentz4`` set-up sees them.
    """
    from curvjet import curvature, jets, young
    from curvjet.spaces import Space

    _ready()
    out, failures = {}, []
    for n in (3, 4):
        for k in (0, 1, 2):
            start = time.perf_counter()
            basis = young.basis_Ck(Space(n), k)
            out[f"young.basis_Ck.n{n}k{k}.cold_s"] = time.perf_counter() - start
            out[f"young.basis_Ck.n{n}k{k}.dim"] = len(basis)
            if len(basis) != checks.hook_content_dim(n, k):
                failures.append(f"basis_Ck n={n} k={k}: dim {len(basis)}")
    for n in (3, 4):
        start = time.perf_counter()
        curvature.nk_basis(Space(n), 4)
        out[f"curvature.nk_basis.n{n}m4.cold_s"] = time.perf_counter() - start
    start = time.perf_counter()
    jet = jets.random_two_jet(Space(4), job["seed"])
    out["jets.random_two_jet.first_s"] = time.perf_counter() - start
    if not checks.jet_valid(jets.validate_two_jet(jet)):
        failures.append("first random_two_jet is not valid")
    start = time.perf_counter()
    jets.extension_solution_dim(Space(4))
    out["jets.extension_solution_dim.cold_s"] = time.perf_counter() - start
    return {"layers": out, "attempted": 7, "failed": len(failures), "failures": failures}


def _finite(array) -> bool:
    import numpy

    return bool(numpy.all(numpy.isfinite(array)))


def _traced(job: dict):
    if not job.get("trace"):
        return None
    from tracing import Tracer

    tracer = Tracer(job["run_id"])
    tracer.install()
    return tracer


def _finish_trace(tracer, job: dict, result: dict) -> dict:
    """Attach per-name aggregates and the tracing overhead, write the spans."""
    from tracing import aggregate, per_call_overhead

    if tracer is None:
        return result
    tracer.uninstall()
    result["layers"] = aggregate(tracer.spans)
    result["spans"] = len(tracer.spans)
    result["overhead_s"] = len(tracer.spans) * per_call_overhead()
    tracer.write(job["spans_path"])
    return result


def _op_loop(job: dict, op) -> dict:
    """Closed loop: each op starts when the previous one has returned.

    ``op(seed)`` returns a zero-argument check, run outside the timed region;
    an exception or a failed check fails that op only.
    """
    latencies, failures = [], []
    for seed in job["op_seeds"]:
        start = time.perf_counter()
        try:
            verdict = op(seed)
            latencies.append(time.perf_counter() - start)
            ok = verdict()
        except Exception:  # one failed op must not end the session
            traceback.print_exc()
            ok = False
        if not ok:
            failures.append(seed)
    return {
        "latencies": latencies,
        "attempted": len(job["op_seeds"]),
        "failed": len(failures),
        "failures": failures,
    }


def mode_jets_lorentz4(job: dict) -> dict:
    from curvjet import curvature, jets, young
    from curvjet.spaces import Space

    tracer = _traced(job)
    sp = Space(4, LORENTZ4)
    # build every basis and solver the loop reads, through public calls
    for k in (0, 1, 2):
        young.basis_Ck(sp, k)
    jets.extension_solution_dim(sp)
    jets.random_two_jet(sp, job["warm_seed"])
    jets.random_einstein_one_jet(sp, job["warm_seed"])
    _ready()

    def op(seed):
        jet = jets.random_two_jet(sp, seed)
        valid = jets.validate_two_jet(jet)
        R, dR = jets.random_einstein_one_jet(sp, seed)
        extended = jets.einstein_extend(R, dR)
        verdict, report = jets.einstein_check(extended)
        fit = jets.fit_jacobi_relation(extended)
        SS = curvature.star_action(R, R)

        def check():
            return (
                checks.jet_valid(valid)
                and bool(verdict)
                and all(math.isfinite(v) for v in report.values())
                and checks.einstein_verdicts_agree(verdict, report)
                and math.isfinite(fit.c)
                and math.isfinite(fit.residual)
                and _finite(SS.data)
            )

        return check

    return _check_reference(_finish_trace(tracer, job, _op_loop(job, op)))


def _rel_gap(a, b) -> float:
    import numpy

    scale = float(numpy.linalg.norm(b))
    return float(numpy.linalg.norm(a - b)) / (scale if scale > 0.0 else 1.0)


def _check_reference(result: dict) -> dict:
    """Exact jets of the reference n=5 polynomial metrics must match the
    seed-commit values; each seed is one more op, untimed."""
    import numpy

    from curvjet import polymetric
    from curvjet.spaces import Space

    sp = Space(5)
    with numpy.load(os.path.join(checks.REFERENCE_DIR, "polymetric_n5.npz")) as ref:
        for seed in ref["seeds"]:
            jet = polymetric.curvature_two_jet(polymetric.random_poly_metric(sp, int(seed)))
            result["attempted"] += 1
            for part in ("R", "dR", "d2R"):
                gap = _rel_gap(getattr(jet, part).data, ref[f"{part}_{seed}"])
                if not checks.within(gap, checks.REFERENCE_RTOL):
                    result["failed"] += 1
                    result["failures"].append(f"reference seed {seed}: {part} gap {gap!r}")
                    break
    return result


def mode_tour(job: dict) -> dict:
    """``curvjet check`` with default settings, traced, in this process.

    Suites run one by one through ``run_suites([name], cfg)`` in registry
    order, each inside a ``suites.<name>`` span.  Then ``cli.main`` runs the
    same check as the command line does; the records it gets from
    ``run_suites(['all'], cfg)`` must equal the suite-by-suite records, and
    its text report must pass every expected record.
    """
    from curvjet import cli, suites
    from tracing import Tracer

    tracer = Tracer(job["run_id"])
    _ready()
    tracer.install()
    cfg = suites.make_config(seed=job["seed"])
    by_suite, suite_s = [], {}
    for name in suites.suite_names():
        if name == "all":
            continue
        with tracer.span(f"suites.{name}") as span:
            by_suite.extend(suites.run_suites([name], cfg))
        suite_s[name] = span["seconds"]

    traced_run_suites = cli.run_suites
    from_cli = []

    def capture(names, cfg):
        records = traced_run_suites(names, cfg)
        from_cli.append(records)
        return records

    cli.run_suites = capture
    text = io.StringIO()
    try:
        with redirect_stdout(text):
            rc = cli.main(["check", "--seed", str(job["seed"])])
    finally:
        cli.run_suites = traced_run_suites

    failures = []
    if rc != 0:
        failures.append(f"cli exit code {rc}")
    if len(from_cli) != 1 or from_cli[0] != by_suite:
        failures.append("run_suites(['all']) records differ from the suite-by-suite records")
    bad = checks.check_report_failures(text.getvalue(), checks.expected_check_names())
    if bad:
        failures.append(f"{len(bad)} records missing or failing, first {bad[:3]}")
    result = {"suite_s": suite_s, "attempted": 1, "failed": int(bool(failures)),
              "failures": failures}
    return _finish_trace(tracer, job, result)


MODES = {
    "stamp": mode_stamp,
    "import": mode_import,
    "probe": mode_probe,
    "tour": mode_tour,
    "jets-lorentz4": mode_jets_lorentz4,
}


def main() -> int:
    job = json.loads(sys.stdin.read())
    result = MODES[job["mode"]](job)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
