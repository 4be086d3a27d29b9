"""curvjet benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: curvjet is imported from ``./src``.
Each workload runs in fresh processes, one closed-loop caller at a time,
with one BLAS thread (see ``BLAS_THREADS``).  The seed only picks the inputs
curvjet is given (op seeds, or the base seed of ``check``).

Workloads:
  check-cold     ``curvjet check`` with default settings as a CLI process,
                 again while the next run is expected to end within half a
                 run of S seconds (at least 2 runs).  An op is one whole
                 run, so every run pays the cold basis builds.
  jets-lorentz4  sessions on Space(4, (-1, 1, 1, 1)): set-up builds every
                 basis and solver the loop reads, then 500 ops of
                 random_two_jet -> validate_two_jet -> random_einstein_one_jet
                 -> einstein_extend -> einstein_check -> fit_jacobi_relation
                 -> star_action(R, R).  Sessions repeat in the same way
                 (at least 3).  After its ops, each session checks the
                 exact jets of the reference n=5 polynomial metrics.

End-to-end metrics (``--trace 0``), for every workload:
  setup_s      median time from process start to ``ready``: interpreter,
               ``import curvjet`` and, for jets-lorentz4, the cache warm-up
  wall_s       median wall time of one fresh-process session
  ops_per_s    ops completed per second of op time
  op_p50_ms    median op latency of each window of P50_WINDOW consecutive
               ops, averaged over the windows.  The host's speed shifts by
               up to 2x for seconds to minutes at a time; a median pooled
               over the run jumps between the two speeds when about half
               the run is at each, while this average moves in proportion
               to the share of the run spent at each speed
  op_p90_ms    90th-percentile op latency (nearest rank)
  peak_rss_mb  largest ``ru_maxrss`` of a session process
``failed_frac`` (failed over attempted ops) and the sample counts are printed
on the summary line and kept in the result file, with an environment stamp.

Per-layer metrics (``--trace 1``) come from three more processes: a probe
that builds each basis and solver cold, one at a time; the ``check`` suites
run one by one in a traced process, followed by the same check through
``cli.main``; and, for the library workload, one traced session.  Call
counts and self times add up over the traced processes.

Every op's output is checked, NaN-safely; see ``checks.py``.  A crash or a
non-zero exit fails every op the process was given.  Results and spans are
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("check-cold", "jets-lorentz4")
# The host's speed drifts by up to 2x over seconds to minutes, so a session
# spends most of its time in ops rather than in its 6-8 s set-up, and the ops
# of a run are spread over the whole run.
SESSION_OPS = {"jets-lorentz4": 500}
MIN_SESSIONS = {"check-cold": 2, "jets-lorentz4": 3}
TRACED_OPS = {"jets-lorentz4": 100}
P50_WINDOW = 50  # about a second of jets-lorentz4 ops
IMPORT_SAMPLES = 15  # set-up samples of check-cold, whose sessions are CLI runs

# One closed-loop caller needs one BLAS thread.  A second one spins on the
# other core, and with both cores busy each runs about 1.4x slower on a
# 2-vCPU KVM guest, so more threads make the figures depend on that core.
BLAS_THREADS = "1"

# a run must finish within 180 s: no new session starts after DEADLINE_S,
# and any process still running at RUN_LIMIT_S is killed
DEADLINE_S = 120.0
RUN_LIMIT_S = 170.0

# the console-script entry point of ``curvjet``
CLI_ENTRY = "import sys; from curvjet.cli import main; sys.exit(main())"

SUITES = ("eigenvalue", "star", "weitzenbock", "hierarchy", "tilde", "embed",
          "einstein", "fit", "dimensions", "metric", "identities")
TRACED_FUNCTIONS = (
    "young.young_apply", "young.random_ck", "curvature.star_action",
    "curvature.pair_derivation", "jets.validate_two_jet",
    "jets.random_einstein_one_jet", "jets.einstein_extend", "jets.einstein_check",
    "jets.fit_jacobi_relation", "polymetric.curvature_two_jet",
    "polymetric.random_poly_metric", "polymetric.seed_metric",
    "identities.verify_identity",
)

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
    "op_p90_ms": "ms", "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for n in (3, 4):
        for k in (0, 1, 2):
            units[f"young.basis_Ck.n{n}k{k}.cold_s"] = "s"
            units[f"young.basis_Ck.n{n}k{k}.dim"] = "count"
    for n in (3, 4):
        units[f"curvature.nk_basis.n{n}m4.cold_s"] = "s"
    units["jets.random_two_jet.first_s"] = "s"
    units["jets.extension_solution_dim.cold_s"] = "s"
    for name in TRACED_FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for suite in SUITES:
        units[f"suites.{suite}.s"] = "s"
    units["report.render_s"] = "s"
    units["cli.other_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank q-quantile: the smallest sample with at least q of them at or below."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(math.ceil(q * len(ordered)), 1)
    return ordered[rank - 1]


def windowed_median(samples: list[float], window: int) -> float:
    """Mean of the medians of consecutive ``window``-sample windows.

    A trailing partial window is left out, unless it is the only one.
    """
    if not samples:
        raise ValueError("windowed median of no samples")
    starts = range(0, max(len(samples) - window, 0) + 1, window)
    return statistics.mean(statistics.median(samples[i:i + window]) for i in starts)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank q-quantile."""
    return count - max(math.ceil(q * count), 1)


class Runner:
    """Starts worker processes for one benchmark run and keeps their tallies."""

    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.rng = random.Random(seed)
        self.run_started = self.measure_started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.env = dict(
            os.environ,
            PYTHONPATH=os.path.join(root, "src"),
            OPENBLAS_NUM_THREADS=BLAS_THREADS,
            OMP_NUM_THREADS=BLAS_THREADS,
            MKL_NUM_THREADS=BLAS_THREADS,
        )

    def new_seed(self) -> int:
        return self.rng.randrange(2**31)

    def spawn(self, argv: list[str], stdin: str | None) -> dict:
        """Run one process; time it to its ``ready`` line and to its exit.

        Returns the wall time, set-up time (None without a ``ready`` line),
        exit code, ``ru_maxrss`` in MB and the stdout after ``ready``.
        """
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=self.root, env=self.env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        left = RUN_LIMIT_S - (start - self.run_started)
        watchdog = threading.Timer(max(left, 1.0), proc.kill)
        watchdog.start()
        try:
            try:
                proc.stdin.write(stdin or "")
                proc.stdin.close()
            except BrokenPipeError:  # the process died before reading its job
                pass
            first = proc.stdout.readline()
            ready = time.perf_counter() if first == "ready\n" else None
            rest = proc.stdout.read()
            if ready is None:
                rest = first + rest
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
        finally:
            watchdog.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "wall_s": end - start,
            "setup_s": None if ready is None else ready - start,
            "rc": proc.returncode,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": rest,
        }

    def worker(self, job: dict) -> tuple[dict, dict | None]:
        """Run a worker job; returns (process info, its result or None)."""
        proc = self.spawn([sys.executable, WORKER], json.dumps(job))
        result = None
        if proc["rc"] == 0 and proc["setup_s"] is not None:
            try:
                result = json.loads(proc["stdout"].strip().splitlines()[-1])
            except (ValueError, IndexError):
                result = None
        return proc, result

    def tally(self, name: str, attempted: int, result: dict | None, proc: dict) -> None:
        """Count a process's ops; a crash or bad exit fails all it was given."""
        if result is None:
            self.attempted += attempted
            self.failed += attempted
            self.failures.append(f"{name}: process failed (exit code {proc['rc']})")
            return
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.failures.extend(f"{name}: {f}" for f in result["failures"])

    def keep_going(self, walls: list[float], seconds: float) -> bool:
        """Start another session until the minimum count is met, then while
        it is expected to end no later than half a session after ``seconds``."""
        if len(walls) < MIN_SESSIONS[self.workload]:
            return True
        now = time.perf_counter()
        expected_end = now - self.measure_started + walls[-1] / 2
        return expected_end < seconds and now - self.run_started < DEADLINE_S

    # -- end-to-end ---------------------------------------------------------

    def check_cold(self, seconds: float) -> dict:
        expected = checks.expected_check_names()
        setups = []
        for _ in range(IMPORT_SAMPLES):
            proc, result = self.worker({"mode": "import"})
            if result is None:
                self.failures.append(f"import curvjet: exit code {proc['rc']}")
            else:
                setups.append(proc["setup_s"])
        self.measure_started = time.perf_counter()
        walls, rss = [], []
        while self.keep_going(walls, seconds):
            base = self.new_seed()
            argv = [sys.executable, "-c", CLI_ENTRY, "check", "--seed", str(base)]
            proc = self.spawn(argv, None)
            text = proc["stdout"]
            bad = checks.check_report_failures(text, expected)
            self.attempted += 1
            if proc["rc"] != 0 or bad:
                self.failed += 1
                self.failures.append(
                    f"check --seed {base}: exit code {proc['rc']}, "
                    f"{len(bad)} records missing or failing, first {bad[:3]}"
                )
            walls.append(proc["wall_s"])
            rss.append(proc["rss_mb"])
        return {"setups": setups, "walls": walls, "latencies": walls, "rss": rss}

    def sessions(self, seconds: float) -> dict:
        setups, walls, latencies, rss = [], [], [], []
        self.measure_started = time.perf_counter()
        while self.keep_going(walls, seconds):
            job = {
                "mode": self.workload,
                "warm_seed": self.new_seed(),
                "op_seeds": [self.new_seed() for _ in range(SESSION_OPS[self.workload])],
            }
            proc, result = self.worker(job)
            self.tally(f"session {len(walls)}", len(job["op_seeds"]), result, proc)
            if proc["setup_s"] is not None:
                setups.append(proc["setup_s"])
            walls.append(proc["wall_s"])
            rss.append(proc["rss_mb"])
            if result is not None:
                latencies.extend(result["latencies"])
        return {"setups": setups, "walls": walls, "latencies": latencies, "rss": rss}

    def end_to_end(self, seconds: float) -> tuple[dict, dict]:
        if self.workload == "check-cold":
            raw = self.check_cold(seconds)
        else:
            raw = self.sessions(seconds)
        lat = raw["latencies"]
        metrics = {"wall_s": statistics.median(raw["walls"]), "peak_rss_mb": max(raw["rss"])}
        if raw["setups"]:
            metrics["setup_s"] = statistics.median(raw["setups"])
        if lat:  # a run whose every session crashed has no latencies
            metrics["ops_per_s"] = len(lat) / sum(lat)
            metrics["op_p50_ms"] = 1e3 * windowed_median(lat, P50_WINDOW)
            metrics["op_p90_ms"] = 1e3 * percentile(lat, 0.9)
        extra = {
            "setup_samples": len(raw["setups"]),
            "sessions": len(raw["walls"]),
            "op_samples": len(lat),
            "op_samples_beyond_p90": samples_beyond(len(lat), 0.9),
            "raw": raw,
        }
        return metrics, extra

    # -- traced -------------------------------------------------------------

    def traced(self) -> tuple[dict, dict]:
        os.makedirs(OUT_DIR, exist_ok=True)
        tag = f"{self.workload}_seed{self.seed}"
        layers: dict[str, float] = {}
        totals: dict[str, dict] = {}
        overhead = 0.0

        proc, result = self.worker({"mode": "probe", "seed": self.new_seed()})
        self.tally("probe", 7, result, proc)
        if result is not None:
            layers.update(result["layers"])

        jobs = [("tour", {"mode": "tour", "seed": self.new_seed()}, 1)]
        if self.workload in TRACED_OPS:
            ops = [self.new_seed() for _ in range(TRACED_OPS[self.workload])]
            jobs.append((self.workload, {"mode": self.workload, "trace": True,
                                         "warm_seed": self.new_seed(), "op_seeds": ops},
                         len(ops)))
        for name, job, attempted in jobs:
            job["run_id"] = f"{tag}_{name}"
            job["spans_path"] = os.path.join(OUT_DIR, f"spans_{tag}_{name}.jsonl")
            proc, result = self.worker(job)
            self.tally(name, attempted, result, proc)
            if result is None:
                continue
            overhead += result["overhead_s"]
            for fn, row in result["layers"].items():
                into = totals.setdefault(fn, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
                for key in into:
                    into[key] += row[key]
            for suite, secs in result.get("suite_s", {}).items():
                layers[f"suites.{suite}.s"] = secs

        for fn in TRACED_FUNCTIONS:
            row = totals.get(fn, {"calls": 0, "self_s": 0.0})
            layers[f"{fn}.calls"] = row["calls"]
            layers[f"{fn}.self_s"] = row["self_s"]
        render = totals.get("report.Report.render_text")
        if render is not None:
            layers["report.render_s"] = render["total_s"]
        cli = totals.get("cli.main")
        if cli is not None:
            layers["cli.other_s"] = cli["self_s"]
        layers["trace.overhead_s"] = overhead
        return layers, {"functions": totals}


def environment_stamp(runner: Runner) -> dict:
    proc, result = runner.worker({"mode": "stamp"})
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=runner.root, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(runner.root)),
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        **(result or {}),
        "blas_threads_requested": int(runner.env["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "workload": runner.workload,
        "seed": runner.seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "curvjet", "__init__.py")):
        print("error: run from the root of a curvjet checkout (no src/curvjet here)",
              file=sys.stderr)
        return 2

    runner = Runner(root, args.workload, args.seed)
    stamp = environment_stamp(runner)  # also compiles the bytecode once
    if args.trace:
        values, extra = runner.traced()
        units = per_layer_units()
    else:
        values, extra = runner.end_to_end(args.seconds)
        units = END_TO_END_UNITS
    missing = sorted(set(units) - set(values))
    if missing:
        runner.failures.append(f"metrics not measured: {missing}")

    correct = runner.failed == 0 and not missing and runner.attempted > 0
    failed_frac = runner.failed / runner.attempted if runner.attempted else 1.0
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items() if name in values
    }
    record = {"env": stamp, "trace": args.trace, "seconds": args.seconds,
              "failed_frac": failed_frac, "failures": runner.failures,
              "metrics": metrics, **extra}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for failure in runner.failures:
        print(f"failure: {failure}", file=sys.stderr)
    print(f"env: {json.dumps(stamp, sort_keys=True)}")
    print(f"summary: failed_frac {failed_frac:.6g} ({runner.failed}/{runner.attempted} ops), "
          + ", ".join(f"{k} {v}" for k, v in extra.items() if k not in ("functions", "raw")))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
