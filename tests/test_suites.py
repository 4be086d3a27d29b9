"""Check suites: run scope, NaN-propagating aggregation, suite independence."""

import math
import os
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest

from curvjet import identities, spaces, suites
from curvjet.jets import einstein_extend, random_einstein_one_jet
from curvjet.spaces import Space, run_scope
from curvjet.suites import (
    Worst,
    _draws_worst,
    _einstein_jets,
    _packed_kulkarni,
    _worst_over,
    make_config,
    run_suites,
    run_suites_timed,
    suite_names,
)

E3 = Space(3)
# record names of a default `curvjet check`, in report order
CHECK_RECORDS = Path(__file__).resolve().parents[1] / "perfbench/reference/check_records.txt"


@pytest.fixture(scope="module")
def three_seeds():
    cfg = make_config(seeds=3)
    return cfg, run_suites(["all"], cfg)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_packed_kulkarni_is_a_scaled_isometry(n, m):
    # the Kulkarni map is sqrt(4(m+1)/(m-1)) times an isometry from N_m onto
    # C_{m-2}: a defect that scales or mixes the images keeps the rank that
    # dimensions/*/kulkarni_kernel_m* counts, but not these singular values
    singular = np.linalg.svd(_packed_kulkarni(n, m), compute_uv=False)
    assert len(singular) == len(suites._nk_stack(n, m))
    assert np.max(np.abs(singular**2 - 4.0 * (m + 1) / (m - 1))) <= 1e-12


class TestWorst:
    def test_finite_values_give_the_max(self):
        assert _draws_worst([2.5e-12, 1e-13]) == Worst(2.5e-12, None, 2)
        assert _draws_worst(np.array([3.0])) == Worst(3.0, None, 1)
        # the worst is at least 0.0, and no values give 0.0 with no samples
        assert _draws_worst([-1.0]) == Worst(0.0, None, 1)
        assert _draws_worst([]) == Worst(0.0, None, 0)

    @pytest.mark.parametrize("values", [(0.0, math.nan), (math.nan, 0.0), (1.0, math.nan, 2.0)])
    def test_nan_propagates(self, values):
        worst = _draws_worst(values)
        assert math.isnan(worst.value) and worst.seed is None and worst.samples == len(values)


def by_seed(values: dict[int, float]):
    """A residuals(seeds) form that reads one value per seed of each chunk."""
    return lambda seeds: {"r": np.array([values[s] for s in seeds]), "s": np.zeros(len(seeds))}


@pytest.fixture(params=[1, 2, 4], ids=["chunk1", "chunk2", "chunk4"])
def chunk(request, monkeypatch):
    """Chunks of 1, 2 or 4 seeds: merging across chunks and reducing within one agree."""
    monkeypatch.setattr(suites, "_chunk", lambda sp: request.param)
    return request.param


class TestWorstSeed:
    def test_keeps_the_loop_seed_of_the_first_largest_value(self):
        cfg = make_config(dim=3, seed=10, seeds=4)
        worst = _worst_over(cfg, E3, by_seed({10: 1.0, 11: 3.0, 12: 3.0, 13: 2.0}))
        assert (worst["r"].value, worst["r"].seed, worst["r"].samples) == (3.0, 11, 4)
        assert (worst["s"].value, worst["s"].seed, worst["s"].samples) == (0.0, 10, 4)

    def test_the_first_nan_seed_wins(self):
        cfg = make_config(dim=3, seed=0, seeds=4)
        worst = _worst_over(cfg, E3, by_seed({0: 1.0, 1: math.nan, 2: 5.0, 3: math.nan}))["r"]
        assert math.isnan(worst.value) and worst.seed == 1 and worst.samples == 4

    # the same checks with the seeds split into chunks of 1, 2 or 4
    def test_keeps_the_loop_seed_of_the_first_largest_value_in_chunks(self, chunk):
        self.test_keeps_the_loop_seed_of_the_first_largest_value()

    def test_the_first_nan_seed_wins_in_chunks(self, chunk):
        self.test_the_first_nan_seed_wins()

    def test_chunks_cover_the_seeds_in_order(self, chunk):
        cfg = make_config(dim=3, seed=5, seeds=7)
        chunks = suites._chunks(cfg, E3)
        assert [s for c in chunks for s in c] == list(cfg.seed_range())
        assert all(len(c) == chunk for c in chunks[:-1]) and 0 < len(chunks[-1]) <= chunk

    def test_chunk_keeps_one_valence_6_stack_within_the_chunk_bytes(self):
        from curvjet.subspace import _CHUNK_BYTES

        assert [suites._chunk(Space(n)) for n in (3, 4, 5)] == [89, 16, 4]
        for n in (3, 4, 5):
            assert suites._chunk(Space(n)) * 8 * n**6 <= _CHUNK_BYTES

    def test_offset_seeds_report_the_loop_seed(self, three_seeds):
        cfg, records = three_seeds
        seeds = set(cfg.seed_range())
        assert all(r.worst_seed is None or r.worst_seed in seeds for r in records)
        dims = [r for r in records if r.name.startswith("dimensions/")]
        assert dims and all(r.worst_seed is None for r in dims)


class TestNaNFails:
    def test_identity_nan_on_a_middle_seed_fails(self, monkeypatch):
        cfg = make_config(dim=3, seeds=3)
        real = identities._REGISTRY["ricci_rotation_vanishes"]

        def flaky(space, seeds):
            res = real(space, seeds)
            bad = np.array([s == cfg.base_seed + 1 for s in seeds])
            return {key: np.where(bad, math.nan, v) for key, v in res.items()}

        monkeypatch.setitem(identities._REGISTRY, "ricci_rotation_vanishes", flaky)
        records = {r.name: r for r in run_suites(["identities"], cfg)}
        bad = records["identities/n3/ricci_rotation_vanishes/residual"]
        assert math.isnan(bad.residual) and not bad.passed
        assert bad.worst_seed == cfg.base_seed + 1 and bad.samples == 3
        assert records["identities/n3/embed_trace_22/residual"].passed

    def test_eigenvalue_nan_on_a_middle_seed_fails(self, monkeypatch):
        cfg = make_config(dim=3, seeds=3)
        real = suites._rel
        calls = []

        def flaky(a, b, lead=0):
            # NaN on the middle seed of the first eigenvalue check (k = 0) only
            calls.append(len(a))
            out = real(a, b, lead)
            if a.ndim == lead + 4:
                seeds = list(suites._chunks(cfg, E3)[len(calls) - 1])
                out = np.where(np.array(seeds) == cfg.base_seed + 1, math.nan, out)
            return out

        monkeypatch.setattr(suites, "_rel", flaky)
        records = run_suites(["eigenvalue"], cfg)
        assert [r.passed for r in records] == [False, True, True]
        assert records[0].worst_seed == cfg.base_seed + 1 and records[0].samples == 3

    # the same checks with the seeds split into chunks of 1, 2 or 4
    def test_identity_nan_on_a_middle_seed_fails_in_chunks(self, monkeypatch, chunk):
        self.test_identity_nan_on_a_middle_seed_fails(monkeypatch)

    def test_eigenvalue_nan_on_a_middle_seed_fails_in_chunks(self, monkeypatch, chunk):
        self.test_eigenvalue_nan_on_a_middle_seed_fails(monkeypatch)


class TestRunSuites:
    def test_memo_is_empty_after_a_run(self, monkeypatch):
        run_suites(["star"], make_config(dim=3, seeds=1))
        assert spaces._MEMO is None

        def boom(cfg, sp):
            raise RuntimeError("suite failed")

        monkeypatch.setitem(suites._SUITES, "star", boom)
        with pytest.raises(RuntimeError):
            run_suites(["eigenvalue", "star"], make_config(dim=3, seeds=1))
        assert spaces._MEMO is None

    def test_einstein_jet_is_shared_in_a_scope(self):
        with run_scope():
            assert _einstein_jets(E3, (2, 3)) is _einstein_jets(E3, (2, 3))
        assert _einstein_jets(E3, (2, 3)) is not _einstein_jets(E3, (2, 3))

    def test_einstein_one_jet_is_kept_only_in_its_extension(self):
        # the memoized stack of extended jets holds the one-jets' R and dR
        with run_scope():
            _einstein_jets(E3, (2, 3))
            kept = {key[0].__name__ for key in spaces._MEMO}
        assert kept == {"_einstein_jets"}

    def test_einstein_jet_is_memoized_without_its_rotation(self):
        with run_scope():
            # the components, R*R and the one-jet gaps, no rotation
            R, dR, d2R, SS, gaps = _einstein_jets(E3, (2, 3))
        for i, seed in enumerate((2, 3)):
            jet = einstein_extend(*random_einstein_one_jet(E3, seed))
            # bitwise the jet of a lone extension
            for part, stacked in zip(("R", "dR", "d2R"), (R, dR, d2R)):
                assert np.array_equal(getattr(jet, part).data, stacked[i])
            assert np.array_equal(jet.star_square, SS[i])
            assert jet.einstein_gaps == tuple(float(g[i]) for g in gaps)

    def test_memo_holds_only_read_only_arrays(self):
        # every suite on one space in one scope: each memo value is a read-only
        # array, a tuple of them or a read-only mapping of them, never a copy
        def read_only(value) -> bool:
            if isinstance(value, np.ndarray):
                return not value.flags.writeable
            if isinstance(value, MappingProxyType):
                value = tuple(value.values())
            return isinstance(value, tuple) and all(read_only(v) for v in value)

        cfg = make_config(dim=3, seeds=2)
        with run_scope():
            for suite in suites._SUITES.values():
                suite(cfg, E3)
            memo = dict(spaces._MEMO)
        assert len(memo) > 10
        assert [key[0].__name__ for key, value in memo.items() if not read_only(value)] == []

    @pytest.mark.parametrize("seeds", [3, 25])
    def test_records_do_not_depend_on_the_chunk_length(self, seeds, monkeypatch):
        # one seed per chunk, against every seed in one chunk (one seed makes one
        # chunk either way); the chunking does not depend on the dimension, so
        # 25 seeds run at n=3 only
        cfg = make_config(dim=3 if seeds == 25 else None, seeds=seeds)
        monkeypatch.setattr(suites, "_chunk", lambda sp: 1)
        one = run_suites(["all"], cfg)
        monkeypatch.setattr(suites, "_chunk", lambda sp: seeds)
        assert run_suites(["all"], cfg) == one

    @pytest.mark.parametrize("name", [n for n in suite_names() if n != "all"])
    def test_single_suite_matches_all(self, name, three_seeds):
        cfg, everything = three_seeds
        expected = [r for r in everything if r.name.startswith(f"{name}/")]
        assert expected and run_suites([name], cfg) == expected

    def test_default_record_names_and_order(self, default_check):
        expected = CHECK_RECORDS.read_text().split()
        assert [r.name for r in default_check] == expected

    def test_n3_corollary_reduces_seeded_jets(self, default_check):
        # the fixed symmetric family gives 3 values; more means seeded jets fitted
        corollary = next(r for r in default_check if r.name == "fit/n3/corollary")
        assert corollary.samples > 3


@pytest.fixture(scope="module")
def default_check():
    return run_suites(["all"], make_config())


FORK = hasattr(os, "fork")
L4 = (-1, 1, 1, 1)


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs and one BLAS thread, so that a run splits across two processes."""
    monkeypatch.setattr(suites, "_usable_cpus", lambda: 2)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


def no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestWorkers:
    def test_in_process_loop_matches_the_pool(self, two_cpus, monkeypatch):
        cfg = make_config(seeds=2)
        split, timings = run_suites_timed(["all"], cfg)
        assert timings["workers"] >= 2 if FORK else timings["workers"] == 1
        monkeypatch.setattr(suites, "_usable_cpus", lambda: 1)
        looped, timings = run_suites_timed(["all"], cfg)
        assert timings["workers"] == 1
        # record equality covers the name, residual, worst_seed and samples
        assert looped == split
        assert no_child_left()

    def test_one_space_split_matches_the_in_process_run(self, two_cpus, monkeypatch):
        # one space: the helpers take tail halves of its suites
        cfg = make_config(signature=L4, seeds=2)
        split, timings = run_suites_timed(["all"], cfg)
        assert timings["workers"] >= 2 if FORK else timings["workers"] == 1
        monkeypatch.setattr(suites, "_usable_cpus", lambda: 1)
        looped, timings = run_suites_timed(["all"], cfg)
        assert timings["workers"] == 1
        assert looped == split

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    def test_more_processes_than_cores_match_and_leave_no_pipe_open(self, monkeypatch):
        # eight CPUs claimed on whatever the machine has: seven tokens in one pipe
        monkeypatch.setattr(suites, "_usable_cpus", lambda: 8)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        cfg = make_config(seeds=1)
        fds = set(os.listdir("/proc/self/fd"))
        split, timings = run_suites_timed(["all"], cfg)
        assert set(os.listdir("/proc/self/fd")) == fds and no_child_left()
        assert timings["workers"] >= 2 if FORK else timings["workers"] == 1
        monkeypatch.setattr(suites, "_usable_cpus", lambda: 1)
        assert run_suites(["all"], cfg) == split

    def test_a_worker_error_reaches_the_caller(self, two_cpus, monkeypatch):
        def boom(cfg, sp):
            raise RuntimeError(f"boom at n={sp.dim}")

        monkeypatch.setitem(suites._SUITES, "star", boom)
        with pytest.raises(RuntimeError, match="boom at n="):
            run_suites(["eigenvalue", "star"], make_config(seeds=1))
        assert spaces._MEMO is None
        assert no_child_left()

    @pytest.mark.skipif(not FORK, reason="no fork on this platform")
    def test_an_error_in_a_helper_forked_mid_space_reaches_the_caller(self, two_cpus, monkeypatch):
        # the last suite of the only space runs in a helper that was handed the tail
        # half of the suites, and its error passes through the process that forked it
        def boom(cfg, sp):
            raise ValueError(f"identities failed in process {os.getpid()}")

        monkeypatch.setitem(suites._SUITES, "identities", boom)
        with pytest.raises(ValueError, match="identities failed in process") as caught:
            run_suites(["all"], make_config(signature=L4, seeds=1))
        assert str(os.getpid()) not in str(caught.value)
        # each process on the way adds the traceback it received as the cause
        assert isinstance(caught.value.__cause__, suites.HelperTraceback)
        assert "HelperTraceback" in str(caught.value.__cause__)
        assert spaces._MEMO is None
        assert no_child_left()

    @pytest.mark.parametrize(
        "cpus, env, workers",
        [
            (2, {}, 1),  # the default BLAS thread count takes every CPU
            (2, {"OPENBLAS_NUM_THREADS": "1"}, 2),
            (2, {"OMP_NUM_THREADS": "1"}, 2),
            (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
            (4, {"OPENBLAS_NUM_THREADS": "2"}, 2),
            (8, {"OPENBLAS_NUM_THREADS": "1"}, 8),  # no cap per space: tasks split spaces
            (1, {"OPENBLAS_NUM_THREADS": "1"}, 1),
            (2, {"OPENBLAS_NUM_THREADS": "0"}, 1),  # not a thread count: the default
        ],
    )
    def test_pool_size_leaves_the_blas_threads_their_cpus(self, monkeypatch, cpus, env, workers):
        monkeypatch.setattr(suites, "_usable_cpus", lambda: cpus)
        for var in suites._BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert suites._pool_size() == workers

    @pytest.mark.parametrize(
        "tasks, kept",
        [
            ([(1, 0), (1, 1), (0, 0), (0, 1), (2, 0)], 2),  # whole spaces go first
            ([(1, 0), (1, 1), (1, 2), (1, 3), (1, 4)], 3),  # one space: the tail half
            ([(0, 3), (0, 4)], 1),
        ],
    )
    def test_hand_off_gives_whole_spaces_then_a_tail_half(self, tasks, kept):
        assert suites._hand_off(tasks) == (tasks[:kept], tasks[kept:])

    def test_memory_counts_each_process(self, two_cpus):
        _, timings = run_suites_timed(["eigenvalue"], make_config(seeds=1))
        memory = timings["maxrss"]
        # this process, the process that runs n=4 and the helper it forks for n=3
        assert memory["processes"] == (3 if FORK else 1)
        assert memory["largest_process_mb"] == max(
            [memory["this_process_mb"]] + [s["maxrss_mb"] for s in timings["spaces"]]
        )
        assert memory["largest_process_mb"] <= memory["summed_mb"]

    def test_timings_cover_each_suite_on_each_space(self, monkeypatch):
        monkeypatch.setattr(suites, "_usable_cpus", lambda: 1)
        records, timings = run_suites_timed(["eigenvalue", "fit"], make_config(dim=3, seeds=1))
        assert timings["workers"] == 1
        (space,) = timings["spaces"]
        assert (space["dim"], space["signature"]) == (3, [1, 1, 1])
        assert list(space["suite_s"]) == ["eigenvalue", "fit"]
        assert space["total_s"] == pytest.approx(sum(space["suite_s"].values()))
        assert [r.name.split("/")[0] for r in records] == ["eigenvalue"] * 3 + ["fit"] * 2

    def test_import_leaves_multiprocessing_out(self):
        # at module level it would add about 20 ms to every import; the run forks directly
        code = "import sys, curvjet; print('multiprocessing' in sys.modules)"
        src = os.path.dirname(os.path.dirname(suites.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert (proc.returncode, proc.stdout.strip()) == (0, "False")
