"""Check suites: run scope, NaN-propagating aggregation, suite independence."""

import math
from pathlib import Path

import pytest

from curvjet import identities, spaces, suites
from curvjet.spaces import Space, run_scope
from curvjet.suites import (
    _einstein_jet,
    _worst,
    _worst_over,
    make_config,
    run_suites,
    suite_names,
)

E3 = Space(3)
# record names of a default `curvjet check`, in report order
CHECK_RECORDS = Path(__file__).resolve().parents[1] / "perfbench/reference/check_records.txt"


@pytest.fixture(scope="module")
def three_seeds():
    cfg = make_config(seeds=3)
    return cfg, run_suites(["all"], cfg)


class TestWorst:
    def test_finite_values_give_the_max(self):
        assert _worst(0.0, 2.5e-12, 1e-13) == 2.5e-12
        assert _worst(3.0) == 3.0

    @pytest.mark.parametrize("values", [(0.0, math.nan), (math.nan, 0.0), (1.0, math.nan, 2.0)])
    def test_nan_propagates(self, values):
        assert math.isnan(_worst(*values))


class TestWorstSeed:
    def test_keeps_the_loop_seed_of_the_first_largest_value(self):
        cfg = make_config(dim=3, seed=10, seeds=4)
        values = {10: 1.0, 11: 3.0, 12: 3.0, 13: 2.0}
        worst = _worst_over(cfg, lambda seed: {"r": values[seed], "s": 0.0})
        assert (worst["r"].value, worst["r"].seed, worst["r"].samples) == (3.0, 11, 4)
        assert (worst["s"].value, worst["s"].seed) == (0.0, 10)

    def test_the_first_nan_seed_wins(self):
        cfg = make_config(dim=3, seed=0, seeds=4)
        values = [1.0, math.nan, 5.0, math.nan]
        worst = _worst_over(cfg, lambda seed: {"r": values[seed]})["r"]
        assert math.isnan(worst.value) and worst.seed == 1

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

        def flaky(space, seed):
            return {"residual": math.nan} if seed == cfg.base_seed + 1 else real(space, seed)

        monkeypatch.setitem(identities._REGISTRY, "ricci_rotation_vanishes", flaky)
        records = {r.name: r for r in run_suites(["identities"], cfg)}
        bad = records["identities/n3/ricci_rotation_vanishes/residual"]
        assert math.isnan(bad.residual) and not bad.passed
        assert records["identities/n3/embed_trace_22/residual"].passed

    def test_eigenvalue_nan_on_a_middle_seed_fails(self, monkeypatch):
        cfg = make_config(dim=3, seeds=3)
        real = suites._rel
        calls = []

        def flaky(a, b):
            calls.append(None)
            return math.nan if len(calls) == 2 else real(a, b)

        monkeypatch.setattr(suites, "_rel", flaky)
        records = run_suites(["eigenvalue"], cfg)
        assert [r.passed for r in records] == [False, True, True]


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
            assert _einstein_jet(E3, 2) is _einstein_jet(E3, 2)
        assert _einstein_jet(E3, 2) is not _einstein_jet(E3, 2)

    @pytest.mark.parametrize("name", [n for n in suite_names() if n != "all"])
    def test_single_suite_matches_all(self, name, three_seeds):
        cfg, everything = three_seeds
        expected = [r for r in everything if r.name.startswith(f"{name}/")]
        assert expected and run_suites([name], cfg) == expected

    def test_default_record_names_and_order(self):
        expected = CHECK_RECORDS.read_text().split()
        assert [r.name for r in run_suites(["all"], make_config())] == expected
