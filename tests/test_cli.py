"""Command-line surface: subcommands, exit codes, report determinism."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import curvjet
from curvjet.cli import main
from curvjet.curvature import kn_pair
from curvjet.jets import TwoJet, einstein_check, two_jet_from_dict, two_jet_to_dict
from curvjet.polymetric import poly_metric_from_dict, poly_metric_to_dict, random_poly_metric
from curvjet.report import json_text
from curvjet.spaces import Space, Tensor, tensor_to_dict
from curvjet.young import random_ck

E3 = Space(3)


def one_jet_doc(R, dR) -> dict:
    return {
        "dim": R.space.dim,
        "signature": list(R.space.signature),
        "R": tensor_to_dict(R),
        "dR": tensor_to_dict(dR),
    }


def symmetric_jet(lam: float, d2=None) -> TwoJet:
    g = E3.metric_tensor()
    zero5 = Tensor(E3, np.zeros((3,) * 5))
    d2 = d2 if d2 is not None else Tensor(E3, np.zeros((3,) * 6))
    return TwoJet(lam * kn_pair(g, g), zero5, d2)


class TestCheck:
    def test_eigenvalue_suite_passes(self, capsys):
        code = main(["check", "--suite", "eigenvalue", "--dim", "3", "--seeds", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "eigenvalue/n3/k0" in out and "summary: PASS" in out

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--suite", "nonsense"])
        assert exc.value.code == 2

    def test_threshold_below_machine_precision_fails(self, capsys):
        code = main(
            ["check", "--suite", "eigenvalue", "--dim", "3", "--seeds", "1", "--tol", "1e-30"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert out.count("FAIL") >= 3  # every residual still reported
        assert "residual" in out

    def test_report_is_deterministic(self, tmp_path, capsys):
        argv = [
            "check", "--suite", "identities", "--dim", "3",
            "--seed", "7", "--seeds", "2",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text())
        assert doc["pass"] is True
        assert doc["config"]["base_seed"] == 7
        keys = {"name", "residual", "threshold", "pass", "worst_seed", "samples"}
        assert all(set(c) == keys for c in doc["checks"])

    def test_all_suites_end_to_end(self, capsys):
        code = main(["check", "--suite", "all", "--dim", "4", "--seed", "7", "--seeds", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "summary: PASS" in out

    def test_lorentz_signature(self, capsys):
        code = main(["check", "--suite", "hierarchy", "--signature", "1,1,-1", "--seeds", "2"])
        assert code == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--suite", "star", "--seeds", "0"],
            ["--suite", "einstein", "--seeds", "0"],
            ["--dim", "2"],
            ["--dim", "6", "--suite", "star"],
            ["--signature", "1,-1", "--suite", "star"],
            ["--dim", "3", "--signature", "1,1,1,-1", "--suite", "star"],
        ],
    )
    def test_unsupported_configuration_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check"] + argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("suite", ["star", "metric"])
    def test_worst_seed_reproduces_the_worst_residual(self, suite, capsys):
        argv = ["check", "--suite", suite, "--dim", "3", "--format", "json"]
        assert main(argv + ["--seed", "3", "--seeds", "4"]) == 0
        records = json.loads(capsys.readouterr().out)["checks"]
        seeded = [r for r in records if r["worst_seed"] is not None]
        assert seeded and all(r["samples"] >= 1 for r in records)
        for seed in sorted({r["worst_seed"] for r in seeded}):
            assert main(argv + ["--seed", str(seed), "--seeds", "1"]) == 0
            again = {r["name"]: r for r in json.loads(capsys.readouterr().out)["checks"]}
            for r in seeded:
                if r["worst_seed"] == seed:
                    assert again[r["name"]]["residual"] == r["residual"]

    def test_text_report_prints_the_margin(self, capsys):
        code = main(["check", "--suite", "eigenvalue", "--dim", "3", "--seeds", "2"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0 and lines[0].startswith("PASS  eigenvalue/n3/k0  residual ")
        margin = lines[1].split()
        residual, threshold = float(lines[0].split()[3]), float(lines[0].split()[5][:-1])
        assert [margin[0], margin[2], margin[4]] == ["margin", "seed", "samples"]
        assert float(margin[1]) == pytest.approx(residual / threshold, rel=0.1)

    def test_json_format(self, capsys):
        code = main(
            ["check", "--suite", "eigenvalue", "--dim", "3", "--seeds", "1", "--format", "json"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and doc["pass"] is True

    def test_timings_sidecar_leaves_the_report_alone(self, tmp_path, capsys):
        def check(name: str, *extra: str) -> tuple[str, bytes]:
            out = tmp_path / f"{name}.json"
            argv = ["check", "--suite", "star", "--suite", "metric", "--seeds", "2"]
            assert main(argv + ["--out", str(out), *extra]) == 0
            return capsys.readouterr().out, out.read_bytes()

        path = tmp_path / "timings.json"
        assert check("plain") == check("timed", "--timings", str(path))
        timings = json.loads(path.read_text())
        assert [s["dim"] for s in timings["spaces"]] == [3, 4]
        assert all(set(s["suite_s"]) == {"star", "metric"} for s in timings["spaces"])
        # at most one process per (space, suite) task
        assert 1 <= timings["workers"] <= 4 and timings["wall_s"] > 0
        assert timings["maxrss"]["largest_process_mb"] <= timings["maxrss"]["summed_mb"]

    def test_json_format_star_suite(self, capsys):
        # star residuals are numpy scalars; the report must still serialize
        code = main(["check", "--suite", "star", "--dim", "3", "--seeds", "1", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and doc["pass"] is True


class TestGen:
    def test_writes_valid_two_jet(self, tmp_path, capsys):
        path = tmp_path / "jet.json"
        code = main(["gen", "--dim", "3", "--seed", "4", "--out", str(path)])
        capsys.readouterr()
        assert code == 0
        jet = two_jet_from_dict(json.loads(path.read_text()))
        assert jet.space.dim == 3

    def test_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["gen", "--dim", "3", "--seed", "4", "--out", str(a)])
        main(["gen", "--dim", "3", "--seed", "4", "--out", str(b)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_einstein_flag(self, tmp_path, capsys):
        path = tmp_path / "ejet.json"
        code = main(["gen", "--dim", "3", "--einstein", "--seed", "1", "--out", str(path)])
        capsys.readouterr()
        assert code == 0
        jet = two_jet_from_dict(json.loads(path.read_text()))
        assert einstein_check(jet)[0]


    @pytest.mark.parametrize("dim", ["2", "6"])
    def test_dimension_without_jets_is_usage_error(self, dim, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--dim", dim])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestCommonOptions:
    # --seed and --tol are validated once for every subcommand that takes them
    @pytest.mark.parametrize("command", ["gen", "check", "metric"])
    def test_negative_seed_is_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "-5"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--dim", "1"],
            ["metric", "--dim", "0"],
            ["gen", "--signature", "1"],
            ["metric", "--signature", "1"],
        ],
    )
    def test_dimension_below_two_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("tol", ["-1", "nan", "x"])
    def test_bad_tolerance_is_usage_error(self, tol, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--suite", "eigenvalue", "--dim", "3", "--tol", tol])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gen", "--seed", "abc"], "--seed must be an integer"),
            (["gen", "--dim", "3", "--signature", "-1,1,1,1"], "--dim contradicts"),
            (["metric", "--dim", "3", "--signature", "1,1,1,1"], "--dim contradicts"),
        ],
        ids=["seed", "gen-dim", "metric-dim"],
    )
    def test_malformed_value_is_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "command, option, value",
        [
            ("gen", "--in", "jet.json"),
            ("check", "--in", "report.json"),
            ("extend", "--dim", "4"),
            ("extend", "--signature", "1,1,1,1"),
            ("extend", "--seed", "1"),
            ("extend", "--tol", "1e-3"),
            ("fit", "--dim", "4"),
            ("fit", "--signature", "1,1,1,1"),
            ("fit", "--seed", "1"),
            ("fit", "--tol", "1e-3"),
            ("fit", "--out", "never.json"),
            ("metric", "--tol", "1e-3"),
        ],
    )
    def test_option_the_command_does_not_read_is_usage_error(
        self, command, option, value, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main([command, option, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: unrecognized arguments" in err and option in err


class TestExtend:
    def test_requires_input(self, capsys):
        assert main(["extend"]) == 2
        capsys.readouterr()

    def test_constant_curvature_round_trip(self, tmp_path, capsys):
        g = E3.metric_tensor()
        doc = one_jet_doc(1.5 * kn_pair(g, g), Tensor(E3, np.zeros((3,) * 5)))
        src, dst = tmp_path / "one.json", tmp_path / "two.json"
        src.write_text(json.dumps(doc))
        code = main(["extend", "--in", str(src), "--out", str(dst)])
        out = capsys.readouterr().out
        assert code == 0
        assert "solution_dim" in out
        jet = two_jet_from_dict(json.loads(dst.read_text()))
        assert einstein_check(jet)[0]

    def test_zero_input_gives_zero_jet(self, tmp_path, capsys):
        doc = one_jet_doc(Tensor(E3, np.zeros((3,) * 4)), Tensor(E3, np.zeros((3,) * 5)))
        src, dst = tmp_path / "zero.json", tmp_path / "out.json"
        src.write_text(json.dumps(doc))
        assert main(["extend", "--in", str(src), "--out", str(dst)]) == 0
        capsys.readouterr()
        jet = two_jet_from_dict(json.loads(dst.read_text()))
        assert jet.R.norm() == jet.dR.norm() == jet.d2R.norm() == 0.0

    def test_non_einstein_rejected_by_name(self, tmp_path, capsys):
        g = E3.metric_tensor()
        R = kn_pair(g, g) + 0.1 * random_ck(E3, 0, 0)
        doc = one_jet_doc(R, Tensor(E3, np.zeros((3,) * 5)))
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(doc))
        code = main(["extend", "--in", str(src)])
        err = capsys.readouterr().err
        assert code == 1
        assert "ric" in err and "not Einstein" in err


class TestFit:
    def test_symmetric_jet_fits_zero(self, tmp_path, capsys):
        src = tmp_path / "jet.json"
        src.write_text(json.dumps(two_jet_to_dict(symmetric_jet(1.0))))
        code = main(["fit", "--in", str(src), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["c"] == 0.0 and doc["residual"] == 0.0
        assert doc["eigenvalue_residual"] == 0.0  # Einstein with perfect fit

    def test_doubling_d2_doubles_c(self, tmp_path, capsys):
        d2 = random_ck(E3, 2, 8)
        results = []
        for scale in (1.0, 2.0):
            src = tmp_path / f"jet{scale}.json"
            src.write_text(json.dumps(two_jet_to_dict(symmetric_jet(1.0, scale * d2))))
            assert main(["fit", "--in", str(src), "--format", "json"]) == 0
            results.append(json.loads(capsys.readouterr().out))
        assert results[1]["c"] == pytest.approx(2.0 * results[0]["c"], rel=1e-12)

    def test_generic_jet_is_informative_not_failing(self, tmp_path, capsys):
        from curvjet.jets import random_two_jet

        src = tmp_path / "jet.json"
        src.write_text(json.dumps(two_jet_to_dict(random_two_jet(E3, 9))))
        code = main(["fit", "--in", str(src), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and doc["residual"] > 1e-2

    def test_invalid_jet_rejected(self, tmp_path, capsys):
        from curvjet.spaces import random_tensor

        bad = {
            "dim": 3,
            "signature": [1, 1, 1],
            "R": tensor_to_dict(random_tensor(E3, 4, 0)),
            "dR": tensor_to_dict(Tensor(E3, np.zeros((3,) * 5))),
            "d2R": tensor_to_dict(Tensor(E3, np.zeros((3,) * 6))),
        }
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(bad))
        assert main(["fit", "--in", str(src)]) == 1
        capsys.readouterr()


class TestMetric:
    def test_generate_then_evaluate(self, tmp_path, capsys):
        met, jet = tmp_path / "met.json", tmp_path / "jet.json"
        assert main(["metric", "--dim", "3", "--seed", "2", "--out", str(met)]) == 0
        code = main(["metric", "--in", str(met), "--out", str(jet)])
        out = capsys.readouterr().out
        assert code == 0 and "valid: True" in out
        two_jet_from_dict(json.loads(jet.read_text()))


class TestDocumentLoading:
    @pytest.fixture
    def documents(self, tmp_path):
        missing_key = tmp_path / "missing_key.json"
        missing_key.write_text(json.dumps({"dim": 3}))
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{not json")
        return {
            "missing": tmp_path / "absent.json",
            "bad_json": bad_json,
            "missing_key": missing_key,
        }

    @pytest.mark.parametrize("command", ["metric", "extend", "fit"])
    @pytest.mark.parametrize("case", ["missing", "bad_json", "missing_key"])
    def test_unreadable_input_fails_with_error_line(self, documents, command, case, capsys):
        path = documents[case]
        assert main([command, "--in", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    @pytest.mark.parametrize(
        "record, message",
        [
            ([3, 0, [1, 0, 0], 0.1], "outside the ring"),
            ([-1, 0, [1, 0, 0], 0.1], "outside the ring"),
            ([0, 1, [1, 0, 0], float("nan")], "metric coefficients must be finite"),
        ],
    )
    def test_bad_metric_record_fails_with_error_line(self, tmp_path, record, message, capsys):
        doc = poly_metric_to_dict(random_poly_metric(E3, 2))
        doc["entries"].append(record)
        path = tmp_path / "metric.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["metric", "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert "valid" not in captured.out

    @pytest.mark.parametrize("command", ["fit", "extend"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_tensor_fails_with_one_error_line(self, tmp_path, command, value, capsys):
        jet = symmetric_jet(1.0)
        doc = two_jet_to_dict(jet) if command == "fit" else one_jet_doc(jet.R, jet.dR)
        doc["R"]["data"][1] = value
        path = tmp_path / "jet.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--in", str(path)]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "finite" in lines[0] and captured.out == ""


class TestDocumentHeader:
    # every reader takes its space from the dim/signature header and rejects
    # a header that is malformed or contradicts the tensors, with one error line
    @staticmethod
    def document(command: str) -> dict:
        if command == "metric":
            return poly_metric_to_dict(random_poly_metric(E3, 2))
        jet = symmetric_jet(1.0)
        return two_jet_to_dict(jet) if command == "fit" else one_jet_doc(jet.R, jet.dR)

    @staticmethod
    def fails_with_one_error_line(command, doc, tmp_path, capsys, message):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--in", str(path)]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {path} is malformed: ")
        assert message in lines[0] and captured.out == ""

    @pytest.mark.parametrize("command", ["fit", "extend"])
    @pytest.mark.parametrize(
        "header",
        [{"signature": [-1, 1, 1]}, {"dim": 4, "signature": [1, 1, 1, 1]}],
        ids=["signature", "dim"],
    )
    def test_header_contradicting_the_tensors(self, command, header, tmp_path, capsys):
        doc = {**self.document(command), **header}
        self.fails_with_one_error_line(command, doc, tmp_path, capsys, "not on the header's")

    @pytest.mark.parametrize("command", ["fit", "extend", "metric"])
    @pytest.mark.parametrize("signature", [[], [1, 1]], ids=["empty", "short"])
    def test_signature_not_listing_dim_signs(self, command, signature, tmp_path, capsys):
        doc = {**self.document(command), "signature": signature}
        self.fails_with_one_error_line(command, doc, tmp_path, capsys, "signature lists")

    @pytest.mark.parametrize("command", ["fit", "extend"])
    def test_tensor_signature_not_listing_dim_signs(self, command, tmp_path, capsys):
        doc = self.document(command)
        doc["dR"]["signature"] = []
        self.fails_with_one_error_line(command, doc, tmp_path, capsys, "signature lists")

    def test_fractional_and_boolean_header_integers(self, tmp_path, capsys):
        # int() would read this as the Lorentzian n=4 document that gen wrote
        path = tmp_path / "jet.json"
        assert main(["gen", "--signature", "-1,1,1,1", "--seed", "3", "--out", str(path)]) == 0
        capsys.readouterr()
        doc = json.loads(path.read_text())
        doc.update(dim=4.9, signature=[-1.5, 1.2, 1, True])
        for name in ("R", "dR", "d2R"):
            doc[name]["dim"] = 4.2
        self.fails_with_one_error_line("fit", doc, tmp_path, capsys, "must be an integer")

    @pytest.mark.parametrize(
        "command, edit",
        [
            ("fit", lambda d: d.update(dim=3.0)),
            ("fit", lambda d: d.update(signature=[1, True, 1])),
            ("extend", lambda d: d["R"].update(valence=4.5)),
            ("extend", lambda d: d["dR"].update(dim="3")),
            ("metric", lambda d: d.update(degree=4.7)),
            ("metric", lambda d: d["entries"].append([0.5, 1, [1, 0, 0], 0.1])),
            ("metric", lambda d: d["entries"].append([0, 1, [1.5, 0, 0], 0.1])),
            ("metric", lambda d: d["entries"].append([0, False, [1, 0, 0], 0.1])),
        ],
        ids=["dim", "sign", "valence", "tensor-dim", "degree", "index", "exponent", "bool-index"],
    )
    def test_each_integer_field_rejects_a_non_integer(self, command, edit, tmp_path, capsys):
        doc = self.document(command)
        edit(doc)
        self.fails_with_one_error_line(command, doc, tmp_path, capsys, "must be an integer")

    @pytest.mark.parametrize(
        "command, edit",
        [
            ("fit", lambda d: d["R"].update(data=[str(x) for x in d["R"]["data"]])),
            ("fit", lambda d: d["dR"]["data"].__setitem__(3, True)),
            ("extend", lambda d: d["R"]["data"].__setitem__(0, "0.12")),
            ("extend", lambda d: d["dR"]["data"].__setitem__(1, False)),
            ("metric", lambda d: d["entries"][1].__setitem__(3, "0.3")),
            ("metric", lambda d: d["entries"][2].__setitem__(3, True)),
        ],
        ids=["fit-str", "fit-bool", "extend-str", "extend-bool", "metric-str", "metric-bool"],
    )
    def test_each_number_field_rejects_a_non_number(self, command, edit, tmp_path, capsys):
        # float() would read "0.3" as 0.3 and true as 1.0
        doc = self.document(command)
        edit(doc)
        self.fails_with_one_error_line(command, doc, tmp_path, capsys, "must be a number")

    @pytest.mark.parametrize("command", ["gen", "metric"])
    def test_written_document_reads_back_unchanged(self, command, tmp_path, capsys):
        # gen -> fit's reader, metric -> metric --in's reader, each writing the same text
        path = tmp_path / "doc.json"
        assert main([command, "--signature", "1,-1,1", "--seed", "2", "--out", str(path)]) == 0
        capsys.readouterr()
        text = path.read_text()
        read = two_jet_from_dict if command == "gen" else poly_metric_from_dict
        write = two_jet_to_dict if command == "gen" else poly_metric_to_dict
        assert json_text(write(read(json.loads(text)))) == text


class TestFailurePath:
    # main turns every command failure into exit 1, one error line and no stdout
    @staticmethod
    def fails_with_one_error_line(argv, capsys, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert message in lines[0] and captured.out == ""

    @pytest.mark.parametrize("command", ["gen", "metric", "extend", "check"])
    def test_unwritable_out(self, command, tmp_path, capsys):
        out = tmp_path / "missing" / "doc.json"
        argv = {
            "gen": ["gen", "--dim", "3"],
            "metric": ["metric", "--dim", "3"],
            "extend": ["extend", "--in", str(tmp_path / "one.json")],
            "check": ["check", "--dim", "3", "--seeds", "1", "--suite", "star"],
        }[command]
        jet = symmetric_jet(1.0)
        (tmp_path / "one.json").write_text(json.dumps(one_jet_doc(jet.R, jet.dR)))
        self.fails_with_one_error_line(argv + ["--out", str(out)], capsys, f"cannot write {out}")

    def test_unwritable_timings(self, tmp_path, capsys):
        path = tmp_path / "missing" / "timings.json"
        argv = ["check", "--dim", "3", "--seeds", "1", "--suite", "star", "--timings", str(path)]
        self.fails_with_one_error_line(argv, capsys, f"cannot write {path}")

    def test_metric_of_degree_three(self, tmp_path, capsys):
        path = tmp_path / "met.json"
        assert main(["metric", "--dim", "3", "--seed", "2", "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        doc["degree"] = 3
        doc["entries"] = [e for e in doc["entries"] if sum(e[2]) <= 3]
        path.write_text(json.dumps(doc))
        self.fails_with_one_error_line(
            ["metric", "--in", str(path)], capsys, "degree must be at least 4"
        )

    def test_extend_with_swapped_tensors(self, tmp_path, capsys):
        # R and dR swapped: the document parses, and extend names the valences
        jet = symmetric_jet(1.0)
        path = tmp_path / "swapped.json"
        path.write_text(json.dumps(one_jet_doc(jet.dR, jet.R)))
        self.fails_with_one_error_line(
            ["extend", "--in", str(path)], capsys, "valences (4, 5), got (5, 4)"
        )


class TestLeadingMinusSignature:
    # "--signature -1,1,1,1" must reach --signature as its value, not be read
    # as an unknown option, on every subcommand that takes a signature; extend
    # and fit read the space from their input document and reject the option
    L4 = Space(4, (-1, 1, 1, 1))

    def test_check(self, capsys):
        argv = ["check", "--dim", "4", "--signature", "-1,1,1,1", "--suite", "star",
                "--seeds", "1", "--format", "json"]
        code = main(argv)
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and doc["pass"] is True
        assert doc["config"]["signature"] == [-1, 1, 1, 1]

    def test_gen(self, tmp_path, capsys):
        path = tmp_path / "jet.json"
        assert main(["gen", "--signature", "-1,1,1,1", "--seed", "3", "--out", str(path)]) == 0
        capsys.readouterr()
        assert two_jet_from_dict(json.loads(path.read_text())).space == self.L4

    def test_metric(self, tmp_path, capsys):
        path = tmp_path / "met.json"
        assert main(["metric", "--signature", "-1,1,1,1", "--out", str(path)]) == 0
        capsys.readouterr()
        assert json.loads(path.read_text())["signature"] == [-1, 1, 1, 1]

    def test_extend(self, tmp_path, capsys):
        g = self.L4.metric_tensor()
        doc = one_jet_doc(0.5 * kn_pair(g, g), Tensor(self.L4, np.zeros((4,) * 5)))
        src, dst = tmp_path / "one.json", tmp_path / "two.json"
        src.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["extend", "--signature", "-1,1,1,1", "--in", str(src), "--out", str(dst)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --signature=-1,1,1,1" in capsys.readouterr().err
        assert not dst.exists()

    def test_fit(self, tmp_path, capsys):
        from curvjet.jets import random_two_jet

        src = tmp_path / "jet.json"
        src.write_text(json.dumps(two_jet_to_dict(random_two_jet(self.L4, 9))))
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--signature", "-1,1,1,1", "--in", str(src), "--format", "json"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --signature=-1,1,1,1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["-1,2", "-1,x", "-1,,1"])
    def test_bad_signature_is_usage_error(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--signature", value, "--suite", "star"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestClosedStdout:
    # a reader that closes the pipe early (e.g. `| head -3`) ends the run with
    # exit 1 and a silent stderr: no traceback, no "Exception ignored" line
    @pytest.mark.parametrize("command", ["metric", "check"])
    def test_broken_pipe_exits_quietly(self, command, tmp_path):
        if command == "metric":
            path = tmp_path / "met.json"
            path.write_text(json.dumps(poly_metric_to_dict(random_poly_metric(E3, 2))))
            argv = ["metric", "--in", str(path)]
        else:
            argv = ["check", "--dim", "3", "--seeds", "1"]
        src = os.path.dirname(os.path.dirname(curvjet.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "curvjet.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                text=True,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""
