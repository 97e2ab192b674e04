import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import logcubic
from logcubic.cli import form_record, main
from logcubic.forms import DUAL, MAX_PARSED_DEPTH, parse_form, projectively_equal
from logcubic.torelli import forward_invariants


# Number formats that Fraction(str) reads but the polynomial grammar's number
# token does not: an exponent, a decimal point, an underscore, a non-ASCII
# digit.
REMOVED_FORMATS = ["1e1000", "0.5", "1_000", "٣"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    return code, json.loads(out), err


def strict_json(text: str):
    """Parse JSON as the standard defines it: NaN and Infinity, which
    json.dumps writes for non-finite floats, are refused."""

    def refuse(name):
        raise ValueError(f"not valid JSON: {name}")

    return json.loads(text, parse_constant=refuse)


class TestCayleyanCommand:
    def test_hesse_two_json(self, capsys):
        code, report, _ = run_json(capsys, "cayleyan", "--hesse-t", "2")
        assert code == 0
        assert report["status"] == "ok"
        record = report["outputs"]["cayleyan"]
        assert record["space"] == "dual" and record["degree"] == 3
        got = parse_form(record["text"], DUAL)
        target = parse_form("2*(a0^3+a1^3+a2^3) - 10*a0*a1*a2", DUAL)
        assert projectively_equal(got, target)

    def test_form_input(self, capsys):
        code, report, _ = run_json(capsys, "cayleyan", "--form", "z0^3+z1^3+z2^3")
        assert code == 0
        assert report["outputs"]["cayleyan"]["coeffs"][4] == "-54"


class TestJumpLineCommand:
    def test_jumping(self, capsys):
        code, report, _ = run_json(
            capsys, "jump-line", "--hesse-t", "2", "--alpha", "z0 - z1"
        )
        assert code == 0
        out = report["outputs"]
        assert out["jumping"] is True
        assert out["rank"] == 5
        assert out["splitting"] == [-1, 1]

    def test_generic(self, capsys):
        code, report, _ = run_json(
            capsys, "jump-line", "--hesse-t", "0", "--alpha", "z0+z1+z2"
        )
        assert report["outputs"]["jumping"] is False
        assert report["outputs"]["splitting"] == [0, 0]

    @pytest.mark.parametrize(
        "curve",
        [["--hesse-t", "1", "--alpha", "z0 - z1"],
         ["--form", "z1^2*z2 - z0^3 - z0^2*z2", "--alpha", "z2"]],
        ids=["hesse-t-1", "nodal"],
    )
    def test_singular_cubic_refused(self, capsys, curve):
        code, report, _ = run_json(capsys, "jump-line", *curve)
        assert code == 1
        assert report["status"] == "error"
        assert report["error"]["category"] == "singular-curve"


class TestReconstructCommand:
    def test_self_test_round_trip(self, capsys):
        code, report, _ = run_json(capsys, "reconstruct", "--hesse-t", "2")
        assert code == 0
        out = report["outputs"]
        assert out["reconstructed_t"] == "2"
        assert out["cayleyan_s"] == "5/3"
        assert out["candidates"]["exact_roots"] == ["2"]
        assert out["candidates"]["residual_coeffs"] == ["1", "2", "-1"]
        assert out["round_trip_ok"] is True

    def test_file_mode(self, capsys, tmp_path):
        inv = forward_invariants(Fraction(1, 2))
        cay_path = tmp_path / "cayleyan.json"
        hyp_path = tmp_path / "hyperplane.json"
        cay_path.write_text(json.dumps(form_record(inv.cayleyan)))
        hyp_path.write_text(json.dumps({"normal": [str(x) for x in inv.hyperplane]}))
        code, report, _ = run_json(
            capsys,
            "reconstruct",
            "--cayleyan-file",
            str(cay_path),
            "--hyperplane-file",
            str(hyp_path),
        )
        assert code == 0
        assert report["outputs"]["reconstructed_t"] == "1/2"

    def test_candidates_searched_once(self, capsys, monkeypatch):
        import logcubic.cli
        import logcubic.torelli

        calls = []
        original = logcubic.torelli.reconstruct_candidates

        def counting(s):
            calls.append(s)
            return original(s)

        # Whichever module's binding a call goes through, it is counted.
        monkeypatch.setattr(logcubic.torelli, "reconstruct_candidates", counting)
        monkeypatch.setattr(logcubic.cli, "reconstruct_candidates", counting, raising=False)
        code, report, _ = run_json(capsys, "reconstruct", "--hesse-t", "1/2")
        assert code == 0
        assert report["outputs"]["reconstructed_t"] == "1/2"
        assert calls == [Fraction(17, 12)]

    def test_torelli_failure_error(self, capsys):
        code, report, _ = run_json(capsys, "reconstruct", "--hesse-t", "0")
        assert code == 1
        assert report["status"] == "error"
        assert report["error"]["category"] == "cayleyan-singular"

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda cay, hyp: ([cay], hyp),
            lambda cay, hyp: (cay, {"normal": [None] + hyp["normal"][1:]}),
            lambda cay, hyp: (cay, [hyp]),
            lambda cay, hyp: ({**cay, "coeffs": [0.1] + cay["coeffs"][1:]}, hyp),
            lambda cay, hyp: ({**cay, "coeffs": [1.0] + cay["coeffs"][1:]}, hyp),
            lambda cay, hyp: (cay, {"normal": [True] + hyp["normal"][1:]}),
            lambda cay, hyp: (cay, {"normal": ["1/0"] + hyp["normal"][1:]}),
            lambda cay, hyp: (cay, {"normal": "1234567890"}),
            lambda cay, hyp: ({**cay, "coeffs": "1234567890"}, hyp),
            lambda cay, hyp: ({**cay, "degree": 3.9}, hyp),
            lambda cay, hyp: ({**cay, "degree": True}, hyp),
            lambda cay, hyp: ({**cay, "space": 0}, hyp),
            lambda cay, hyp: ({**cay, "space": 3}, hyp),
            lambda cay, hyp: ({**cay, "space": None}, hyp),
            lambda cay, hyp: ({**cay, "space": "other"}, hyp),
            *[lambda cay, hyp, v=v: ({**cay, "coeffs": [v] + cay["coeffs"][1:]}, hyp)
              for v in REMOVED_FORMATS],
            *[lambda cay, hyp, v=v: (cay, {"normal": hyp["normal"][:4] + [v] + hyp["normal"][5:]})
              for v in REMOVED_FORMATS],
        ],
        ids=["cayleyan-list", "normal-null", "hyperplane-list", "coeff-float",
             "coeff-integral-float", "normal-bool", "normal-zero-denominator",
             "normal-string", "coeffs-string", "degree-float", "degree-bool",
             "space-0", "space-3", "space-null", "space-other",
             *[f"coeff-{v}" for v in REMOVED_FORMATS], *[f"normal-{v}" for v in REMOVED_FORMATS]],
    )
    def test_malformed_files_refused(self, capsys, tmp_path, corrupt):
        # Entries must be p/q strings or integers in JSON lists, the degree
        # a JSON integer and the space "primal" or "dual"; anything else, a
        # string of ten digits or "1e1000" included, and any file of the
        # wrong shape, is zero-input with valid JSON on stdout.
        inv = forward_invariants(Fraction(1, 2))
        cay = form_record(inv.cayleyan)
        hyp = {"normal": [str(x) for x in inv.hyperplane]}
        cay, hyp = corrupt(cay, hyp)
        cay_path = tmp_path / "cayleyan.json"
        hyp_path = tmp_path / "hyperplane.json"
        cay_path.write_text(json.dumps(cay))
        hyp_path.write_text(json.dumps(hyp))
        code, out, _ = run_cli(capsys, "reconstruct", "--cayleyan-file", str(cay_path),
                               "--hyperplane-file", str(hyp_path), "--json")
        assert code == 1
        assert strict_json(out)["error"]["category"] == "zero-input"

    def test_huge_degree_refused_before_the_basis(self, capsys, tmp_path, bounded_basis):
        inv = forward_invariants(Fraction(1, 2))
        cay_path = tmp_path / "cayleyan.json"
        hyp_path = tmp_path / "hyperplane.json"
        cay_path.write_text(json.dumps({**form_record(inv.cayleyan), "degree": 10**6}))
        hyp_path.write_text(json.dumps({"normal": [str(x) for x in inv.hyperplane]}))
        code, report, _ = run_json(capsys, "reconstruct", "--cayleyan-file", str(cay_path),
                                   "--hyperplane-file", str(hyp_path))
        assert code == 1
        assert report["error"]["category"] == "degree-mismatch"

    def test_integer_entries_accepted(self, capsys, tmp_path):
        inv = forward_invariants(Fraction(2))
        assert all(x.denominator == 1 for x in inv.hyperplane)
        cay_path = tmp_path / "cayleyan.json"
        hyp_path = tmp_path / "hyperplane.json"
        cay_path.write_text(json.dumps(form_record(inv.cayleyan)))
        hyp_path.write_text(json.dumps({"normal": [int(x) for x in inv.hyperplane]}))
        code, report, _ = run_json(capsys, "reconstruct", "--cayleyan-file", str(cay_path),
                                   "--hyperplane-file", str(hyp_path))
        assert code == 0
        assert report["outputs"]["reconstructed_t"] == "2"


class TestOtherCommands:
    def test_jacobi(self, capsys):
        code, report, _ = run_json(capsys, "jacobi", "--hesse-t", "2")
        normal = report["outputs"]["normal"]
        assert normal[4] == "1"
        assert normal[0] == normal[6] == normal[9] == "2"

    def test_counterexample(self, capsys):
        code, report, _ = run_json(capsys, "counterexample", "--abc", "2,3,-5")
        assert code == 0
        assert report["outputs"]["invariants_independent_of_abc"] is True

    def test_counterexample_invariants_computed_once(self, capsys, monkeypatch):
        # Nonzero a, b, c make the cubic smooth, so the ungated bodies build
        # the invariants once each and no smoothness test runs.
        import logcubic.cubics
        import logcubic.torelli

        calls = []
        for name in ("_cayleyan_cubic", "_jacobi_degree3"):
            original = getattr(logcubic.torelli, name)
            monkeypatch.setattr(
                logcubic.torelli, name,
                lambda f, name=name, original=original: calls.append(name) or original(f),
            )
        smooth_test = logcubic.cubics.is_smooth_cubic
        for module in [m for n, m in sys.modules.items() if n.startswith("logcubic")]:
            for attr, value in list(vars(module).items()):
                if value is smooth_test:
                    monkeypatch.setattr(
                        module, attr, lambda f: calls.append("is_smooth_cubic") or smooth_test(f)
                    )
        code, report, _ = run_json(capsys, "counterexample", "--abc", "2,3,-5")
        assert code == 0
        assert sorted(calls) == ["_cayleyan_cubic", "_jacobi_degree3"]
        assert report["outputs"]["cayleyan"]["coeffs"][4] == "1620"

    def test_counterexample_zero_input_before_singular(self, capsys):
        # a*z0^3 + c*z2^3 is singular, but the zero coefficient is named.
        code, report, _ = run_json(capsys, "counterexample", "--abc", "1,0,1")
        assert code == 1
        assert report["error"]["category"] == "zero-input"

    def test_chern(self, capsys):
        code, report, _ = run_json(capsys, "chern", "-d", "3", "-k", "0")
        assert report["outputs"] == {"c1": 0, "c2": 3}

    def test_verify_identities(self, capsys):
        code, report, _ = run_json(capsys, "verify-identities")
        assert code == 0
        assert report["outputs"]["holds"] is True

    def test_involution(self, capsys):
        code, report, _ = run_json(
            capsys, "involution", "--hesse-t", "2", "--samples", "40", "--seed", "5"
        )
        assert code == 0
        out = report["outputs"]
        assert out["pass"] is True
        assert out["samples"] >= 20
        code, report, _ = run_json(capsys, "involution", "--hesse-t", "2")
        assert code == 0 and report["outputs"]["pass"] is True

    @pytest.mark.parametrize(
        "curve",
        [
            ["--hesse-t", "1"],
            ["--form", "z0^3 + z1^3 + z2^3 - 3*z0*z1*z2"],
            ["--form", "z1^2*z2 - z0^3 - z0^2*z2"],
            ["--form", "z0*z1*z2"],
        ],
        ids=["hesse-t-1", "triangle", "nodal", "product"],
    )
    def test_involution_singular_refused(self, capsys, monkeypatch, curve):
        # The triangle at t = 1 used to pass the numeric check; the verdict
        # now refuses every singular cubic before any sampling.
        import logcubic.cli

        def no_sampling(*args):
            raise AssertionError("sampled a singular cubic")

        monkeypatch.setattr(logcubic.cli, "check_involution", no_sampling)
        code, report, _ = run_json(capsys, "involution", *curve)
        assert code == 1
        assert report["error"]["category"] == "singular-curve"
        assert "partials generate only" in report["error"]["message"]

    def test_involution_failed_check_exits_1(self, capsys):
        # max_err is about 6e-16 here, so no sample meets a 1e-300 tolerance.
        argv = ["involution", "--hesse-t", "2", "--samples", "20", "--seed", "5", "--tol", "1e-300"]
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 1
        report = strict_json(out)
        assert report["status"] == "error"
        assert report["error"]["category"] == "involution-check-failed"
        assert "max_err = " in report["error"]["message"]
        assert "min_fix_dist = " in report["error"]["message"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error[involution-check-failed]: ")

    def test_analyze_smooth_member(self, capsys):
        code, report, _ = run_json(capsys, "analyze", "--hesse-t", "2")
        assert code == 0
        out = report["outputs"]
        assert out["smoothness"]["status"] == "smooth"
        assert out["stable"] is True
        assert out["hesse_t"] == "2"
        assert out["j_invariant"] == "512/343"
        assert out["cayleyan_s"] == "5/3"

    def test_analyze_general_form(self, capsys):
        code, report, _ = run_json(
            capsys, "analyze", "--form", "z0^3 + z1^3 + z2^3 + z0^2*z1 - 5*z1*z2^2"
        )
        assert code == 0
        assert report["outputs"]["smoothness"]["status"] == "smooth"
        assert "jacobi_normal" in report["outputs"]

    @pytest.mark.parametrize(
        "form, status",
        [("z0^3 + z1^3 + z2^3 + z0^2*z1 - 5*z1*z2^2", "smooth"), ("z1^2*z2 - z0^3", "singular")],
    )
    def test_analyze_decides_smoothness_once(self, capsys, monkeypatch, form, status):
        import logcubic.cli
        import logcubic.cubics
        import logcubic.sheaf

        calls = []
        original = logcubic.cubics.is_smooth_cubic

        def counting(f):
            calls.append(f)
            return original(f)

        # Whichever module's binding a call goes through, it is counted.
        for module in (logcubic.cubics, logcubic.sheaf, logcubic.cli):
            monkeypatch.setattr(module, "is_smooth_cubic", counting)
        code, report, _ = run_json(capsys, "analyze", "--form", form)
        assert code == 0
        assert report["outputs"]["smoothness"]["status"] == status
        assert ("jacobi_normal" in report["outputs"]) == (status == "smooth")
        assert len(calls) == 1


class TestSweepCommand:
    def test_reference_rows(self, capsys):
        code, report, _ = run_json(capsys, "sweep", "--t-values", "0,1,2,-2")
        assert code == 0
        rows = report["outputs"]["rows"]
        by_t = {row["t"]: row for row in rows}
        assert by_t["0"]["smooth"] and by_t["0"]["j"] == "0" and by_t["0"]["s"] is None
        assert by_t["1"]["smooth"] is False
        assert by_t["2"]["j"] == "512/343" and by_t["2"]["s"] == "5/3"
        assert by_t["-2"]["j"] == "0" and by_t["-2"]["s"] == "1"
        assert by_t["-2"]["cayleyan_smooth"] is False

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--t-values", "2,1/3", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,smooth,j,s,cayleyan_smooth,stable,note"
        assert lines[1].startswith("2,true,512/343,5/3,true,true")
        assert lines[2].startswith("1/3,true,")

    def test_exact_rationals_everywhere(self, capsys):
        code, report, _ = run_json(capsys, "sweep", "--t-values", "1/3")
        row = report["outputs"]["rows"][0]
        from logcubic.cubics import j_invariant_hesse
        from logcubic.torelli import cayleyan_hesse_param

        assert row["j"] == str(j_invariant_hesse(Fraction(1, 3)))
        assert row["s"] == str(cayleyan_hesse_param(Fraction(1, 3)))
        assert "." not in row["j"] and "." not in row["s"]

    def test_empty_list_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--t-values", ""])
        assert exc.value.code == 2


class TestTextOutput:
    """The report without --json: records nest by indentation, a list of
    records is one block per record, and the elapsed time ends it."""

    @staticmethod
    def text_lines(capsys, *argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        *lines, elapsed = out.splitlines()
        assert elapsed.startswith("elapsed: ") and elapsed.endswith(" ms")
        return lines

    def test_analyze(self, capsys):
        assert self.text_lines(capsys, "analyze", "--hesse-t", "2") == [
            "command: analyze",
            "  hesse_t: 2",
            "form:",
            "  space: primal",
            "  degree: 3",
            "  coeffs: ['1', '0', '0', '0', '-6', '0', '1', '0', '0', '1']",
            "  text: z0^3 - 6*z0*z1*z2 + z1^3 + z2^3",
            "smoothness:",
            "  status: smooth",
            "  witness: partials generate all 15 quartics",
            "stable: True",
            "hesse_t: 2",
            "j_invariant: 512/343",
            "cayleyan_s: 5/3",
            "cayleyan:",
            "  space: dual",
            "  degree: 3",
            "  coeffs: ['54', '0', '0', '0', '-270', '0', '54', '0', '0', '54']",
            "  text: 54*a0^3 - 270*a0*a1*a2 + 54*a1^3 + 54*a2^3",
            "jacobi_normal: ['2', '0', '0', '0', '1', '0', '2', '0', '0', '2']",
        ]

    def test_sweep(self, capsys):
        def row(t, smooth, j, s, cayleyan_smooth, stable, note):
            return [f"  t: {t}", f"  smooth: {smooth}", f"  j: {j}", f"  s: {s}",
                    f"  cayleyan_smooth: {cayleyan_smooth}", f"  stable: {stable}",
                    f"  note: {note}", ""]

        assert self.text_lines(capsys, "sweep", "--t-values", "0,1,2") == [
            "command: sweep",
            "  t_values: ['0', '1', '2']",
            "rows:",
            *row(0, True, 0, None, False, True, "jumping-line cubic degenerates to a0*a1*a2 = 0"),
            *row(1, False, None, None, None, None, "singular member (t^3 = 1)"),
            *row(2, True, "512/343", "5/3", True, True, ""),
        ]


class TestDeterminismAndErrors:
    def test_byte_identical_json(self, capsys):
        _, out1, _ = run_cli(capsys, "analyze", "--hesse-t", "2", "--json")
        _, out2, _ = run_cli(capsys, "analyze", "--hesse-t", "2", "--json")
        assert out1 == out2
        _, inv1, _ = run_cli(
            capsys, "involution", "--hesse-t", "2", "--samples", "30", "--seed", "4", "--json"
        )
        _, inv2, _ = run_cli(
            capsys, "involution", "--hesse-t", "2", "--samples", "30", "--seed", "4", "--json"
        )
        assert inv1 == inv2

    def test_domain_error_exit_one_with_category(self, capsys):
        code, out, err = run_cli(capsys, "jacobi", "--hesse-t", "1")
        assert code == 1
        assert "error[singular-curve]" in err

    def test_singular_form_refused(self, capsys):
        code, report, _ = run_json(capsys, "jacobi", "--form", "z1^2*z2 - z0^3 - z0^2*z2")
        assert code == 1
        assert report["error"]["category"] == "singular-curve"

    def test_huge_exponent_refused_at_once(self, capsys):
        # The exponent costs its bit length, not its value, before the
        # degree check refuses the form.
        code, report, _ = run_json(capsys, "analyze", "--form", "z0^1000000000")
        assert code == 1
        assert report["error"]["category"] == "degree-mismatch"

    def test_oversized_expansion_refused_at_once(self, capsys):
        code, report, _ = run_json(capsys, "analyze", "--form", "2^1000000000000*z0^3 + z1^3 + z2^3")
        assert code == 1
        assert report["error"]["category"] == "parse-error"

    def test_usage_error_exit_two(self, capsys):
        # No input cubic; --seed belongs to involution alone, also after a
        # negative value.
        for argv in (["cayleyan"], ["analyze", "--hesse-t", "2", "--seed", "4"],
                     ["analyze", "--hesse-t", "-5/3", "--seed", "4"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    @pytest.mark.parametrize(
        "option, value, argv",
        [
            ("--hesse-t", "-5/3", ["analyze"]),
            ("--hesse-t", "-1/2", ["reconstruct"]),
            ("--t-values", "-2,1", ["sweep"]),
            ("--abc", "-2,3,5", ["counterexample"]),
        ],
        ids=["analyze", "reconstruct", "sweep", "counterexample"],
    )
    def test_negative_values(self, capsys, option, value, argv):
        # A negative p/q, or a list led by a negative number, is a value
        # and reads as the --option=value form does.
        code, out, _ = run_cli(capsys, *argv, option, value, "--json")
        assert code == 0
        _, joined, _ = run_cli(capsys, *argv, f"{option}={value}", "--json")
        assert out == joined
        assert strict_json(out)["status"] == "ok"

    def test_unknown_command_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["not-a-command"])
        assert exc.value.code == 2

    def test_bad_rational_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cayleyan", "--hesse-t", "abc"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("value", REMOVED_FORMATS + ["1/0", "-0.5", ".5", "1/", "½"])
    @pytest.mark.parametrize("argv", [
        ["analyze", "--hesse-t={}"], ["reconstruct", "--hesse-t={}"],
        ["sweep", "--t-values=2,{}"], ["counterexample", "--abc={},2,3"],
    ], ids=["analyze", "reconstruct", "sweep", "counterexample"])
    def test_number_outside_the_token_exit_two(self, capsys, value, argv):
        # Refused as the flag is read, before any work: `reconstruct
        # --hesse-t 1e1500` once ran for about 20 s before output-too-large.
        with pytest.raises(SystemExit) as exc:
            main([arg.format(value) for arg in argv] + ["--json"])
        assert exc.value.code == 2
        assert "not a rational number" in capsys.readouterr().err

    @pytest.mark.parametrize("value, t", [
        ("-5/3", "-5/3"), ("+3", "3"), (" 2 ", "2"), ("2 / 3", "2/3"), ("- 2", "-2"),
        ("007/014", "1/2"),
    ])
    def test_number_token_flags(self, capsys, value, t):
        # Flags read the number token of form text, with its sign and
        # whitespace.
        code, report, _ = run_json(capsys, "analyze", f"--hesse-t={value}")
        assert code == 0
        assert report["outputs"]["hesse_t"] == t
        code, report, _ = run_json(capsys, "sweep", f"--t-values=1,{value}")
        assert report["outputs"]["rows"][1]["t"] == t

    def test_parse_error_category(self, capsys):
        code, report, _ = run_json(capsys, "cayleyan", "--form", "z0^2 + z1")
        assert code == 1
        assert report["error"]["category"] == "inhomogeneous"

    def test_empty_form_is_parse_error(self, capsys):
        code, report, _ = run_json(capsys, "analyze", "--form", "")
        assert code == 1
        assert report["error"] == {"category": "parse-error", "message": "empty input"}

    def test_nesting_refused_past_the_bound(self, capsys):
        cubic = "z0^3 + z1^3 + z2^3"
        nested = "(" * MAX_PARSED_DEPTH + cubic + ")" * MAX_PARSED_DEPTH
        code, report, _ = run_json(capsys, "analyze", "--form", nested)
        assert code == 0
        assert report["outputs"]["smoothness"]["status"] == "smooth"
        for levels in (MAX_PARSED_DEPTH + 1, 2000):
            nested = "(" * levels + cubic + ")" * levels
            code, report, _ = run_json(capsys, "analyze", "--form", nested)
            assert code == 1
            assert report["error"]["category"] == "parse-error"

    def test_non_ascii_digit_is_parse_error(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--form", "z0^² + z1^3 + z2^3", "--json")
        assert code == 1
        assert strict_json(out)["error"]["category"] == "parse-error"

    def test_overlong_numeral_is_parse_error(self, capsys):
        form = "7" * 5000 + "*z0^3 + z1^3 + z2^3"
        code, report, _ = run_json(capsys, "analyze", "--form", form)
        assert code == 1
        assert report["error"]["category"] == "parse-error"


def _ten_digit_heavy_coefficients() -> str:
    """A dense cubic with ten seeded 1000-digit integer coefficients."""
    import random

    from logcubic.forms import monomial_basis

    rng = random.Random(1)
    terms = []
    for mono in monomial_basis(3):
        powers = "*".join(f"z{i}^{e}" for i, e in enumerate(mono) if e)
        terms.append(f"{rng.randrange(10**999, 10**1000)}*{powers}")
    return " + ".join(terms)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python prints integers of any length")
class TestOutputTooLarge:
    """An exact result past Python's int-to-text limit is refused with a
    category, not a ValueError traceback, and the limit stays in force."""

    ARGVS = [
        ["chern", "-d", "9" * 3000, "-k", "0"],
        ["analyze", "--hesse-t", "7" * 1000],
        ["sweep", "--t-values", "7" * 1000],
        ["jacobi", "--form", _ten_digit_heavy_coefficients()],
    ]

    @pytest.mark.parametrize("argv", ARGVS, ids=["chern", "analyze", "sweep", "jacobi-form"])
    def test_refused_with_category(self, capsys, argv):
        limit = sys.get_int_max_str_digits()
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 1
        report = strict_json(out)
        assert report["status"] == "error"
        assert report["error"]["category"] == "output-too-large"
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error[output-too-large]: ")
        assert sys.get_int_max_str_digits() == limit > 0

    def test_other_value_errors_still_raise(self, monkeypatch):
        import logcubic.cli

        def broken(args):
            raise ValueError("not about printing")

        monkeypatch.setattr(logcubic.cli, "cmd_chern", broken)
        with pytest.raises(ValueError, match="not about printing"):
            main(["chern", "-d", "3", "-k", "0"])


class TestStrictJson:
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["analyze", "--hesse-t", "2"], 0),
            (["cayleyan", "--hesse-t", "2"], 0),
            (["jump-line", "--hesse-t", "2", "--alpha", "z0 - z1"], 0),
            (["jacobi", "--hesse-t", "2"], 0),
            (["reconstruct", "--hesse-t", "1/2"], 0),
            (["counterexample", "--abc", "2,3,-5"], 0),
            (["involution", "--hesse-t", "2", "--samples", "20", "--seed", "5"], 0),
            (["verify-identities"], 0),
            (["chern", "-d", "3", "-k", "1"], 0),
            (["sweep", "--t-values", "0,1,2,-2"], 0),
            (["involution", "--hesse-t", "2", "--samples", "0"], 1),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else None,
    )
    def test_stdout_is_strict_json(self, capsys, argv, code):
        got, out, _ = run_cli(capsys, *argv, "--json")
        assert got == code
        report = strict_json(out)
        assert report["status"] == ("ok" if code == 0 else "error")

    @pytest.mark.parametrize(
        "argv, category",
        [
            (["--samples", "0"], "insufficient-samples"),
            (["--samples", "-3"], "insufficient-samples"),
            (["--tol", "nan"], "zero-input"),
            (["--tol", "inf"], "zero-input"),
        ],
        ids=["samples-0", "samples-negative", "tol-nan", "tol-inf"],
    )
    def test_involution_refusals(self, capsys, argv, category):
        code, out, _ = run_cli(capsys, "involution", "--hesse-t", "2", *argv, "--json")
        assert code == 1
        assert strict_json(out)["error"]["category"] == category

    @pytest.mark.parametrize("argv", [
        ["--hesse-t", "1" + "0" * 102],
        ["--form", "z0^3 + z1^3 + z2^3 + 10^160*z0*z1*z2"],
    ], ids=["hesse-t-1e102", "form-1e160"])
    def test_involution_past_the_double_range(self, capsys, argv):
        # The numeric layer rounds exact values to doubles; past their
        # range the check is refused with a category, not an OverflowError.
        code, out, _ = run_cli(capsys, "involution", *argv, "--json")
        assert code == 1
        assert strict_json(out)["error"]["category"] == "numeric-range"


# Runs the CLI module as `python -m logcubic.cli ARGS` does, or, with no
# arguments, only imports it; then prints the names of the loaded modules.
MODULE_PROBE = """
import runpy, sys
if len(sys.argv) > 1:
    try:
        runpy.run_module("logcubic.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        assert exc.code == 0, exc.code
else:
    import logcubic.cli
print(*sys.modules, file=sys.stderr)
"""

# Start-up costs the exact commands must not pay: numpy, and dataclasses,
# which brings inspect (and with it ast, dis and tokenize).
HEAVY_MODULES = ("numpy", "dataclasses", "inspect")


def loaded_modules(*argv) -> set[str]:
    """The modules a fresh `logcubic` process has loaded after running argv
    (after only importing logcubic.cli when argv is empty)."""
    src = str(Path(logcubic.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", MODULE_PROBE, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    if argv:
        assert strict_json(proc.stdout)["status"] == "ok"
    return set(proc.stderr.splitlines()[-1].split())


class TestLazyNumpy:
    """numpy is imported by the `involution` command alone, so that the exact
    commands start without it."""

    @pytest.mark.parametrize(
        "argv, loaded",
        [
            ([], False),
            (["analyze", "--hesse-t", "2", "--json"], False),
            (["involution", "--hesse-t", "2", "--samples", "10", "--json"], True),
        ],
        ids=["import", "analyze", "involution"],
    )
    def test_numpy_loaded_only_by_involution(self, argv, loaded):
        assert ("numpy" in loaded_modules(*argv)) == loaded


class TestStartupImports:
    """The exact commands load none of the heavy modules: the result records
    are NamedTuples, not dataclasses."""

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["analyze", "--hesse-t", "2", "--json"],
            ["sweep", "--t-values", "2,1/2", "--json"],
        ],
        ids=["import", "analyze", "sweep"],
    )
    def test_no_heavy_module_loaded(self, argv):
        assert loaded_modules(*argv) & set(HEAVY_MODULES) == set()
