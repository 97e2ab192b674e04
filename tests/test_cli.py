import json
from fractions import Fraction

import pytest

from logcubic.cli import main
from logcubic.forms import DUAL, parse_form, projectively_equal
from logcubic.torelli import forward_invariants


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
        from logcubic.cli import form_record

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

    def test_usage_error_exit_two(self, capsys):
        # No input cubic; --seed belongs to involution alone.
        for argv in (["cayleyan"], ["analyze", "--hesse-t", "2", "--seed", "4"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_unknown_command_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["not-a-command"])
        assert exc.value.code == 2

    def test_bad_rational_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cayleyan", "--hesse-t", "abc"])
        assert exc.value.code == 2

    def test_parse_error_category(self, capsys):
        code, report, _ = run_json(capsys, "cayleyan", "--form", "z0^2 + z1")
        assert code == 1
        assert report["error"]["category"] == "inhomogeneous"


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
