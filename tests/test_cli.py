import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import purebetti.hkspace as hkspace_module
from purebetti.betti import BettiDiagram, equivariant_diagram, equivariant_tuple
from purebetti.cli import main
from purebetti.laurent import format_poly, poly_from_json
from purebetti.schur import schur_bialternant, schur_ssyt

from helpers import P


def diagram_text(diagram):
    return json.dumps(diagram.to_json())


@pytest.fixture
def worked_multiple_file(tmp_path):
    multiple = P("t1^2 - t1*t2 + t2^2") * equivariant_tuple((2, 3))
    path = tmp_path / "multiple.json"
    path.write_text(diagram_text(multiple.to_diagram()))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestSchurCommand:
    def test_trivial_partition(self, capsys):
        code, out = run_cli(capsys, "schur", "--lambda", "0", "--nvars", "2")
        assert code == 0 and out == "1\n"

    def test_methods_agree(self, capsys):
        # the command computes by the branching rule; both oracles agree
        code, out = run_cli(capsys, "schur", "--lambda", "4,2,1", "--nvars", "3")
        assert code == 0
        assert out == format_poly(schur_bialternant((4, 2, 1), 3)) + "\n"
        assert out == format_poly(schur_ssyt((4, 2, 1), 3)) + "\n"

    def test_no_method_option(self, capsys):
        # the oracles are not reachable from the command line
        assert main(["schur", "--lambda", "4,2,1", "--nvars", "3",
                     "--method", "both"]) == 2
        for argv in (["--help"], ["schur", "--help"]):
            code, out = run_cli(capsys, *argv)
            assert code == 0 and "usage:" in out and "--method" not in out

    def test_json_round_trip(self, capsys):
        code, out = run_cli(capsys, "schur", "--lambda", "2,1", "--nvars", "2",
                            "--format", "json")
        assert code == 0
        poly = poly_from_json(json.loads(out))
        assert poly == P("t1^2*t2 + t1*t2^2")


class TestEquivariantCommand:
    def test_table_golden(self, capsys):
        code, out = run_cli(capsys, "equivariant", "--e", "2,3")
        assert code == 0
        assert out == (
            "e = 2,3  degrees = 2,4,7\n"
            "i=0  rank=3  (2,0) (1,1) (0,2)\n"
            "i=1  rank=5  (4,0) (3,1) (2,2) (1,3) (0,4)\n"
            "i=2  rank=2  (4,3) (3,4)\n"
        )

    def test_json_matches_library(self, capsys):
        code, out = run_cli(capsys, "equivariant", "--e", "2,3", "--format", "json")
        assert code == 0
        assert BettiDiagram.from_json(json.loads(out)) == equivariant_diagram((2, 3))

    def test_twist(self, capsys):
        # signed vectors need the = form so argparse does not read them as flags
        code, out = run_cli(capsys, "equivariant", "--e", "2,3",
                            "--twist=-1,2", "--format", "json")
        assert code == 0
        expected = equivariant_tuple((2, 3)).twist((-1, 2)).to_diagram()
        assert BettiDiagram.from_json(json.loads(out)) == expected
        code, out = run_cli(capsys, "equivariant", "--e", "2,3", "--twist=-1,2")
        assert code == 0
        assert out == (
            "e = 2,3  degrees = 3,5,8\n"
            "i=0  rank=3  (1,2) (0,3) (-1,4)\n"
            "i=1  rank=5  (3,2) (2,3) (1,4) (0,5) (-1,6)\n"
            "i=2  rank=2  (3,5) (2,6)\n"
        )

    @pytest.mark.parametrize("twist", ["1", "1,2,3"])
    def test_twist_of_wrong_length(self, capsys, twist):
        assert main(["equivariant", "--e", "2,3", "--twist", twist]) == 1
        assert capsys.readouterr().err == "error: twist vector has wrong length\n"

    def test_output_byte_deterministic(self, capsys):
        _, first = run_cli(capsys, "equivariant", "--e", "2,2,2", "--format", "json")
        _, second = run_cli(capsys, "equivariant", "--e", "2,2,2", "--format", "json")
        assert first == second


class TestCheckCommand:
    def test_pure_and_passing(self, capsys, worked_multiple_file):
        code, out = run_cli(capsys, "check", "--in", worked_multiple_file)
        assert code == 0
        assert out == "pure: yes  degrees = [4, 6, 9]  e = [2, 3]\nhk: pass\n"

    def test_failing_diagram_still_exits_zero(self, capsys, tmp_path):
        # the constructor sums a duplicate key into the existing entry
        bad = BettiDiagram(2, [*equivariant_diagram((2, 3)).entries.items(),
                               ((1, (3, 1)), 1)])
        path = tmp_path / "bad.json"
        path.write_text(diagram_text(bad))
        code, out = run_cli(capsys, "check", "--in", str(path))
        assert code == 0
        assert "hk: fail at k=1" in out

    def test_json_payload(self, capsys, worked_multiple_file):
        code, out = run_cli(capsys, "check", "--in", worked_multiple_file,
                            "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["pure"] and payload["hk_pass"]
        assert payload["e"] == [2, 3]


class TestDecomposeCommand:
    def test_worked_pair_table(self, capsys, worked_multiple_file):
        code, out = run_cli(capsys, "decompose", "--in", worked_multiple_file,
                            "--e", "2,3")
        assert code == 0
        assert out == (
            "in_space: yes\n"
            "cofactor: t1^2 - t1*t2 + t2^2\n"
            "integral: yes\n"
        )

    def test_worked_pair_json(self, capsys, worked_multiple_file):
        code, out = run_cli(capsys, "decompose", "--in", worked_multiple_file,
                            "--e", "2,3", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["in_space"] is True and payload["integral"] is True
        assert poly_from_json(payload["cofactor"]) == P("t1^2 - t1*t2 + t2^2")
        assert payload["reasons"] == []

    def test_non_member_is_data_not_error(self, capsys, tmp_path):
        gen = equivariant_diagram((2, 3))
        path = tmp_path / "gen.json"
        path.write_text(diagram_text(gen))
        code, out = run_cli(capsys, "decompose", "--in", str(path), "--e", "3,2")
        assert code == 0
        assert "in_space: no" in out

    def test_not_pure_is_data(self, capsys, tmp_path):
        path = tmp_path / "impure.json"
        impure = BettiDiagram(2, {(0, (1, 0)): 1, (0, (0, 2)): 1})
        path.write_text(diagram_text(impure))
        code, out = run_cli(capsys, "decompose", "--in", str(path), "--e", "2,3")
        assert code == 0
        assert "in_space: no" in out and "not pure" in out

    def test_zero_diagram_is_a_member(self, capsys, tmp_path):
        # the zero vector of every HK space, whatever the gap vector
        path = tmp_path / "zero.json"
        path.write_text(diagram_text(BettiDiagram(2)))
        for e in ("2,3", "1,1"):
            code, out = run_cli(capsys, "decompose", "--in", str(path), "--e", e)
            assert code == 0
            assert out == "in_space: yes\ncofactor: 0\nintegral: yes\n"
            code, out = run_cli(capsys, "decompose", "--in", str(path), "--e", e,
                                "--format", "json")
            assert code == 0
            assert json.loads(out) == {
                "in_space": True, "cofactor": {"nvars": 2, "terms": []},
                "integral": True, "reasons": []}


class TestGcdSchurCommand:
    def test_even_gaps(self, capsys):
        code, out = run_cli(capsys, "gcd-schur", "--e", "2,2")
        assert code == 0
        assert out == (
            "r = 2\n"
            "gcd = t1 + t2\n"
            "cofactor[0] = 1\n"
            "cofactor[1] = t1^2 + t2^2\n"
            "cofactor[2] = t1^2*t2^2\n"
        )

    def test_json(self, capsys):
        code, out = run_cli(capsys, "gcd-schur", "--e", "2,3", "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["r"] == 1
        assert poly_from_json(payload["gcd"]) == P("1")
        assert len(payload["cofactors"]) == 3


class TestGeneratorCommand:
    def test_recovers_generator(self, capsys, worked_multiple_file, tmp_path):
        base_path = tmp_path / "base.json"
        base_path.write_text(diagram_text(equivariant_diagram((2, 3))))
        code, out = run_cli(capsys, "generator", "--in", worked_multiple_file,
                            str(base_path))
        assert code == 0
        assert out == (
            "component[0] = t1^2 + t1*t2 + t2^2\n"
            "component[1] = t1^4 + t1^3*t2 + t1^2*t2^2 + t1*t2^3 + t2^4\n"
            "component[2] = t1^4*t2^3 + t1^3*t2^4\n"
        )

    def test_json_is_reusable_diagram(self, capsys, worked_multiple_file):
        code, out = run_cli(capsys, "generator", "--in", worked_multiple_file,
                            "--format", "json")
        assert code == 0
        diagram = BettiDiagram.from_json(json.loads(out))
        assert diagram == equivariant_diagram((2, 3))


class TestCollapseAndHilbert:
    def test_collapse(self, capsys, worked_multiple_file):
        code, out = run_cli(capsys, "collapse", "--in", worked_multiple_file)
        assert code == 0
        assert out == (
            "i=0  degree=4  mult=3\n"
            "i=1  degree=6  mult=5\n"
            "i=2  degree=9  mult=2\n"
        )

    def test_hilbert_table(self, capsys, tmp_path):
        path = tmp_path / "koszul.json"
        path.write_text(diagram_text(equivariant_diagram((1, 1))))
        code, out = run_cli(capsys, "hilbert", "--in", str(path))
        assert code == 0 and out == "1\n"

    def test_hilbert_not_divisible_is_data(self, capsys, tmp_path):
        bad = BettiDiagram(2, [*equivariant_diagram((2, 3)).entries.items(),
                               ((0, (2, 0)), 1)])
        path = tmp_path / "bad.json"
        path.write_text(diagram_text(bad))
        code, out = run_cli(capsys, "hilbert", "--in", str(path))
        assert code == 0
        assert "not divisible" in out
        code, out = run_cli(capsys, "hilbert", "--in", str(path), "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["divisible"] is False and payload["hk_k"] == 1


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert main(["equivariant", "--e", "2,3", "--bogus"]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_bad_vector_syntax(self, capsys):
        assert main(["equivariant", "--e", "2;3"]) == 2

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["check", "--in", str(path)]) == 2

    def test_missing_file(self, capsys):
        assert main(["check", "--in", "/nonexistent/diagram.json"]) == 1

    @pytest.mark.parametrize("case", ["directory", "reduction-error"])
    def test_failure_is_an_error_line(self, capsys, monkeypatch, tmp_path,
                                      worked_multiple_file, case):
        if case == "directory":
            argv = ["check", "--in", str(tmp_path)]
        else:
            def broken(A, B):
                raise hkspace_module.ReductionError("descent stopped decreasing")

            monkeypatch.setattr(hkspace_module, "_descend", broken)
            argv = ["generator", "--in", worked_multiple_file, worked_multiple_file]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("diagram", [
        {"entries": [{"deg": [1, 0], "mult": "1"}], "nvars": 2},
        {"entries": [{"i": 0, "deg": [1, 0], "mult": "1"}], "nvars": "2"},
        {"entries": [{"i": 0, "deg": 5, "mult": "1"}], "nvars": 2},
    ], ids=["missing-i", "string-nvars", "integer-deg"])
    def test_malformed_diagram(self, capsys, tmp_path, diagram):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(diagram))
        for command in ("check", "hilbert"):
            assert main([command, "--in", str(path)]) == 1
            assert capsys.readouterr().err.startswith("error: ")

    def test_wrong_schema(self, capsys, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"something": "else"}))
        assert main(["check", "--in", str(path)]) == 1

    def test_variable_count_mismatch(self, capsys, worked_multiple_file):
        assert main(["decompose", "--in", worked_multiple_file, "--e", "1,1,1"]) == 1

    def test_invalid_gap_entries(self, capsys):
        assert main(["equivariant", "--e", "2,0"]) == 1


def test_module_entry_point(worked_multiple_file):
    proc = subprocess.run(
        [sys.executable, "-m", "purebetti", "decompose",
         "--in", worked_multiple_file, "--e", "2,3", "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["in_space"] is True


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so no library check may be one
    package = Path(__file__).resolve().parent.parent / "src" / "purebetti"
    sources = sorted(package.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert found == [], f"{path.name}: assert at lines {found}"
