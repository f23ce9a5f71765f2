import os

import numpy as np
import pytest

from recomb import golden
from recomb.cli import main
from recomb.io_formats import (
    ParseError,
    format_identity,
    format_matrix,
    parse_identity,
    parse_matrix,
    read_identity_file,
    write_identity_file,
)
from recomb.monomials import IdentityCombination, parse_bracket


class TestIdentityFiles:
    def test_round_trip_all_golden(self):
        for name in golden.IDENTITY_NAMES:
            idc = golden.load_identity(name)
            assert parse_identity(format_identity(idc)) == idc

    def test_writer_is_canonical_and_stable(self):
        idc = IdentityCombination.from_terms(
            3, [(1, parse_bracket("[e,d,[c,b,a]]")),
                (-2, parse_bracket("[[c,d,e],b,a]"))])
        text = format_identity(idc)
        assert text.splitlines()[0] == "# arity=3 degree=5"
        assert format_identity(parse_identity(text)) == text

    def test_file_round_trip(self, tmp_path):
        idc = golden.load_identity("ternary_recombination")
        path = tmp_path / "r.txt"
        write_identity_file(idc, path)
        assert read_identity_file(path) == idc

    @pytest.mark.parametrize("text", [
        "",
        "no header\n1 [a,b]",
        "# arity=2 degree=4\n",
        "# arity=2 degree=4\nx [[a,b],[c,d]]",
        "# arity=2 degree=4\n1 [[a,b],[c,b]]",      # repeated variable
        "# arity=2 degree=5\n1 [[a,b],[c,d]]",      # wrong degree header
        "# arity=2 degree=4\n1 [[a,b,c],d]",        # wrong arity
    ])
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_identity(text)


class TestMatrixFiles:
    def test_round_trip(self):
        rows = [[1, -2, 3], [0, 5, -6]]
        assert parse_matrix(format_matrix(rows)) == rows

    def test_golden_file_is_writer_format(self):
        raw = open(os.path.join(os.path.dirname(golden.__file__),
                                "data", "expansion_matrix_n2_d4.txt")).read()
        assert format_matrix(parse_matrix(raw)) == raw

    @pytest.mark.parametrize("text", ["", "2 2\n1 2", "1 2\n1 2 3", "1 1\nx"])
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_matrix(text)


class TestCli:
    def test_matrix_stdout_matches_golden(self, capsys):
        assert main(["matrix", "-n", "2", "-d", "4"]) == 0
        out = capsys.readouterr().out
        assert parse_matrix(out) == \
            [list(r) for r in golden.load_matrix("expansion_matrix_n2_d4")]

    def test_matrix_to_file(self, tmp_path):
        path = tmp_path / "m.txt"
        assert main(["matrix", "-n", "3", "-d", "5", "-o", str(path)]) == 0
        rows = parse_matrix(path.read_text())
        assert len(rows) == 60 and len(rows[0]) == 10

    def test_matrix_invalid_degree_usage_error(self, capsys):
        assert main(["matrix", "-n", "3", "-d", "4"]) == 2
        assert "error" in capsys.readouterr().err

    def test_matrix_single_application(self, capsys):
        assert main(["matrix", "-n", "3", "-d", "3"]) == 0
        rows = parse_matrix(capsys.readouterr().out)
        assert rows == [[1]] * 6

    def test_nullspace_rcf_binary(self, tmp_path, capsys):
        out = tmp_path / "ids"
        assert main(["nullspace", "-n", "2", "-d", "4", "--method", "rcf",
                     "-o", str(out)]) == 0
        text = capsys.readouterr().out
        assert "nullspace dimension 9" in text
        assert "6 8 8 12 20 22 34 52 70" in text
        files = sorted(f for f in os.listdir(out) if f.startswith("identity_"))
        assert len(files) == 9
        for f in files:
            idc = read_identity_file(out / f)
            from recomb.identities import verify_identity
            assert verify_identity(idc) == 0
        norms = [int(x) for x in (out / "norms.txt").read_text().split()]
        assert norms == [6, 8, 8, 12, 20, 22, 34, 52, 70]

    def test_nullspace_empty_degree5(self, capsys):
        assert main(["nullspace", "-n", "3", "-d", "5", "--method", "hnf-lll"]) == 0
        assert "nullspace dimension 0" in capsys.readouterr().out

    def test_verify_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.txt"
        write_identity_file(golden.load_identity("binary_recombination"), good)
        assert main(["verify", str(good)]) == 0

        bad = tmp_path / "bad.txt"
        bad.write_text("# arity=3 degree=3\n1 [a,b,c]\n")
        assert main(["verify", str(bad)]) == 1
        assert "6 residual" in capsys.readouterr().out

        ugly = tmp_path / "ugly.txt"
        ugly.write_text("not an identity file\n")
        assert main(["verify", str(ugly)]) == 2
        assert main(["verify", str(tmp_path / "missing.txt")]) == 2

    def test_generators_binary(self, capsys):
        assert main(["generators", "-n", "2", "-d", "4", "--basis", "rcf"]) == 0
        out = capsys.readouterr().out
        assert "final rank 9 of 9" in out
        assert "single generator" in out

    def test_generators_empty(self, capsys):
        assert main(["generators", "-n", "3", "-d", "5"]) == 0
        assert "empty nullspace" in capsys.readouterr().out

    def test_reproduce_binary(self, capsys):
        assert main(["reproduce", "binary"]) == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        assert "11/11 checks passed" in out

    def test_reproduce_unknown_scope_usage_error(self, capsys):
        assert main(["reproduce", "everything"]) == 2

    def test_deterministic_output(self, capsys):
        main(["nullspace", "-n", "2", "-d", "4", "--method", "hnf-lll"])
        first = capsys.readouterr().out
        main(["nullspace", "-n", "2", "-d", "4", "--method", "hnf-lll"])
        assert capsys.readouterr().out == first
