import ast
import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from recomb.monomials import IdentityCombination, get_context, parse_bracket


@st.composite
def combinations(draw):
    n, d = draw(st.sampled_from([(2, 4), (2, 5), (3, 5), (3, 7)]))
    monomials = get_context(n, d).monomials
    terms = draw(st.dictionaries(
        st.integers(0, len(monomials) - 1),
        st.integers(-10 ** 6, 10 ** 6).filter(bool), min_size=1, max_size=12))
    return IdentityCombination(n, d, {monomials[j]: c for j, c in terms.items()})


@st.composite
def int_matrices(draw):
    m = draw(st.integers(0, 6))
    width = draw(st.integers(1, 8))
    return draw(st.lists(st.lists(st.integers(), min_size=width,
                                  max_size=width), min_size=m, max_size=m))


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

    @settings(max_examples=60, deadline=None)
    @given(idc=combinations())
    def test_random_combinations_round_trip(self, idc):
        text = format_identity(idc)
        assert parse_identity(text) == idc
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

    @settings(max_examples=60, deadline=None)
    @given(rows=int_matrices())
    def test_random_matrices_round_trip(self, rows):
        text = format_matrix(rows)
        assert parse_matrix(text) == rows
        assert format_matrix(parse_matrix(text)) == text

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

    def test_matrix_stdout_is_the_golden_file_byte_for_byte(self, capsys):
        assert main(["matrix", "-n", "2", "-d", "4"]) == 0
        golden_file = files("recomb.data") / "expansion_matrix_n2_d4.txt"
        assert capsys.readouterr().out.encode() == golden_file.read_bytes()

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

    @pytest.mark.parametrize("n, d, prime", [
        ("2", "4", "0"), ("3", "7", "5"), ("3", "5", "0"), ("3", "7", "9")])
    def test_generators_prime_not_above_degree_exits_2(self, capsys,
                                                       n, d, prime):
        assert main(["generators", "-n", n, "-d", d, "-p", prime]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        if int(prime) <= int(d):
            assert captured.err == f"error: need a prime p > degree, " \
                f"got p={prime}, d={d}\n"
        else:
            assert captured.err == f"error: p = {prime} is not prime\n"

    @pytest.mark.parametrize("prime", ["5", "9"])
    def test_generators_checks_p_before_the_nullspace(self, capsys,
                                                      monkeypatch, prime):
        def unreachable(*args):
            raise AssertionError("nullspace computed before p was checked")

        monkeypatch.setattr("recomb.cli.nullspace_lattice", unreachable)
        monkeypatch.setattr("recomb.cli.rcf_nullspace", unreachable)
        for basis in ("hnf-lll", "rcf"):
            assert main(["generators", "-n", "3", "-d", "7", "--basis", basis,
                         "-p", prime]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")

    def test_reproduce_deg9_rank_at_two_primes(self, capsys):
        # at the default p = 101 the acceptance transcript pins the output
        assert main(["reproduce", "deg9-rank", "-p", "103"]) == 0
        out = capsys.readouterr().out
        assert "6/6 checks passed" in out
        assert out.index("rank mod 103") < out.index("rank mod 101")

    # d is the degree p must exceed, None where p need only be prime
    @pytest.mark.parametrize("scope, d, prime", [
        ("binary", None, 4), ("deg5", None, 0), ("deg7", 7, 5), ("deg7", 7, 9),
        ("deg9-closure", 9, 5)])
    def test_reproduce_checks_p_before_the_scope(self, capsys, monkeypatch,
                                                 scope, d, prime):
        def unreachable(*args):
            raise AssertionError("scope started before p was checked")

        monkeypatch.setattr("recomb.reproduce.build_expansion_matrix",
                            unreachable)
        monkeypatch.setattr("recomb.reproduce.lift_identity", unreachable)
        assert main(["reproduce", scope, "-p", str(prime)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        if d is not None and prime <= d:
            assert captured.err == f"error: need a prime p > degree, " \
                f"got p={prime}, d={d}\n"
        else:
            assert captured.err == f"error: p = {prime} is not prime\n"

    @pytest.mark.parametrize("option", [["--mode", "exact"], ["--seed", "0"]])
    def test_reproduce_mode_and_seed_are_usage_errors(self, capsys, option):
        assert main(["reproduce", "deg9-closure", *option]) == 2
        assert capsys.readouterr().out == ""

    def test_reproduce_unknown_scope_usage_error(self, capsys):
        assert main(["reproduce", "everything"]) == 2

    @pytest.mark.parametrize("reason, shown", [
        ("Unable to allocate 474. MiB", "Unable to allocate 474. MiB"),
        ("", "an allocation failed"),
    ])
    def test_out_of_memory_exits_2_with_a_message(self, capsys, monkeypatch,
                                                  reason, shown):
        def exhausted(*args, **kwargs):
            raise MemoryError(reason)

        monkeypatch.setattr("recomb.cli.run_scope", exhausted)
        assert main(["reproduce", "deg9-closure"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: out of memory: {shown}\n"
        assert captured.out == ""

    def test_deterministic_output(self, capsys):
        main(["nullspace", "-n", "2", "-d", "4", "--method", "hnf-lll"])
        first = capsys.readouterr().out
        main(["nullspace", "-n", "2", "-d", "4", "--method", "hnf-lll"])
        assert capsys.readouterr().out == first

    def test_no_command_imports_scipy(self):
        # numpy is the only dependency: reproduce deg7 runs module ranks and
        # the sieve, every accumulator input, and must not pull scipy in
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "import recomb.cli\n"
            "assert recomb.cli.main(['reproduce', 'deg7']) == 0\n"
            "assert 'scipy' not in sys.modules\n")
        run = subprocess.run([sys.executable, "-c", code, str(src)],
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert "checks passed" in run.stdout


def test_package_imports_only_the_standard_library_and_numpy():
    # pyproject.toml lists numpy as the one dependency
    package = Path(__file__).resolve().parent.parent / "src" / "recomb"
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "numpy" or top in sys.stdlib_module_names, \
                    f"{path.name} imports {name}"
