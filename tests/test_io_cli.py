import ast
import inspect
import math
import os
import re
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recomb
from recomb import cli, golden
from recomb.cli import main
from recomb.identities import expansion_rank
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
        with open(os.path.join(os.path.dirname(golden.__file__),
                               "data", "expansion_matrix_n2_d4.txt")) as f:
            raw = f.read()
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

    @pytest.mark.parametrize("n", ["2", "3"])
    def test_degree_1_has_no_identities(self, tmp_path, capsys, n):
        # E(n,1) has one row, the lone variable's tuple (a, ..., a)
        assert main(["matrix", "-n", n, "-d", "1"]) == 0
        assert parse_matrix(capsys.readouterr().out) == [[1]]
        for method in ("rcf", "hnf-lll"):
            out = tmp_path / method
            assert main(["nullspace", "-n", n, "-d", "1", "--method", method,
                         "-o", str(out)]) == 0
            assert capsys.readouterr().out.startswith(
                f"nullspace dimension 0 (arity {n}, degree 1, {method})\n")
            assert sorted(os.listdir(out)) == ["norms.txt"]
        assert main(["generators", "-n", n, "-d", "1"]) == 0
        assert "empty nullspace" in capsys.readouterr().out
        lone = tmp_path / "a.txt"
        lone.write_text(f"# arity={n} degree=1\n1 a\n")
        assert main(["verify", str(lone)]) == 1
        assert "NOT an identity; 1 residual" in capsys.readouterr().out
        assert expansion_rank(int(n), 1) == (1, 0)

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

    @pytest.mark.parametrize("argv", [
        ["reproduce", "deg7"],
        ["generators", "-n", "3", "-d", "7", "--basis", "hnf-lll"],
        ["generators", "-n", "3", "-d", "7", "--basis", "rcf"]])
    def test_large_prime_prints_what_p_101_prints(self, capsys, argv):
        # p^2 * 280 >= 2^53 at (3,7), which the accumulators never needed:
        # no sum of theirs takes more than K = (2^53 - p) // p^2 products
        p = 10000019
        assert p * p * 280 >= 2 ** 53
        outs = []
        for prime in (101, p):
            assert main(argv + ["-p", str(prime)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0].count("squared norm") > 1
        assert outs[1] == outs[0].replace("(p = 101)", f"(p = {p})")

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

    def test_huge_prime_exits_2_at_once(self):
        # 2^61 - 1 is prime: trial division up to its square root would run
        # for minutes, but no accumulator takes p^2 >= 2^53
        p = 2 ** 61 - 1
        src = Path(__file__).resolve().parent.parent / "src"
        code = ("import sys; sys.path.insert(0, sys.argv[1])\n"
                "from recomb.cli import main\n"
                "sys.exit(main(sys.argv[2:]))\n")
        run = subprocess.run([sys.executable, "-c", code, str(src),
                              "reproduce", "deg9-rank", "-p", str(p)],
                             capture_output=True, text=True, timeout=1)
        assert run.returncode == 2
        assert run.stderr == (f"error: p = {p} is too large: ranks mod p "
                              "need p^2 < 2^53\n")

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

    @pytest.mark.parametrize("budget, code", [(12 * 15 * 8, 0),
                                              (12 * 15 * 8 - 1, 2)])
    def test_matrix_over_the_memory_budget_exits_2(self, capsys, monkeypatch,
                                                   budget, code):
        # E(2,4) has 4 * 3 slot tuples by 15 monomials of 8 bytes
        monkeypatch.setattr("recomb.cli._memory_budget", lambda: budget)
        assert main(["matrix", "-n", "2", "-d", "4"]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.err == (
                "error: out of memory: the 12 x 15 expansion matrix needs "
                f"1,440 bytes, {budget:,} available\n")
            assert captured.out == ""
        else:
            assert captured.out == (files("recomb.data") /
                                    "expansion_matrix_n2_d4.txt").read_text()

    def test_matrix_refusal_builds_nothing(self, capsys, monkeypatch):
        # 27! slot tuples: refused from the estimate alone, under the real
        # budget, before any array or slot tuple is made
        def build(*args):
            raise AssertionError("the matrix was built")

        monkeypatch.setattr("recomb.cli.build_expansion_matrix", build)
        assert main(["matrix", "-n", "27", "-d", "27"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: out of memory: the {math.factorial(27):,} x 1 "
            f"expansion matrix needs {8 * math.factorial(27):,} bytes, ")

    @pytest.mark.parametrize("command", [["nullspace"],
                                         ["generators", "--basis", "rcf"]])
    @pytest.mark.parametrize("budget, code", [(8 * 9 * 15, 0),
                                              (8 * 9 * 15 - 1, 2)])
    def test_basis_over_the_memory_budget_exits_2(self, capsys, monkeypatch,
                                                  command, budget, code):
        # E(2,4) has rank at most C(4,2) = 6 on 15 monomials: a basis of at
        # least 9 vectors, at 8 bytes an entry; refused before E is built
        def build(*args):
            raise AssertionError("the matrix was built")

        monkeypatch.setattr("recomb.cli._memory_budget", lambda: budget)
        if code:
            monkeypatch.setattr("recomb.cli.build_expansion_matrix", build)
        assert main([*command, "-n", "2", "-d", "4"]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.err == (
                "error: out of memory: a nullspace basis of at least 9 x 15 "
                f"entries needs 1,080 bytes, {budget:,} available\n")
            assert captured.out == ""
        else:
            assert captured.err == ""

    @pytest.mark.parametrize("command", [
        ["nullspace", "--method", "hnf-lll"], ["generators"]])
    @pytest.mark.parametrize("budget, code", [(4536, 0), (4535, 2)])
    def test_lattice_over_the_memory_budget_exits_2(self, capsys, monkeypatch,
                                                    command, budget, code):
        # the exact lattice of k = 9 vectors of m = 15 entries holds
        # 8 (3 k m + 2 k^2) = 4,536 bytes at its Gram matrix
        def build(*args):
            raise AssertionError("the matrix was built")

        monkeypatch.setattr("recomb.cli._memory_budget", lambda: budget)
        if code:
            monkeypatch.setattr("recomb.cli.build_expansion_matrix", build)
        assert main([*command, "-n", "2", "-d", "4"]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.err == (
                "error: out of memory: an exact nullspace lattice of at least "
                f"9 x 15 entries needs 4,536 bytes, {budget:,} available\n")
            assert captured.out == ""
        else:
            assert captured.err == ""

    @pytest.mark.parametrize("command", [
        ["nullspace", "--method", "hnf-lll"], ["generators"]])
    def test_degree9_lattice_is_refused_where_the_basis_fits(
            self, capsys, monkeypatch, command):
        # (3,9): k = 15,316 vectors of m = 15,400 entries.  A budget that
        # holds the sorted basis (8 k m bytes) is far from the lattice's
        # 8 (3 k m + 2 k^2), about 9.4 GB; refused before E is built
        def build(*args):
            raise AssertionError("the matrix was built")

        k, m = 15316, 15400
        budget = 8 * k * m
        monkeypatch.setattr("recomb.cli._memory_budget", lambda: budget)
        monkeypatch.setattr("recomb.cli.build_expansion_matrix", build)
        assert main([*command, "-n", "3", "-d", "9"]) == 2
        captured = capsys.readouterr()
        need = 8 * (3 * k * m + 2 * k * k)
        assert need > 9 * 10 ** 9
        assert captured.err == (
            "error: out of memory: an exact nullspace lattice of at least "
            f"15,316 x 15,400 entries needs {need:,} bytes, {budget:,} "
            "available\n")
        assert captured.out == ""

    def test_verify_errors_print_one_line(self, tmp_path, capsys):
        ugly = tmp_path / "ugly.txt"
        ugly.write_text("not an identity file\n")
        assert main(["verify", str(ugly)]) == 2
        assert capsys.readouterr() == (
            "", "error: bad header line: 'not an identity file'\n")
        missing = tmp_path / "missing.txt"
        assert main(["verify", str(missing)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (
            f"error: [Errno 2] No such file or directory: '{missing}'\n")

    def test_generators_checks_p_before_the_basis_estimate(self, capsys,
                                                           monkeypatch):
        monkeypatch.setattr("recomb.cli._memory_budget", lambda: 0)
        assert main(["generators", "-n", "2", "-d", "4", "-p", "3"]) == 2
        assert "need a prime p > degree" in capsys.readouterr().err

    def test_memory_budget_is_at_most_the_address_space_limit(
            self, monkeypatch):
        assert 0 < cli._memory_budget()
        monkeypatch.setattr(cli.resource, "getrlimit",
                            lambda which: (4096, cli.resource.RLIM_INFINITY))
        assert cli._memory_budget() == 4096

    def test_deterministic_output(self, capsys):
        main(["nullspace", "-n", "2", "-d", "4", "--method", "hnf-lll"])
        first = capsys.readouterr().out
        main(["nullspace", "-n", "2", "-d", "4", "--method", "hnf-lll"])
        assert capsys.readouterr().out == first

    def test_quaternary_degree10_generators_fit_in_500_mb(self):
        # the canonical (4,10) basis, 5,565 vectors of 5,775 entries, is
        # held once, as lists; it is built, sorted and sieved a block at a
        # time beside them.  A fresh process reports its own peak in KiB,
        # VmHWM: Linux keeps ru_maxrss across execve, so a process started
        # from a large pytest would report the pytest's size.
        src = Path(__file__).resolve().parent.parent / "src"
        code = ("import sys; sys.path.insert(0, sys.argv[1])\n"
                "from recomb.cli import main\n"
                "code = main(sys.argv[2:])\n"
                "with open('/proc/self/status') as f:\n"
                "    print(*[line.split()[1] for line in f\n"
                "            if line.startswith('VmHWM:')], file=sys.stderr)\n"
                "sys.exit(code)\n")
        run = subprocess.run([sys.executable, "-c", code, str(src),
                              "generators", "-n", "4", "-d", "10",
                              "--basis", "rcf"],
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert re.findall(r"^  position (\d+),", run.stdout, re.M) == \
            ["1", "61", "1486", "2731"]
        assert "final rank 5565 of 5565\n" in run.stdout
        assert ("single generator: position 2731, squared norm 1816, "
                "rank 5565\n") in run.stdout
        assert int(run.stderr) < 500 * 1024

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


def _imported_packages(path) -> set:
    """Top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_the_standard_library_and_numpy():
    # pyproject.toml lists numpy as the one dependency
    package = Path(__file__).resolve().parent.parent / "src" / "recomb"
    for path in sorted(package.glob("*.py")):
        for top in _imported_packages(path):
            assert top == "numpy" or top in sys.stdlib_module_names, \
                f"{path.name} imports {top}"


def test_package_modules_use_every_name_they_import():
    # __init__ imports to re-export: its __all__ is every name it holds
    package = Path(__file__).resolve().parent.parent / "src" / "recomb"
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        bound = {(alias.asname or alias.name).split(".")[0]
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__"
                 for alias in node.names}
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(bound - used)]
    assert unused == []


def test_no_function_imports():
    # every import of the package sits at the top of its module: one made
    # inside a function hides a dependency, such as one on a higher layer
    package = Path(__file__).resolve().parent.parent / "src" / "recomb"
    inside = [f"{path.name}: {func.name}"
              for path in sorted(package.glob("*.py"))
              for func in ast.walk(ast.parse(path.read_text()))
              if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(func)
              if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert inside == []


def test_every_module_constant_is_read():
    # a module-level constant (an upper-case name bound at the top level)
    # that no module of the package reads is a bound that outlived its use
    package = Path(__file__).resolve().parent.parent / "src" / "recomb"
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py"))}
    constants = [f"{name}: {target.id}" for name, tree in trees.items()
                 for node in tree.body
                 if isinstance(node, (ast.Assign, ast.AnnAssign))
                 for target in (node.targets if isinstance(node, ast.Assign)
                                else [node.target])
                 if isinstance(target, ast.Name)
                 and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id)]
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}
    assert "linalg.py: _SAFE" in constants
    assert [c for c in constants if c.split(": ")[1] not in read] == []


def test_engine_products_go_through_the_one_helper():
    # every float product of the mod-p engine is a linalg._addmul call,
    # which keeps its sums exact, and only _addmul and the Gram product
    # call linalg._blas, which keeps the narrow ones on the calling thread;
    # no module sets a BLAS thread count behind its back
    package = Path(__file__).resolve().parent.parent / "src" / "recomb"
    linalg_tree = ast.parse((package / "linalg.py").read_text())
    scopes = [node for node in linalg_tree.body
              if getattr(node, "name", None) in ("ModularRankAccumulator",
                                                 "_addmul", "_gram_residues")]
    assert len(scopes) == 3
    scopes.append(ast.parse((package / "symmetric.py").read_text()))
    products = [f"line {node.lineno}"
                for scope in scopes for node in ast.walk(scope)
                if isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.MatMult)
                or isinstance(node, ast.Attribute)
                and node.attr in ("matmul", "dot")]
    assert products == []
    callers = {f"{path.name}: {scope.name}"
               for path in sorted(package.glob("*.py"))
               for scope in ast.walk(ast.parse(path.read_text()))
               if isinstance(scope, ast.FunctionDef)
               for node in ast.walk(scope)
               if isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None))
               == "_blas"}
    assert callers == {"linalg.py: _addmul", "linalg.py: _gram"}
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        for word in ("OPENBLAS", "os.environ", "ctypes"):
            assert word not in text, f"{path.name} mentions {word}"


def test_every_function_defined_in_the_package_is_referenced():
    # a function or method (dunders aside) that nothing in the package, a
    # benchmark or a demo names, by a call, an attribute or a reference,
    # is dead code
    root = Path(__file__).resolve().parent.parent
    package = sorted((root / "src" / "recomb").glob("*.py"))
    trees = [ast.parse(path.read_text()) for path in [
        *package, *(root / "benchmarks").glob("*.py"),
        *(root / "demos").glob("*.py")]]
    referenced = {node.id if isinstance(node, ast.Name) else node.attr
                  for tree in trees for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute))}
    unreferenced = [f"{path.name}: {node.name}"
                    for path, tree in zip(package, trees)
                    for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef)
                    and not (node.name.startswith("__")
                             and node.name.endswith("__"))
                    and node.name not in referenced]
    assert unreferenced == []


def test_test_extra_lists_what_the_tests_import():
    # `pip install .[test]` must bring every package the suite imports
    root = Path(__file__).resolve().parent.parent
    extra = re.search(r"^test = \[(.*)\]$",
                      (root / "pyproject.toml").read_text(), re.M).group(1)
    local = {path.stem for path in (root / "tests").glob("*.py")}
    needed = set().union(*map(_imported_packages,
                              (root / "tests").glob("*.py")))
    needed -= set(sys.stdlib_module_names) | local | {"recomb", "numpy"}
    assert needed == {"pytest", "hypothesis"}
    assert [name for name in sorted(needed) if f'"{name}' not in extra] == []


def test_every_public_name_is_used_outside_the_tests():
    # recomb.__all__ is the public API: each name must be called from the
    # package beyond its own definition, a demo or the benchmark
    root = Path(__file__).resolve().parent.parent
    package = root / "src" / "recomb"
    sources = [path.read_text() for path in sorted(package.glob("*.py"))
               if path.name != "__init__.py"]
    elsewhere = "\n".join(path.read_text() for path in sorted(
        [*(root / "demos").glob("*.py"), *(root / "benchmarks").glob("*.py")]))
    unused = []
    for name in recomb.__all__:
        if inspect.ismodule(getattr(recomb, name)):
            continue
        word = re.compile(rf"\b{name}\b")
        definition = re.compile(rf"^(def|class) {name}\b|^{name} =", re.M)
        uses = sum(len(word.findall(s)) - len(definition.findall(s))
                   for s in sources)
        if not uses and not word.search(elsewhere):
            unused.append(name)
    assert unused == []
