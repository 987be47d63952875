import contextlib
import io
import json
import math
import os
import subprocess
import sys

import pytest
from helpers import (
    fresh_cache,
    q_power,
    reference_ic_json,
    reference_ic_table,
    reference_matrix_rows,
    reference_matrix_table,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

import detstrata
import detstrata.cli
from detstrata import (
    LaurentPoly,
    MatrixSpace,
    StrataMatrix,
    euler_closed,
    gauss_binomial,
    ic_poincare,
    inv_derham_gf_closed,
    inv_derham_gf_enum,
    qpoly,
)
from detstrata.cli import EXIT_BROKEN_PIPE, main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(detstrata.__file__)))


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestTable:
    def test_euler_json_fixture(self, capsys):
        code, out, _ = run(
            capsys, "table", "--family", "symm", "--n", "2", "--kind", "euler", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["rows"] == [[1, 0, 1], [0, 1, 1], [0, 0, 1]]
        assert data["family"] == "symmetric"
        assert data["params"] == {"n": 2}
        assert data["order"] == 3
        assert data["kind"] == "euler"

    def test_json_round_trips_byte_identical(self, capsys):
        for kind in ("chi", "ic"):
            code, out, _ = run(
                capsys, "table", "--family", "general", "--m", "3", "--n", "2", "--kind", kind,
                "--format", "json",
            )
            assert code == 0
            assert json.dumps(json.loads(out), sort_keys=True) + "\n" == out

    def test_micro_signed_flag(self, capsys):
        _, unsigned, _ = run(
            capsys, "table", "--family", "symm", "--n", "2", "--kind", "micro", "--format", "json"
        )
        _, signed, _ = run(
            capsys, "table", "--family", "symm", "--n", "2", "--kind", "micro", "--signed",
            "--format", "json",
        )
        assert json.loads(unsigned)["kind"] == "micro"
        assert json.loads(unsigned)["rows"] == [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
        assert json.loads(signed)["kind"] == "signed_micro"
        assert json.loads(signed)["rows"] == [[1, 1, 0], [0, 1, 0], [0, 0, -1]]

    @pytest.mark.parametrize("kind", ["euler", "chi", "ic"])
    def test_signed_outside_micro_is_usage_error(self, capsys, kind):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--family", "symm", "--n", "2", "--kind", kind, "--signed"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: detstrata")
        assert "--signed" in err.splitlines()[-1]

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "table", "--family", "symm", "--n", "2", "--kind", "chi")
        assert code == 0
        assert out.splitlines() == [" 1  1 -1", " 0  1 -1", " 0  0 -1"]

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "table", "--family", "skew", "--n", "4", "--kind", "euler", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines() == ["stratum,0,1,2", "0,1,2,1", "1,0,1,1", "2,0,0,1"]

    def test_ic_text(self, capsys):
        code, out, _ = run(capsys, "table", "--family", "symm", "--n", "2", "--kind", "ic")
        assert code == 0
        assert out.splitlines() == ["p=0: 1", "p=1: q^-2", "p=2: q^-3"]

    def test_ic_json_and_csv(self, capsys):
        code, out, _ = run(
            capsys, "table", "--family", "general", "--m", "2", "--n", "2", "--kind", "ic",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "ic"
        assert data["polys"][1] == {"min_exp": -3, "coeffs": [1, 0, 1]}
        assert data["polys"][2] == {"min_exp": -4, "coeffs": [1]}
        code, out, _ = run(
            capsys, "table", "--family", "skew", "--n", "4", "--kind", "ic", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[0] == "stratum,exponent,coefficient"
        assert "1,-5,1" in out.splitlines()


IC_JSON_SPACES = (
    [MatrixSpace.general(m, n) for n in range(1, 9) for m in range(n, 9)]
    + [MatrixSpace.symmetric(n) for n in range(1, 15)]
    + [MatrixSpace.skew(n) for n in range(2, 15)]
    + [MatrixSpace.general(30, 30), MatrixSpace.symmetric(60), MatrixSpace.skew(60)]
    # odd n moves epsilon_symmetric, and m > n the codimension, off the benchmark's shapes
    + [MatrixSpace.general(33, 30), MatrixSpace.symmetric(61), MatrixSpace.skew(61)]
)


def cli_args(space):
    token = {family: tok for tok, family in detstrata.cli.FAMILY_TOKENS.items()}[space.family]
    m = ["--m", str(space.m)] if space.family == detstrata.GENERAL else []
    return ["--family", token, *m, "--n", str(space.n)]


class TestIcJson:
    @pytest.mark.parametrize("space", IC_JSON_SPACES, ids=str)
    def test_equals_the_json_dumps_composition(self, capsys, space):
        code, out, _ = run(capsys, "table", *cli_args(space), "--kind", "ic", "--format", "json")
        assert code == 0
        assert out == reference_ic_json(space) + "\n"

    def test_stride_and_palindrome_paths_run(self, capsys, monkeypatch):
        """symmetric(40): each distinct q-binomial row is formatted once, from its stored half.

        Strata 2k and 2k + 1 share a row, as do [a, b] and [a, a - b]; every
        row is taken in q**4, and no polynomial is built to get there.
        """
        formatted, built = [], []

        def spy_str(value):
            formatted.append(value)
            return format(value)

        monkeypatch.setattr(qpoly, "str", spy_str, raising=False)
        monkeypatch.setattr(LaurentPoly, "_from_run", lambda *a: built.append(a))
        monkeypatch.setattr(LaurentPoly, "substitute_power", lambda *a: built.append(a))
        code, out, _ = run(capsys, "table", "--family", "symm", "--n", "40", "--kind", "ic",
                           "--format", "json")
        monkeypatch.undo()
        assert code == 0
        assert built == []
        space = MatrixSpace.symmetric(40)
        assert out == reference_ic_json(space) + "\n"
        rows, per_stratum = {}, 0
        for p in space.strata:
            a, b = space.record.gf_binomial(space.n, p)
            coeffs = gauss_binomial(a, b).coeffs
            rows.setdefault((a, min(b, a - b)), coeffs[: (len(coeffs) + 1) // 2])
            per_stratum += (len(coeffs) + 1) // 2
        assert formatted == [c for half in rows.values() for c in half]
        assert len(formatted) < per_stratum


class TestClosedText:
    """Every text the closed route prints comes from the half rows, byte-identical to the polynomials."""

    @pytest.mark.parametrize("space", IC_JSON_SPACES, ids=str)
    def test_ic_text_and_csv_equal_the_ic_poincare_rendering(self, capsys, space):
        for fmt in ("text", "csv"):
            code, out, _ = run(capsys, "table", *cli_args(space), "--kind", "ic", "--format", fmt)
            assert code == 0
            assert out == reference_ic_table(space, fmt)

    @pytest.mark.parametrize("space", IC_JSON_SPACES, ids=str)
    def test_derham_closed_line_is_str_of_the_closed_gf(self, capsys, space):
        for p in space.strata:
            code, out, _ = run(capsys, "derham", *cli_args(space), "--p", str(p), "--method", "closed")
            assert code == 0
            assert out == f"closed: {inv_derham_gf_closed(space, p)}\n", p

    def test_derham_closed_route_expands_nothing(self, capsys, monkeypatch):
        """The closed line neither substitutes q**power nor prints through LaurentPoly.__str__."""
        cases = [(MatrixSpace.general(9, 9), 8), (MatrixSpace.general(9, 9), 9),
                 (MatrixSpace.symmetric(13), 5), (MatrixSpace.skew(13), 3)]
        expected = [f"closed: {inv_derham_gf_closed(space, p)}\n" for space, p in cases]
        calls = []
        monkeypatch.setattr(LaurentPoly, "substitute_power", lambda *a: calls.append(a))
        monkeypatch.setattr(LaurentPoly, "__str__", lambda *a: calls.append(a))
        outs = [run(capsys, "derham", *cli_args(space), "--p", str(p))[1] for space, p in cases]
        monkeypatch.undo()
        assert calls == []
        assert outs == expected
        assert expected[0].startswith("closed: q + ") and expected[1] == "closed: 1\n"


STREAMED_SPACES = IC_JSON_SPACES + [
    MatrixSpace.general(400, 400), MatrixSpace.symmetric(500), MatrixSpace.skew(500)
]
# The strata matrices by the kind their JSON carries, and the flags that ask for each.
MATRIX_FLAGS = {"euler": ["--kind", "euler"], "chi": ["--kind", "chi"],
                "micro": ["--kind", "micro"], "signed_micro": ["--kind", "micro", "--signed"]}


def table_argv(space, kind, fmt):
    flags = ["--kind", "ic"] if kind == "ic" else MATRIX_FLAGS[kind]
    return ["table", *cli_args(space), *flags, "--format", fmt]


def reference_table(space, kind, fmt):
    if kind != "ic":
        return reference_matrix_table(space, kind, fmt)
    return reference_ic_json(space) + "\n" if fmt == "json" else reference_ic_table(space, fmt)


class WriteSpy(io.StringIO):
    """A stdout that records the length of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def largest_piece(space, kind, fmt):
    """The longest single row or stratum text of a table: a row's or stratum's lines with
    their newlines (text, csv), or one row's or polynomial's coefficient list (json)."""
    if kind == "ic":
        polys = [ic_poincare(space, p) for p in space.strata]
        if fmt == "json":
            return max(len(json.dumps(list(poly.coeffs))) for poly in polys)
        if fmt == "text":
            return max(len(f"p={p}: {poly}\n") for p, poly in enumerate(polys))
        return max(len("".join(f"{p},{e},{poly.coefficient(e)}\n" for e in poly.support()))
                   for p, poly in enumerate(polys))
    if fmt == "json":
        return max(len(json.dumps(row)) for row in reference_matrix_rows(space, kind))
    return max(len(line) + 1 for line in reference_matrix_table(space, kind, fmt).splitlines())


class TestStreamedTables:
    """Every closed table is written to stdout piece by piece, byte-identical to the references."""

    @pytest.mark.parametrize("space", STREAMED_SPACES, ids=str)
    def test_matrix_tables_equal_the_comb_reference(self, capsys, space):
        for kind in MATRIX_FLAGS:
            rows = reference_matrix_rows(space, kind)
            for fmt in ("text", "csv", "json"):
                code, out, _ = run(capsys, *table_argv(space, kind, fmt))
                assert code == 0
                assert out == reference_matrix_table(space, kind, fmt, rows), (kind, fmt)

    @pytest.mark.parametrize("space", [MatrixSpace.general(60, 50), MatrixSpace.symmetric(61),
                                       MatrixSpace.skew(100)], ids=str)
    def test_no_write_is_longer_than_one_row_or_stratum(self, space):
        for kind in ["ic", *MATRIX_FLAGS]:
            for fmt in ("text", "csv", "json"):
                spy = WriteSpy()
                with contextlib.redirect_stdout(spy):
                    assert main(table_argv(space, kind, fmt)) == 0
                assert spy.getvalue() == reference_table(space, kind, fmt), (kind, fmt)
                assert max(spy.sizes) <= largest_piece(space, kind, fmt), (kind, fmt)

    def test_closed_tables_need_no_math_comb(self, capsys, monkeypatch):
        spaces = [MatrixSpace.general(9, 7), MatrixSpace.symmetric(12), MatrixSpace.symmetric(13),
                  MatrixSpace.skew(13)]
        cases = [(space, kind, fmt) for space in spaces for kind in ["ic", *MATRIX_FLAGS]
                 for fmt in ("text", "csv", "json")]
        expected = [reference_table(*case) for case in cases]

        def no_comb(*args):
            raise AssertionError(f"math.comb{args} called")

        monkeypatch.setattr(math, "comb", no_comb)
        for module in vars(detstrata).values():
            if getattr(module, "__name__", "").startswith("detstrata."):
                monkeypatch.setattr(module, "comb", no_comb, raising=False)
        fresh_cache(monkeypatch)
        outs = [run(capsys, *table_argv(*case)) for case in cases]
        monkeypatch.undo()
        assert outs == [(0, text, "") for text in expected]

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
    def test_ic_json_memory_stays_bounded(self):
        """general(200,200) writes 55 MB of IC JSON in under 120 MB (about 221 MB when the
        whole output was built before printing).

        The child reports VmHWM, the peak of its own address space: its ru_maxrss would
        also count the test process, which it shares memory with until exec.
        """
        child = ("import sys\n"
                 "from detstrata.cli import main\n"
                 "code = main(sys.argv[1:])\n"
                 "sys.stdout.flush()\n"
                 "with open('/proc/self/status') as status:\n"
                 "    peak = next(line.split()[1] for line in status if line.startswith('VmHWM:'))\n"
                 "sys.stderr.write(f'{code} {peak}')\n")
        argv = table_argv(MatrixSpace.general(200, 200), "ic", "json")
        with open(os.devnull, "w") as devnull:
            proc = subprocess.run([sys.executable, "-c", child, *argv], stdout=devnull,
                                  stderr=subprocess.PIPE, text=True, timeout=300,
                                  env={**os.environ, "PYTHONPATH": SRC})
        code, peak_kb = proc.stderr.split()
        assert code == "0", proc.stderr
        assert int(peak_kb) / 1024 < 120


class TestBrokenPipe:
    """A reader that stops early ends the command quietly with ``EXIT_BROKEN_PIPE``."""

    @pytest.mark.parametrize("argv, first", [
        # both tables are far longer than any pipe buffer, so the writer is still writing
        (["--m", "300", "--n", "300", "--kind", "euler", "--format", "csv"], b"stratum,0,1,2,3,4,5,"),
        (["--m", "200", "--n", "200", "--kind", "ic", "--format", "csv"],
         b"stratum,exponent,coefficient\n"),
    ])
    def test_closing_the_read_end_prints_no_traceback(self, argv, first):
        proc = subprocess.Popen(
            [sys.executable, "-m", "detstrata.cli", "table", "--family", "general", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": SRC},
        )
        try:
            head = proc.stdout.readline() if first.endswith(b"\n") else proc.stdout.read(len(first))
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=120)
        finally:
            proc.kill()
            proc.stderr.close()
        assert head == first
        assert "Traceback" not in err and err == ""
        assert code == EXIT_BROKEN_PIPE

    def test_a_stream_without_a_descriptor_gets_the_exit_code(self):
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        with contextlib.redirect_stdout(Closed()):
            code = main(["table", "--family", "symm", "--n", "3", "--kind", "euler"])
        assert code == EXIT_BROKEN_PIPE


class TestDerham:
    def test_both_with_check(self, capsys):
        code, out, _ = run(
            capsys, "derham", "--family", "general", "--m", "2", "--n", "2",
            "--p", "0", "--method", "both", "--check",
        )
        assert code == 0
        assert out.splitlines() == ["enum: q^4", "closed: q^4"]

    def test_check_alone_runs_both_routes(self, capsys):
        code, out, _ = run(
            capsys, "derham", "--family", "general", "--m", "2", "--n", "2", "--p", "0", "--check"
        )
        assert code == 0
        assert out.splitlines() == ["enum: q^4", "closed: q^4"]

    @pytest.mark.parametrize("method", ["enum", "closed"])
    def test_check_with_a_single_method_is_usage_error(self, capsys, method):
        with pytest.raises(SystemExit) as exc:
            main(["derham", "--family", "symm", "--n", "3", "--p", "1", "--method", method, "--check"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--method" in err

    def test_default_method_is_closed(self, capsys):
        code, out, _ = run(capsys, "derham", "--family", "symm", "--n", "3", "--p", "2")
        assert code == 0
        assert out == "closed: q + q^5\n"

    def test_enum_only(self, capsys):
        code, out, _ = run(
            capsys, "derham", "--family", "skew", "--n", "4", "--p", "1", "--method", "enum"
        )
        assert code == 0
        assert out == "enum: q + q^5\n"

    def test_check_reports_a_mismatch(self, capsys, monkeypatch):
        def perturbed(space, p, real=detstrata.cli.inv_derham_gf_enum):
            return real(space, p) + q_power(3)

        monkeypatch.setattr(detstrata.cli, "inv_derham_gf_enum", perturbed)
        code, out, err = run(capsys, "derham", "--family", "symm", "--n", "3", "--p", "2", "--check")
        assert code == 1
        assert out == "enum: q + q^3 + q^5\nclosed: q + q^5\n"
        assert err == "mismatch: symmetric(3) p=2: enum=q + q^3 + q^5, closed=q + q^5\n"

    def test_stratum_out_of_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["derham", "--family", "symm", "--n", "2", "--p", "5"])
        assert exc.value.code == 2


class TestPlethysm:
    def test_cauchy(self, capsys):
        code, out, _ = run(
            capsys, "plethysm", "--kind", "cauchy", "--m", "3", "--n", "2", "--i", "2"
        )
        assert code == 0
        assert json.loads(out) == [[2], [1, 1]]

    def test_symm(self, capsys):
        code, out, _ = run(capsys, "plethysm", "--kind", "symm", "--n", "2", "--i", "3")
        assert code == 0
        assert json.loads(out) == [[3, 3]]

    def test_skew(self, capsys):
        code, out, _ = run(capsys, "plethysm", "--kind", "skew", "--n", "4", "--i", "6")
        assert code == 0
        assert json.loads(out) == [[3, 3, 3, 3]]

    def test_long_summands(self, capsys):
        """A summand with more rows than the interpreter's recursion limit prints like any other."""
        code, out, _ = run(capsys, "plethysm", "--kind", "symm", "--n", "1001", "--i", "501500")
        assert code == 0
        assert json.loads(out) == [[1002] * 1000 + [1000]]

    def test_cauchy_requires_m(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plethysm", "--kind", "cauchy", "--n", "2", "--i", "1"])
        assert exc.value.code == 2

    def test_out_of_range_degree_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plethysm", "--kind", "symm", "--n", "2", "--i", "9"])
        assert exc.value.code == 2


class TestCharacter:
    def test_member(self, capsys):
        code, out, _ = run(
            capsys, "character", "--family", "symm", "--n", "2", "--p", "1", "--weight", "2,0"
        )
        assert code == 0
        assert out == "1\n"

    def test_non_member(self, capsys):
        code, out, _ = run(
            capsys, "character", "--family", "symm", "--n", "2", "--p", "1", "--weight", "1,1"
        )
        assert code == 0
        assert out == "0\n"

    def test_negative_entries_parse(self, capsys):
        code, out, _ = run(
            capsys, "character", "--family", "general", "--m", "3", "--n", "3",
            "--p", "3", "--weight", "0,-1,-4",
        )
        assert code == 0
        assert out == "1\n"

    def test_non_dominant_weight_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["character", "--family", "symm", "--n", "2", "--p", "1", "--weight", "0,2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("weight, token", [("1,,2", "''"), ("2,x", "'x'"), ("1.5", "'1.5'")])
    def test_malformed_weight_names_the_flag_and_token(self, capsys, weight, token):
        with pytest.raises(SystemExit) as exc:
            main(["character", "--family", "symm", "--n", "2", "--p", "1", "--weight", weight])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == f"detstrata character: error: --weight: {token} is not an integer"


class TestVerify:
    def test_skew_up_to_six(self, capsys):
        code, out, err = run(capsys, "verify", "--family", "skew", "--max", "6")
        assert code == 0
        assert err == ""
        assert out.splitlines() == [f"ok skew({n})" for n in range(2, 7)]

    def test_general_up_to_three(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "general", "--max", "3")
        assert code == 0
        assert out.splitlines() == [
            "ok general(1,1)", "ok general(2,1)", "ok general(3,1)",
            "ok general(2,2)", "ok general(3,2)", "ok general(3,3)",
        ]

    @pytest.mark.parametrize("family, bound", [("skew", "1"), ("general", "0"), ("symm", "-3")])
    def test_empty_range_is_usage_error(self, capsys, family, bound):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--family", family, "--max", bound])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "leaves no" in err

    def test_index_identity_mismatch_names_the_cell(self, capsys, monkeypatch):
        def perturbed(space):
            rows = [list(row) for row in euler_closed(space).rows]
            rows[0][-1] += 1
            return StrataMatrix(rows)

        monkeypatch.setattr(detstrata.obstructions, "euler_closed", perturbed)
        code, out, err = run(capsys, "verify", "--family", "symm", "--max", "3")
        assert code == 1
        assert out == ""
        # chi_{0,1} = -1; the perturbed e_{0,1} = 2 times the diagonal sign -1
        assert err == "mismatch: symmetric(1) index identity cell (0,1): chi=-1, euler*signed=-2\n"

    def test_derham_mismatch_names_the_stratum(self, capsys, monkeypatch):
        def perturbed(space, p, real=detstrata.obstructions.inv_derham_gf_enum):
            gf = real(space, p)
            return gf + q_power(3) if p == 1 else gf

        monkeypatch.setattr(detstrata.obstructions, "inv_derham_gf_enum", perturbed)
        code, out, err = run(capsys, "verify", "--family", "symm", "--max", "3")
        assert code == 1
        assert out == ""
        assert err == "mismatch: symmetric(1) derham p=1: enum=1 + q^3, closed=1\n"

    def test_euler_mismatch_names_the_cell(self, capsys, monkeypatch):
        def perturbed(space, real=detstrata.obstructions.chi_from_enumeration):
            rows = [list(row) for row in real(space).rows]
            rows[0][-1] += 2
            return StrataMatrix(rows)

        monkeypatch.setattr(detstrata.obstructions, "chi_from_enumeration", perturbed)
        code, out, err = run(capsys, "verify", "--family", "skew", "--max", "4")
        assert code == 1
        assert out == ""
        # chi_{0,1} = -1 + 2; e_{0,1} = (chi_{0,1} - e_{0,0} m_{0,1}) / m_{1,1} with m_{1,1} = -1
        assert err == "mismatch: skew(2) euler cell (0,1): enumerated=-1, closed=1\n"

    def test_deterministic(self, capsys):
        first = run(capsys, "verify", "--family", "symm", "--max", "4")
        second = run(capsys, "verify", "--family", "symm", "--max", "4")
        assert first == second


class TestLargeSizes:
    def test_derham_700_with_a_cold_cache(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(detstrata.__file__)))
        argv = ["derham", "--family", "general", "--m", "700", "--n", "700", "--p", "1"]
        proc = subprocess.run(
            [sys.executable, "-m", "detstrata.cli", *argv],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout.startswith(f"closed: q^{699 * 699} + q^{699 * 699 + 2} + ")


class TestArgumentErrors:
    def test_general_requires_m(self):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--family", "general", "--n", "2", "--kind", "euler"])
        assert exc.value.code == 2

    def test_m_rejected_outside_general(self):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--family", "symm", "--m", "3", "--n", "2", "--kind", "euler"])
        assert exc.value.code == 2

    def test_unknown_family(self):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--family", "hermitian", "--n", "2", "--kind", "euler"])
        assert exc.value.code == 2

    def test_bad_space_parameters(self):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--family", "skew", "--n", "1", "--kind", "euler"])
        assert exc.value.code == 2


# What argparse prints at 80 columns (CPython 3.11): the help screens of
# ``detstrata --help`` (key None) and ``detstrata <command> --help``, and the
# usage error of each TestHandlerUsage vector, by command.
HELP_SCREENS = {
    None: """\
usage: detstrata [-h] {table,derham,plethysm,character,verify} ...

Exact invariants of the rank stratification of matrix spaces.

positional arguments:
  {table,derham,plethysm,character,verify}
    table               print a strata matrix or the IC Poincare polynomials
    derham              print invariant de Rham generating function(s)
    plethysm            list exterior power summand partitions as JSON
    character           multiplicity of a weight in a stratum module
    verify              run the two-route agreement suites up to a size bound

options:
  -h, --help            show this help message and exit
""",
    "table": """\
usage: detstrata table [-h] --family {general,skew,symm} --n N [--m M] --kind
                       {euler,chi,micro,ic} [--format {text,json,csv}]
                       [--signed]

options:
  -h, --help            show this help message and exit
  --family {general,skew,symm}
  --n N
  --m M                 row count (general family only)
  --kind {euler,chi,micro,ic}
  --format {text,json,csv}
  --signed              sign the micro table by (-1)**d_i
""",
    "derham": """\
usage: detstrata derham [-h] --family {general,skew,symm} --n N [--m M] --p P
                        [--method {enum,closed,both}] [--check]

options:
  -h, --help            show this help message and exit
  --family {general,skew,symm}
  --n N
  --m M                 row count (general family only)
  --p P
  --method {enum,closed,both}
                        default: closed
  --check               compute both routes, exit 1 on mismatch
""",
    "plethysm": """\
usage: detstrata plethysm [-h] --kind {cauchy,symm,skew} --n N [--m M] --i I

options:
  -h, --help            show this help message and exit
  --kind {cauchy,symm,skew}
  --n N
  --m M
  --i I
""",
    "character": """\
usage: detstrata character [-h] --family {general,skew,symm} --n N [--m M] --p
                           P --weight WEIGHT

options:
  -h, --help            show this help message and exit
  --family {general,skew,symm}
  --n N
  --m M                 row count (general family only)
  --p P
  --weight WEIGHT       comma-separated integers, e.g. 2,0,-1
""",
    "verify": """\
usage: detstrata verify [-h] --family {general,skew,symm} --max MAX

options:
  -h, --help            show this help message and exit
  --family {general,skew,symm}
  --max MAX
""",
}
USAGE_ERRORS = {
    "character": """\
usage: detstrata character [-h] --family {general,skew,symm} --n N [--m M] --p
                           P --weight WEIGHT
detstrata character: error: --weight: '' is not an integer
""",
    "table": """\
usage: detstrata table [-h] --family {general,skew,symm} --n N [--m M] --kind
                       {euler,chi,micro,ic} [--format {text,json,csv}]
                       [--signed]
detstrata table: error: --signed only applies to --kind micro, not --kind euler
""",
    "derham": """\
usage: detstrata derham [-h] --family {general,skew,symm} --n N [--m M] --p P
                        [--method {enum,closed,both}] [--check]
detstrata derham: error: --check computes both routes, so it cannot take --method enum
""",
    "plethysm": """\
usage: detstrata plethysm [-h] --kind {cauchy,symm,skew} --n N [--m M] --i I
detstrata plethysm: error: --m is required for --kind cauchy
""",
    "verify": """\
usage: detstrata verify [-h] --family {general,skew,symm} --max MAX
detstrata verify: error: --max 1 leaves no skew space to verify
""",
    "derham-enum-stratum": """\
usage: detstrata derham [-h] --family {general,skew,symm} --n N [--m M] --p P
                        [--method {enum,closed,both}] [--check]
detstrata derham: error: stratum 3 out of range for symmetric(2): 0..2
""",
    "derham-check-stratum": """\
usage: detstrata derham [-h] --family {general,skew,symm} --n N [--m M] --p P
                        [--method {enum,closed,both}] [--check]
detstrata derham: error: stratum 3 out of range for symmetric(2): 0..2
""",
    "plethysm-degree": """\
usage: detstrata plethysm [-h] --kind {cauchy,symm,skew} --n N [--m M] --i I
detstrata plethysm: error: require 0 <= i <= 3, the dimension of symmetric(2), got i=9
""",
    "plethysm-m-not-cauchy": """\
usage: detstrata plethysm [-h] --kind {cauchy,symm,skew} --n N [--m M] --i I
detstrata plethysm: error: --m is only meaningful for --kind cauchy
""",
    "plethysm-space": """\
usage: detstrata plethysm [-h] --kind {cauchy,symm,skew} --n N [--m M] --i I
detstrata plethysm: error: general family needs m >= n >= 1, got m=1, n=2
""",
    "character-weight": """\
usage: detstrata character [-h] --family {general,skew,symm} --n N [--m M] --p
                           P --weight WEIGHT
detstrata character: error: entries must be weakly decreasing: (1, 2)
""",
    "table-space": """\
usage: detstrata table [-h] --family {general,skew,symm} --n N [--m M] --kind
                       {euler,chi,micro,ic} [--format {text,json,csv}]
                       [--signed]
detstrata table: error: skew family needs n >= 2, got n=1
""",
}


class TestHandlerUsage:
    """Refusals of a handler or of the library, each under the name of its pinned text."""

    VECTORS = {
        "character": ["character", "--family", "symm", "--n", "2", "--p", "1", "--weight", "1,,2"],
        "table": ["table", "--family", "symm", "--n", "2", "--kind", "euler", "--signed"],
        "derham": ["derham", "--family", "symm", "--n", "3", "--p", "1", "--method", "enum", "--check"],
        "plethysm": ["plethysm", "--kind", "cauchy", "--n", "2", "--i", "1"],
        "verify": ["verify", "--family", "skew", "--max", "1"],
        "derham-enum-stratum": ["derham", "--family", "symm", "--n", "2", "--p", "3", "--method", "enum"],
        "derham-check-stratum": ["derham", "--family", "symm", "--n", "2", "--p", "3", "--check"],
        "plethysm-degree": ["plethysm", "--kind", "symm", "--n", "2", "--i", "9"],
        "plethysm-m-not-cauchy": ["plethysm", "--kind", "skew", "--n", "3", "--m", "4", "--i", "1"],
        "plethysm-space": ["plethysm", "--kind", "cauchy", "--m", "1", "--n", "2", "--i", "1"],
        "character-weight": ["character", "--family", "symm", "--n", "2", "--p", "1", "--weight", "1,2"],
        "table-space": ["table", "--family", "skew", "--n", "1", "--kind", "euler"],
    }

    @pytest.mark.parametrize("name", VECTORS)
    def test_handler_errors_print_their_subcommand_usage(self, capsys, name):
        """An error a handler raises prints the usage of its subcommand, as argparse's own do."""
        argv = self.VECTORS[name]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage: detstrata {argv[0]} ")
        assert err.splitlines()[-1].startswith(f"detstrata {argv[0]}: error: ")

    @pytest.mark.parametrize("name", VECTORS)
    def test_handler_errors_print_the_pinned_text(self, capsys, monkeypatch, name):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(self.VECTORS[name])
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", USAGE_ERRORS[name])


@pytest.mark.parametrize("command", HELP_SCREENS, ids=str)
def test_help_screens_print_the_pinned_text(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["--help"] if command is None else [command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr() == (HELP_SCREENS[command], "")


class TestParserReuse:
    ARGVS = [
        ["derham", "--family", "general", "--m", "3", "--n", "2", "--p", "1", "--check"],
        ["table", "--family", "symm", "--n", "3", "--kind", "euler", "--format", "csv"],
        ["table", "--family", "general", "--n", "2", "--kind", "euler"],  # --m missing
        ["character", "--family", "skew", "--n", "4", "--p", "1", "--weight", "2,2,1,1"],
        ["table", "--family", "hermitian", "--n", "2", "--kind", "euler"],  # bad choice
        ["verify", "--family", "skew", "--max", "5"],
        ["derham", "--family", "symm", "--n", "2", "--p", "3"],  # stratum out of range
        ["table", "--family", "symm", "--n", "3", "--kind", "euler", "--format", "csv"],
    ]

    @staticmethod
    def outcomes(capsys):
        results = []
        for argv in TestParserReuse.ARGVS:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            results.append((code, out, err))
        return results

    def test_one_parser_serves_every_call_like_fresh_ones(self, capsys, monkeypatch):
        detstrata.cli._parser.cache_clear()
        reused = self.outcomes(capsys)
        assert detstrata.cli._parser.cache_info().misses == 1
        monkeypatch.setattr(detstrata.cli, "_parser", detstrata.cli.build_parser)
        fresh = self.outcomes(capsys)
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 0, 2, 0, 2, 0, 2, 0]
        assert all(err.startswith("usage: detstrata") for code, _, err in reused if code == 2)

    def test_build_parser_returns_a_new_parser(self):
        assert detstrata.cli.build_parser() is not detstrata.cli.build_parser()


SIZES = st.integers(-2, 8).map(str)
FLAG_VALUES = {
    "--family": st.sampled_from(["general", "symm", "skew"]),
    "--format": st.sampled_from(["text", "json", "csv"]),
    "--method": st.sampled_from(["enum", "closed", "both"]),
    "--weight": st.lists(st.sampled_from(["-2", "-1", "0", "1", "2", "3", "", "x"]),
                         min_size=1, max_size=5).map(",".join),
    **dict.fromkeys(["--n", "--m", "--p", "--i", "--max"], SIZES),
}
KINDS = {
    "table": st.sampled_from(["euler", "chi", "micro", "ic"]),
    "plethysm": st.sampled_from(["cauchy", "symm", "skew"]),
}
FAMILY_FLAGS = ["--family", "--n", "--m"]
COMMAND_FLAGS = {
    "table": [*FAMILY_FLAGS, "--kind", "--format", "--signed"],
    "derham": [*FAMILY_FLAGS, "--p", "--method", "--check"],
    "plethysm": ["--kind", "--n", "--m", "--i"],
    "character": [*FAMILY_FLAGS, "--p", "--weight"],
    "verify": ["--family", "--max"],
    "bogus": [],
}
OPTIONAL_FLAGS = {"--m", "--format", "--signed", "--method", "--check"}


@st.composite
def argument_vectors(draw):
    """A subcommand and its flags in any order: most kept, some missing, repeated or unknown.

    One value in ten is replaced by a word that no flag accepts.
    """
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    values = {**FLAG_VALUES, "--kind": KINDS.get(command)}
    flags = [flag for flag in draw(st.permutations(COMMAND_FLAGS[command]))
             if draw(st.booleans() if flag in OPTIONAL_FLAGS else st.integers(0, 9))]
    flags += draw(st.lists(st.sampled_from([*COMMAND_FLAGS[command], "--bogus"]), max_size=1))
    argv = [command]
    for flag in flags:
        if values.get(flag) is None:
            argv.append(flag)
        else:
            argv += [flag, draw(values[flag]) if draw(st.integers(0, 9)) else "bogus"]
    return argv


@settings(max_examples=300, deadline=None)
@given(argument_vectors())
def test_fuzzed_arguments_exit_cleanly(argv):
    """Every small argument vector answers or exits 1 or 2, with no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


# Values that every flag accepts, with int spellings other than plain digits that int() reads.
WELL_FORMED_VALUES = {
    **FLAG_VALUES,
    **dict.fromkeys(["--n", "--m", "--p", "--i", "--max"],
                    st.integers(0, 8).map(str) | st.sampled_from(["+2", " 4", "1_0", "03"])),
    "--weight": FLAG_VALUES["--weight"].filter(lambda weight: not weight.startswith("-")),
}


@st.composite
def well_formed_commands(draw):
    """A subcommand with each required flag and some optional ones, in any order, all values valid."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS.keys() - {"bogus"})))
    values = {**WELL_FORMED_VALUES, "--kind": KINDS.get(command)}
    argv = [command]
    for flag in draw(st.permutations(COMMAND_FLAGS[command])):
        if flag not in OPTIONAL_FLAGS or draw(st.booleans()):
            argv += [flag] if values.get(flag) is None else [flag, draw(values[flag])]
    return argv


@st.composite
def respelled_commands(draw):
    """A well-formed command with one flag written as --flag=value or abbreviated, one value
    starting with '-', or -h put in."""
    argv = draw(well_formed_commands())
    at = draw(st.sampled_from([at for at, token in enumerate(argv) if token.startswith("--")]))
    flag, has_value = argv[at], at + 1 < len(argv) and not argv[at + 1].startswith("-")
    spelling = draw(st.sampled_from(["=", "dash", "abbreviation", "help"]))
    if spelling == "=" and has_value:
        argv[at:at + 2] = [f"{flag}={argv[at + 1]}"]
    elif spelling == "dash" and has_value:
        argv[at + 1] = "-" + argv[at + 1]
    elif spelling == "abbreviation" and len(flag) > 3:
        argv[at] = flag[:draw(st.integers(3, len(flag) - 1))]
    else:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(["-h", "--help"])))
    return argv


PARSER = detstrata.cli.build_parser()


@settings(max_examples=400, deadline=None)
@given(argument_vectors() | well_formed_commands() | respelled_commands())
# values starting with '-' that argparse reads as a flag, not as a negative number
@example(["character", "--family", "symm", "--n", "2", "--p", "1", "--weight", "-1,0"])
@example(["verify", "--family", "symm", "--max", "-1_0"])
def test_reader_gives_none_or_what_argparse_gives(argv):
    args = detstrata.cli._read(argv)
    assert args is None or vars(args) == vars(PARSER.parse_args(argv))


@settings(max_examples=200, deadline=None)
@given(well_formed_commands())
def test_reader_reads_every_well_formed_command(argv):
    args = detstrata.cli._read(argv)
    assert args is not None and vars(args) == vars(PARSER.parse_args(argv))


class TestReaderLiveness:
    """Well-formed command lines never build the argparse parser."""

    WELL_FORMED = [
        # the bench's forms: derham --check per stratum, and the closed tables
        ["derham", "--family", "general", "--n", "5", "--m", "7", "--p", "2", "--check"],
        ["table", "--family", "symm", "--n", "10", "--kind", "ic", "--format", "json"],
        ["table", "--family", "general", "--n", "6", "--m", "8", "--kind", "chi", "--format", "csv"],
        ["table", "--family", "skew", "--n", "5", "--kind", "micro", "--signed"],
        ["derham", "--family", "skew", "--n", "6", "--p", "1", "--method", "enum"],
        ["plethysm", "--kind", "cauchy", "--n", "2", "--m", "3", "--i", "2"],
        ["character", "--family", "symm", "--n", "2", "--p", "1", "--weight", "1,0"],
        ["verify", "--family", "skew", "--max", "4"],
    ]

    def test_in_process_commands_build_no_parser(self, capsys, monkeypatch):
        detstrata.cli._parser.cache_clear()
        for argv in self.WELL_FORMED:
            assert main(argv) == 0, argv
        monkeypatch.setattr(sys, "argv", ["detstrata", *self.WELL_FORMED[0]])
        assert main() == 0
        capsys.readouterr()
        assert detstrata.cli._parser.cache_info().misses == 0

    def test_python_m_builds_no_parser(self):
        """``python -m detstrata.cli`` answers the same where argparse cannot build a parser.

        ``runpy.run_module`` is what ``python -m`` runs; with ``add_subparsers``
        deleted, building the parser would end in a traceback.
        """
        argv = self.WELL_FORMED[0]
        guarded = ("import argparse, runpy\n"
                   "del argparse.ArgumentParser.add_subparsers\n"
                   "runpy.run_module('detstrata.cli', run_name='__main__', alter_sys=True)\n")
        plain, guarded = (
            subprocess.run([sys.executable, *how, *argv], capture_output=True, text=True, timeout=120,
                           env={**os.environ, "PYTHONPATH": SRC})
            for how in (["-m", "detstrata.cli"], ["-c", guarded])
        )
        assert plain.returncode == guarded.returncode == 0
        assert plain.stderr == guarded.stderr == ""
        assert plain.stdout == guarded.stdout and plain.stdout.startswith("enum: ")


FAMILY_SIZES = {"general": st.integers(1, 9), "symm": st.integers(1, 14), "skew": st.integers(2, 14)}


@st.composite
def closed_route_commands(draw):
    """A valid ``table --kind ic`` or ``derham --method closed|both`` command and its space."""
    family = draw(st.sampled_from(sorted(FAMILY_SIZES)))
    n = draw(FAMILY_SIZES[family])
    if family == "general":
        m = draw(st.integers(n, 10))
        space, flags = MatrixSpace.general(m, n), ["--m", str(m)]
    else:
        space = MatrixSpace.symmetric(n) if family == "symm" else MatrixSpace.skew(n)
        flags = []
    flags = ["--family", family, "--n", str(n), *flags]
    if draw(st.booleans()):
        fmt = draw(st.sampled_from(["text", "json", "csv"]))
        return ["table", *flags, "--kind", "ic", "--format", fmt], space
    p = draw(st.sampled_from(list(space.strata)))
    method = draw(st.sampled_from(
        [[], ["--method", "closed"], ["--method", "both"], ["--check"], ["--method", "both", "--check"]]
    ))
    return ["derham", *flags, "--p", str(p), *method], space


@settings(max_examples=200, deadline=None)
@given(closed_route_commands())
def test_closed_route_commands_print_the_library_values(command):
    """Valid commands of the closed route exit 0 and print exactly the library's polynomials."""
    argv, space = command
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    if argv[0] == "table":
        fmt = argv[-1]
        expected = reference_ic_json(space) + "\n" if fmt == "json" else reference_ic_table(space, fmt)
    else:
        p = int(argv[argv.index("--p") + 1])
        expected = f"closed: {inv_derham_gf_closed(space, p)}\n"
        if "both" in argv or "--check" in argv:
            expected = f"enum: {inv_derham_gf_enum(space, p)}\n" + expected
    assert out.getvalue() == expected, argv
