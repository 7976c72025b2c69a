import dataclasses
import json
import math

import pytest

from ueigen import (
    ALGORITHMS,
    ComplexTensor,
    SolverConfig,
    SolverError,
    catalog,
    is_symmetric,
    tensor_from_json,
    tensor_to_json,
)
import ueigen.cli
from ueigen.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_catalog_fixture_json(self, capsys):
        code, out, _ = run(
            capsys,
            "solve", "--catalog", "example_4_1", "--algo", "gauss-seidel",
            "--starts", "10", "--tol", "1e-9", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["lambda"] == pytest.approx(0.8165, abs=5e-4)
        assert payload["gme"] == pytest.approx(0.6058, abs=5e-4)
        assert payload["status"] == "converged"
        assert payload["algorithm"] == "gauss_seidel"
        assert len(payload["factors"]) == 3

    def test_joint_algorithm_table(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--catalog", "example_4_2", "--algo", "joint",
            "--starts", "5", "--seed", "1",
        )
        assert code == 0
        assert "0.5774" in out
        assert "GME" in out

    def test_zero_tensor_file(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"dims": [2, 2, 2], "entries": []}))
        code, _, err = run(capsys, "solve", "--file", str(path))
        assert code == 4
        assert "zero eigenvalue" in err

    def test_dims_over_size_budget(self, capsys, tmp_path):
        # A dense 2000^3 tensor would take 119 GiB; only the dims are read.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"dims": [2000, 2000, 2000], "entries": []}))
        code, _, err = run(capsys, "solve", "--file", str(path))
        assert code == 2
        assert "over the 2 GiB limit" in err

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dims": [2, 2], "entries": [')
        code, _, err = run(capsys, "solve", "--file", str(path))
        assert code == 2
        assert "line" in err

    def test_malformed_entry_named(self, capsys, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"dims": [2], "entries": [0.6, 0.8]}))
        code, _, err = run(capsys, "solve", "--file", str(path))
        assert code == 2
        assert 'entries[0] must be {"idx": [...], "re": x, "im": y}, got 0.6' in err

    @pytest.mark.parametrize("dims", [[2.7, 2], [True, 2], "22"])
    def test_dims_not_a_list_of_ints(self, capsys, tmp_path, dims):
        # int() of each would read the dims of some other tensor.
        path = tmp_path / "dims.json"
        entries = [{"idx": [1, 1], "re": 1.0, "im": 0.0}]
        path.write_text(json.dumps({"dims": dims, "entries": entries}))
        code, _, err = run(capsys, "solve", "--file", str(path))
        assert code == 2
        assert "'dims' must be a list of ints" in err

    def test_unknown_catalog_id_lists_valid(self, capsys):
        code, _, err = run(capsys, "solve", "--catalog", "nope")
        assert code == 2
        assert "example_4_1" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve", "--file", str(tmp_path / "absent.json"))
        assert code == 2

    def test_infinite_tol_rejected(self, capsys):
        # an infinite tol would pass the stop rule at once with a wrong lambda
        code, out, err = run(capsys, "solve", "--catalog", "example_4_1", "--tol", "inf")
        assert code == 2
        assert "tol" in err
        assert out == ""

    def test_embed_at_loose_tol_converges(self, capsys):
        # Embed's stop is judged by the residual rule of joint and
        # Gauss-Seidel, so a loose tol gives a pair as loose as the tol.
        code, out, _ = run(
            capsys, "solve", "--catalog", "example_4_1", "--algo", "embed",
            "--tol", "3e-3", "--starts", "3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "converged"
        assert payload["lambda"] == pytest.approx(0.8165, abs=3e-3)

    @pytest.mark.parametrize("algo", ["joint", "gauss-seidel"])
    def test_order_one_tensor(self, capsys, tmp_path, algo):
        # an order-1 tensor's only product state is a unit vector: lambda = |T|
        path = tmp_path / "v.json"
        entries = [{"idx": [1], "re": 0.6, "im": 0.0}, {"idx": [2], "re": 0.8, "im": 0.0}]
        path.write_text(json.dumps({"dims": [2], "entries": entries}))
        code, out, _ = run(
            capsys, "solve", "--file", str(path), "--algo", algo, "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["lambda"] == pytest.approx(1.0, abs=1e-9)
        assert payload["status"] == "converged"

    def test_tensor_file_round_trip(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        entries = [
            {"idx": [1, 1, 2], "re": math.sqrt(1 / 3), "im": 0.0},
            {"idx": [2, 1, 1], "re": math.sqrt(2 / 3), "im": 0.0},
        ]
        path.write_text(json.dumps({"dims": [2, 2, 2], "entries": entries}))
        code, out, _ = run(
            capsys, "solve", "--file", str(path), "--format", "json", "--starts", "5"
        )
        assert code == 0
        assert json.loads(out)["lambda"] == pytest.approx(0.8165, abs=5e-4)


    def test_stall_exits_three(self, capsys):
        # An over-damped shift scale moves the iterate so little that the
        # stop rule passes with a residual near 0.014: not an eigenpair.
        code, out, _ = run(
            capsys, "solve", "--catalog", "example_4_1", "--algo", "joint",
            "--alpha", "300", "--tol", "1e-4", "--starts", "2", "--seed", "1",
            "--format", "json",
        )
        assert code == 3
        payload = json.loads(out)
        assert payload["status"] == "stalled"
        assert payload["residual"] > 100 * 1e-9


    @pytest.mark.parametrize("algo", ["embed", "joint"])
    def test_loose_tol_finds_the_largest_eigenvalue(self, capsys, algo):
        # A loose tol must still reach the largest eigenvalue, 1/sqrt(3).
        code, out, _ = run(
            capsys, "solve", "--catalog", "example_4_7", "--algo", algo,
            "--tol", "3e-3", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["lambda"] == pytest.approx(math.sqrt(1 / 3), abs=5e-4)

    def test_scaled_state_converges(self, capsys, tmp_path):
        # example_4_1 times 1e3: the residual scales with A, so a converged
        # solve ends near 2.5e-7, above 100 * tol but not a stall.
        path = tmp_path / "scaled.json"
        scaled = ComplexTensor(1e3 * catalog.example_4_1().tensor.data)
        path.write_text(json.dumps(tensor_to_json(scaled)))
        code, out, _ = run(
            capsys, "solve", "--file", str(path), "--starts", "3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "converged"
        assert payload["lambda"] == pytest.approx(1e3 * math.sqrt(2 / 3), rel=1e-12)

    def test_overflowing_tensor_is_a_numerical_failure(self, capsys):
        # A shift scale of 1e300 overflows the iteration: exit 4, not an
        # input error.
        with pytest.warns(RuntimeWarning):
            code, out, err = run(
                capsys, "solve", "--catalog", "example_4_1", "--algo", "joint",
                "--alpha", "1e300", "--starts", "2",
            )
        assert code == 4
        assert out == ""
        assert "numerical failure" in err and "overflowed" in err


class TestDeterminism:
    def test_identical_json_modulo_timing(self, capsys):
        argv = [
            "solve", "--catalog", "example_4_1", "--seed", "11",
            "--starts", "4", "--format", "json",
        ]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        p1, p2 = json.loads(out1), json.loads(out2)
        p1.pop("timing"), p2.pop("timing")
        assert p1 == p2


class TestLambdaAboveOne:
    """A state whose best lambda exceeds 1 is a solver fault: exit 4."""

    @pytest.fixture(autouse=True)
    def inflated(self, monkeypatch):
        real = ueigen.cli.multi_start

        def fake(tensor, cfg):
            result = real(tensor, cfg)
            best = dataclasses.replace(result.best, eigenvalue=1.5)
            return dataclasses.replace(result, best=best)

        monkeypatch.setattr(ueigen.cli, "multi_start", fake)

    def test_solve(self, capsys):
        code, out, err = run(
            capsys, "solve", "--catalog", "example_4_1", "--starts", "2"
        )
        assert code == 4
        assert out == ""
        assert "exceeds 1" in err

    def test_bench(self, capsys):
        code, _, err = run(
            capsys, "bench", "--catalog", "example_4_1", "--starts", "2",
            "--algos", "joint,gauss-seidel",
        )
        assert code == 4
        assert "exceeds 1" in err

    def test_tables(self, capsys):
        code, out, _ = run(capsys, "tables", "--tables", "1", "--starts", "1")
        assert code == 4
        rows = [l for l in out.splitlines() if l.startswith("example_4_1")]
        assert len(rows) == 3
        assert all("failed" in row and "exceeds 1" in row for row in rows)


class TestBench:
    def test_all_three_agree(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--catalog", "example_4_1", "--starts", "5",
            "--seed", "0",
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("Algorithm")]
        assert len(lines) == 3
        for line in lines:
            assert "0.8165" in line

    def test_single_algorithm(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--catalog", "trig_5", "--algos", "gauss-seidel",
            "--starts", "5",
        )
        assert code == 0
        rows = [l for l in out.splitlines() if l.startswith("gauss-seidel")]
        assert len(rows) == 1
        assert "0.7815" in rows[0]

    def test_unknown_algorithm(self, capsys):
        code, _, err = run(
            capsys, "bench", "--catalog", "example_4_1", "--algos", "qr"
        )
        assert code == 2
        assert "unknown algorithm" in err

    def test_empty_algorithm_list(self, capsys):
        code, out, err = run(
            capsys, "bench", "--catalog", "example_4_1", "--algos", ","
        )
        assert code == 2
        assert "--algos" in err
        assert out == ""

    def test_repeated_algorithm(self, capsys):
        code, out, err = run(
            capsys, "bench", "--catalog", "example_4_1", "--algos", "joint,gauss-seidel,joint"
        )
        assert code == 2
        assert "'joint'" in err and "more than once" in err
        assert out == ""


class TestEmbed:
    def test_two_by_two(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps(
                {
                    "dims": [2, 2],
                    "entries": [{"idx": [1, 2], "re": 1.0, "im": 0.5}],
                }
            )
        )
        code, out, _ = run(capsys, "embed", "--file", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["dims"] == [4, 4]
        assert payload["source_dims"] == [2, 2]
        embedded = tensor_from_json({k: v for k, v in payload.items() if k != "source_dims"})
        assert is_symmetric(embedded, 1e-12)

    def test_embedding_over_size_budget(self, capsys, tmp_path):
        # 13 qubits embed into 26^13 entries; the size check fires before
        # any allocation and before the 13! block permutations.
        path = tmp_path / "q13.json"
        state = catalog.random_state((2,) * 13, seed=0)
        path.write_text(json.dumps(tensor_to_json(state.tensor)))
        code, out, err = run(capsys, "embed", "--file", str(path))
        assert code == 2
        assert out == ""
        assert "symmetric embedding" in err and "over the 2 GiB limit" in err

    def test_catalog_state(self, capsys):
        code, out, _ = run(capsys, "embed", "--catalog", "example_4_1")
        assert code == 0
        payload = json.loads(out)
        assert payload["dims"] == [6, 6, 6]
        # m! = 6 copies of each of the two source amplitudes
        assert len(payload["entries"]) == 12

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "sym.json"
        code, out, _ = run(
            capsys, "embed", "--catalog", "example_4_1", "--output", str(out_path)
        )
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["dims"] == [6, 6, 6]

    def test_unwritable_output(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "x.json"
        code, out, err = run(
            capsys, "embed", "--catalog", "example_4_1", "--output", str(out_path)
        )
        assert code == 2
        assert f"cannot write {out_path}" in err
        assert out == ""


class TestTables:
    def test_table_one_row(self, capsys):
        code, out, _ = run(capsys, "tables", "--tables", "1", "--starts", "5")
        assert code == 0
        assert "Table 1" in out
        rows = [l for l in out.splitlines() if l.startswith("example_4_1")]
        assert len(rows) == 3
        for row in rows:
            assert "0.8165" in row and "0.6058" in row

    def test_invalid_table(self, capsys):
        code, _, err = run(capsys, "tables", "--tables", "9")
        assert code == 2

    def test_non_numeric_table(self, capsys):
        code, out, err = run(capsys, "tables", "--tables", "abc")
        assert code == 2
        assert "--tables" in err and "[1, 2, 3, 4]" in err
        assert "invalid literal" not in err
        assert out == ""

    def test_empty_table_list(self, capsys):
        code, out, err = run(capsys, "tables", "--tables", "")
        assert code == 2
        assert "--tables" in err
        assert out == ""

    def test_invalid_solver_flag_prints_nothing(self, capsys):
        code, out, err = run(capsys, "tables", "--tables", "1", "--tol", "nan")
        assert code == 2
        assert "tol" in err
        assert out == ""


class TestOneRowFormat:
    """solve, bench and tables print a result record as the same row."""

    @staticmethod
    def untimed_row(out, prefix):
        (row,) = [l for l in out.splitlines() if l.startswith(prefix)]
        return row.rsplit(None, 1)[0]

    def test_solve_bench_and_tables_rows_agree(self, capsys):
        common = ("--starts", "2", "--seed", "0")
        code, solve_out, _ = run(capsys, "solve", "--catalog", "example_4_1", *common)
        assert code == 0
        code, bench_out, _ = run(
            capsys, "bench", "--catalog", "example_4_1", "--algos", "gauss-seidel", *common
        )
        assert code == 0
        code, tables_out, _ = run(capsys, "tables", "--tables", "1", *common)
        assert code == 0
        row = self.untimed_row(solve_out, "gauss-seidel")
        assert row == self.untimed_row(bench_out, "gauss-seidel")
        fixture = "example_4_1".ljust(14)
        assert self.untimed_row(tables_out, fixture + "gauss-seidel") == fixture + row


class TestSolverDefaults:
    """With no solver flags, every command solves with SolverConfig()'s values."""

    @pytest.fixture
    def configs(self, monkeypatch):
        seen = []

        def record_only(tensor, cfg):
            seen.append(cfg)
            raise SolverError("not solved")

        monkeypatch.setattr(ueigen.cli, "multi_start", record_only)
        return seen

    @pytest.mark.parametrize(
        "argv, algorithm",
        [
            (["solve"], "gauss_seidel"),
            (["bench", "--algos", "joint"], "joint"),
            (["oracle", "--samples", "1"], "gauss_seidel"),
        ],
    )
    def test_command(self, capsys, configs, argv, algorithm):
        code, _, _ = run(capsys, *argv, "--catalog", "example_4_1")
        assert code == 4
        assert configs == [SolverConfig(algorithm=algorithm)]

    def test_tables(self, capsys, configs):
        code, _, _ = run(capsys, "tables", "--tables", "1,3")
        assert code == 4
        assert configs == [SolverConfig(algorithm=a) for a in ALGORITHMS] * 2


class TestCatalogCommand:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0
        assert "example_4_1" in out
        assert "trig_10" in out

    def test_dump_round_trip(self, capsys):
        code, out, _ = run(capsys, "catalog", "dump", "example_4_1")
        assert code == 0
        tensor = tensor_from_json(json.loads(out))
        assert tensor.dims == (2, 2, 2)
        assert tensor.data[0, 0, 1] == pytest.approx(math.sqrt(1 / 3))

    def test_dump_unknown(self, capsys):
        code, _, err = run(capsys, "catalog", "dump", "missing")
        assert code == 2
        assert "valid ids" in err


class TestOracleCommand:
    def test_four_term_tensor(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--catalog", "example_4_7", "--samples", "2000",
            "--starts", "3",
        )
        assert code == 0
        assert "certified" in out
        assert "[0.577350, 0.577350]" in out
        assert "MISMATCH" not in out

    def test_matrix_gets_certified_row(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps(
                {
                    "dims": [2, 2],
                    "entries": [
                        {"idx": [1, 1], "re": 0.6, "im": 0.0},
                        {"idx": [2, 2], "re": 0.8, "im": 0.0},
                    ],
                }
            )
        )
        code, out, _ = run(capsys, "oracle", "--file", str(path), "--samples", "2000")
        assert code == 0
        assert "certified" in out
        assert "[0.800000, 0.800000]" in out

    def test_uncertified_interval_brackets_solver(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--catalog", "example_4_2", "--samples", "2000",
            "--starts", "3",
        )
        assert code == 0
        assert "certified" not in out
        assert ", 0.577350]  ok" in out

    @pytest.mark.parametrize("s", [1e150, 1e-300, 1e200])
    def test_bounds_are_judged_on_the_tensors_scale(self, capsys, tmp_path, s):
        # The bounds and the slack scale with the tensor, so example_4_2's
        # interval is consistent and, at 1e-300, still not a point. At 1e200
        # the tensor's norm overflowed with a RuntimeWarning. Six significant
        # digits keep lambda and the exact upper end readable: with six
        # decimals they read 0.000000 at 1e-300 and 150 digits at 1e150.
        data = s * catalog.build("example_4_2").tensor.data
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(tensor_to_json(ComplexTensor(data))))
        code, out, _ = run(capsys, "oracle", "--file", str(path), "--samples", "2000")
        assert code == 0
        assert "MISMATCH" not in out and "certified" not in out
        shown = f"{s * math.sqrt(1 / 3):#.6g}"  # 5.77350e+149 at 1e150
        assert f"lambda = {shown}" in out and f", {shown}]  ok" in out
        assert "0.000000" not in out

    def test_invalid_samples_rejected_before_solving(self, capsys, monkeypatch):
        def no_solve(tensor, cfg):
            raise AssertionError("solver ran")

        monkeypatch.setattr(ueigen.cli, "multi_start", no_solve)
        code, out, err = run(capsys, "oracle", "--catalog", "example_4_1", "--samples", "0")
        assert code == 2
        assert "--samples" in err
        assert out == ""
