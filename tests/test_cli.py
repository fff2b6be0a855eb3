"""End-to-end command-line behavior: outputs, exit codes, reproducibility."""

import json

import numpy as np
import pytest

from accumtest import cli


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_pvalue_csv(tmp_path, rows, header="p", name="pvals.csv"):
    path = tmp_path / name
    lines = [header] + [
        ",".join(str(cell) for cell in (row if isinstance(row, tuple) else (row,)))
        for row in rows
    ]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def write_null_matrix_csv(tmp_path, seed, n=500, m_c=3, m_l=3, m_h=2):
    rng = np.random.Generator(np.random.Philox(key=seed))
    header = (
        ["gene_id"]
        + [f"C{j}" for j in range(m_c)]
        + [f"L{j}" for j in range(m_l)]
        + [f"H{j}" for j in range(m_h)]
    )
    lines = [",".join(header)]
    for i in range(n):
        values = rng.normal(size=m_c + m_l + m_h)
        lines.append(",".join([f"g{i}"] + [repr(float(v)) for v in values]))
    path = tmp_path / "matrix.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestCmdTest:
    def test_forwardstop_three_rows(self, tmp_path, capsys):
        path = write_pvalue_csv(tmp_path, [0.1, 0.2, 0.3])
        code, out, _ = run_cli(
            ["test", path, "--method", "forwardstop", "--alpha", "0.25"], capsys
        )
        assert code == 0
        assert "k_hat = 3" in out

    def test_seqstep_five_values(self, tmp_path, capsys):
        path = write_pvalue_csv(tmp_path, [0.01, 0.95, 0.02, 0.8, 0.9])
        code, out, _ = run_cli(
            ["test", path, "--method", "seqstep:C=2", "--alpha", "0.5"], capsys
        )
        assert code == 0
        assert "k_hat = 1" in out

    def test_truth_columns_reported(self, tmp_path, capsys):
        path = write_pvalue_csv(
            tmp_path,
            [(0.01, 0), (0.95, 1), (0.02, 0), (0.8, 1), (0.9, 1)],
            header="p,is_null",
        )
        code, out, _ = run_cli(
            ["test", path, "--method", "seqstep:C=2", "--alpha", "0.5"], capsys
        )
        assert code == 0
        assert "k_hat = 1" in out
        assert "fdp = 0" in out
        assert "power = 0.5" in out
        assert "mfdp = 0" in out

    def test_bad_mfdp_constant_prints_no_partial_report(self, tmp_path, capsys):
        path = write_pvalue_csv(
            tmp_path, [(0.01, 0), (0.95, 1), (0.02, 0)], header="p,is_null"
        )
        args = ["test", path, "--method", "forwardstop", "--alpha", "0.2"]
        for bad in ("nan", "-1"):
            code, out, err = run_cli(args + ["--mfdp-c", bad], capsys)
            assert code == 4 and out == "" and err.startswith("error:")

    def test_path_csv_round_trip(self, tmp_path, capsys):
        path = write_pvalue_csv(tmp_path, [0.01, 0.95, 0.02, 0.8, 0.9])
        out_path = str(tmp_path / "path.csv")
        args = ["test", path, "--method", "seqstep:C=2", "--alpha", "0.5"]
        code, first_out, _ = run_cli(args + ["--out", out_path], capsys)
        assert code == 0
        code, second_out, _ = run_cli(
            ["test", out_path, "--method", "seqstep:C=2", "--alpha", "0.5"], capsys
        )
        assert code == 0
        assert "k_hat = 1" in first_out and "k_hat = 1" in second_out

    def test_shifted_path_round_trip(self, tmp_path, capsys):
        path = write_pvalue_csv(tmp_path, [1 / 252, 250 / 252, 252 / 252])
        out_path = str(tmp_path / "path.csv")
        code, first_out, _ = run_cli(
            [
                "test", path,
                "--method", "forwardstop",
                "--alpha", "0.25",
                "--shift-grid", "252",
                "--out", out_path,
            ],
            capsys,
        )
        assert code == 0
        code, second_out, _ = run_cli(
            ["test", out_path, "--method", "forwardstop", "--alpha", "0.25"], capsys
        )
        assert code == 0
        k_first = first_out.splitlines()[0]
        assert k_first.startswith("k_hat = ")
        assert second_out.splitlines()[0] == k_first

    def test_writes_manifest_next_to_output(self, tmp_path, capsys):
        path = write_pvalue_csv(tmp_path, [0.1, 0.2])
        out_path = str(tmp_path / "path.csv")
        code, _, _ = run_cli(
            ["test", path, "--method", "forwardstop", "--alpha", "0.25", "--out", out_path],
            capsys,
        )
        assert code == 0
        manifest = json.loads((tmp_path / "path.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "test"
        assert manifest["outputs"] == [out_path]
        assert "--method" in manifest["arguments"]
        assert manifest["parameters"]["alpha"] == 0.25


class TestCmdSimulate:
    def test_hingeexp_leads_at_default_settings(self, capsys):
        code, out, _ = run_cli(["simulate", "--seed", "5"], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        at_two_tenths = {
            row[0]: float(row[2]) for row in rows if float(row[1]) == 0.2
        }
        assert len(at_two_tenths) == 4
        top = at_two_tenths["HingeExp"]
        assert all(top >= value for value in at_two_tenths.values())

    def test_no_signal_means_no_power(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--seed", "8", "--mu2", "0", "--trials", "20"], capsys
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert max(float(row[2]) for row in rows) < 0.1

    def test_single_trial_reruns_are_byte_identical(self, tmp_path, capsys):
        args = [
            "simulate", "--seed", "3", "--trials", "1",
            "--n", "100", "--n-nonnull", "10",
        ]
        first = run_cli(args + ["--out", str(tmp_path / "a")], capsys)
        second = run_cli(args + ["--out", str(tmp_path / "b")], capsys)
        assert first[0] == 0 and second[0] == 0
        a = (tmp_path / "a_summary.csv").read_bytes()
        b = (tmp_path / "b_summary.csv").read_bytes()
        assert a == b
        assert (tmp_path / "a_paths.csv").read_bytes() == (
            tmp_path / "b_paths.csv"
        ).read_bytes()

    def test_worker_count_invisible_in_output(self, tmp_path, capsys):
        base = [
            "simulate", "--seed", "11", "--trials", "6",
            "--n", "120", "--n-nonnull", "12",
        ]
        run_cli(base + ["--workers", "1", "--out", str(tmp_path / "w1")], capsys)
        run_cli(base + ["--workers", "2", "--out", str(tmp_path / "w2")], capsys)
        assert (tmp_path / "w1_summary.csv").read_bytes() == (
            tmp_path / "w2_summary.csv"
        ).read_bytes()

    def test_seed_is_mandatory(self, capsys):
        code, _, err = run_cli(["simulate", "--trials", "2"], capsys)
        assert code == 2

    def test_no_paths_flag_skips_path_table(self, tmp_path, capsys):
        code, _, _ = run_cli(
            [
                "simulate", "--seed", "3", "--trials", "1", "--n", "60",
                "--n-nonnull", "6", "--no-paths", "--out", str(tmp_path / "r"),
            ],
            capsys,
        )
        assert code == 0
        assert (tmp_path / "r_summary.csv").exists()
        assert not (tmp_path / "r_paths.csv").exists()


class TestCmdPower:
    def test_interior_threshold(self, capsys):
        code, out, _ = run_cli(
            ["power", "--curve", "f:0,0.5;1,0.3", "--alpha", "0.8", "--mu", "0.5"],
            capsys,
        )
        assert code == 0
        lines = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(lines["T"]) == pytest.approx(0.5, abs=1e-9)
        assert float(lines["power"]) == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_no_rejections_case(self, capsys):
        code, out, _ = run_cli(
            ["power", "--curve", "f:0,0.5;1,0.3", "--alpha", "0.2", "--mu", "0.1"],
            capsys,
        )
        assert code == 0
        lines = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(lines["T"]) == 0.0
        assert float(lines["power"]) == 0.0

    def test_saturated_case(self, capsys):
        code, out, _ = run_cli(
            ["power", "--curve", "f:0,1;1,1", "--alpha", "0.5", "--mu", "0.2"],
            capsys,
        )
        assert code == 0
        lines = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(lines["T"]) == 1.0
        assert float(lines["power"]) == 1.0

    def test_invalid_curve_is_a_numerical_error(self, capsys):
        code, _, err = run_cli(
            ["power", "--curve", "f:0,0.2;1,0.9", "--alpha", "0.5", "--mu", "0.5"],
            capsys,
        )
        assert code == 4
        assert "error:" in err


class TestCmdDosage:
    def test_counts_monotone_and_zero_at_alpha_zero(self, tmp_path, capsys):
        matrix = write_null_matrix_csv(tmp_path, seed=42)
        code, out, _ = run_cli(
            ["dosage", matrix, "--alpha-grid", "0,0.1,0.2"], capsys
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        by_method = {}
        for method, alpha, count in rows:
            by_method.setdefault(method, []).append((float(alpha), int(count)))
        assert len(by_method) == 8
        for method, pairs in by_method.items():
            counts = [c for _, c in sorted(pairs)]
            assert counts == sorted(counts)
            assert dict(pairs)[0.0] == 0

    def test_output_file_and_manifest(self, tmp_path, capsys):
        matrix = write_null_matrix_csv(tmp_path, seed=7, n=40)
        out_path = str(tmp_path / "counts.csv")
        code, _, _ = run_cli(
            ["dosage", matrix, "--alpha-grid", "0.1", "--out", out_path], capsys
        )
        assert code == 0
        lines = (tmp_path / "counts.csv").read_text().strip().splitlines()
        assert lines[0] == "method,alpha,discoveries"
        assert len(lines) == 9
        manifest = json.loads((tmp_path / "counts.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "dosage"
        assert manifest["inputs"] == [matrix]

    def test_missing_group_names_it(self, tmp_path, capsys):
        path = tmp_path / "nohigh.csv"
        path.write_text("gene_id,C1,C2,L1,L2\ng1,1,2,3,4\n")
        code, _, err = run_cli(["dosage", str(path)], capsys)
        assert code == 3
        assert "high" in err


class TestReplay:
    def test_replay_reproduces_bytes(self, tmp_path, capsys):
        args = [
            "simulate", "--seed", "21", "--trials", "2", "--n", "80",
            "--n-nonnull", "8", "--out", str(tmp_path / "orig"),
        ]
        assert run_cli(args, capsys)[0] == 0
        original = (tmp_path / "orig_summary.csv").read_bytes()
        manifest_path = str(tmp_path / "orig.manifest.json")
        (tmp_path / "orig_summary.csv").unlink()
        code, _, _ = run_cli(["--replay", manifest_path], capsys)
        assert code == 0
        assert (tmp_path / "orig_summary.csv").read_bytes() == original

    def test_replay_requires_manifest_argument(self, capsys):
        assert run_cli(["--replay"], capsys)[0] == 2

    def test_replay_missing_file(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["--replay", str(tmp_path / "nope.json")], capsys
        )
        assert code == 3
        assert "error:" in err


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert run_cli([], capsys)[0] == 2

    def test_unknown_flag_is_usage_error(self, tmp_path, capsys):
        path = write_pvalue_csv(tmp_path, [0.1])
        code, _, _ = run_cli(
            ["test", path, "--method", "forwardstop", "--alpha", "0.2", "--bogus"],
            capsys,
        )
        assert code == 2

    def test_bad_alpha_list_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            ["simulate", "--seed", "1", "--alpha-grid", "0.1,zebra"], capsys
        )
        assert code == 2

    def test_empty_pvalue_file(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        code, _, err = run_cli(
            ["test", str(path), "--method", "forwardstop", "--alpha", "0.2"], capsys
        )
        assert code == 3
        assert "error:" in err

    def test_missing_input_file(self, tmp_path, capsys):
        code, _, _ = run_cli(
            [
                "test", str(tmp_path / "ghost.csv"),
                "--method", "forwardstop", "--alpha", "0.2",
            ],
            capsys,
        )
        assert code == 3

    def test_unknown_method_string(self, tmp_path, capsys):
        path = write_pvalue_csv(tmp_path, [0.1])
        code, _, err = run_cli(
            ["test", path, "--method", "mystery", "--alpha", "0.2"], capsys
        )
        assert code == 3
        assert "method" in err or "mystery" in err

    def test_out_of_range_pvalue(self, tmp_path, capsys):
        path = write_pvalue_csv(tmp_path, [0.5, 1.5])
        code, _, err = run_cli(
            ["test", path, "--method", "forwardstop", "--alpha", "0.2"], capsys
        )
        assert code == 3
        assert "error:" in err

    def test_alpha_outside_open_interval(self, tmp_path, capsys):
        path = write_pvalue_csv(tmp_path, [0.1])
        code, _, _ = run_cli(
            ["test", path, "--method", "forwardstop", "--alpha", "1.0"], capsys
        )
        assert code == 4

    def test_off_grid_shift_input(self, tmp_path, capsys):
        path = write_pvalue_csv(tmp_path, [0.37])
        code, _, _ = run_cli(
            [
                "test", path, "--method", "forwardstop",
                "--alpha", "0.2", "--shift-grid", "4",
            ],
            capsys,
        )
        assert code == 3


class TestValidateAndVersion:
    def test_validate_passes(self, capsys):
        code, out, _ = run_cli(["validate"], capsys)
        assert code == 0
        assert "ok" in out
        assert "FAIL" not in out

    def test_version_flag(self, capsys):
        code, out, _ = run_cli(["--version"], capsys)
        assert code == 0
        assert out.startswith("accumtest ")
