"""End-to-end command-line behavior: outputs, exit codes, reproducibility."""

import dataclasses
import hashlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from accumtest import (
    DEFAULT_DOSAGE_ALPHAS,
    AccumTestError,
    SimConfig,
    _tails,
    child_rng,
    cli,
    estimated_fdp_path,
    parse_spec,
    seqtest,
    shift_discrete_pvalues,
    simlab,
    validation,
)

from test_layers import package_env


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
        labelled = write_pvalue_csv(
            tmp_path, [(0.01, 0), (0.95, 1), (0.02, 0)], header="p,is_null"
        )
        # Without is_null no mfdp is computed, but the constant is still checked.
        unlabelled = write_pvalue_csv(tmp_path, [0.01, 0.95], name="plain.csv")
        for path in (labelled, unlabelled):
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

    def test_shift_grid_maps_k_over_g_to_k_over_g_plus_one(self, tmp_path, capsys):
        path = write_pvalue_csv(tmp_path, [1 / 4, 3 / 4, 4 / 4])
        out_path = tmp_path / "path.csv"
        code, _, _ = run_cli(
            [
                "test", path,
                "--method", "hingeexp:C=2",
                "--alpha", "0.2",
                "--shift-grid", "4",
                "--out", str(out_path),
            ],
            capsys,
        )
        assert code == 0
        written = np.loadtxt(out_path, delimiter=",", skiprows=1, ndmin=2)
        assert written[:, 1].tolist() == [1 / 5, 3 / 5, 4 / 5]
        shifted = shift_discrete_pvalues([0.25, 0.75, 1.0], 4)
        want = estimated_fdp_path(shifted, parse_spec("hingeexp:C=2"))
        assert written[:, 2].tobytes() == want.tobytes()

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


# Digest of the probe bits in test_multi_block_output_bytes_are_pinned.
KERNEL_DIGEST = "2bfa8cf443e5ecf1e7bd3a3bc70f9031dd1dbc84f058ddaea4b521b6e17258aa"

# numpy >= 2 dispatches argsort (and log1p) to AVX-512 kernels under these
# names; with them disabled it takes other kernels.  A numpy that does not
# know a name only raises an ImportWarning, which Python ignores.
OTHER_KERNELS = "X86_V4 AVX512_ICL AVX512_SPR"


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

    def test_oversized_n_exits_4_before_allocation(self, capsys):
        code, out, err = run_cli(
            ["simulate", "--seed", "1", "--n", "100000000000", "--trials", "1",
             "--no-paths"],
            capsys,
        )
        assert (code, out) == (4, "")
        assert err.startswith("error: n = 100000000000 needs ")
        assert len(err.splitlines()) == 1

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

    def test_defaults_are_the_sim_config_defaults(self, tmp_path, capsys):
        prefix = str(tmp_path / "run")
        assert run_cli(["simulate", "--seed", "1", "--out", prefix], capsys)[0] == 0
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        recorded = manifest["parameters"]
        for field in dataclasses.fields(SimConfig):
            if field.name != "seed":
                value = recorded[field.name]
                if isinstance(value, list):
                    value = tuple(value)
                assert value == field.default, field.name

    @pytest.mark.parametrize("option", ["--mu1", "--mu2"])
    def test_nan_mean_is_a_domain_error(self, option, capsys):
        # A NaN --mu1 once gave a table of zeros and exit 0, and a NaN
        # --mu2 the unrelated "p-values must lie in [0, 1]" and exit 3.
        args = ["simulate", "--seed", "1", "--n", "20", "--n-nonnull", "5"]
        code, out, err = run_cli(args + ["--trials", "2", option, "nan"], capsys)
        assert code == 4
        assert out == ""
        assert err == f"error: {option[2:]} must be a number, got nan\n"

    @pytest.mark.parametrize("option", ["--mu1", "--mu2"])
    def test_infinite_mean_is_the_strong_signal_limit(self, option, capsys):
        # Both scores enter through |z|, so the sign of an infinite mean
        # does not matter.
        args = ["simulate", "--seed", "1", "--n", "20", "--n-nonnull", "5"]
        outs = []
        for value in ("inf", "-inf"):
            code, out, _ = run_cli(args + ["--trials", "2", f"{option}={value}"], capsys)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        rows = [line.split(",") for line in outs[0].strip().splitlines()[1:]]
        assert all(0.0 <= float(row[2]) <= 1.0 for row in rows)

    def test_seed_is_mandatory(self, capsys):
        code, _, err = run_cli(["simulate", "--trials", "2"], capsys)
        assert code == 2

    def test_multi_block_output_bytes_are_pinned(self, tmp_path, capsys):
        """Digests of the tables the one-trial-at-a-time engine wrote.

        They hold only where numpy's ``log1p``, the package's ``ndtr``
        (which rests on numpy's ``exp``) and the Philox normal stream give
        the bits they gave when the digests were recorded (numpy 2.4.6,
        x86-64 with AVX-512); elsewhere the test is skipped and the
        block-versus-trial tests in test_simlab.py still hold.
        """
        probe = np.linspace(0.0005, 0.9995, 2000)
        kernels = hashlib.sha256(
            np.log1p(-probe).tobytes()
            + _tails.ndtr(-8.0 * probe).tobytes()
            + child_rng(7, 0).standard_normal(256).tobytes()
        ).hexdigest()
        if kernels != KERNEL_DIGEST:
            pytest.skip("elementwise kernels differ from where the digests were recorded")
        assert simlab._block_rows(300, 4, 9) < 70
        code, _, _ = run_cli(
            ["simulate", "--seed", "7", "--n", "300", "--trials", "70",
             "--out", str(tmp_path / "sim")],
            capsys,
        )
        assert code == 0
        digests = {
            name: hashlib.sha256((tmp_path / f"sim_{name}.csv").read_bytes()).hexdigest()
            for name in ("summary", "paths")
        }
        assert digests == {
            "summary": "1834e4c9d7c8119fc9173fc10a083dc98a53d007da4a1a03fc52ef6d0af1c16f",
            "paths": "926e35c1e67e0e5fabee8baa4e22130e6efcd389ad2db354655502e4e05d0823",
        }

    def test_other_sort_kernels_give_the_same_tables(self, tmp_path, capsys):
        # The engine ranks with numpy's fastest argsort, whose kernel
        # depends on the CPU.  Ranks, cutoffs and true FDP paths must not;
        # the estimated paths may move in the last bits with log1p's kernel.
        args = ["simulate", "--seed", "7", "--n", "300", "--trials", "70"]
        env = package_env()
        env["NPY_DISABLE_CPU_FEATURES"] = OTHER_KERNELS
        proc = subprocess.run(
            [sys.executable, "-m", "accumtest", *args, "--out", "other"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        code, _, _ = run_cli(args + ["--out", str(tmp_path / "here")], capsys)
        assert code == 0
        assert (tmp_path / "other_summary.csv").read_bytes() == (
            tmp_path / "here_summary.csv"
        ).read_bytes()
        other, here = (
            np.loadtxt(tmp_path / f"{name}_paths.csv", delimiter=",", skiprows=1, dtype=str)
            for name in ("other", "here")
        )
        assert other.shape == here.shape == (4 * 300, 4)
        assert np.array_equal(other[:, [0, 1, 3]], here[:, [0, 1, 3]])
        np.testing.assert_allclose(
            other[:, 2].astype(float), here[:, 2].astype(float), rtol=1e-12, atol=0
        )

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

    @pytest.mark.parametrize("curve", ["f:0,nan;1,0.3", "f:0,0.5;nan,0.4;1,0.3"])
    def test_nan_knot_is_a_numerical_error(self, curve, capsys):
        code, out, err = run_cli(
            ["power", "--curve", curve, "--alpha", "0.8", "--mu", "0.5"], capsys
        )
        assert code == 4
        assert out == ""
        assert err.count("error:") == 1 and err.startswith("error:")
        assert "NaN" in err and "Traceback" not in err

    def test_narrow_spike_is_a_numerical_error(self, capsys):
        # The rise spans 1e-5, between the points of any 1e-4 grid.
        spike = "f:0,0.5;0.50002,0.5;0.50003,0.9;0.50004,0.5;1,0.5"
        code, _, err = run_cli(
            ["power", "--curve", spike, "--alpha", "0.5", "--mu", "0.2"], capsys
        )
        assert code == 4
        assert "f rises" in err


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

    def test_row_beyond_the_float_range_is_refused(self, tmp_path, capsys):
        matrix = tmp_path / "wide.csv"
        matrix.write_text(
            "gene_id,C1,C2,L1,L2,H1,H2\n"
            "g1,1,2,3,4,5,6\n"
            "huge,1e308,-1e308,1,2,3,4\n"
        )
        code, out, err = run_cli(["dosage", str(matrix)], capsys)
        assert code == 3
        assert out == ""
        assert err.count("error:") == 1 and "'huge'" in err and "float range" in err

    def test_design_past_the_table_budget_asks_to_subsample(self, tmp_path, capsys):
        matrix = write_null_matrix_csv(tmp_path, seed=3, n=3, m_c=12, m_l=12)
        code, out, err = run_cli(["dosage", matrix], capsys)
        assert code == 4
        assert out == ""
        assert err.count("error:") == 1 and "MiB budget; subsample" in err

    def test_non_finite_value_names_gene_and_sample_column(self, tmp_path, capsys):
        matrix = tmp_path / "nan.csv"
        matrix.write_text(
            "gene_id,C1,C2,L1,L2,H1,H2\n"
            "g0,1,2,3,4,5,6\n"
            "g1,1,2,3,nan,5,6\n"
            "g2,1,inf,3,4,5,6\n"
        )
        code, out, err = run_cli(["dosage", str(matrix)], capsys)
        assert code == 3
        assert out == ""
        assert err.count("error:") == 1
        assert "gene 'g1', sample column 4: expression values must be finite, got nan" in err

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

    def test_manifest_records_the_default_alpha_grid(self, tmp_path, capsys):
        matrix = write_null_matrix_csv(tmp_path, seed=7, n=40)
        out_path = str(tmp_path / "counts.csv")
        assert run_cli(["dosage", matrix, "--out", out_path], capsys)[0] == 0
        manifest = json.loads((tmp_path / "counts.csv.manifest.json").read_text())
        assert tuple(manifest["parameters"]["alpha_grid"]) == DEFAULT_DOSAGE_ALPHAS

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

    @pytest.mark.parametrize("content", ["[1, 2]", '"x"', "null"])
    def test_replay_of_a_manifest_that_is_not_an_object(self, tmp_path, capsys, content):
        # These once ended in a TypeError traceback and exit 1.
        manifest = tmp_path / "m.json"
        manifest.write_text(content)
        code, out, err = run_cli(["--replay", str(manifest)], capsys)
        assert (code, out) == (3, "")
        assert err == f"error: manifest {manifest} has no argument vector\n"

    def test_replay_of_an_array_nested_past_the_recursion_limit(self, tmp_path, capsys):
        # json.load raises RecursionError here, which once ended in a
        # traceback and exit 1.
        manifest = tmp_path / "deep.json"
        manifest.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_cli(["--replay", str(manifest)], capsys)
        assert (code, out) == (3, "")
        assert err.startswith(f"error: cannot replay {manifest}: ")
        assert len(err.splitlines()) == 1


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

    def test_cutoff_scan_check_catches_a_wrong_cutoff(self, monkeypatch):
        validation.check_cutoff_scan()
        monkeypatch.setattr(seqtest, "select_cutoff", lambda path, alpha: 0)
        with pytest.raises(AssertionError, match="cutoff disagrees"):
            validation.check_cutoff_scan()

    def test_version_flag(self, capsys):
        code, out, _ = run_cli(["--version"], capsys)
        assert code == 0
        assert out.startswith("accumtest ")


# Each file and what the reader returns for it: (p values, is_null mask)
# or the end of the error message.  The cells the README lists as
# accepted parse; anything else is reported with its 1-based row.
READER_CASES = [
    # (file text, outcome)
    ("p,is_null\n0.1,1\n\n0.2,0\n", ([0.1, 0.2], [True, False])),
    ("p,is_null\n0.1,1\n \n", "row 3: bad p cell"),
    ("p,is_null\n 0.1 , 1 \n", ([0.1], [True])),
    ('p,is_null\n"0.1","1"\n', ([0.1], [True])),
    ("p,is_null\n0.1,TRUE\n0.2,false\n", ([0.1, 0.2], [True, False])),
    ("p,is_null\n0.1,1.0\n", "row 2: bad is_null cell '1.0'"),
    ("p,is_null\n0.1,2\n", "row 2: bad is_null cell '2'"),
    ("p,is_null\n0.1,+1\n", "row 2: bad is_null cell '+1'"),
    ("p,is_null\n0.1,01\n", "row 2: bad is_null cell '01'"),
    ("p,is_null\n0.1,1\x00\n", "row 2: bad is_null cell '1\\x00'"),
    ("p,is_null\n#,1\n", "row 2: bad p cell"),
    ("p,is_null\n0.1,#\n", "row 2: bad is_null cell '#'"),
    ("p\nnan\n", "p-values must lie in [0, 1]"),
    ("p\n1_0\n", "p-values must lie in [0, 1]"),
    ("p\n0.1_0\n", ([0.1], None)),
    ("p,is_null\n0.1,1,9\n0.2\n", "row 3: missing is_null cell"),
    ("p,is_null\n0.1,1,extra\n0.2,0\n", ([0.1, 0.2], [True, False])),
    ("p,is_null\n", "no p-value rows"),
    ("p,is_null\n\n\n", "no p-value rows"),
    ('name,p\n"a,0.7,1",0.2\n', ([0.2], None)),
    ("p,is_null\r\n0.1,1\r\n0.2,0\r\n", ([0.1, 0.2], [True, False])),
    ("p,is_null\r0.1,1\r0.2,0\r", ([0.1, 0.2], [True, False])),
    ("is_null,p\n1,0.1\n0,0.2\n", ([0.1, 0.2], [True, False])),
    ("P , Is_Null\n0.1,1\n", ([0.1], [True])),
    ("", "empty file"),
    ("q\n0.1\n", "no column named p"),
]


# Files of each route: the header and first row pick loadtxt or the csv
# module, and a later row that loadtxt refuses sends the file to both.
ROUTE_CASES = [
    ("p,is_null\n0.1,1\n0.2,0\n", 1, 0, [True, False]),
    ("p,is_null\n0.1,true\n0.2,FALSE\n", 0, 1, [True, False]),
    ('"p","is_null"\n0.1,1\n0.2,0\n', 0, 1, [True, False]),
    ("p,is_null\n0.1,1\n0.2,0\n0.3,true\n", 1, 1, [True, False, True]),
]


def read_counting_routes(monkeypatch, path):
    """``_read_pvalue_csv`` of ``path`` and the calls it made to each route."""
    calls = {"loadtxt": 0, "rows": 0}

    def counted(key, function):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np, "loadtxt", counted("loadtxt", np.loadtxt))
    monkeypatch.setattr(cli, "_read_pvalue_rows", counted("rows", cli._read_pvalue_rows))
    return calls, cli._read_pvalue_csv(str(path))


class TestPValueReader:
    @pytest.mark.parametrize("text, outcome", READER_CASES)
    def test_outcome(self, tmp_path, text, outcome):
        path = tmp_path / "p.csv"
        path.write_text(text, newline="")
        if isinstance(outcome, str):
            with pytest.raises(AccumTestError) as info:
                cli._read_pvalue_csv(str(path))
            assert str(info.value).endswith(outcome)
        else:
            pvals = cli._read_pvalue_csv(str(path))
            values, mask = outcome
            assert pvals.values.tolist() == values
            got_mask = None if pvals.null_mask is None else pvals.null_mask.tolist()
            assert got_mask == mask

    @pytest.mark.parametrize("text, loadtxt_calls, row_reads, labels", ROUTE_CASES)
    def test_route_is_picked_from_header_and_first_row(
        self, tmp_path, monkeypatch, text, loadtxt_calls, row_reads, labels
    ):
        path = tmp_path / "p.csv"
        path.write_text(text, newline="")
        calls, pvals = read_counting_routes(monkeypatch, path)
        assert calls == {"loadtxt": loadtxt_calls, "rows": row_reads}
        assert pvals.values.tolist() == [0.1, 0.2, 0.3][: len(labels)]
        assert pvals.null_mask.tolist() == labels

    @pytest.mark.parametrize("text, loadtxt_calls, row_reads, labels", ROUTE_CASES)
    def test_byte_order_mark_is_skipped_on_every_route(
        self, tmp_path, monkeypatch, text, loadtxt_calls, row_reads, labels
    ):
        # Spreadsheet programs put a UTF-8 byte-order mark before the
        # header.  It must be skipped on both routes, also through the
        # loadtxt route's tell/seek and its seek back to the start.
        path = tmp_path / "p.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        calls, pvals = read_counting_routes(monkeypatch, path)
        assert calls == {"loadtxt": loadtxt_calls, "rows": row_reads}
        assert pvals.values.tolist() == [0.1, 0.2, 0.3][: len(labels)]
        assert pvals.null_mask.tolist() == labels


# Cells the differential test builds files from, legal and illegal.
P_CELLS = [
    "0.1", "0.25", "1", "0", "1e-3", " 0.5 ", "+0.7", "-0.0", "5e-324", "nan", "inf",
    "0.1_0", "1_0", '"0.3"', '"0.4"x', '0."1"', "", " ", "\t", "#", "abc", "0.1\x00",
    "1.5", "0x1p-3", "٠.١", "\x1c0.2", "0.2\x1f", "\xa00.6", "0.8\r", "0.9\n", '"0.2,5"',
    '"0.8\r"', '"\x1d0.2"', '" 0.3"', ' "0.3"',
]
LABEL_CELLS = [
    "0", "1", "0", "1", "true", "FALSE", "True", " 1 ", "1\x00", "0\x00", "\x00", "10",
    "01", "+1", "1.0", '"1"', '"0"', "", "#", "2", "1\r", '1"', "\xa01",
]
EXTRA_CELLS = ["x", '"a,b"', "", "#", "1", '"q""r"']
HEADERS = [
    "p,is_null", "is_null,p", "P , Is_Null", '"p","is_null"', "name,p,is_null",
    "p", "p,extra", "is_null,x,p",
]
LINE_ENDS = ["\n", "\r\n", "\r"]


def random_pvalue_file(rng) -> str:
    header = HEADERS[rng.integers(len(HEADERS))]
    names = [name.strip().strip('"').lower() for name in header.split(",")]
    end = LINE_ENDS[rng.integers(len(LINE_ENDS))]
    legal = rng.random() < 0.5
    lines = [header]
    for _ in range(rng.integers(0, 6)):
        roll = rng.random()
        if roll < 0.1:
            lines.append("")
            continue
        cells = []
        for name in names:
            if name == "p":
                pool = P_CELLS[:11] if legal else P_CELLS
            elif name == "is_null":
                pool = LABEL_CELLS[:6] if legal else LABEL_CELLS
            else:
                pool = EXTRA_CELLS
            cells.append(pool[rng.integers(len(pool))])
        if roll > 0.8:
            cells.append(EXTRA_CELLS[rng.integers(len(EXTRA_CELLS))])
        if roll > 0.95 and not legal:
            cells.pop(0)
        lines.append(",".join(cells))
    return end.join(lines) + (end if rng.random() < 0.8 else "")


def csv_route(path):
    """Result of the csv route alone, or its error message."""
    with open(path, newline="") as handle:
        try:
            return cli._read_pvalue_rows(str(path), handle)
        except AccumTestError as exc:
            return str(exc)


def same_parse(got, expected) -> bool:
    if isinstance(got, str) or isinstance(expected, str):
        return got == expected
    (values, mask), (want_values, want_mask) = got, expected
    same_mask = (mask is None) == (want_mask is None) and (
        mask is None or mask.tolist() == want_mask.tolist()
    )
    return same_mask and np.asarray(values, float).tobytes() == want_values.tobytes()


def test_loadtxt_route_refuses_or_matches_csv_route(tmp_path):
    rng = np.random.default_rng(20151)
    path = tmp_path / "p.csv"
    fast_reads = 0
    for _ in range(600):
        text = random_pvalue_file(rng)
        path.write_text(text, newline="")
        expected = csv_route(path)
        with open(path, newline="") as handle:
            fast = cli._loadtxt_pvalues(handle)
        if fast is not None:
            fast_reads += 1
            assert same_parse(fast, expected), repr(text)
        try:
            pvals = cli._read_pvalue_csv(str(path))
        except AccumTestError as exc:
            assert str(exc) == expected or (
                not isinstance(expected, str) and "p-values must lie in" in str(exc)
            ), repr(text)
        else:
            got = (pvals.values, pvals.null_mask)
            assert same_parse(got, expected), repr(text)
    # Both routes were exercised.
    assert 100 < fast_reads < 500


def per_cell_fmt(value) -> str:
    """The writer's rule for one cell, applied cell by cell."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def per_cell_csv(header, rows) -> str:
    """Reference CSV text: every cell formatted on its own."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(cell if isinstance(cell, str) else per_cell_fmt(cell) for cell in row)
        )
    return "\n".join(lines) + "\n"


class TestCsvWriter:
    SPECIAL = [
        0.1, -0.0, 0.0, 5e-324, 1e300, -1e300, float("nan"), float("inf"),
        -float("inf"), 1.0, 1 / 3, 2.0**53 + 2, 1e-5, 123456789.125,
        # Exact ties at the 17th digit, which Python rounds half to even.
        1234567890123456.25, 1000000000000000.25, 1000000000000000.75,
        # Edges of a decade and of fixed notation.
        9.9999999999999995e-05, 1e-4, 1e16, 9.9999999999999998e16, 1e17,
        # Three-digit exponents and a subnormal.
        1e-100, 1e200, -2.5e-310,
    ]

    def table(self):
        rng = np.random.default_rng(4)
        floats = np.concatenate(
            [self.SPECIAL, rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200)]
        )
        n = floats.size
        signed = rng.integers(-(2**63), 2**63 - 1, n, endpoint=True)
        signed[:2] = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        unsigned = rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True)
        unsigned[:2] = 0, 2**64 - 1
        return (
            ("method", "k", "flag", "x", "x32", "big", "i64", "u64"),
            [
                [f"m{i % 3}" for i in range(n)],
                np.arange(1, n + 1),
                rng.random(n) < 0.5,
                floats,
                rng.standard_normal(n).astype(np.float32),
                [int(v) for v in rng.integers(-(2**62), 2**62, n)],
                signed,
                unsigned,
            ],
        )

    @pytest.mark.parametrize("block_rows", [7, 1 << 14])
    def test_file_bytes_equal_per_cell_output(self, tmp_path, monkeypatch, block_rows):
        monkeypatch.setattr(cli, "_WRITE_BLOCK_ROWS", block_rows)
        header, columns = self.table()
        rows = list(zip(*columns))
        out = tmp_path / "t.csv"
        cli._write_csv(str(out), header, columns)
        assert out.read_bytes() == per_cell_csv(header, rows).encode()

    def test_stdout_equals_per_cell_output(self, capsys):
        header, columns = self.table()
        rows = [tuple(row) for row in zip(*columns)]
        cli._write_csv(None, header, zip(*rows))
        assert capsys.readouterr().out == per_cell_csv(header, rows)

    def test_python_scalars_and_empty_table(self, tmp_path):
        rows = [("a", 1, True, 0.1), ("b", -2, False, float("-inf"))]
        header = ("s", "i", "b", "f")
        out = tmp_path / "t.csv"
        cli._write_csv(str(out), header, zip(*rows))
        assert out.read_text() == per_cell_csv(header, rows)
        cli._write_csv(str(out), header, zip(*[]))
        assert out.read_text() == "s,i,b,f\n"
        for value in (
            7, np.int64(-3), True, np.bool_(False), 0.1, -0.0, np.nan,
            np.iinfo(np.int64).min, np.uint64(2**64 - 1), *self.SPECIAL,
        ):
            assert cli._fmt(value) == per_cell_fmt(value)

    def test_random_bit_patterns(self, tmp_path):
        # Every kind of double: NaN payloads of either sign, infinities,
        # subnormals and every exponent, in 13 blocks of 16 384 rows.
        rng = np.random.default_rng(19)
        values = rng.integers(0, 2**64 - 1, 210_000, dtype=np.uint64, endpoint=True)
        values = values.view(np.float64)
        out = tmp_path / "t.csv"
        cli._write_csv(str(out), ("x",), [values])
        lines = out.read_text().split("\n")
        assert lines[0] == "x" and lines[-1] == ""
        assert lines[1:-1] == [per_cell_fmt(v) for v in values.tolist()]

    def test_bad_columns_refused_before_writing(self, tmp_path):
        out = tmp_path / "t.csv"
        with pytest.raises(TypeError, match="complex128"):
            cli._write_csv(str(out), ("a", "z"), [[1.0], np.array([1j])])
        with pytest.raises(ValueError, match="length"):
            cli._write_csv(str(out), ("a", "b"), [[1.0, 2.0], [1.0]])
        with pytest.raises(ValueError, match="NUL"):
            cli._write_csv(str(out), ("s",), [["a", "a\0b"]])
        assert not out.exists()
        with pytest.raises(TypeError, match="object"):
            cli._fmt(np.array(None))
