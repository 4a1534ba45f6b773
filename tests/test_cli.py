"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_args(self):
        args = build_parser().parse_args(
            ["run", "--machine", "yona", "--impl", "bulk", "--cores", "12"]
        )
        assert args.machine == "yona"
        assert args.threads == 1

    def test_bad_impl_rejected(self, capsys):
        # --impl is validated against the workload's registry at run time
        # (the static argparse choices could not span per-workload axes),
        # so a bad key exits 2 with a message naming both axes.
        rc = main(["run", "--machine", "yona", "--impl", "nope", "--cores", "12"])
        assert rc == 2
        captured = capsys.readouterr()
        text = captured.out + captured.err
        assert "nope" in text and "advection" in text

    def test_bad_workload_rejected(self, capsys):
        rc = main(["run", "--machine", "yona", "--impl", "bulk",
                   "--cores", "12", "--workload", "spvm"])
        assert rc == 2
        captured = capsys.readouterr()
        text = captured.out + captured.err
        assert "spvm" in text and "spmv" in text  # near-miss suggestion


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "hybrid_overlap" in out and "JaguarPF" in out

    def test_experiments(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out and "table1" in out

    def test_run(self, capsys):
        rc = main(
            ["run", "--machine", "yona", "--impl", "gpu_resident",
             "--cores", "12", "--threads", "12"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "GF" in out

    def test_run_functional(self, capsys):
        rc = main(
            ["run", "--machine", "jaguarpf", "--impl", "bulk", "--cores", "12",
             "--threads", "6", "--domain", "16", "--functional"]
        )
        assert rc == 0
        assert "norms" in capsys.readouterr().out

    def test_experiment_table2(self, capsys):
        assert main(["experiment", "table2"]) == 0
        assert "Tesla C2050" in capsys.readouterr().out

    def test_experiment_fast(self, capsys):
        assert main(["experiment", "fig8", "--fast"]) == 0
        assert "32x8" in capsys.readouterr().out

    def test_experiment_multiple_ids(self, capsys):
        assert main(["experiment", "table1", "table2"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "Tesla C2050" in out

    def test_experiment_jobs_pool(self, capsys):
        """--jobs N regenerates independent experiments in a process pool."""
        assert main(["experiment", "table1", "table2", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        # both results printed, in id order
        assert out.index("table1") < out.index("table2")

    def test_experiment_jobs_single_id(self, capsys):
        assert main(["experiment", "table2", "--jobs", "4"]) == 0
        assert "Tesla C2050" in capsys.readouterr().out

    def test_experiment_bad_id_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "nope"])

    def test_experiment_multi_export_suffixed(self, tmp_path, capsys):
        out_json = tmp_path / "exp.json"
        assert main(["experiment", "table2", "fig2", "--fast",
                     "--json", str(out_json)]) == 0
        assert (tmp_path / "exp-table2.json").exists()
        assert (tmp_path / "exp-fig2.json").exists()

    def test_tune(self, capsys):
        rc = main(
            ["tune", "--machine", "jaguarpf", "--impl", "bulk", "--cores", "48"]
        )
        assert rc == 0
        assert "best:" in capsys.readouterr().out


def _sweep_args(*extra):
    return ["sweep", "--machine", "lens", "--impl", "nonblocking",
            "--cores", "16", "--steps", "2", *extra]


class TestSweepModes:
    def test_dry_run_counts_and_runs_nothing(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        journal = tmp_path / "j.jsonl"
        rc = main(_sweep_args("--dry-run", "--cache-dir", str(cache_dir),
                              "--journal", str(journal)))
        assert rc == 0
        out = capsys.readouterr().out
        assert "dry-run: configs=" in out
        assert "warm=0" in out and "cold=" in out
        # a dry run probes but never creates cache or journal state
        assert not cache_dir.exists() and not journal.exists()

    def test_dry_run_sees_warm_entries(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(_sweep_args("--cache-dir", cache_dir)) == 0
        capsys.readouterr()
        assert main(_sweep_args("--dry-run", "--cache-dir", cache_dir)) == 0
        out = capsys.readouterr().out
        assert "cold=0" in out and "warm=0" not in out

    def test_fabric_table_matches_scheduled(self, tmp_path, capsys):
        assert main(_sweep_args("--no-cache")) == 0
        plain = [
            line for line in capsys.readouterr().out.splitlines()
            if not line.startswith(("scheduler:", "run cache:"))
        ]
        rc = main(_sweep_args(
            "--no-cache", "--fabric", str(tmp_path / "fab"),
            "--owner", "t", "--shards", "4",
        ))
        assert rc == 0
        out = capsys.readouterr().out
        fabric = [
            line for line in out.splitlines()
            if not line.startswith("fabric:")
        ]
        assert fabric == plain
        assert "fabric: owner=t" in out and "journal-torn=0" in out

    def test_fabric_bad_shards_rejected(self, tmp_path, capsys):
        rc = main(_sweep_args("--fabric", str(tmp_path / "fab"),
                              "--shards", "0"))
        assert rc == 2


class TestModuleEntryPoint:
    def test_python_dash_m_repro_list(self):
        """``python -m repro`` runs the CLI (DESIGN.md S12)."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip()
