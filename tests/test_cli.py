"""Command-line workflow and exit-code contract."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import tunnelgraph.cli as cli
import tunnelgraph.fileio as fileio
import tunnelgraph.pipeline as pipeline

SMALL_CONFIG = (
    "sources = dvso\n"
    "trajectory.straight_length = 10\n"
    "seed = 5\n"
)

NOISELESS_CONFIG = (
    "sources = dvso\n"
    "trajectory.straight_length = 10\n"
    "noise.dvso.trans_per_frame = 0\n"
    "noise.dvso.rot_deg_per_frame = 0\n"
    "detection.sigma_trans = 0\n"
    "detection.sigma_rot_deg = 0\n"
)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "tunnelgraph.cli", *args],
        capture_output=True,
        text=True,
    )


def write_config(tmp_path, text):
    path = tmp_path / "scenario.txt"
    path.write_text(text)
    return str(path)


class TestSimulate:
    def test_declared_files_exist(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "run"
        proc = run_cli("simulate", "--config", cfg, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        expected = {
            "config_effective.txt",
            "ground_truth.txt",
            "observations.txt",
            "dvso_raw.txt",
            "dvso_injected.txt",
        }
        assert set(os.listdir(out)) == expected

    def test_deterministic_per_seed(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("simulate", "--config", cfg, "--out", str(a)).returncode == 0
        assert run_cli("simulate", "--config", cfg, "--out", str(b)).returncode == 0
        for name in ("dvso_raw.txt", "observations.txt", "dvso_injected.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_flag_changes_noise(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("simulate", "--config", cfg, "--out", str(a))
        run_cli("simulate", "--config", cfg, "--out", str(b), "--seed", "6")
        assert (a / "dvso_raw.txt").read_bytes() != (b / "dvso_raw.txt").read_bytes()
        echoed = (b / "config_effective.txt").read_text()
        assert "seed = 6" in echoed

    def test_default_config_is_optional(self, tmp_path):
        out = tmp_path / "noiseless"
        cfg = write_config(tmp_path, NOISELESS_CONFIG)
        proc = run_cli("simulate", "--config", cfg, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        raw = fileio.read_track(out / "dvso_raw.txt")
        truth = fileio.read_track(out / "ground_truth.txt")
        np.testing.assert_array_equal(raw.poses, truth.poses)


class TestOptimizeAndReport:
    def test_full_pipeline(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "run"
        assert run_cli("simulate", "--config", cfg, "--out", str(out)).returncode == 0
        proc = run_cli(
            "optimize",
            "--track", str(out / "dvso_raw.txt"),
            "--observations", str(out / "observations.txt"),
            "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        for name in ("dvso_optimized.txt", "dvso_graph.txt", "dvso_stats.json"):
            assert (out / name).exists()
        proc = run_cli("report", "--dir", str(out))
        assert proc.returncode == 0, proc.stderr
        for name in ("report.csv", "report.txt", "dvso_xy.csv", "dvso_poles.csv"):
            assert (out / name).exists()
        (report,) = fileio.read_report_csv(out / "report.csv")
        assert report.source == "dvso"
        # the CSV mirrors the solver stats exactly
        stats = json.loads((out / "dvso_stats.json").read_text())
        assert report.trans_per_frame == stats["trans_m_per_frame"]
        assert report.closure_raw == stats["closure_raw_m"]
        assert report.closure_optimized == stats["closure_opt_m"]

    def test_noiseless_corrections_vanish(self, tmp_path):
        cfg = write_config(tmp_path, NOISELESS_CONFIG)
        out = tmp_path / "run"
        run_cli("simulate", "--config", cfg, "--out", str(out))
        proc = run_cli(
            "optimize",
            "--track", str(out / "dvso_raw.txt"),
            "--observations", str(out / "observations.txt"),
            "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        stats = json.loads((out / "dvso_stats.json").read_text())
        assert stats["trans_m_per_frame"] < 1e-9
        assert stats["rot_deg_per_frame"] < 1e-9
        assert stats["solver"]["iterations"] <= 1

    def test_optimized_track_reingestible(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "run"
        run_cli("simulate", "--config", cfg, "--out", str(out))
        run_cli(
            "optimize",
            "--track", str(out / "dvso_raw.txt"),
            "--observations", str(out / "observations.txt"),
            "--out", str(out),
        )
        track = fileio.read_track(out / "dvso_optimized.txt")
        graph = fileio.read_graph(out / "dvso_graph.txt")
        assert track.frame_count == graph.node_count


class TestExitCodes:
    def test_usage_errors_exit_1(self):
        assert run_cli("bogus").returncode == 1
        assert run_cli("simulate").returncode == 1  # missing --out
        assert run_cli("optimize", "--track", "x").returncode == 1

    def test_missing_input_exits_2(self, tmp_path):
        proc = run_cli(
            "optimize",
            "--track", str(tmp_path / "absent.txt"),
            "--observations", str(tmp_path / "also_absent.txt"),
            "--out", str(tmp_path),
        )
        assert proc.returncode == 2
        assert "data error" in proc.stderr

    def test_invalid_config_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "landmark.spacing = -1\n")
        proc = run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "x"))
        assert proc.returncode == 2
        assert "landmark.spacing" in proc.stderr

    def test_report_without_outputs_exits_2(self, tmp_path):
        proc = run_cli("report", "--dir", str(tmp_path))
        assert proc.returncode == 2

    def test_help_exits_0(self):
        assert run_cli("--help").returncode == 0

    def test_poisoned_track_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "run"
        run_cli("simulate", "--config", cfg, "--out", str(out))
        raw = (out / "dvso_raw.txt").read_text().splitlines()
        body = [ln for ln in raw if not ln.startswith("#")]
        broken = body[3].split()
        broken[1] = "nan"
        body[3] = " ".join(broken)
        (out / "dvso_raw.txt").write_text(
            "\n".join([ln for ln in raw if ln.startswith("#")] + body) + "\n"
        )
        proc = run_cli(
            "optimize",
            "--track", str(out / "dvso_raw.txt"),
            "--observations", str(out / "observations.txt"),
            "--out", str(out),
        )
        assert proc.returncode == 3
        assert "numerical" in proc.stderr

    @staticmethod
    def optimized_run(tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, SMALL_CONFIG)
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert cli.main([
            "optimize",
            "--track", str(out / "dvso_raw.txt"),
            "--observations", str(out / "observations.txt"),
            "--out", str(out),
        ]) == 0
        return out

    @pytest.mark.parametrize("name", ["dvso_graph.txt", "dvso_stats.json"])
    def test_malformed_solver_output_exits_2(self, tmp_path, capsys, name):
        out = self.optimized_run(tmp_path)
        lines = (out / name).read_text().splitlines()
        if name.endswith(".txt"):
            row = next(k for k, ln in enumerate(lines) if ln.startswith("NODE 1 "))
            fields = lines[row].split()
            fields[2] = "abc"  # the node's timestamp
            lines[row] = " ".join(fields)
        else:
            row = len(lines) // 2  # truncated mid-object
            lines = lines[:row]
        (out / name).write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli.main(["report", "--dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "data error" in err
        assert f"{name}:{row + 1}:" in err

    @pytest.mark.parametrize("case", ["missing-key", "not-an-object", "text-frames"])
    def test_schema_broken_stats_exits_2(self, tmp_path, capsys, case):
        out = self.optimized_run(tmp_path)
        path = out / "dvso_stats.json"
        payload = json.loads(path.read_text())
        if case == "missing-key":
            del payload["closure_raw_m"]
            named = "'closure_raw_m'"
        elif case == "not-an-object":
            payload = [1, 2]
            named = "JSON object"
        else:
            payload["frames"] = "many"
            named = "'frames'"
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert cli.main(["report", "--dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "data error" in err
        assert "dvso_stats.json" in err
        assert named in err

    def test_non_unit_quaternion_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "run"
        run_cli("simulate", "--config", cfg, "--out", str(out))
        lines = (out / "dvso_raw.txt").read_text().splitlines()
        row = next(k for k, ln in enumerate(lines) if not ln.startswith("#"))
        fields = lines[row].split()
        fields[7] = "2"  # qw, scalar-last on disk
        lines[row] = " ".join(fields)
        (out / "dvso_raw.txt").write_text("\n".join(lines) + "\n")
        proc = run_cli(
            "optimize",
            "--track", str(out / "dvso_raw.txt"),
            "--observations", str(out / "observations.txt"),
            "--out", str(out),
        )
        assert proc.returncode == 2
        assert "quaternion" in proc.stderr


class TestCleanup:
    def test_failed_simulate_removes_partial_outputs(self, tmp_path, monkeypatch):
        # fail after some files were already written
        original = fileio.write_observations

        def explode(path, observations):
            original(path, observations)
            raise OSError("disk full")

        monkeypatch.setattr(fileio, "write_observations", explode)
        out = tmp_path / "run"
        cfg_path = tmp_path / "scenario.txt"
        cfg_path.write_text(SMALL_CONFIG)
        code = cli.main(
            ["simulate", "--config", str(cfg_path), "--out", str(out)]
        )
        assert code == 2
        assert not any(out.iterdir())
