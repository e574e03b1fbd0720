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

    def test_verbose_prints_one_line_per_iteration(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        args = [
            "optimize",
            "--track", str(out / "dvso_raw.txt"),
            "--observations", str(out / "observations.txt"),
            "--out", str(out),
        ]
        capsys.readouterr()
        assert cli.main(args) == 0
        quiet = capsys.readouterr()
        assert cli.main([*args, "--verbose"]) == 0
        loud = capsys.readouterr()
        assert loud.out == quiet.out
        assert quiet.err == ""
        payload = json.loads((out / "dvso_stats.json").read_text())
        solver = payload["solver"]
        *lines, stages = loud.err.splitlines()
        assert len(lines) == solver["iterations"] >= 2
        # the stage timings close the output, as the stats file records them
        names = ("align", "build_graph", "solve", "metrics", "write")
        assert sorted(payload["stages"]) == sorted(f"{name}_s" for name in names)
        assert stages == "stages: " + ", ".join(
            f"{name} {payload['stages'][name + '_s']:.4f} s" for name in names
        )
        for k, (line, record) in enumerate(zip(lines, solver["per_iteration"]), 1):
            assert line.startswith(f"iteration {k}: ")
            for field in ("damping", "rejected", "step", "grad_inf", "gain_ratio", "solve"):
                assert f" {field} " in line
            assert f"rejected {record['rejected']}," in line

    def test_report_marks_iteration_cap(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        args = [
            "optimize",
            "--track", str(out / "dvso_raw.txt"),
            "--observations", str(out / "observations.txt"),
            "--out", str(out),
        ]
        marks = {}
        for extra in ([], ["--max-iterations", "2"]):
            assert cli.main([*args, *extra]) == 0
            assert cli.main(["report", "--dir", str(out)]) == 0
            (row,) = [
                ln for ln in (out / "report.txt").read_text().splitlines()
                if ln.startswith("dvso ")
            ]
            marks[len(extra)] = row.endswith(" (max-iterations)")
        assert marks == {0: False, 2: True}
        reason = json.loads((out / "dvso_stats.json").read_text())["solver"]["reason"]
        assert reason == "max-iterations"

    def test_report_marks_a_solve_that_stopped_short(self, tmp_path):
        out = TestExitCodes.optimized_run(tmp_path)
        path = out / "dvso_stats.json"
        payload = json.loads(path.read_text())
        marks = {}
        # the last gain ratios of a Huber crawl and of a lidar crawl
        for gain in (None, 1.98, 0.03):
            if gain is not None:
                (*_, last) = [
                    r for r in payload["solver"]["per_iteration"] if r["gain_ratio"] is not None
                ]
                last["gain_ratio"] = gain
                path.write_text(json.dumps(payload))
            assert cli.main(["report", "--dir", str(out)]) == 0
            (row,) = [
                ln for ln in (out / "report.txt").read_text().splitlines()
                if ln.startswith("dvso ")
            ]
            marks[gain] = row.endswith(" (stopped short)")
        assert marks == {None: False, 1.98: True, 0.03: True}

    def test_default_run_is_not_marked(self, tmp_path):
        # seed 7, default scenario: every solve ends at its optimum
        out = tmp_path / "run"
        assert cli.main(["simulate", "--seed", "7", "--out", str(out)]) == 0
        sources = sorted(p.name[: -len("_raw.txt")] for p in out.glob("*_raw.txt"))
        assert sources == ["dvso", "wheel"]
        for source in sources:
            assert cli.main([
                "optimize",
                "--track", str(out / f"{source}_raw.txt"),
                "--observations", str(out / "observations.txt"),
                "--out", str(out),
            ]) == 0
        assert cli.main(["report", "--dir", str(out)]) == 0
        rows = [
            ln for ln in (out / "report.txt").read_text().splitlines()
            if ln.split(" ")[0] in sources
        ]
        assert len(rows) == 2
        assert not any(row.endswith(")") for row in rows), rows

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
        # removed options: a position-only solve and the numeric Jacobian path
        complete = ("optimize", "--track", "x", "--observations", "y", "--out", "z")
        assert run_cli(*complete, "--position-only").returncode == 1
        assert run_cli(*complete, "--jacobian-mode", "numeric").returncode == 1

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
    def optimized_run(tmp_path, *options):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, SMALL_CONFIG)
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert cli.main([
            "optimize",
            "--track", str(out / "dvso_raw.txt"),
            "--observations", str(out / "observations.txt"),
            "--out", str(out),
            *options,
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

    @pytest.mark.parametrize("command, name", [
        ("simulate", "scenario.txt"),
        ("optimize", "dvso_raw.txt"),
        ("report", "dvso_stats.json"),
        ("report", "config_effective.txt"),
    ])
    def test_undecodable_input_exits_2(self, tmp_path, capsys, command, name):
        # a byte that is not UTF-8 is a data error that names the file
        out = self.optimized_run(tmp_path)
        path = (tmp_path if command == "simulate" else out) / name
        path.write_bytes(path.read_bytes() + b"\xff\n")
        argv = {
            "simulate": ["--config", str(path), "--out", str(tmp_path / "again")],
            "optimize": ["--track", str(path), "--observations", str(out / "observations.txt"),
                         "--out", str(out)],
            "report": ["--dir", str(out)],
        }[command]
        capsys.readouterr()
        assert cli.main([command, *argv]) == 2
        err = capsys.readouterr().err
        assert f"data error: {path}: not UTF-8 text: invalid start byte at offset" in err

    @pytest.mark.parametrize("command", ["simulate", "report"])
    def test_config_error_names_the_file(self, tmp_path, capsys, command):
        # the --config file, or the run directory's config_effective.txt
        out = self.optimized_run(tmp_path)
        path = tmp_path / "scenario.txt" if command == "simulate" else out / pipeline.CONFIG_FILE
        path.write_text("landmark.spacing = -1\n")
        argv = {
            "simulate": ["--config", str(path), "--out", str(tmp_path / "again")],
            "report": ["--dir", str(out), "--out", str(tmp_path / "again")],
        }[command]
        capsys.readouterr()
        assert cli.main([command, *argv]) == 2
        err = capsys.readouterr().err
        assert f"data error: {path}: landmark.spacing: must be positive (got -1)" in err
        assert not (tmp_path / "again").exists()

    @pytest.mark.parametrize("rate", ["-5", "nan"])
    def test_bad_graph_rate_exits_2(self, tmp_path, capsys, rate):
        out = self.optimized_run(tmp_path)
        path = out / "dvso_graph.txt"
        text = path.read_text()
        header = next(ln for ln in text.splitlines() if ln.startswith("# rate_hz:"))
        path.write_text(text.replace(header, f"# rate_hz: {rate}"))
        capsys.readouterr()
        assert cli.main(["report", "--dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "dvso_graph.txt: rate_hz must be finite and positive" in err

    def test_unordered_sightings_exit_2(self, tmp_path, capsys):
        out = self.optimized_run(tmp_path)
        path = out / "dvso_graph.txt"
        lines = path.read_text().splitlines()
        rows = [k for k, ln in enumerate(lines) if ln.startswith("EDGE_OBS ")]
        first, last = rows[0], rows[-1]
        assert lines[first].split()[1] != lines[last].split()[1]  # two different nodes
        lines[first], lines[last] = lines[last], lines[first]
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli.main(["report", "--dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "dvso_graph.txt: observation edges must be ordered by node" in err

    @pytest.mark.parametrize("nodes", [1, 3])
    def test_cut_graph_exits_2(self, tmp_path, capsys, nodes):
        # the graph keeps its first nodes and the edges among them: one node is
        # no problem, and three no longer match the frames of dvso_raw.txt
        out = self.optimized_run(tmp_path)
        path = out / "dvso_graph.txt"
        keep = []
        for ln in path.read_text().splitlines():
            tag, *fields = ln.split()
            ids = {"NODE": 1, "EDGE_ODOM": 2, "EDGE_OBS": 1}.get(tag, 0)
            if all(int(f) < nodes for f in fields[:ids]):
                keep.append(ln)
        path.write_text("\n".join(keep) + "\n")
        capsys.readouterr()
        assert cli.main(["report", "--dir", str(out)]) == 2
        err = capsys.readouterr().err
        if nodes == 1:
            assert "dvso_graph.txt: a graph needs at least two nodes, got 1" in err
        else:
            assert "dvso_graph.txt: frame times do not match" in err
            assert "dvso_raw.txt" in err
        assert not (out / "dvso_xy.csv").exists()
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("case", ["weight-and-quaternion", "nan-time", "repeated-time"])
    def test_graph_row_rules_exit_2(self, tmp_path, capsys, case):
        # the checks a track or observation file gets, applied to a graph file
        out = self.optimized_run(tmp_path)
        path = out / "dvso_graph.txt"
        lines = path.read_text().splitlines()

        def edit(prefix, field, value):
            k = next(k for k, ln in enumerate(lines) if ln.startswith(prefix))
            fields = lines[k].split()
            fields[field] = value
            lines[k] = " ".join(fields)

        if case == "weight-and-quaternion":
            edit("EDGE_ODOM 0 ", -1, "-5")  # weight_rot
            edit("NODE 3 ", -1, "3.0")  # qw, scalar-last on disk
            expected = "odometry weights row 0: information weights must be finite"
        elif case == "nan-time":
            edit("NODE 3 ", 2, "nan")
            expected = "node times row 3: timestamp nan is not finite"
        else:
            edit("NODE 3 ", 2, next(ln for ln in lines if ln.startswith("NODE 2 ")).split()[2])
            expected = "node times row 3: timestamp"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli.main(["report", "--dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"dvso_graph.txt: {expected}" in err
        for name in ("report.csv", "report.txt", "dvso_xy.csv", "dvso_poles.csv"):
            assert not (out / name).exists()

    def test_pole_count_mismatch_exits_2(self, tmp_path, capsys):
        # the graph holds five poles, config_effective.txt four
        out = self.optimized_run(tmp_path, "--pole-count", "5")
        capsys.readouterr()
        assert cli.main(["report", "--dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "dvso_graph.txt: pole count does not match" in err
        assert "config_effective.txt" in err
        for name in ("report.csv", "report.txt", "dvso_xy.csv", "dvso_poles.csv"):
            assert not (out / name).exists()

    def test_source_name_leaving_out_exits_2(self, tmp_path, capsys):
        # the source name is part of every output file name
        run = tmp_path / "run"
        cfg = write_config(tmp_path, SMALL_CONFIG)
        assert cli.main(["simulate", "--config", cfg, "--out", str(run)]) == 0
        raw = run / "dvso_raw.txt"
        raw.write_text(raw.read_text().replace("# source: dvso", "# source: ../escaped"))
        before = sorted(os.listdir(run))
        capsys.readouterr()
        assert cli.main([
            "optimize",
            "--track", str(raw),
            "--observations", str(run / "observations.txt"),
            "--out", str(run / "out"),
        ]) == 2
        assert "dvso_raw.txt: source: must be one word" in capsys.readouterr().err
        assert sorted(os.listdir(run)) == before
        assert sorted(os.listdir(tmp_path)) == ["run", "scenario.txt"]

    def test_config_source_leaving_out_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sources = ../x\n" + "".join(
            f"noise.../x.{key}\n"
            for key in ("frame_rate = 4", "trans_per_frame = 0.01", "rot_deg_per_frame = 0.5")
        ))
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
        assert "sources: must name sources" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["scenario.txt"]

    def test_repeated_source_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_CONFIG.replace("dvso", "dvso dvso"))
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
        assert "sources: must name sources, none twice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case", [
            "missing-key", "not-an-object", "text-frames", "numeric-reason", "nan-number",
            "text-gain-ratio",
        ]
    )
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
        elif case == "text-frames":
            payload["frames"] = "many"
            named = "'frames'"
        elif case == "numeric-reason":
            payload["solver"]["reason"] = 7
            named = "'solver.reason'"
        elif case == "text-gain-ratio":
            payload["solver"]["per_iteration"][0]["gain_ratio"] = "high"
            named = "'solver.per_iteration'"
        else:
            payload["trans_m_per_frame"] = float("nan")  # json.dumps writes NaN
            named = "malformed JSON: NaN"
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert cli.main(["report", "--dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "data error" in err
        assert "dvso_stats.json" in err
        assert named in err

    def test_stats_source_with_a_comma_exits_2(self, tmp_path, capsys):
        # a comma in the source would add a field to its report.csv row,
        # which read_report_csv then rejects
        out = self.optimized_run(tmp_path)
        path = out / "dvso_stats.json"
        payload = json.loads(path.read_text())
        payload["source"] = "dv,so"
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert cli.main(["report", "--dir", str(out), "--out", str(tmp_path / "report")]) == 2
        err = capsys.readouterr().err
        assert "dvso_stats.json: key 'source' must be one word" in err
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("kind", ["stats", "graph", "raw"])
    def test_file_naming_another_source_exits_2(self, tmp_path, capsys, kind):
        # report pairs a source's files by name, so each must carry that source
        out = self.optimized_run(tmp_path)
        if kind == "stats":
            (out / "other_stats.json").write_text((out / "dvso_stats.json").read_text())
            named = "other_stats.json: source 'dvso' does not match the file name's 'other'"
        else:
            path = out / f"dvso_{kind}.txt"
            path.write_text(path.read_text().replace("# source: dvso", "# source: wheel"))
            named = f"dvso_{kind}.txt: source 'wheel' does not match the file name's 'dvso'"
        capsys.readouterr()
        assert cli.main(["report", "--dir", str(out), "--out", str(tmp_path / "new")]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    # a bad numeric option is a data error naming what it sets, not a
    # numerical failure; the odometry weight cases keep their original ids
    @pytest.mark.parametrize(
        "flag, value, named",
        [
            pytest.param("--weight-trans", value, "odometry weights", id=value)
            for value in ("-1", "nan", "inf")
        ]
        + [
            pytest.param(flag, value, named, id=f"{flag[2:]}-{value}")
            for flag, named in (("--huber-delta", "huber_delta"), ("--pole-spacing", "spacing"))
            for value in ("nan", "inf")
        ],
    )
    def test_bad_odometry_weight_exits_2(self, tmp_path, capsys, flag, value, named):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, SMALL_CONFIG)
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        code = cli.main([
            "optimize",
            "--track", str(out / "dvso_raw.txt"),
            "--observations", str(out / "observations.txt"),
            "--out", str(out),
            flag, value,
        ])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not (out / "dvso_stats.json").exists()

    def test_nan_timestamp_exits_2(self, tmp_path, capsys):
        # NaN <= previous is false, so an ordering test alone lets it through
        cfg = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "dvso_raw.txt").read_text().splitlines()
        row = [k for k, ln in enumerate(lines) if not ln.startswith("#")][3]
        lines[row] = "nan " + lines[row].split(" ", 1)[1]
        (out / "dvso_raw.txt").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli.main([
            "optimize",
            "--track", str(out / "dvso_raw.txt"),
            "--observations", str(out / "observations.txt"),
            "--out", str(out),
        ]) == 2
        assert f"dvso_raw.txt:{row + 1}: timestamp nan is not finite" in capsys.readouterr().err
        assert not (out / "dvso_stats.json").exists()

    @pytest.mark.parametrize("rows", [1, 0])
    def test_short_track_names_the_file(self, tmp_path, capsys, rows):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        track = out / "dvso_raw.txt"
        lines = track.read_text().splitlines()
        first = next(k for k, ln in enumerate(lines) if not ln.startswith("#"))
        track.write_text("\n".join(lines[: first + rows]) + "\n")
        capsys.readouterr()
        assert cli.main([
            "optimize", "--track", str(track),
            "--observations", str(out / "observations.txt"), "--out", str(out),
        ]) == 2
        assert f"{track}: track 'dvso': needs at least two frames" in capsys.readouterr().err

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

    def test_failed_report_creates_no_directory(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        assert cli.main(["report", "--dir", str(missing)]) == 2
        assert str(missing) in capsys.readouterr().err
        assert not missing.exists()
        # a directory without solver outputs, and one whose config is invalid
        run = tmp_path / "run"
        run.mkdir()
        assert cli.main(["report", "--dir", str(run), "--out", str(tmp_path / "a")]) == 2
        (run / "dvso_stats.json").write_text("{}\n")
        (run / pipeline.CONFIG_FILE).write_text("landmark.spacing = -1\n")
        assert cli.main(["report", "--dir", str(run), "--out", str(tmp_path / "b")]) == 2
        assert "landmark.spacing" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]


    @pytest.mark.parametrize("case", ["empty-stats", "bad-graph", "bad-raw-track"])
    def test_failed_report_out_creates_nothing(self, tmp_path, capsys, case):
        # every source's stats, graph and raw track are read before --out is made
        if case == "empty-stats":
            run = tmp_path / "run"
            run.mkdir()
            (run / "dvso_stats.json").write_text("{}\n")
            named = "missing key 'source'"
        else:
            run = TestExitCodes.optimized_run(tmp_path)
            name = "dvso_graph.txt" if case == "bad-graph" else "dvso_raw.txt"
            path = run / name
            path.write_text(path.read_text() + "1.5 2.5\n")
            named = name
        capsys.readouterr()
        out = tmp_path / "new"
        assert cli.main(["report", "--dir", str(run), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()


def test_importing_the_cli_leaves_scipy_unloaded():
    # the package imports numpy alone
    code = "import sys, tunnelgraph.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_a_full_run_leaves_scipy_unloaded(tmp_path):
    # simulate, optimize and report in one fresh interpreter: no command,
    # the solve included, loads scipy
    cfg = write_config(tmp_path, SMALL_CONFIG)
    out = tmp_path / "run"
    commands = [
        ["simulate", "--config", cfg, "--out", str(out)],
        [
            "optimize",
            "--track", str(out / "dvso_raw.txt"),
            "--observations", str(out / "observations.txt"),
            "--out", str(out),
        ],
        ["report", "--dir", str(out)],
    ]
    code = (
        "import sys\n"
        "from tunnelgraph.cli import main\n"
        f"for args in {commands!r}:\n"
        "    assert main(args) == 0, args\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "report.txt").exists()
    assert proc.stdout.splitlines()[-1] == "[]"
