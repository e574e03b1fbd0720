"""The benchmark's two workloads: one op each, its timed part and its checks.

``quickstart`` is the README quick start run in-process through
``cli.main``: simulate, optimize each source from its files, report.
``recovery`` is the in-memory calibration-recovery path behind
acceptance criteria 02/03: ``pipeline.recovery_run`` for the dvso and
the wheel preset, with dense pins at the frame rate and no file I/O.

Each op gets its scenario seed from the harness; the program sees only
that seed and, on ``quickstart``, the scenario's config file.  ``run`` is
the timed part.  ``check`` runs after the clock stops: it verifies the
outputs and computes the quality metrics.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from tunnelgraph import cli, fileio, metrics, pipeline
from tunnelgraph import geometry as geom
from tunnelgraph import simulate as sim
from tunnelgraph.config import parse_config
from tunnelgraph.sync import PLANAR

# criteria 02/03: reported per-frame means within 20% of the injected means
RECOVERY_TOLERANCE = 0.2

# report.csv columns that re-present <source>_stats.json values exactly
REPORTED = ("trans_m_per_frame", "rot_deg_per_frame", "closure_raw_m", "closure_opt_m")


@dataclass
class Checked:
    """Outcome of one op's output checks."""

    problems: list = field(default_factory=list)
    ate_m: float = float("nan")  # mean over sources of the rigid-aligned ATE
    recovery_err: float = float("nan")  # max |reported / injected - 1|
    graphs: dict = field(default_factory=dict)  # solved graphs, when kept
    reasons: dict = field(default_factory=dict)  # solver stop reason per source


def _ate(times, positions, truth):
    """Rigid-aligned ATE of frame positions against ground truth."""
    if not np.array_equal(times, truth.times):
        raise ValueError("optimized frames and ground truth differ in timestamps")
    return metrics.ate_rmse(times, positions, truth.times, truth.poses[:, :3])


class Quickstart:
    """simulate --config Q --seed S, optimize dvso_raw.txt, report.

    Q is the default scenario with ``sources = dvso`` (see README.md for
    why the wheel source is left out), plus any scaling lines.
    """

    name = "quickstart"
    config = "sources = dvso\n"

    def __init__(self, workdir, extra_config=""):
        self.workdir = workdir
        text = self.config + extra_config
        cfg = parse_config(text)
        self.sources = cfg.sources
        self.trajectory = cfg.trajectory
        os.makedirs(workdir, exist_ok=True)
        self.config_path = os.path.join(workdir, "quickstart.txt")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(text)

    def run(self, seed, span):
        out = os.path.join(self.workdir, f"run-{seed}")
        obs = os.path.join(out, "observations.txt")
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            with span("cli.simulate"):
                codes.append(
                    cli.main(
                        ["simulate", "--config", self.config_path, "--out", out, "--seed", str(seed)]
                    )
                )
            for src in self.sources:
                track = os.path.join(out, f"{src}_raw.txt")
                with span("cli.optimize"):
                    codes.append(
                        cli.main(
                            ["optimize", "--track", track, "--observations", obs, "--out", out]
                        )
                    )
            with span("cli.report"):
                codes.append(cli.main(["report", "--dir", out]))
        return out, codes

    def check(self, handle, keep_graphs=False) -> Checked:
        out, codes = handle
        c = Checked()
        try:
            if any(code != 0 for code in codes):
                c.problems.append(f"exit codes {codes}")
                return c
            with open(os.path.join(out, "report.csv"), newline="", encoding="utf-8") as fh:
                rows = {row["source"]: row for row in csv.DictReader(fh)}
            ates, errs = [], []
            for src in self.sources:
                row = rows.get(src)
                if row is None:
                    c.problems.append(f"report.csv has no {src} row")
                    continue
                raw = fileio.read_track(os.path.join(out, f"{src}_raw.txt"))
                if int(row["frames"]) != raw.frame_count:
                    c.problems.append(f"{src}: report has {row['frames']} frames, track {raw.frame_count}")
                stats = fileio.read_stats_json(os.path.join(out, f"{src}_stats.json"))
                for key in REPORTED:
                    if float(row[key]) != stats[key]:
                        c.problems.append(f"{src}: report.csv {key} {row[key]} != {stats[key]}")
                costs = stats["solver"]["cost_trace"]
                if any(later > earlier for earlier, later in zip(costs, costs[1:])):
                    c.problems.append(f"{src}: LM cost rose: {costs}")
                c.reasons[src] = stats["solver"]["reason"]

                injected = fileio.read_injection(os.path.join(out, f"{src}_injected.txt"))
                errs.append(abs(stats["trans_m_per_frame"] / injected.mean_trans - 1))
                errs.append(abs(stats["rot_deg_per_frame"] / injected.mean_rot_deg - 1))
                opt = fileio.read_track(os.path.join(out, f"{src}_optimized.txt"))
                frames = np.isin(opt.times, raw.times)
                truth = sim.generate_ground_truth(self.trajectory, raw.rate)
                ates.append(_ate(opt.times[frames], opt.poses[frames, :3], truth))
                if keep_graphs:
                    c.graphs[src] = fileio.read_graph(os.path.join(out, f"{src}_graph.txt"))
            if not c.problems:
                c.ate_m = float(np.mean(ates))
                c.recovery_err = float(max(errs))
        except (OSError, ValueError, KeyError) as exc:
            c.problems.append(f"unreadable output: {exc!r}")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return c


class Recovery:
    """pipeline.recovery_run(dvso_preset(), S), then the wheel preset."""

    name = "recovery"

    def __init__(self, workdir, extra_config=""):
        # ``None`` keeps recovery_run's own default drive
        self.profile = parse_config(extra_config).trajectory if extra_config else None

    def run(self, seed, span):
        return {
            noise.source: pipeline.recovery_run(noise, seed, profile=self.profile)
            for noise in (sim.dvso_preset(), sim.wheel_preset())
        }

    def check(self, handle, keep_graphs=False) -> Checked:
        c = Checked()
        profile = self.profile or sim.TrajectoryProfile()
        ates, errs = [], []
        for src, (result, injection) in handle.items():
            report = result.report
            for what, got, want in (
                ("trans", report.trans_per_frame, injection.mean_trans),
                ("rot", report.rot_deg_per_frame, injection.mean_rot_deg),
            ):
                err = abs(got / want - 1)
                errs.append(err)
                if not err <= RECOVERY_TOLERANCE:
                    c.problems.append(f"{src}: {what} {got} vs injected {want}")
            costs = result.stats.cost_trace
            if any(later > earlier for earlier, later in zip(costs, costs[1:])):
                c.problems.append(f"{src}: LM cost rose: {costs}")
            graph = result.graph
            track = pipeline.node_track(graph, src, report.rate)
            truth = sim.generate_ground_truth(profile, report.rate)
            frames = graph.is_frame
            try:
                ates.append(_ate(track.times[frames], track.poses[frames, :3], truth))
            except ValueError as exc:
                c.problems.append(f"{src}: {exc}")
            c.reasons[src] = result.stats.reason
            if keep_graphs:
                c.graphs[src] = graph
        if not c.problems:
            c.ate_m = float(np.mean(ates))
            c.recovery_err = float(max(errs))
        return c


WORKLOADS = {w.name: w for w in (Quickstart, Recovery)}


def _median_time(fn, args, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn(*args)
        times.append(time.perf_counter() - start)
    return float(np.median(times)), out


def probe_kernels(graphs, repeats=7) -> dict:
    """Time the odometry-residual kernels on solved graphs, outside any op.

    The arrays are each graph's own odometry edges at the solution:
    compose(inverse(measured), relative(si, sj)), then log, then the
    inverse right Jacobian.  Times are medians over ``repeats``, summed
    over graphs; bytes are computed from the input and output arrays.
    """
    m = {
        "geometry.compose_s": 0.0,
        "geometry.log_s": 0.0,
        "geometry.jr_inv_s": 0.0,
        "geometry.batch": 0,
        "geometry.compose_bytes": 0,
        "geometry.log_bytes": 0,
        "geometry.jr_inv_bytes": 0,
    }
    for graph in graphs:
        if graph.dof_mode == PLANAR:
            inverse, relative, compose = geom.pose2_inverse, geom.pose2_relative, geom.pose2_compose
            log, jr_inv = geom.se2_log, geom.se2_right_jacobian_inv
        else:
            inverse, relative, compose = geom.pose3_inverse, geom.pose3_relative, geom.pose3_compose
            log, jr_inv = geom.se3_log, geom.se3_right_jacobian_inv
        s = graph.states
        a = inverse(graph.odo_meas)
        b = relative(s[graph.odo_i], s[graph.odo_j])
        t, err = _median_time(compose, (a, b), repeats)
        m["geometry.compose_s"] += t
        m["geometry.compose_bytes"] += a.nbytes + b.nbytes + err.nbytes
        t, r = _median_time(log, (err,), repeats)
        m["geometry.log_s"] += t
        m["geometry.log_bytes"] += err.nbytes + r.nbytes
        t, j = _median_time(jr_inv, (r,), repeats)
        m["geometry.jr_inv_s"] += t
        m["geometry.jr_inv_bytes"] += r.nbytes + j.nbytes
        m["geometry.batch"] += a.shape[0]
    return m
