"""End-to-end orchestration shared by the command line and the tests.

Three stages mirror the subcommands.  ``simulate_scenario`` turns a
:class:`~tunnelgraph.config.ScenarioConfig` into files on disk: ground
truth, one corrupted track per source, the landmark observation log and
the per-source injection record.  The estimation path runs in memory in
two calls, each timing its stages: ``build_track_graph`` aligns a track
with the sightings and builds the problem graph, and ``solve_graph``
solves it and measures the solution.  Between the two a caller drops the
track and the sightings, so that only the graph is alive during the
solve, as the ``optimize`` subcommand and ``recovery_run`` do.
``optimize_track`` is the two in one call, for callers that keep their
inputs.  ``report_run`` gathers per-source solver outputs from a
run directory into the summary table, CSV and plot data.

Every stage that writes appends each path to a caller-supplied list
before touching the file, so a failed run can be cleaned up completely.
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass

import numpy as np

from . import fileio
from . import geometry as geom
from . import graph as gmod
from . import metrics
from . import optimizer as opt
from . import simulate as sim
from . import sync
from .config import ScenarioConfig, format_config, parse_config
from .sync import DataError

GROUND_TRUTH_FILE = "ground_truth.txt"
OBSERVATIONS_FILE = "observations.txt"
CONFIG_FILE = "config_effective.txt"
REPORT_CSV = "report.csv"
REPORT_TXT = "report.txt"

OBSERVATION_STREAM = "landmark-observations"


def derive_seed(base: int, tag: str) -> int:
    """Stable per-stream seed: one base seed fans out to independent
    streams keyed by name, insensitive to source ordering."""
    return (base * (1 << 32) + zlib.crc32(tag.encode("utf-8"))) % (1 << 63)


# ---------------------------------------------------------------------------
# simulate


@dataclass
class SimulatedSource:
    track: sync.OdometryTrack


@dataclass
class SimulationArtifacts:
    observations: sync.ObservationSet
    sources: dict
    paths: list


def simulate_scenario(cfg: ScenarioConfig, out_dir, written=None) -> SimulationArtifacts:
    """Generate and write every input the optimizer stage consumes."""
    written = written if written is not None else []
    os.makedirs(out_dir, exist_ok=True)

    config_path = os.path.join(out_dir, CONFIG_FILE)
    written.append(config_path)
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(format_config(cfg))

    max_rate = max(cfg.noise[name].frame_rate for name in cfg.sources)
    truth = sim.generate_ground_truth(cfg.trajectory, max_rate)
    truth_path = os.path.join(out_dir, GROUND_TRUTH_FILE)
    written.append(truth_path)
    fileio.write_track(truth_path, truth)

    placement = sim.default_placement(cfg.lateral_offset)
    observations = sim.simulate_landmark_observations(
        truth,
        cfg.layout,
        placement,
        cfg.detection,
        derive_seed(cfg.seed, OBSERVATION_STREAM),
    )
    obs_path = os.path.join(out_dir, OBSERVATIONS_FILE)
    written.append(obs_path)
    fileio.write_observations(obs_path, observations)

    sources = {}
    for name in cfg.sources:
        noise = cfg.noise[name]
        source_truth = (
            truth
            if noise.frame_rate == max_rate
            else sim.generate_ground_truth(cfg.trajectory, noise.frame_rate)
        )
        track, injection = sim.corrupt(
            source_truth, noise, derive_seed(cfg.seed, f"corrupt-{name}")
        )
        raw_path = os.path.join(out_dir, f"{name}_raw.txt")
        written.append(raw_path)
        fileio.write_track(raw_path, track)
        injection_path = os.path.join(out_dir, f"{name}_injected.txt")
        written.append(injection_path)
        fileio.write_injection(injection_path, injection)
        sources[name] = SimulatedSource(track)

    return SimulationArtifacts(observations, sources, written)


# ---------------------------------------------------------------------------
# optimize


@dataclass
class OptimizationResult:
    graph: gmod.PoseGraph  # solved states, original measurements
    stats: opt.SolveStats
    report: metrics.ErrorReport
    raw_graph: gmod.PoseGraph
    # seconds per stage: align_s, build_graph_s, solve_s and metrics_s
    stages: dict


def build_track_graph(
    track: sync.OdometryTrack,
    observations: sync.ObservationSet,
    mode: str = None,
    layout: sim.LandmarkLayout = None,
    odom_weights=(1.0, 1.0),
    landmark_fixed: bool = False,
):
    """Align one odometry source with the sightings and build its problem
    graph.  Returns (graph, stages), with the seconds spent in ``align_s``
    and ``build_graph_s``.  The aligned sequence goes with this call, so a
    caller that then drops the track and the sightings holds only the
    graph while :func:`solve_graph` runs.
    """
    mode = mode or track.dof_mode
    layout = layout or sim.LandmarkLayout()
    start = time.perf_counter()
    aligned = sync.align(track, observations)
    aligned_at = time.perf_counter()
    graph = gmod.build_graph(aligned, layout, mode, odom_weights, landmark_fixed=landmark_fixed)
    stages = {"align_s": aligned_at - start, "build_graph_s": time.perf_counter() - aligned_at}
    return graph, stages


def solve_graph(
    graph: gmod.PoseGraph,
    stages: dict,
    settings: opt.SolverSettings = None,
    progress=None,
) -> OptimizationResult:
    """Solve and summarize a built graph, adding ``solve_s`` and
    ``metrics_s`` to the ``stages`` of :func:`build_track_graph`.
    ``progress`` is handed to :func:`optimizer.optimize`.
    """
    start = time.perf_counter()
    solved, stats = opt.optimize(graph, settings, progress)
    solved_at = time.perf_counter()
    report = metrics.per_frame_corrections(graph, solved.states)
    stages = {
        **stages,
        "solve_s": solved_at - start,
        "metrics_s": time.perf_counter() - solved_at,
    }
    return OptimizationResult(solved, stats, report, graph, stages)


def optimize_track(
    track: sync.OdometryTrack,
    observations: sync.ObservationSet,
    mode: str = None,
    layout: sim.LandmarkLayout = None,
    odom_weights=(1.0, 1.0),
    settings: opt.SolverSettings = None,
    landmark_fixed: bool = False,
    progress=None,
) -> OptimizationResult:
    """Align, build, solve and summarize one odometry source, timing each
    stage: :func:`build_track_graph`, then :func:`solve_graph`.  The
    caller's track and sightings stay alive through the solve; a caller
    that can drop them calls the two stages itself.
    """
    graph, stages = build_track_graph(
        track, observations, mode, layout, odom_weights, landmark_fixed
    )
    return solve_graph(graph, stages, settings, progress)


def node_track(graph: gmod.PoseGraph, source: str, rate: float) -> sync.OdometryTrack:
    """Expose graph node states as a serializable trajectory.

    Planar states gain z = 0 and a yaw-only quaternion so every track
    file shares one shape regardless of mode.
    """
    poses = graph.group.to_pose3(graph.states)
    return sync.OdometryTrack(source, rate, graph.dof_mode, graph.times.copy(), poses)


def write_optimization(out_dir, source: str, result: OptimizationResult, written=None):
    """Write the optimized trajectory, solved graph and solver stats, adding
    the paths to ``written``.  The stats file, written last, records the
    stage timings, with ``write_s`` the seconds spent writing the trajectory
    and the graph; they are returned."""
    written = written if written is not None else []
    os.makedirs(out_dir, exist_ok=True)
    start = time.perf_counter()

    opt_path = os.path.join(out_dir, f"{source}_optimized.txt")
    written.append(opt_path)
    fileio.write_track(opt_path, node_track(result.graph, source, result.report.rate))

    graph_path = os.path.join(out_dir, f"{source}_graph.txt")
    written.append(graph_path)
    fileio.write_graph(graph_path, result.graph)
    stages = {**result.stages, "write_s": time.perf_counter() - start}

    stats_path = os.path.join(out_dir, f"{source}_stats.json")
    written.append(stats_path)
    fileio.write_stats_json(stats_path, result.stats, result.report, stages)
    return stages


# ---------------------------------------------------------------------------
# report


# a last accepted gain ratio outside these bounds marks a solve that stopped
# short of its optimum.  Solves that reach the optimum end near 1.  The
# Huber crawls end near 2, every step about half as long as the model says
# it should be; the lidar crawls end at 0.01 to 0.15, every step about twice
# as long as the step to the lowest cost along it.
STOPPED_SHORT_GAINS = (0.25, 1.5)


def _solver_marks(solver) -> tuple:
    """The marks ``report.txt`` puts on a source's row, from the ``solver``
    record of its stats file: ``max-iterations`` when the solve stopped at
    the iteration limit, and ``stopped short`` when the last gain ratio it
    recorded lies outside ``STOPPED_SHORT_GAINS``."""
    marks = []
    if solver.get("reason") == opt.MAX_ITERATIONS:
        marks.append(opt.MAX_ITERATIONS)
    records = solver.get("per_iteration", [])
    gains = [r["gain_ratio"] for r in records if r.get("gain_ratio") is not None]
    low, high = STOPPED_SHORT_GAINS
    if gains and not low <= gains[-1] <= high:
        marks.append("stopped short")
    return tuple(marks)


def _discover_sources(run_dir):
    suffix = "_stats.json"
    return [entry[: -len(suffix)] for entry in sorted(os.listdir(run_dir)) if entry.endswith(suffix)]


def _check_source(path, source, name):
    """``report`` pairs a source's files by ``name``, so each must carry it."""
    if source != name:
        raise DataError(f"{path}: source {source!r} does not match the file name's {name!r}")


def read_config(path) -> ScenarioConfig:
    """The scenario configuration in the file at ``path``; an error in it
    names the file."""
    text = fileio.read_text(path)
    try:
        return parse_config(text)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def report_run(run_dir, out_dir=None, written=None):
    """Assemble report.csv / report.txt and plot data from a run dir."""
    out_dir = out_dir or run_dir
    written = written if written is not None else []
    sources = _discover_sources(run_dir)
    if not sources:
        raise DataError(f"{run_dir}: no *_stats.json solver outputs found")

    config_path = os.path.join(run_dir, CONFIG_FILE)
    cfg = read_config(config_path) if os.path.exists(config_path) else None
    # every input is read and checked before the first write, so a failed
    # report leaves no output directory behind
    reports = []
    phase_rows = {}
    marks = {}
    tables = []  # (name, graph, raw track or None) of each source with a graph
    for name in sources:
        stats_path = os.path.join(run_dir, f"{name}_stats.json")
        payload = fileio.read_stats_json(stats_path)
        _check_source(stats_path, payload["source"], name)
        reports.append(fileio.stats_report(payload))
        marks[name] = _solver_marks(payload.get("solver", {}))

        graph_path = os.path.join(run_dir, f"{name}_graph.txt")
        if not os.path.exists(graph_path):
            continue
        graph = fileio.read_graph(graph_path)
        _check_source(graph_path, graph.source, name)
        if cfg is not None:
            if graph.pole_count != cfg.layout.count:
                raise DataError(f"{graph_path}: pole count does not match {config_path}")
            phase_rows[name] = metrics.phase_breakdown(
                graph, cfg.trajectory.phase_intervals()
            )
        raw_path = os.path.join(run_dir, f"{name}_raw.txt")
        raw = fileio.read_track(raw_path) if os.path.exists(raw_path) else None
        if raw is not None:
            _check_source(raw_path, raw.source, name)
            if not np.array_equal(raw.times, graph.times[graph.is_frame]):
                raise DataError(f"{graph_path}: frame times do not match {raw_path}")
        tables.append((name, graph, raw))

    os.makedirs(out_dir, exist_ok=True)
    true_xy = None
    if cfg is not None:
        placement = sim.default_placement(cfg.lateral_offset)
        true_xy = geom.pose3_compose(placement.packed, cfg.layout.template())[:, :2]
    for name, graph, raw in tables:
        if raw is not None:
            xy_path = os.path.join(out_dir, f"{name}_xy.csv")
            written.append(xy_path)
            fileio.write_xy_csv(
                xy_path,
                raw.times,
                raw.poses[:, :2],
                graph.states[graph.is_frame, :2],
            )
        poles_path = os.path.join(out_dir, f"{name}_poles.csv")
        written.append(poles_path)
        fileio.write_poles_csv(poles_path, true_xy, graph.pole_world_poses()[:, :2])

    csv_path = os.path.join(out_dir, REPORT_CSV)
    written.append(csv_path)
    fileio.write_report_csv(csv_path, reports)

    txt_path = os.path.join(out_dir, REPORT_TXT)
    written.append(txt_path)
    with open(txt_path, "w", encoding="utf-8") as fh:
        fh.write(fileio.format_report_table(reports, phase_rows or None, marks))
    return reports, written


# ---------------------------------------------------------------------------
# calibration recovery


def recovery_run(noise: sim.NoiseProfile, seed: int, profile=None):
    """In-memory calibration-recovery measurement for one seed.

    A detector that sees every pole from every frame, noiselessly, pins
    each frame with weights two orders of magnitude stiffer than the
    odometry they measure, so the optimizer must attribute the full
    injected error to per-frame corrections instead of spreading it
    between pins, and the reported per-frame means can be compared
    against the preset magnitudes.  A per-frame error of magnitude m
    weighs like a standard deviation of m.  Returns the
    :class:`OptimizationResult` and the ``NoiseInjection`` of the track.
    """
    graph, stages, injection = _recovery_graph(noise, seed, profile or sim.TrajectoryProfile())
    # the ground truth, the raw track and the sightings went with the
    # frame that built the graph, so the solve holds the graph alone
    return solve_graph(graph, stages), injection


def _recovery_graph(noise: sim.NoiseProfile, seed: int, profile: sim.TrajectoryProfile):
    """(graph, stages, injection) of :func:`recovery_run`'s problem."""
    layout = sim.LandmarkLayout()
    truth = sim.generate_ground_truth(profile, noise.frame_rate)
    track, injection = sim.corrupt(truth, noise, derive_seed(seed, f"corrupt-{noise.source}"))
    detector = sim.DetectionModel(
        max_range=1e9,
        max_bearing_deg=180.0,
        rate=noise.frame_rate,
        sigma_trans=0.0,
        sigma_rot_deg=0.0,
    )
    observations = sim.simulate_landmark_observations(
        truth,
        layout,
        sim.default_placement(),
        detector,
        derive_seed(seed, OBSERVATION_STREAM),
    )
    m_t, m_r = noise.trans_per_frame, np.radians(noise.rot_deg_per_frame)
    weight = sim.information_weight
    observations = sync.with_weights(observations, weight(m_t / 100.0), weight(m_r / 100.0))
    graph, stages = build_track_graph(
        track,
        observations,
        mode=noise.dof_mode,
        layout=layout,
        odom_weights=(weight(m_t), weight(m_r)),
    )
    return graph, stages, injection
