"""End-to-end orchestration shared by the command line and the tests.

Three stages mirror the subcommands.  ``simulate_scenario`` turns a
:class:`~tunnelgraph.config.ScenarioConfig` into files on disk: ground
truth, one corrupted track per source, the landmark observation log and
the per-source injection record.  ``optimize_track`` runs the whole
estimation path in memory (alignment, graph construction, solve,
metrics).  ``report_run`` gathers per-source solver outputs from a run
directory into the summary table, CSV and plot data.

Every stage that writes appends each path to a caller-supplied list
before touching the file, so a failed run can be cleaned up completely.
"""

from __future__ import annotations

import os
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


def noise_odom_weights(noise: sim.NoiseProfile):
    """Information weights implied by a fixed-magnitude noise profile.

    A per-frame error of magnitude m is treated like a standard
    deviation of m, giving weight 1/m^2 per component.  Zero magnitude
    (a noiseless channel) falls back to unit weight; the residuals are
    zero there anyway.
    """
    m_t = noise.trans_per_frame
    m_r = np.radians(noise.rot_deg_per_frame)
    w_t = 1.0 / (m_t * m_t) if m_t > 0 else 1.0
    w_r = 1.0 / (m_r * m_r) if m_r > 0 else 1.0
    return w_t, w_r


def dense_detection_for(noise: sim.NoiseProfile) -> sim.DetectionModel:
    """A detector that sees every pole from every frame, noiselessly.

    Used by the calibration-recovery checks: with landmark constraints
    at every frame the optimizer must attribute the full injected error
    to per-frame corrections instead of spreading it between pins.
    """
    return sim.DetectionModel(
        max_range=1e9,
        max_bearing_deg=180.0,
        rate=noise.frame_rate,
        sigma_trans=0.0,
        sigma_rot_deg=0.0,
    )


def recovery_obs_weights(noise: sim.NoiseProfile):
    """Observation weights for recovery runs: pins two orders of
    magnitude stiffer than the odometry channel they measure."""
    m_t = noise.trans_per_frame
    m_r = np.radians(noise.rot_deg_per_frame)
    w_t = (100.0 / m_t) ** 2 if m_t > 0 else 1.0
    w_r = (100.0 / m_r) ** 2 if m_r > 0 else 1.0
    return w_t, w_r


# ---------------------------------------------------------------------------
# simulate


@dataclass
class SimulatedSource:
    noise: sim.NoiseProfile
    track: sync.OdometryTrack
    injection: sim.NoiseInjection
    raw_path: str
    injection_path: str


@dataclass
class SimulationArtifacts:
    config: ScenarioConfig
    ground_truth: sync.OdometryTrack
    observations: sync.ObservationSet
    sources: dict
    paths: list


def simulate_scenario(cfg: ScenarioConfig, out_dir, written=None) -> SimulationArtifacts:
    """Generate and write every input the optimizer stage consumes."""
    if not cfg.sources:
        raise DataError("no sources configured")
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
        sources[name] = SimulatedSource(noise, track, injection, raw_path, injection_path)

    return SimulationArtifacts(cfg, truth, observations, sources, written)


# ---------------------------------------------------------------------------
# optimize


@dataclass
class OptimizationResult:
    graph: gmod.PoseGraph  # solved states, original measurements
    stats: opt.SolveStats
    report: metrics.ErrorReport
    raw_graph: gmod.PoseGraph


def optimize_track(
    track: sync.OdometryTrack,
    observations: sync.ObservationSet,
    mode: str = None,
    layout: sim.LandmarkLayout = None,
    odom_weights=(1.0, 1.0),
    settings: opt.SolverSettings = None,
    position_only: bool = False,
    landmark_fixed: bool = False,
) -> OptimizationResult:
    """Align, build, solve and summarize one odometry source."""
    mode = mode or track.dof_mode
    layout = layout or sim.LandmarkLayout()
    aligned = sync.align(track, observations, odom_weights=odom_weights)
    graph = gmod.build_graph(
        aligned,
        layout,
        mode,
        position_only=position_only,
        landmark_fixed=landmark_fixed,
    )
    solved, stats = opt.optimize(graph, settings)
    report = metrics.per_frame_corrections(solved)
    return OptimizationResult(solved, stats, report, graph)


def node_track(graph: gmod.PoseGraph, source: str, rate: float) -> sync.OdometryTrack:
    """Expose graph node states as a serializable trajectory.

    Planar states gain z = 0 and a yaw-only quaternion so every track
    file shares one shape regardless of mode.
    """
    poses = graph.group.to_pose3(graph.states)
    return sync.OdometryTrack(source, rate, graph.dof_mode, graph.times.copy(), poses)


def write_optimization(out_dir, source: str, result: OptimizationResult, written=None):
    """Write the optimized trajectory, solved graph and solver stats."""
    written = written if written is not None else []
    os.makedirs(out_dir, exist_ok=True)

    opt_path = os.path.join(out_dir, f"{source}_optimized.txt")
    written.append(opt_path)
    fileio.write_track(opt_path, node_track(result.graph, source, result.report.rate))

    graph_path = os.path.join(out_dir, f"{source}_graph.txt")
    written.append(graph_path)
    fileio.write_graph(graph_path, result.graph)

    stats_path = os.path.join(out_dir, f"{source}_stats.json")
    written.append(stats_path)
    fileio.write_stats_json(stats_path, result.stats, result.report)
    return written


# ---------------------------------------------------------------------------
# report


def _discover_sources(run_dir):
    names = []
    for entry in sorted(os.listdir(run_dir)):
        if entry.endswith("_stats.json"):
            names.append(entry[: -len("_stats.json")])
    return names


def _report_from_stats(payload) -> metrics.ErrorReport:
    return metrics.ErrorReport(
        source=payload["source"],
        rate=payload["rate_hz"],
        frame_count=payload["frames"],
        trans_per_frame=payload["trans_m_per_frame"],
        rot_deg_per_frame=payload["rot_deg_per_frame"],
        closure_raw=payload["closure_raw_m"],
        closure_optimized=payload["closure_opt_m"],
        closure_raw_z=payload.get("closure_raw_z_m", 0.0),
        closure_optimized_z=payload.get("closure_opt_z_m", 0.0),
        unconstrained=payload.get("unconstrained", False),
    )


def report_run(run_dir, out_dir=None, written=None):
    """Assemble report.csv / report.txt and plot data from a run dir."""
    out_dir = out_dir or run_dir
    written = written if written is not None else []
    os.makedirs(out_dir, exist_ok=True)

    sources = _discover_sources(run_dir)
    if not sources:
        raise DataError(f"{run_dir}: no *_stats.json solver outputs found")

    cfg = None
    config_path = os.path.join(run_dir, CONFIG_FILE)
    if os.path.exists(config_path):
        with open(config_path, "r", encoding="utf-8") as fh:
            cfg = parse_config(fh.read())

    reports = []
    phase_rows = {}
    for name in sources:
        payload = fileio.read_stats_json(os.path.join(run_dir, f"{name}_stats.json"))
        reports.append(_report_from_stats(payload))

        graph_path = os.path.join(run_dir, f"{name}_graph.txt")
        if not os.path.exists(graph_path):
            continue
        graph = fileio.read_graph(graph_path)
        if cfg is not None:
            phase_rows[name] = metrics.phase_breakdown(
                graph, cfg.trajectory.phase_intervals()
            )

        raw_path = os.path.join(run_dir, f"{name}_raw.txt")
        if os.path.exists(raw_path):
            raw = fileio.read_track(raw_path)
            frames = metrics.frame_node_indices(graph)
            xy_path = os.path.join(out_dir, f"{name}_xy.csv")
            written.append(xy_path)
            fileio.write_xy_csv(
                xy_path,
                raw.times,
                raw.poses[:, :2],
                graph.states[frames][:, :2],
            )

        est_poles = graph.pole_world_poses()
        true_xy = None
        if cfg is not None:
            placement = sim.default_placement(cfg.lateral_offset)
            true_xy = geom.pose3_compose(placement.packed, cfg.layout.template())[:, :2]
        poles_path = os.path.join(out_dir, f"{name}_poles.csv")
        written.append(poles_path)
        fileio.write_poles_csv(poles_path, true_xy, est_poles[:, :2])

    csv_path = os.path.join(out_dir, REPORT_CSV)
    written.append(csv_path)
    fileio.write_report_csv(csv_path, reports)

    txt_path = os.path.join(out_dir, REPORT_TXT)
    written.append(txt_path)
    with open(txt_path, "w", encoding="utf-8") as fh:
        fh.write(fileio.format_report_table(reports, phase_rows or None))
    return reports, written


# ---------------------------------------------------------------------------
# calibration recovery


def recovery_run(noise: sim.NoiseProfile, seed: int, profile=None, layout=None):
    """In-memory calibration-recovery measurement for one seed.

    Dense noiseless pins at the frame rate with stiff weights force the
    optimizer to undo the injected noise exactly, so the reported
    per-frame means can be compared against the preset magnitudes.
    """
    profile = profile or sim.TrajectoryProfile()
    layout = layout or sim.LandmarkLayout()
    truth = sim.generate_ground_truth(profile, noise.frame_rate)
    track, injection = sim.corrupt(truth, noise, derive_seed(seed, f"corrupt-{noise.source}"))
    detector = dense_detection_for(noise)
    observations = sim.simulate_landmark_observations(
        truth,
        layout,
        sim.default_placement(),
        detector,
        derive_seed(seed, OBSERVATION_STREAM),
    )
    w_t, w_r = recovery_obs_weights(noise)
    observations = sync.with_weights(observations, w_t, w_r)
    result = optimize_track(
        track,
        observations,
        mode=noise.dof_mode,
        layout=layout,
        odom_weights=noise_odom_weights(noise),
    )
    return result, injection
