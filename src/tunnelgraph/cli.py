"""Command-line entry point.

Three subcommands cover the workflow:

``simulate``
    config file in, simulation artifacts out (ground truth, corrupted
    tracks, observations, injection records, effective config echo).
``optimize``
    one track plus the observation log in, optimized trajectory, solved
    graph edge list and solver stats out; ``--verbose`` also prints one
    line per LM iteration and then the stage timings to stderr.
``report``
    a directory of optimize outputs in, summary table, CSV and plot
    data out.

Exit codes are a stable contract: 0 success, 1 usage error, 2 data
error (unreadable or invalid inputs), 3 numerical failure.  Any failure
prints a one-line cause to stderr and removes files the failed step had
started writing.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import fileio
from . import pipeline
from . import simulate as sim
from .config import parse_config
from .optimizer import ConditioningError, SolverSettings
from .sync import DataError, DOF_MODES

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this tool reserves
    2 for data problems, so usage failures are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="tunnelgraph",
        description="Pose-graph validation of odometry against sparse pole landmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_sim = sub.add_parser("simulate", help="generate a synthetic scenario")
    p_sim.add_argument("--config", help="key = value scenario file (defaults apply)")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--seed", type=int, help="override the configured seed")

    p_opt = sub.add_parser("optimize", help="solve one odometry source")
    p_opt.add_argument("--track", required=True, help="raw odometry track file")
    p_opt.add_argument("--observations", required=True, help="landmark observation file")
    p_opt.add_argument("--out", required=True, help="output directory")
    p_opt.add_argument(
        "--mode", choices=sorted(DOF_MODES), help="override the track's dof mode"
    )
    p_opt.add_argument("--pole-count", type=int)
    p_opt.add_argument("--pole-spacing", type=float)
    p_opt.add_argument(
        "--weight-trans", type=float, default=1.0, help="odometry translation weight"
    )
    p_opt.add_argument(
        "--weight-rot", type=float, default=1.0, help="odometry rotation weight"
    )
    p_opt.add_argument("--max-iterations", type=int, default=None)
    p_opt.add_argument("--huber-delta", type=float, default=None)
    p_opt.add_argument(
        "--landmark-fixed",
        action="store_true",
        help="freeze the landmark frame at its initial estimate",
    )
    p_opt.add_argument(
        "--verbose",
        action="store_true",
        help="print one line per LM iteration and the stage timings to stderr",
    )

    p_rep = sub.add_parser("report", help="summarize optimize outputs")
    p_rep.add_argument("--dir", required=True, help="directory holding *_stats.json")
    p_rep.add_argument("--out", help="output directory (defaults to --dir)")
    return parser


def _cmd_simulate(args, written):
    cfg = pipeline.read_config(args.config) if args.config is not None else parse_config("")
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    artifacts = pipeline.simulate_scenario(cfg, args.out, written)
    for path in artifacts.paths:
        print(path)
    return EXIT_OK


def _settings(cls, args, **options):
    """``cls`` from the options given, keyed by field; the dataclass keeps
    its own defaults and does the checks."""
    given = {name: getattr(args, option) for name, option in options.items()}
    return cls(**{name: value for name, value in given.items() if value is not None})


def _print_iteration(iteration, record):
    gain = record["gain_ratio"]
    print(
        f"iteration {iteration}: damping {record['damping']:.1e}, "
        f"rejected {record['rejected']}, step {record['step_norm']:.3e}, "
        f"grad_inf {record['grad_inf']:.3e}, "
        f"gain_ratio {'n/a' if gain is None else format(gain, '.4g')}, "
        f"solve {record['solve_s']:.4f} s",
        file=sys.stderr,
    )


def _cmd_optimize(args, written):
    track = fileio.read_track(args.track)
    observations = fileio.read_observations(args.observations)
    layout = _settings(sim.LandmarkLayout, args, count="pole_count", spacing="pole_spacing")
    settings = _settings(
        SolverSettings, args, max_iterations="max_iterations", huber_delta="huber_delta"
    )
    graph, stages = pipeline.build_track_graph(
        track,
        observations,
        mode=args.mode,
        layout=layout,
        odom_weights=(args.weight_trans, args.weight_rot),
        landmark_fixed=args.landmark_fixed,
    )
    del track, observations  # the graph holds what the solve needs of them
    result = pipeline.solve_graph(
        graph, stages, settings, progress=_print_iteration if args.verbose else None
    )
    stages = pipeline.write_optimization(args.out, graph.source, result, written)
    for path in written:
        print(path)
    if args.verbose:
        timings = ", ".join(f"{name[:-2]} {s:.4f} s" for name, s in stages.items())
        print(f"stages: {timings}", file=sys.stderr)
    r = result.report
    print(
        f"{r.source}: {r.trans_per_frame:.6g} m/frame, "
        f"{r.rot_deg_per_frame:.6g} deg/frame, "
        f"closure {r.closure_raw:.4g} m -> {r.closure_optimized:.4g} m, "
        f"{result.stats.iterations} iterations ({result.stats.reason})"
    )
    return EXIT_OK


def _cmd_report(args, written):
    reports, paths = pipeline.report_run(args.dir, args.out, written)
    for path in paths:
        print(path)
    return EXIT_OK


def _cleanup(written):
    for path in written:
        try:
            if os.path.isfile(path):
                os.remove(path)
        except OSError:
            pass


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "optimize": _cmd_optimize,
        "report": _cmd_report,
    }
    written = []
    try:
        return handlers[args.command](args, written)
    except (DataError, OSError) as exc:
        _cleanup(written)
        print(f"tunnelgraph: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ConditioningError, np.linalg.LinAlgError, FloatingPointError) as exc:
        _cleanup(written)
        print(f"tunnelgraph: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
