"""Command-line entry point.

Three subcommands cover the workflow:

``simulate``
    config file in, simulation artifacts out (ground truth, corrupted
    tracks, observations, injection records, effective config echo).
``optimize``
    one track plus the observation log in, optimized trajectory, solved
    graph edge list and solver stats out.
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
from . import optimizer as opt
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
    p_opt.add_argument("--pole-count", type=int, default=4)
    p_opt.add_argument("--pole-spacing", type=float, default=18.0)
    p_opt.add_argument(
        "--weight-trans", type=float, default=1.0, help="odometry translation weight"
    )
    p_opt.add_argument(
        "--weight-rot", type=float, default=1.0, help="odometry rotation weight"
    )
    p_opt.add_argument("--max-iterations", type=int, default=None)
    p_opt.add_argument("--huber-delta", type=float, default=None)
    p_opt.add_argument(
        "--jacobian-mode", choices=[opt.ANALYTIC, opt.NUMERIC], default=None
    )
    p_opt.add_argument(
        "--position-only",
        action="store_true",
        help="drop rotational observation residuals",
    )
    p_opt.add_argument(
        "--landmark-fixed",
        action="store_true",
        help="freeze the landmark frame at its initial estimate",
    )

    p_rep = sub.add_parser("report", help="summarize optimize outputs")
    p_rep.add_argument("--dir", required=True, help="directory holding *_stats.json")
    p_rep.add_argument("--out", help="output directory (defaults to --dir)")
    return parser


def _cmd_simulate(args, written):
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    else:
        cfg = parse_config("")
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    artifacts = pipeline.simulate_scenario(cfg, args.out, written)
    for path in artifacts.paths:
        print(path)
    return EXIT_OK


def _solver_settings(args):
    kwargs = {}
    if args.max_iterations is not None:
        kwargs["max_iterations"] = args.max_iterations
    if args.huber_delta is not None:
        kwargs["huber_delta"] = args.huber_delta
    if args.jacobian_mode is not None:
        kwargs["jacobian_mode"] = args.jacobian_mode
    return SolverSettings(**kwargs) if kwargs else None


def _cmd_optimize(args, written):
    track = fileio.read_track(args.track)
    observations = fileio.read_observations(args.observations)
    if args.pole_count < 1:
        raise DataError("--pole-count must be at least 1")
    if args.pole_spacing <= 0:
        raise DataError("--pole-spacing must be positive")
    layout = sim.LandmarkLayout(count=args.pole_count, spacing=args.pole_spacing)
    result = pipeline.optimize_track(
        track,
        observations,
        mode=args.mode,
        layout=layout,
        odom_weights=(args.weight_trans, args.weight_rot),
        settings=_solver_settings(args),
        position_only=args.position_only,
        landmark_fixed=args.landmark_fixed,
    )
    os.makedirs(args.out, exist_ok=True)
    for path in pipeline.write_optimization(args.out, track.source, result, written):
        print(path)
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
