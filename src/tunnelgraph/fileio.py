"""Plain-text file formats.

Trajectories use whitespace-delimited pose lines, one per frame:
``timestamp tx ty tz qx qy qz qw`` (quaternion scalar-last on disk, as
trajectory tooling expects).  Observations prepend the pole id after
the timestamp.  ``#`` lines are comments; a handful of well-known
header comments (``# key: value``) carry the metadata a bare pose table
cannot: source tag, frame rate, degrees-of-freedom mode, information
weights.  Every value is printed with 17 significant digits, so a
write/read cycle is bit-faithful.
"""

from __future__ import annotations

import csv
import dataclasses
import json

import numpy as np

from .graph import GROUPS, PoseGraph
from .metrics import ErrorReport
from .optimizer import SolveStats
from .simulate import NoiseInjection
from .sync import PLANAR, DOF_MODES, DataError, ObservationSet, OdometryTrack, SightingError

FLOAT_FMT = "%.17g"

REPORT_COLUMNS = [
    "source",
    "rate_hz",
    "frames",
    "trans_m_per_frame",
    "rot_deg_per_frame",
    "trans_m_per_s",
    "rot_deg_per_s",
    "closure_raw_m",
    "closure_opt_m",
]


def _fmt(value: float) -> str:
    return FLOAT_FMT % value


def _pose_fields(packed7) -> list:
    # disk order: tx ty tz qx qy qz qw  (scalar-last)
    t = packed7[:3]
    q = packed7[3:]
    return [_fmt(v) for v in (*t, q[1], q[2], q[3], q[0])]


def _parse_pose_fields(parts, path, lineno):
    if len(parts) != 7:
        raise DataError(f"{path}:{lineno}: expected 7 pose fields, got {len(parts)}")
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise DataError(f"{path}:{lineno}: malformed number") from None
    tx, ty, tz, qx, qy, qz, qw = vals
    return np.array([tx, ty, tz, qw, qx, qy, qz])


def _read_table(path):
    """Header comments (``# key: value``, first wins) and (lineno, fields) rows."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    headers = {}
    content = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped.lstrip("#").strip()
            if ":" in body:
                key, _, value = body.partition(":")
                headers.setdefault(key.strip(), value.strip())
            continue
        content.append((lineno, stripped.split()))
    return headers, content


def _source_headers(headers, path):
    """(dof_mode, rate) from the headers every track and graph file carries."""
    for required in ("source", "rate_hz", "dof_mode"):
        if required not in headers:
            raise DataError(f"{path}: missing '# {required}:' header")
    dof = headers["dof_mode"]
    if dof not in DOF_MODES:
        raise DataError(f"{path}: unknown dof_mode {dof!r}")
    try:
        rate = float(headers["rate_hz"])
    except ValueError:
        raise DataError(f"{path}: malformed rate_hz header") from None
    if not (rate > 0.0 and np.isfinite(rate)):
        raise DataError(f"{path}: rate_hz must be finite and positive (got {rate})")
    return dof, rate


# ---------------------------------------------------------------------------
# odometry tracks


def write_track(path, track: OdometryTrack) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# source: {track.source}\n")
        fh.write(f"# rate_hz: {_fmt(track.rate)}\n")
        fh.write(f"# dof_mode: {track.dof_mode}\n")
        fh.write("# columns: timestamp tx ty tz qx qy qz qw\n")
        for t, pose in zip(track.times, track.poses):
            fh.write(" ".join([_fmt(t)] + _pose_fields(pose)) + "\n")


def read_track(path) -> OdometryTrack:
    headers, content = _read_table(path)
    dof, rate = _source_headers(headers, path)

    times = np.empty(len(content))
    poses = np.empty((len(content), 7))
    prev_t = None
    prev_line = None
    for row, (lineno, parts) in enumerate(content):
        if len(parts) != 8:
            raise DataError(f"{path}:{lineno}: expected 8 fields, got {len(parts)}")
        try:
            t = float(parts[0])
        except ValueError:
            raise DataError(f"{path}:{lineno}: malformed timestamp") from None
        if prev_t is not None and t <= prev_t:
            raise DataError(
                f"{path}:{lineno}: timestamp {parts[0]} does not increase past "
                f"{prev_line} from the previous frame"
            )
        times[row] = t
        poses[row] = _parse_pose_fields(parts[1:], path, lineno)
        prev_t, prev_line = t, parts[0]
    return OdometryTrack(headers["source"], rate, dof, times, poses)


# ---------------------------------------------------------------------------
# landmark observations


def write_observations(path, observations: ObservationSet) -> None:
    """Uniform weights go in a header; mixed weights get per-line columns."""
    weights = list(zip(map(_fmt, observations.w_trans), map(_fmt, observations.w_rot)))
    per_line = len(set(weights)) > 1
    columns = "timestamp pole_id tx ty tz qx qy qz qw"
    with open(path, "w", encoding="utf-8") as fh:
        if per_line:
            fh.write(f"# columns: {columns} weight_trans weight_rot\n")
        else:
            fh.write(f"# columns: {columns}\n")
            if weights:
                fh.write(f"# weight_trans: {weights[0][0]}\n")
                fh.write(f"# weight_rot: {weights[0][1]}\n")
        rows = zip(observations.times, observations.pole_ids, observations.rel, weights)
        for t, pole_id, rel, pair in rows:
            fields = [_fmt(t), str(pole_id)] + _pose_fields(rel)
            if per_line:
                fields += list(pair)
            fh.write(" ".join(fields) + "\n")


def read_observations(path) -> ObservationSet:
    """Reads either layout: 9 fields with header weights, or 11 with per-line weights."""
    headers, content = _read_table(path)
    try:
        header_weights = [float(headers.get(k, "1")) for k in ("weight_trans", "weight_rot")]
    except ValueError:
        raise DataError(f"{path}: malformed weight header") from None
    count = len(content)
    times = np.empty(count)
    pole_ids = np.empty(count, dtype=int)
    rel = np.empty((count, 7))
    weights = np.empty((count, 2))
    for row, (lineno, parts) in enumerate(content):
        if len(parts) not in (9, 11):
            raise DataError(f"{path}:{lineno}: expected 9 or 11 fields, got {len(parts)}")
        try:
            times[row] = float(parts[0])
            pole_ids[row] = int(parts[1])
            weights[row] = [float(p) for p in parts[9:]] or header_weights
        except (ValueError, OverflowError):
            raise DataError(f"{path}:{lineno}: malformed number") from None
        if pole_ids[row] < 0:
            raise DataError(f"{path}:{lineno}: pole id must be non-negative")
        rel[row] = _parse_pose_fields(parts[2:9], path, lineno)
    try:
        return ObservationSet(times, pole_ids, rel, weights[:, 0], weights[:, 1])
    except SightingError as exc:
        lineno = content[exc.row][0]
        raise DataError(f"{path}:{lineno}: observation {exc.reason}") from None


# ---------------------------------------------------------------------------
# injected-noise record


def write_injection(path, record: NoiseInjection) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# columns: frame trans_m rot_deg tx ty tz qx qy qz qw\n")
        for k in range(record.error_poses.shape[0]):
            fields = [
                str(k),
                _fmt(record.trans_magnitudes[k]),
                _fmt(record.rot_magnitudes_deg[k]),
            ] + _pose_fields(record.error_poses[k])
            fh.write(" ".join(fields) + "\n")


def read_injection(path) -> NoiseInjection:
    _, content = _read_table(path)
    count = len(content)
    trans = np.empty(count)
    rot = np.empty(count)
    err = np.empty((count, 7))
    for row, (lineno, parts) in enumerate(content):
        if len(parts) != 10:
            raise DataError(f"{path}:{lineno}: expected 10 fields, got {len(parts)}")
        try:
            trans[row] = float(parts[1])
            rot[row] = float(parts[2])
        except ValueError:
            raise DataError(f"{path}:{lineno}: malformed number") from None
        err[row] = _parse_pose_fields(parts[3:], path, lineno)
    return NoiseInjection(trans, rot, err)


# ---------------------------------------------------------------------------
# pose-graph edge list


def _state_fields(graph, packed):
    if graph.dof_mode == PLANAR:
        return [_fmt(v) for v in packed]
    return _pose_fields(packed)


def _parse_state(dof, parts, path, lineno):
    if dof == PLANAR:
        return np.array([float(p) for p in parts])
    return _parse_pose_fields(parts, path, lineno)


def write_graph(path, graph: PoseGraph) -> None:
    """Plain-text edge list mirroring the in-memory problem."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# source: {graph.source}\n")
        fh.write(f"# rate_hz: {_fmt(graph.rate)}\n")
        fh.write(f"# dof_mode: {graph.dof_mode}\n")
        fh.write(f"GAUGE {graph.gauge_index}\n")
        for k in range(graph.node_count):
            fields = [
                "NODE",
                str(k),
                _fmt(graph.times[k]),
                str(int(graph.is_frame[k])),
            ] + _state_fields(graph, graph.states[k])
            fh.write(" ".join(fields) + "\n")
        fh.write(
            " ".join(["LANDMARK_FRAME"] + _state_fields(graph, graph.landmark)) + "\n"
        )
        for k in range(graph.pole_count):
            fh.write(
                " ".join(["POLE", str(k)] + _state_fields(graph, graph.template[k]))
                + "\n"
            )
        for e in range(graph.odo_count):
            fields = (
                ["EDGE_ODOM", str(graph.odo_i[e]), str(graph.odo_j[e])]
                + _state_fields(graph, graph.odo_meas[e])
                + [_fmt(graph.odo_w_trans[e]), _fmt(graph.odo_w_rot[e])]
            )
            fh.write(" ".join(fields) + "\n")
        for e in range(graph.obs_count):
            fields = (
                ["EDGE_OBS", str(graph.obs_node[e]), str(graph.obs_pole[e])]
                + _state_fields(graph, graph.obs_meas[e])
                + [_fmt(graph.obs_w_trans[e]), _fmt(graph.obs_w_rot[e])]
            )
            fh.write(" ".join(fields) + "\n")


def read_graph(path) -> PoseGraph:
    headers, content = _read_table(path)
    dof, rate = _source_headers(headers, path)
    dim = GROUPS[dof].packed_dim
    field_counts = {
        "GAUGE": 2,
        "NODE": 4 + dim,
        "LANDMARK_FRAME": 1 + dim,
        "POLE": 2 + dim,
        "EDGE_ODOM": 5 + dim,
        "EDGE_OBS": 5 + dim,
    }

    gauge = 0
    nodes, lm = {}, None
    poles = {}
    odo, obs = [], []
    for lineno, parts in content:
        tag = parts[0]
        if tag not in field_counts:
            raise DataError(f"{path}:{lineno}: unknown record {tag!r}")
        if len(parts) != field_counts[tag]:
            raise DataError(
                f"{path}:{lineno}: {tag} needs {field_counts[tag]} fields, got {len(parts)}"
            )
        try:
            if tag == "GAUGE":
                gauge = int(parts[1])
            elif tag == "NODE":
                state = _parse_state(dof, parts[4:], path, lineno)
                nodes[int(parts[1])] = (float(parts[2]), bool(int(parts[3])), state)
            elif tag == "LANDMARK_FRAME":
                lm = _parse_state(dof, parts[1:], path, lineno)
            elif tag == "POLE":
                poles[int(parts[1])] = _parse_state(dof, parts[2:], path, lineno)
            else:
                (odo if tag == "EDGE_ODOM" else obs).append((
                    int(parts[1]),
                    int(parts[2]),
                    _parse_state(dof, parts[3 : 3 + dim], path, lineno),
                    float(parts[3 + dim]),
                    float(parts[4 + dim]),
                ))
        except ValueError:
            raise DataError(f"{path}:{lineno}: malformed number in {tag} record") from None
    if not nodes or lm is None or not poles:
        raise DataError(f"{path}: incomplete graph file")

    order = sorted(nodes)
    if order != list(range(len(order))):
        raise DataError(f"{path}: node ids must be 0..N-1")
    times = np.array([nodes[k][0] for k in order])
    is_frame = np.array([nodes[k][1] for k in order], dtype=bool)
    states = np.stack([nodes[k][2] for k in order])
    template = np.stack([poles[k] for k in sorted(poles)])
    return PoseGraph(
        source=headers["source"],
        rate=rate,
        dof_mode=dof,
        times=times,
        is_frame=is_frame,
        states=states,
        landmark=lm,
        template=template,
        odo_i=np.array([e[0] for e in odo], dtype=int),
        odo_j=np.array([e[1] for e in odo], dtype=int),
        odo_meas=(
            np.stack([e[2] for e in odo]) if odo else np.zeros((0, dim))
        ),
        odo_w_trans=np.array([e[3] for e in odo]),
        odo_w_rot=np.array([e[4] for e in odo]),
        obs_node=np.array([e[0] for e in obs], dtype=int),
        obs_pole=np.array([e[1] for e in obs], dtype=int),
        obs_meas=(
            np.stack([e[2] for e in obs]) if obs else np.zeros((0, dim))
        ),
        obs_w_trans=np.array([e[3] for e in obs]),
        obs_w_rot=np.array([e[4] for e in obs]),
        gauge_index=gauge,
        unconstrained=not obs,
    )


# ---------------------------------------------------------------------------
# reports


def write_report_csv(path, reports) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for r in reports:
            writer.writerow(
                [
                    r.source,
                    _fmt(r.rate),
                    r.frame_count,
                    _fmt(r.trans_per_frame),
                    _fmt(r.rot_deg_per_frame),
                    _fmt(r.trans_per_second),
                    _fmt(r.rot_deg_per_second),
                    _fmt(r.closure_raw),
                    _fmt(r.closure_optimized),
                ]
            )


def read_report_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != REPORT_COLUMNS:
        raise DataError(f"{path}: unexpected report schema")
    out = []
    for row in rows[1:]:
        out.append(
            ErrorReport(
                source=row[0],
                rate=float(row[1]),
                frame_count=int(row[2]),
                trans_per_frame=float(row[3]),
                rot_deg_per_frame=float(row[4]),
                closure_raw=float(row[7]),
                closure_optimized=float(row[8]),
            )
        )
    return out


def format_report_table(reports, phase_rows=None, capped=()) -> str:
    """Human-readable summary table, one row per source; ``capped`` names
    the sources whose solve stopped at the iteration limit."""
    header = (
        f"{'source':<10} {'m/frame':>12} {'deg/frame':>12} {'m/s':>10} "
        f"{'deg/s':>10} {'closure raw m':>14} {'closure opt m':>14}"
    )
    lines = ["Average odometry corrections per frame and per second", "", header]
    lines.append("-" * len(header))
    for r in reports:
        flag = " (unconstrained)" if r.unconstrained else ""
        flag += " (max-iterations)" if r.source in capped else ""
        lines.append(
            f"{r.source:<10} {r.trans_per_frame:>12.6f} {r.rot_deg_per_frame:>12.5f} "
            f"{r.trans_per_second:>10.4f} {r.rot_deg_per_second:>10.4f} "
            f"{r.closure_raw:>14.4f} {r.closure_optimized:>14.4f}{flag}"
        )
    if phase_rows:
        lines.append("")
        lines.append("Phase breakdown (mean correction per frame)")
        for source, phases in phase_rows.items():
            for name, (count, tmean, rmean) in phases.items():
                lines.append(
                    f"  {source:<10} {name:<10} frames={count:<6d} "
                    f"trans={tmean:.6f} m  rot={rmean:.5f} deg"
                )
    return "\n".join(lines) + "\n"


# the stats key of each ErrorReport field; the report is rebuilt from
# these, and a field with a default may be absent
STATS_KEYS = {
    "source": "source", "rate_hz": "rate", "frames": "frame_count",
    "trans_m_per_frame": "trans_per_frame", "rot_deg_per_frame": "rot_deg_per_frame",
    "closure_raw_m": "closure_raw", "closure_opt_m": "closure_optimized",
    "closure_raw_z_m": "closure_raw_z", "closure_opt_z_m": "closure_optimized_z",
    "unconstrained": "unconstrained",
}
# the JSON values a field of each type accepts (float: any number)
_JSON_KINDS = {"str": str, "int": int, "float": (int, float), "bool": bool}


def write_stats_json(path, stats: SolveStats, report: ErrorReport) -> None:
    payload = {key: getattr(report, name) for key, name in STATS_KEYS.items()}
    payload.update(
        trans_m_per_s=report.trans_per_second,
        rot_deg_per_s=report.rot_deg_per_second,
        solver={
            "iterations": stats.iterations,
            "initial_cost": stats.initial_cost,
            "final_cost": stats.final_cost,
            "reason": stats.reason,
            "cost_trace": list(stats.cost_trace),
            "per_iteration": list(stats.per_iteration),
        },
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_stats_json(path) -> dict:
    """Solver stats file; the keys the report needs are checked for presence and type,
    and ``solver.reason``, when present, must be a string."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{exc.lineno}: malformed JSON: {exc.msg}") from None
    if not isinstance(payload, dict):
        raise DataError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    fields = {f.name: f for f in dataclasses.fields(ErrorReport)}
    for key, name in STATS_KEYS.items():
        f = fields[name]
        if key not in payload:
            if f.default is dataclasses.MISSING:
                raise DataError(f"{path}: missing key {key!r}")
            continue
        value = payload[key]
        is_bool = f.type == "bool"
        # bool is an int subclass in Python but not a number in JSON
        if not isinstance(value, _JSON_KINDS[f.type]) or isinstance(value, bool) != is_bool:
            kind = "number" if f.type == "float" else f.type
            raise DataError(f"{path}: key {key!r} must be a {kind}, got {value!r}")
    solver = payload.get("solver", {})
    if not isinstance(solver, dict):
        raise DataError(f"{path}: key 'solver' must be a JSON object, got {solver!r}")
    if not isinstance(solver.get("reason", ""), str):
        raise DataError(f"{path}: key 'solver.reason' must be a str, got {solver['reason']!r}")
    return payload


def stats_report(payload) -> ErrorReport:
    """The ErrorReport a payload from :func:`read_stats_json` was written from."""
    given = {name: payload[key] for key, name in STATS_KEYS.items() if key in payload}
    return ErrorReport(**given)


def write_xy_csv(path, times, raw_xy, opt_xy) -> None:
    """Raw-versus-optimized trajectory plot data."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "raw_x", "raw_y", "opt_x", "opt_y"])
        for k in range(len(times)):
            writer.writerow(
                [
                    _fmt(times[k]),
                    _fmt(raw_xy[k][0]),
                    _fmt(raw_xy[k][1]),
                    _fmt(opt_xy[k][0]),
                    _fmt(opt_xy[k][1]),
                ]
            )


def write_poles_csv(path, true_xy, est_xy) -> None:
    """True and estimated pole positions for plotting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pole_id", "true_x", "true_y", "est_x", "est_y"])
        for k in range(len(est_xy)):
            tx, ty = (true_xy[k][0], true_xy[k][1]) if true_xy is not None else ("", "")
            writer.writerow(
                [k, _fmt(tx) if tx != "" else "", _fmt(ty) if ty != "" else "",
                 _fmt(est_xy[k][0]), _fmt(est_xy[k][1])]
            )
