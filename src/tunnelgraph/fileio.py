"""Plain-text file formats.

Every numeric file is a table: ``#`` comment lines, some of them
``# key: value`` headers (source tag, frame rate, degrees-of-freedom
mode, information weights), and one row per record.  A trajectory row is
``timestamp tx ty tz qx qy qz qw``; observations put the pole id after
the timestamp; a graph row starts with its record tag (``NODE``, ...).

One codec reads and writes them all.  ``_format_rows`` renders
side-by-side columns in one format pass, integers as integers and floats
with 17 significant digits, so a write/read cycle is bit-faithful.
``_read_table`` decodes a file once into its headers and data lines, and
``_parse_rows`` parses a block of them (a graph's records of one tag) in
one pass of numpy's reader.  Only if numpy refuses the block does a line
scan run, to name ``path:lineno`` of the first row with the wrong field
count, else of the first row numpy refuses.  Quaternions are scalar-first
in memory and scalar-last on disk, as trajectory tooling expects;
``TO_DISK`` and ``FROM_DISK`` are that one reordering.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import warnings

import numpy as np

from .graph import GROUPS, PoseGraph
from .metrics import ErrorReport
from .optimizer import SolveStats
from .simulate import NoiseInjection
from .sync import (
    DOF_MODES, SOURCE_NAME, DataError, ObservationSet, OdometryTrack, RowError,
)

FLOAT_FMT = "%.17g"

# packed [tx ty tz qw qx qy qz] -> disk [tx ty tz qx qy qz qw], and back;
# their first three entries leave a planar [x y yaw] state as it is
TO_DISK = np.array([0, 1, 2, 4, 5, 6, 3])
FROM_DISK = np.argsort(TO_DISK)

# report.csv column -> ErrorReport attribute
REPORT_FIELDS = {
    "source": "source", "rate_hz": "rate", "frames": "frame_count",
    "trans_m_per_frame": "trans_per_frame", "rot_deg_per_frame": "rot_deg_per_frame",
    "trans_m_per_s": "trans_per_second", "rot_deg_per_s": "rot_deg_per_second",
    "closure_raw_m": "closure_raw", "closure_opt_m": "closure_optimized",
}
REPORT_COLUMNS = list(REPORT_FIELDS)


def _fmt(value: float) -> str:
    return FLOAT_FMT % value


# ---------------------------------------------------------------------------
# the table codec


def _format_rows(columns, tag="", sep=" ") -> str:
    """One line per row of the side-by-side ``columns`` (each 1-D, or 2-D
    for several fields), after an optional record ``tag``: integer and
    bool columns print as integers, strings as they are, and floats as
    ``FLOAT_FMT``."""
    fields = [field for column in columns for field in np.atleast_2d(np.asarray(column).T)]
    formats = {"b": "%d", "i": "%d", "u": "%d", "U": "%s"}
    line = sep.join(([tag] if tag else []) + [formats.get(f.dtype.kind, FLOAT_FMT) for f in fields])
    values = [v for row in zip(*(f.tolist() for f in fields)) for v in row]
    return (line + "\n") * len(fields[0]) % tuple(values)


def _write(path, *parts, newline=None) -> None:
    with open(path, "w", encoding="utf-8", newline=newline) as fh:
        fh.write("".join(parts))


def _write_csv(path, header, columns) -> None:
    """The ``columns`` side by side under a ``header`` line, CRLF-terminated."""
    _write(path, header + "\n", _format_rows(columns, sep=","), newline="\r\n")


def read_text(path) -> str:
    """The file at ``path`` decoded as UTF-8; a byte that is not is a data error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc.reason} at offset {exc.start}") from None


def _read_table(path):
    """The header comments (``# key: value``, first wins) and the data
    lines, stripped, with their line numbers: (headers, linenos, lines)."""
    headers, linenos, lines = {}, [], []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("#"):
            body = stripped.lstrip("#").strip()
            if ":" in body:
                key, _, value = body.partition(":")
                headers.setdefault(key.strip(), value.strip())
        elif stripped:
            linenos.append(lineno)
            lines.append(stripped)
    return headers, linenos, lines


def _parse_rows(path, linenos, lines, kinds, sep=None):
    """The float and the integer columns of ``lines``, each a (rows, fields)
    array: a row has one field per letter of ``kinds``, ``f`` a float, ``i``
    an integer (as numpy's reader parses it, so ``1.5`` is malformed), ``-``
    skipped.  numpy reads the block in one pass into records that hold the
    ``f`` fields first and the ``i`` fields after them; a ``-`` field is a
    zero-width string, which still counts towards the row's width.
    """
    nf, ni = kinds.count("f"), kinds.count("i")
    at = {"f": itertools.count(0, 8), "i": itertools.count(8 * nf, 8), "-": itertools.repeat(0)}
    record = np.dtype({
        "names": [f"c{c}" for c in range(len(kinds))],
        "formats": [{"f": "f8", "i": "i8", "-": "U0"}[k] for k in kinds],
        "offsets": [next(at[k]) for k in kinds], "itemsize": 8 * (nf + ni),
    })
    load = functools.partial(np.loadtxt, dtype=record, comments=None, delimiter=sep, ndmin=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)  # older numpy reads "1.0" as an int
        try:
            table = load(lines) if lines else np.zeros(0, record)
        except ValueError:
            for lineno, line in zip(linenos, lines):
                got = len(line.split(sep))
                if got != len(kinds):
                    error = f"expected {len(kinds)} fields, got {got}"
                    raise DataError(f"{path}:{lineno}: {error}") from None
            for lineno, line in zip(linenos, lines):
                try:
                    load([line])
                except ValueError:
                    raise DataError(f"{path}:{lineno}: malformed number") from None
            raise
    split = table.view([("f", "f8", nf), ("i", "i8", ni)])
    return split["f"], split["i"]


def _checked(path, linenos, build, *args):
    """``build(*args)``, a :class:`RowError` named by its line and any other
    :class:`DataError` by the file."""
    try:
        return build(*args)
    except RowError as exc:
        raise DataError(f"{path}:{linenos[exc.row]}: {exc.reason}") from None
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _source_lines(item) -> str:
    return (
        f"# source: {item.source}\n# rate_hz: {_fmt(item.rate)}\n"
        f"# dof_mode: {item.dof_mode}\n"
    )


def _header_number(path, headers, key, default=None):
    """The number in header ``key`` (``default`` when there is none), read
    by the rule numpy's reader applies to a data field."""
    fields = headers.get(key, default).split()
    try:
        (value,) = np.loadtxt(fields, comments=None, ndmin=1) if fields else ()
    except ValueError:
        raise DataError(f"{path}: malformed {key} header") from None
    return float(value)


def _source_headers(headers, path):
    """(dof_mode, rate) from the headers every track and graph file carries."""
    for required in ("source", "rate_hz", "dof_mode"):
        if required not in headers:
            raise DataError(f"{path}: missing '# {required}:' header")
    dof = headers["dof_mode"]
    if dof not in DOF_MODES:
        raise DataError(f"{path}: unknown dof_mode {dof!r}")
    rate = _header_number(path, headers, "rate_hz")
    if not (rate > 0.0 and np.isfinite(rate)):
        raise DataError(f"{path}: rate_hz must be finite and positive (got {rate})")
    return dof, rate


# ---------------------------------------------------------------------------
# odometry tracks, landmark observations, injected-noise records


def write_track(path, track: OdometryTrack) -> None:
    _write(
        path, _source_lines(track), "# columns: timestamp tx ty tz qx qy qz qw\n",
        _format_rows([track.times, track.poses[:, TO_DISK]]),
    )


def read_track(path) -> OdometryTrack:
    headers, linenos, lines = _read_table(path)
    dof, rate = _source_headers(headers, path)
    floats, _ = _parse_rows(path, linenos, lines, "f" * 8)
    return _checked(
        path, linenos, OdometryTrack,
        headers["source"], rate, dof, floats[:, 0], floats[:, 1:][:, FROM_DISK],
    )


def write_observations(path, observations: ObservationSet) -> None:
    """Uniform weights go in a header; mixed weights get per-line columns."""
    weights = np.stack([observations.w_trans, observations.w_rot], axis=1)
    bits = weights.view(np.uint64)  # the header must give back every row's bits
    columns = [observations.times, observations.pole_ids, observations.rel[:, TO_DISK]]
    header = "# columns: timestamp pole_id tx ty tz qx qy qz qw"
    if np.any(bits != bits[:1]):
        header += " weight_trans weight_rot\n"
        columns += [observations.w_trans, observations.w_rot]
    else:
        header += "\n" + "".join(
            f"# weight_trans: {_fmt(w_t)}\n# weight_rot: {_fmt(w_r)}\n"
            for w_t, w_r in weights[:1]
        )
    _write(path, header, _format_rows(columns))


def read_observations(path) -> ObservationSet:
    """Reads one layout per file: 9 fields with header weights, or 11 with
    per-line weights.  A weight header sets the first; without one, the
    first row's width sets it, and every row must have that width."""
    headers, linenos, lines = _read_table(path)
    keys = ("weight_trans", "weight_rot")
    per_line = bool(lines) and len(lines[0].split()) == 11 and not any(k in headers for k in keys)
    floats, ints = _parse_rows(path, linenos, lines, "fi" + "f" * (9 if per_line else 7))
    if per_line:
        weights = floats[:, 8], floats[:, 9]
    else:
        weights = [_header_number(path, headers, key, "1") for key in keys]
    return _checked(
        path, linenos, ObservationSet,
        floats[:, 0], ints[:, 0], floats[:, 1:8][:, FROM_DISK], *weights,
    )


def write_injection(path, record: NoiseInjection) -> None:
    _write(
        path, "# columns: frame trans_m rot_deg tx ty tz qx qy qz qw\n",
        _format_rows([
            np.arange(len(record.error_poses)), record.trans_magnitudes,
            record.rot_magnitudes_deg, record.error_poses[:, TO_DISK],
        ]),
    )


def read_injection(path) -> NoiseInjection:
    """Reads the record; its frame ids must be 0..n-1 in file order."""
    _, linenos, lines = _read_table(path)
    floats, ints = _parse_rows(path, linenos, lines, "i" + "f" * 9)
    bad = np.flatnonzero(ints[:, 0] != np.arange(len(lines)))
    if bad.size:
        k = bad[0]
        raise DataError(f"{path}:{linenos[k]}: frame id {ints[k, 0]}, expected {k}")
    return _checked(
        path, linenos, NoiseInjection, floats[:, 0], floats[:, 1], floats[:, 2:][:, FROM_DISK]
    )


# ---------------------------------------------------------------------------
# pose-graph edge list


def write_graph(path, graph: PoseGraph) -> None:
    """Plain-text edge list of every field of the problem; a
    ``# landmark_fixed: true`` header marks a frozen landmark frame, and
    ``GAUGE 0`` names the gauge node."""
    order = TO_DISK[: graph.states.shape[1]]
    records = {
        "GAUGE": [np.zeros(1, int)],
        "NODE": [np.arange(graph.node_count), graph.times, graph.is_frame, graph.states[:, order]],
        "LANDMARK_FRAME": [graph.landmark[None, order]],
        "POLE": [np.arange(graph.pole_count), graph.template[:, order]],
        "EDGE_ODOM": [graph.odo_i, graph.odo_j, graph.odo_meas[:, order],
                      graph.odo_w_trans, graph.odo_w_rot],
        "EDGE_OBS": [graph.obs_node, graph.obs_pole, graph.obs_meas[:, order],
                     graph.obs_w_trans, graph.obs_w_rot],
    }
    fixed = "# landmark_fixed: true\n" if graph.landmark_fixed else ""
    _write(path, _source_lines(graph), fixed, *(_format_rows(c, tag) for tag, c in records.items()))


def _id_order(path, tag, ids):
    """The row order that sorts ``ids``, which must be 0..n-1, each once."""
    if not ids.size:
        raise DataError(f"{path}: no {tag} record")
    order = np.argsort(ids, kind="stable")
    if not np.array_equal(ids[order], np.arange(ids.size)):
        raise DataError(f"{path}: {tag} ids must be 0..{ids.size - 1}, each once")
    return order


def read_graph(path) -> PoseGraph:
    """The graph :func:`write_graph` wrote: NODE and POLE ids run 0..n-1,
    each once, NODE is_frame is 0 or 1, and there is one LANDMARK_FRAME and
    at most one GAUGE record, which names node 0.  :class:`PoseGraph` checks
    the node count and the edges."""
    headers, linenos, lines = _read_table(path)
    dof, rate = _source_headers(headers, path)
    fixed = headers.get("landmark_fixed", "false")
    if fixed not in ("true", "false"):
        raise DataError(f"{path}: landmark_fixed must be true or false, got {fixed!r}")
    dim = GROUPS[dof].packed_dim
    state = "f" * dim
    kinds = {
        "GAUGE": "-i",
        "NODE": "-ifi" + state,
        "LANDMARK_FRAME": "-" + state,
        "POLE": "-i" + state,
        "EDGE_ODOM": "-ii" + state + "ff",
        "EDGE_OBS": "-ii" + state + "ff",
    }
    groups = {tag: ([], []) for tag in kinds}
    for lineno, line in zip(linenos, lines):
        tag = line.split(None, 1)[0]
        if tag not in groups:
            raise DataError(f"{path}:{lineno}: unknown record {tag!r}")
        groups[tag][0].append(lineno)
        groups[tag][1].append(line)
    del linenos, lines  # held by the groups from here on
    table = {tag: _parse_rows(path, *groups[tag], kinds[tag]) for tag in kinds}
    node_f, node_i = table["NODE"]
    bad = np.flatnonzero((node_i[:, 1] < 0) | (node_i[:, 1] > 1))
    if bad.size:
        k = bad[0]
        linenos, lines = groups["NODE"]
        raise DataError(f"{path}:{linenos[k]}: is_frame must be 0 or 1, got {lines[k].split()[3]}")
    del groups  # the tables hold every value from here on

    (_, gauge), (landmark, _) = table["GAUGE"], table["LANDMARK_FRAME"]
    if len(gauge) > 1 or len(landmark) != 1:
        raise DataError(f"{path}: needs one LANDMARK_FRAME and at most one GAUGE record, "
                        f"got {len(landmark)} and {len(gauge)}")
    if len(gauge) and gauge[0, 0] != 0:
        raise DataError(f"{path}: the gauge is node 0, got GAUGE {gauge[0, 0]}")
    order = FROM_DISK[:dim]
    nodes = _id_order(path, "NODE", node_i[:, 0])
    pole_f, pole_i = table["POLE"]
    poles = _id_order(path, "POLE", pole_i[:, 0])

    def edges(tag):  # (i, j, measurement, w_trans, w_rot) columns
        floats, ints = table[tag]
        return ints[:, 0], ints[:, 1], floats[:, :dim][:, order], floats[:, dim], floats[:, dim + 1]

    try:
        return PoseGraph(
            headers["source"], rate, dof,
            node_f[nodes, 0], node_i[nodes, 1] != 0, node_f[nodes, 1:][:, order],
            landmark[0, order], pole_f[poles][:, order],
            *edges("EDGE_ODOM"), *edges("EDGE_OBS"),
            landmark_fixed=fixed == "true",
        )
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# reports


def write_report_csv(path, reports) -> None:
    """One row per report under a ``REPORT_COLUMNS`` header."""
    columns = [np.array([getattr(r, name) for r in reports]) for name in REPORT_FIELDS.values()]
    _write_csv(path, ",".join(REPORT_COLUMNS), columns)


def read_report_csv(path):
    _, linenos, lines = _read_table(path)
    if not lines or lines[0].split(",") != REPORT_COLUMNS:
        raise DataError(f"{path}: unexpected report schema")
    linenos, lines = linenos[1:], lines[1:]
    # the per-second columns are derived, so they are not read back
    floats, ints = _parse_rows(path, linenos, lines, "-fiff--ff", sep=",")
    return [
        ErrorReport(line.split(",", 1)[0], f[0], i[0], f[1], f[2], f[3], f[4])
        for line, f, i in zip(lines, floats.tolist(), ints.tolist())
    ]


def format_report_table(reports, phase_rows=None, marks=None) -> str:
    """Human-readable summary table, one row per source; ``marks`` maps a
    source to the marks its row ends with, each in parentheses."""
    marks = marks or {}
    header = (
        f"{'source':<10} {'m/frame':>12} {'deg/frame':>12} {'m/s':>10} "
        f"{'deg/s':>10} {'closure raw m':>14} {'closure opt m':>14}"
    )
    lines = ["Average odometry corrections per frame and per second", "", header]
    lines.append("-" * len(header))
    for r in reports:
        flag = " (unconstrained)" if r.unconstrained else ""
        flag += "".join(f" ({mark})" for mark in marks.get(r.source, ()))
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


# the stats key of each ErrorReport field (the report's keys less its
# derived per-second ones); the report is rebuilt from these, and a field
# with a default may be absent
STATS_KEYS = {
    **{key: name for key, name in REPORT_FIELDS.items() if not key.endswith("_per_s")},
    "closure_raw_z_m": "closure_raw_z", "closure_opt_z_m": "closure_optimized_z",
    "unconstrained": "unconstrained",
}
# the JSON values a field of each type accepts (float: any number)
_JSON_KINDS = {"str": str, "int": int, "float": (int, float), "bool": bool}


def write_stats_json(path, stats: SolveStats, report: ErrorReport, stages: dict) -> None:
    """The report's fields, the solver's record and ``stages``: seconds per
    pipeline stage, by name."""
    keys = {**REPORT_FIELDS, **STATS_KEYS}
    payload = {key: getattr(report, name) for key, name in keys.items()}
    payload["stages"] = dict(stages)
    payload["solver"] = {
        "iterations": stats.iterations,
        "initial_cost": stats.initial_cost,
        "final_cost": stats.final_cost,
        "reason": stats.reason,
        "cost_trace": list(stats.cost_trace),
        "per_iteration": list(stats.per_iteration),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _is_number(value) -> bool:
    # bool is an int subclass in Python but not a number in JSON
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def read_stats_json(path) -> dict:
    """Solver stats file in strict JSON (no NaN or Infinity); the keys the report needs
    are checked for presence and type, ``source`` passes ``SOURCE_NAME``,
    ``solver.reason``, when present, is a string, ``solver.per_iteration``,
    when present, lists objects whose ``gain_ratio`` is a number or null,
    and ``stages``, when present, maps names to non-negative seconds."""

    def reject(constant):
        raise DataError(f"{path}: malformed JSON: {constant} is not a JSON number")

    try:
        payload = json.loads(read_text(path), parse_constant=reject)
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
    if not SOURCE_NAME[0](payload["source"]):  # it becomes a report.csv field
        raise DataError(f"{path}: key 'source' {SOURCE_NAME[1]}, got {payload['source']!r}")
    solver = payload.get("solver", {})
    if not isinstance(solver, dict):
        raise DataError(f"{path}: key 'solver' must be a JSON object, got {solver!r}")
    if not isinstance(solver.get("reason", ""), str):
        raise DataError(f"{path}: key 'solver.reason' must be a str, got {solver['reason']!r}")
    records = solver.get("per_iteration", [])
    if not isinstance(records, list) or not all(
        isinstance(r, dict)
        and (r.get("gain_ratio") is None or _is_number(r["gain_ratio"]))
        for r in records
    ):
        raise DataError(
            f"{path}: key 'solver.per_iteration' must list objects whose"
            " 'gain_ratio' is a number or null"
        )
    stages = payload.get("stages", {})
    if not isinstance(stages, dict) or not all(
        _is_number(v) and v >= 0 for v in stages.values()
    ):
        raise DataError(
            f"{path}: key 'stages' must map stage names to non-negative seconds, got {stages!r}"
        )
    return payload


def stats_report(payload) -> ErrorReport:
    """The ErrorReport a payload from :func:`read_stats_json` was written from."""
    given = {name: payload[key] for key, name in STATS_KEYS.items() if key in payload}
    return ErrorReport(**given)


def write_xy_csv(path, times, raw_xy, opt_xy) -> None:
    """Raw-versus-optimized trajectory plot data; ``raw_xy`` and ``opt_xy`` are (N, 2)."""
    _write_csv(path, "t,raw_x,raw_y,opt_x,opt_y", [times, raw_xy, opt_xy])


def write_poles_csv(path, true_xy, est_xy) -> None:
    """True and estimated pole positions for plotting; the true columns
    stay empty without ``true_xy``."""
    if true_xy is None:
        true_xy = np.full((len(est_xy), 2), "")
    _write_csv(path, "pole_id,true_x,true_y,est_x,est_y", [np.arange(len(est_xy)), true_xy, est_xy])
