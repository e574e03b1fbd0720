"""Flat key = value scenario configuration.

One assignment per line, ``#`` starts a comment, unknown keys are
rejected by name.  The keys mirror the settings dataclasses: a key is
``<section>.<field>`` for ``trajectory`` (:class:`TrajectoryProfile`),
``landmark`` (:class:`LandmarkLayout`) and ``detection``
(:class:`DetectionModel`), and ``noise.<source>.<field>``
(:class:`NoiseProfile`) for each source.  ``seed``, ``sources`` and
``landmark.lateral_offset`` set :class:`ScenarioConfig` itself.  The
configuration describes the scenario only: ``optimize`` takes its
solver settings as flags.

A missing key keeps its field's default, or the preset's value for a
preset source.  A value is parsed by its field's type (``int``,
``float``, ``bool``, ``str``, or space-separated floats for a
``tuple``) and checked by the dataclass itself.  The ``sources`` key
decides which ``noise.*`` keys exist and is therefore read and checked
first.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .simulate import (
    DEFAULT_POLE_LATERAL_OFFSET,
    PRESETS,
    DetectionModel,
    LandmarkLayout,
    NoiseProfile,
    TrajectoryProfile,
)
from .sync import SOURCE_NAME, DataError, FieldError, check_fields

# the rule for ``sources``: it is checked before the noise.* keys it names are read
SOURCES = (
    lambda v: 0 < len(v) == len(set(v)) and all(SOURCE_NAME[0](n) for n in v),
    f"must name sources, none twice, and each name {SOURCE_NAME[1]}",
)


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 0
    sources: tuple = ("dvso", "wheel")
    trajectory: TrajectoryProfile = field(default_factory=TrajectoryProfile)
    layout: LandmarkLayout = field(default_factory=LandmarkLayout)
    lateral_offset: float = DEFAULT_POLE_LATERAL_OFFSET
    detection: DetectionModel = field(default_factory=DetectionModel)
    noise: dict = field(default_factory=dict)  # source -> NoiseProfile

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(self.sources))
        check_fields(self, sources=SOURCES)
        filled = dict(self.noise)
        for name in self.sources:
            if name not in filled:
                if name not in PRESETS:
                    raise FieldError(
                        "noise", f"source {name!r} has no preset; configure its noise.* keys"
                    )
                filled[name] = PRESETS[name]()
        object.__setattr__(self, "noise", filled)


# ScenarioConfig fields whose key, or key prefix, is not the field name
_KEYS = {
    "layout": "landmark",
    "lateral_offset": "landmark.lateral_offset",
}


def _scenario_key(name):
    return _KEYS.get(name, name)


def _parse_bool(raw):
    lowered = raw.lower()
    if lowered not in ("true", "false"):
        raise ValueError(raw)
    return lowered == "true"


# parser by field annotation; the settings modules postpone annotations,
# so a field's type is its annotation string
_PARSERS = {
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "str": str,
    "tuple": lambda raw: tuple(float(p) for p in raw.split()),
}


def _format(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return " ".join(_format(v) for v in value)
    return value if isinstance(value, str) else repr(value)


def _parse_lines(text):
    entries = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise DataError(f"line {lineno}: missing key before '='")
        if key in entries:
            raise DataError(
                f"line {lineno}: duplicate key {key} (first set on line {entries[key][1]})"
            )
        entries[key] = (value, lineno)
    return entries


def _build(cls, key_of, entries, base=None, **fixed):
    """``cls`` from ``fixed`` plus one value per field that has an entry,
    parsed by the field's type; other fields keep ``base``'s value or
    their default (a field with neither needs an entry).  The dataclass
    checks the values; a failed check is reported against its key."""
    values = dict(fixed)
    for f in dataclasses.fields(cls):
        key = key_of(f.name)
        if f.name in fixed:
            continue
        if key not in entries:
            if base is None and f.default is f.default_factory is dataclasses.MISSING:
                raise DataError(f"{key}: required, as it has no default or preset value")
            continue
        raw, line = entries[key]
        try:
            values[f.name] = _PARSERS[f.type](raw)
        except ValueError:
            kind = "space-separated floats" if f.type == "tuple" else f.type
            raise DataError(f"line {line}: {key}: expected {kind}, got {raw!r}") from None
    try:
        return cls(**values) if base is None else dataclasses.replace(base, **values)
    except FieldError as exc:
        key = key_of(exc.field)
        got = f" (got {entries[key][0]})" if key in entries else ""
        raise DataError(f"{key}: {exc.reason}{got}") from None


def _noise(name, entries):
    preset = PRESETS.get(name)
    return _build(
        NoiseProfile, lambda field_name: f"noise.{name}.{field_name}", entries,
        base=preset() if preset else None, source=name,
    )


def _items(cfg: ScenarioConfig):
    """(key, value) for every setting of ``cfg``, in echo order; the
    source name is the middle segment of a noise key, not a key itself."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if f.name == "noise":
            sections = [(f"noise.{name}", value[name]) for name in cfg.sources]
        elif dataclasses.is_dataclass(value):
            sections = [(_scenario_key(f.name), value)]
        else:
            yield _scenario_key(f.name), value
            continue
        for prefix, settings in sections:
            for g in dataclasses.fields(settings):
                if g.name != "source":
                    yield f"{prefix}.{g.name}", getattr(settings, g.name)


def parse_config(text: str) -> ScenarioConfig:
    entries = _parse_lines(text)
    sources = ScenarioConfig.sources
    if "sources" in entries:
        raw = entries["sources"][0]
        sources = tuple(raw.split())
        if not SOURCES[0](sources):
            raise DataError(f"sources: {SOURCES[1]} (got {raw})")
    cfg = _build(
        ScenarioConfig, _scenario_key, entries,
        sources=sources,
        trajectory=_build(TrajectoryProfile, "trajectory.{}".format, entries),
        layout=_build(LandmarkLayout, "landmark.{}".format, entries),
        detection=_build(DetectionModel, "detection.{}".format, entries),
        noise={name: _noise(name, entries) for name in sources},
    )
    known = {key for key, _ in _items(cfg)}
    extra = [key for key in entries if key not in known]  # in line order
    if extra:
        key = extra[0]
        raise DataError(f"line {entries[key][1]}: unknown configuration key {key!r}")
    return cfg


def format_config(cfg: ScenarioConfig) -> str:
    """Canonical echo; parsing it back reproduces the configuration."""
    lines = ["# effective configuration"]
    lines.extend(f"{key} = {_format(value)}" for key, value in _items(cfg))
    return "\n".join(lines) + "\n"
