"""Flat key = value scenario configuration."""

import dataclasses
import math
import pathlib
import re

import pytest

import tunnelgraph.config as config
from tunnelgraph.config import ScenarioConfig, format_config, parse_config
from tunnelgraph.optimizer import SolverSettings
from tunnelgraph.simulate import DetectionModel, LandmarkLayout, NoiseProfile, TrajectoryProfile
from tunnelgraph.sync import FULL3D, PLANAR, DataError, FieldError

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# ScenarioConfig field -> its key, or the key prefix of a settings section;
# noise is keyed per source
SECTION_KEYS = {
    "trajectory": "trajectory",
    "layout": "landmark",
    "detection": "detection",
}
PLAIN_KEYS = {"seed": "seed", "lateral_offset": "landmark.lateral_offset"}


class TestDefaults:
    def test_empty_text_gives_documented_defaults(self):
        cfg = parse_config("")
        assert cfg == ScenarioConfig()
        assert cfg.trajectory.straight_length == 100.0
        assert cfg.trajectory.speed == 0.5
        assert cfg.trajectory.turn_rate_deg == 30.0
        assert cfg.layout.count == 4
        assert cfg.layout.spacing == 18.0
        assert cfg.lateral_offset == 1.2
        assert cfg.detection.max_range == 6.0
        assert cfg.detection.max_bearing_deg == 50.0
        assert cfg.detection.rate == 2.0
        assert cfg.sources == ("dvso", "wheel")
        assert cfg.noise["dvso"].trans_per_frame == 0.00148
        assert cfg.noise["dvso"].rot_deg_per_frame == 0.043
        assert cfg.noise["wheel"].trans_per_frame == 0.00018
        assert cfg.noise["wheel"].rot_deg_per_frame == 0.002
        assert cfg.noise["wheel"].dof_mode == PLANAR

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# a comment\n\n   \nseed = 4  # trailing\n")
        assert cfg.seed == 4


class TestOverrides:
    def test_scalars_and_lists(self):
        cfg = parse_config(
            "seed = 9\n"
            "sources = wheel\n"
            "trajectory.straight_length = 42.5\n"
            "trajectory.return_leg = false\n"
            "landmark.count = 7\n"
            "landmark.spacing = 3.25\n"
            "landmark.lateral_offset = 0.8\n"
            "detection.sigma_trans = 0.001\n"
            "detection.max_range = 17\n"
            "noise.wheel.dof_mode = full3d\n"
        )
        assert cfg.seed == 9
        assert cfg.sources == ("wheel",)
        assert cfg.trajectory.straight_length == 42.5
        assert not cfg.trajectory.return_leg
        assert cfg.layout.count == 7 and cfg.layout.spacing == 3.25
        assert cfg.lateral_offset == 0.8
        assert cfg.detection.sigma_trans == 0.001
        assert cfg.detection.max_range == 17.0
        assert cfg.noise["wheel"].dof_mode == FULL3D

    def test_custom_source_requires_noise_keys(self):
        with pytest.raises(DataError) as err:
            parse_config("sources = sonar\n")
        assert "sonar" in str(err.value)
        cfg = parse_config(
            "sources = sonar\n"
            "noise.sonar.frame_rate = 4\n"
            "noise.sonar.trans_per_frame = 0.01\n"
            "noise.sonar.rot_deg_per_frame = 0.5\n"
        )
        assert cfg.noise["sonar"].frame_rate == 4.0
        assert cfg.noise["sonar"].trans_per_frame == 0.01

    def test_custom_source_missing_field_named(self):
        with pytest.raises(DataError) as err:
            parse_config(
                "sources = sonar\n"
                "noise.sonar.frame_rate = 4\n"
                "noise.sonar.trans_per_frame = 0.01\n"
            )
        assert "noise.sonar.rot_deg_per_frame" in str(err.value)

    def test_preset_noise_partial_override(self):
        cfg = parse_config("noise.dvso.trans_per_frame = 0.005\n")
        assert cfg.noise["dvso"].trans_per_frame == 0.005
        assert cfg.noise["dvso"].rot_deg_per_frame == 0.043

    def test_axis_scale_three_floats(self):
        cfg = parse_config("sources = lidar\nnoise.lidar.axis_scale = 50 1 1\n")
        assert cfg.noise["lidar"].axis_scale == (50.0, 1.0, 1.0)
        with pytest.raises(DataError):
            parse_config("noise.dvso.axis_scale = 1 2\n")


class TestErrors:
    def test_unknown_key_is_named_with_line(self):
        with pytest.raises(DataError) as err:
            parse_config("seed = 1\nnot.a.key = 3\n")
        msg = str(err.value)
        assert "not.a.key" in msg and "line 2" in msg

    def test_range_violation_names_key(self):
        for text, key in [
            ("landmark.spacing = -1", "landmark.spacing"),
            ("landmark.count = 0", "landmark.count"),
            ("trajectory.speed = 0", "trajectory.speed"),
            ("detection.max_range = -2", "detection.max_range"),
            ("noise.dvso.trans_per_frame = -0.1", "noise.dvso.trans_per_frame"),
            ("detection.rate = 0", "detection.rate"),
        ]:
            with pytest.raises(DataError) as err:
                parse_config(text + "\n")
            assert key in str(err.value), text

    @pytest.mark.parametrize(
        "key, value",
        [
            ("trajectory.straight_length", "inf"),
            ("trajectory.turn_angle_deg", "nan"),
            ("detection.rate", "inf"),
            ("noise.dvso.frame_rate", "inf"),
            ("landmark.lateral_offset", "nan"),
            ("landmark.spacing", "nan"),
            ("detection.max_range", "inf"),
            ("noise.dvso.axis_scale", "1 nan 1"),
        ],
    )
    def test_non_finite_value_names_key(self, key, value):
        with pytest.raises(DataError) as err:
            parse_config(f"{key} = {value}\n")
        assert key in str(err.value) and "finite" in str(err.value)

    @pytest.mark.parametrize(
        "line", ["solver.max_iterations = 17", "graph.position_only = true"]
    )
    def test_solver_and_graph_keys_are_unknown(self, line):
        # optimize takes these settings as flags; the scenario has none
        with pytest.raises(DataError) as err:
            parse_config(f"seed = 1\n{line}\n")
        key = line.split(" = ")[0]
        assert f"line 2: unknown configuration key {key!r}" in str(err.value)

    def test_mode_alias_is_unknown(self):
        with pytest.raises(DataError) as err:
            parse_config("mode.dvso = planar\n")
        assert "unknown configuration key 'mode.dvso'" in str(err.value)
        assert parse_config("noise.dvso.dof_mode = planar\n").noise["dvso"].dof_mode == PLANAR

    def test_type_error_names_line(self):
        with pytest.raises(DataError) as err:
            parse_config("landmark.count = many\n")
        assert "line 1" in str(err.value)

    def test_repeated_source_rejected(self):
        # its noise.* keys would be echoed twice, and the echo not read back
        with pytest.raises(DataError) as err:
            parse_config("sources = dvso wheel dvso\n")
        assert "sources: must name sources, none twice" in str(err.value)

    def test_source_name_is_one_plain_word(self):
        # a source name becomes part of the output file names
        with pytest.raises(DataError, match="sources: .* one word") as err:
            parse_config(
                "sources = ../x\n"
                "noise.../x.frame_rate = 4\n"
                "noise.../x.trans_per_frame = 0.01\n"
                "noise.../x.rot_deg_per_frame = 0.5\n"
            )
        assert "../x" in str(err.value)

    def test_source_names_checked_before_their_noise_keys(self):
        # a bad name is reported as one, not as its missing noise.* keys
        with pytest.raises(DataError) as err:
            parse_config("sources = ../x\n")
        assert str(err.value).startswith("sources: must name sources")
        assert "one word" in str(err.value) and "frame_rate" not in str(err.value)

    def test_duplicate_key_rejected(self):
        with pytest.raises(DataError) as err:
            parse_config("seed = 1\nseed = 2\n")
        assert "duplicate" in str(err.value)

    def test_missing_equals_sign(self):
        with pytest.raises(DataError) as err:
            parse_config("seed 5\n")
        assert "line 1" in str(err.value)


class TestRoundTrip:
    def test_default_round_trip(self):
        cfg = parse_config("")
        assert parse_config(format_config(cfg)) == cfg

    def test_custom_round_trip(self):
        text = (
            "seed = 12\n"
            "sources = dvso lidar\n"
            "trajectory.straight_length = 55.5\n"
            "trajectory.turn_angle_deg = -180\n"
            "noise.lidar.axis_scale = 50 1 1\n"
            "detection.sigma_rot_deg = 0.15\n"
            "detection.max_bearing_deg = 1.25\n"
            "trajectory.return_leg = false\n"
        )
        cfg = parse_config(text)
        echoed = format_config(cfg)
        assert parse_config(echoed) == cfg
        # a second echo is textually stable
        assert format_config(parse_config(echoed)) == echoed

    def test_seed_override_survives(self):
        cfg = parse_config("seed = 3\n")
        replaced = dataclasses.replace(cfg, seed=99)
        assert parse_config(format_config(replaced)).seed == 99


def _other(value):
    """A valid value of ``value``'s type that differs from it."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * 1.5 if value else 0.25
    if isinstance(value, tuple):
        return tuple(_other(v) for v in value)
    return {"planar": "full3d", "full3d": "planar", "analytic": "numeric"}[value]


def _text(value):
    return " ".join(map(str, value)) if isinstance(value, tuple) else str(value)


class TestFieldDriven:
    def test_every_field_has_a_working_key(self):
        """Each settings field is set to a non-default value through its
        key; a field without a working key fails here."""
        sources = ("wheel", "dvso")
        base = ScenarioConfig(sources=sources)
        lines = [f"sources = {' '.join(sources)}"]
        changed = {"sources": sources}
        for f in dataclasses.fields(ScenarioConfig):
            value = getattr(base, f.name)
            if f.name == "sources":
                continue
            if f.name == "noise":
                sections = [(f"noise.{name}", value[name], name) for name in sources]
            elif f.name in SECTION_KEYS:
                sections = [(SECTION_KEYS[f.name], value, None)]
            else:
                other = _other(value)
                assert other != value, f.name
                lines.append(f"{PLAIN_KEYS[f.name]} = {_text(other)}")
                changed[f.name] = other
                continue
            for prefix, settings, source in sections:
                updates = {}
                for g in dataclasses.fields(settings):
                    if g.name == "source":
                        continue
                    updates[g.name] = _other(getattr(settings, g.name))
                    assert updates[g.name] != getattr(settings, g.name), g.name
                    lines.append(f"{prefix}.{g.name} = {_text(updates[g.name])}")
                new = dataclasses.replace(settings, **updates)
                if source is None:
                    changed[f.name] = new
                else:
                    changed.setdefault("noise", {})[source] = new
        cfg = parse_config("\n".join(lines) + "\n")
        assert cfg == dataclasses.replace(base, **changed)
        echoed = format_config(cfg)
        assert parse_config(echoed) == cfg
        assert format_config(parse_config(echoed)) == echoed

    @pytest.mark.parametrize(
        "cls",
        [
            TrajectoryProfile, LandmarkLayout, DetectionModel, SolverSettings,
            NoiseProfile, ScenarioConfig,
        ],
    )
    def test_non_finite_floats_rejected_by_field(self, cls):
        base = cls("x", 5.0, 0.1, 0.1) if cls is NoiseProfile else cls()
        floats = [
            f.name for f in dataclasses.fields(cls)
            if isinstance(getattr(base, f.name), float)
        ]
        assert floats
        for name in floats:
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(FieldError) as err:
                    dataclasses.replace(base, **{name: bad})
                assert err.value.field == name

    def test_turn_rate_positive_without_turn(self):
        with pytest.raises(FieldError) as err:
            TrajectoryProfile(turn_angle_deg=0.0, turn_rate_deg=0.0)
        assert err.value.field == "turn_rate_deg"

    def test_readme_defaults_block_is_the_default_echo(self):
        text = README.read_text(encoding="utf-8")
        section = text.split("## Configuration", 1)[1]
        block = re.search(r"```\n(.*?)```", section, re.S).group(1)
        assert parse_config(block) == ScenarioConfig()
        assert block == format_config(ScenarioConfig())
