"""Scenario synthesis tests.

The trajectory is simple enough to reproduce with scalar trig, so the
reference oracle below recomputes the pose at any timestamp from the
drive plan directly and every sweep check compares against it.
"""

import math

import numpy as np
import pytest

from tunnelgraph import geometry as geom
from tunnelgraph import simulate as sim
from tunnelgraph.sync import FULL3D, PLANAR, DataError, FieldError


def reference_pose(profile, t):
    """Scalar pose (x, y, yaw) at time t, straight from the drive plan."""
    v = profile.speed
    leg = profile.straight_length / v
    turn = abs(profile.turn_angle_deg) / profile.turn_rate_deg if profile.turn_angle_deg else 0.0
    heading = math.radians(profile.turn_angle_deg)
    if t <= leg:
        return v * t, 0.0, 0.0
    if t <= leg + turn:
        frac = (t - leg) / turn
        return profile.straight_length, 0.0, frac * heading
    d = v * (t - leg - turn)
    return (
        profile.straight_length + d * math.cos(heading),
        d * math.sin(heading),
        heading,
    )


def loop_corrupt_poses(track, noise, record):
    """Oracle: integrate the measured increments one frame at a time, as
    corrupt() did before its prefix scan."""
    true_rel = geom.pose3_relative(track.poses[:-1], track.poses[1:])
    measured = geom.pose3_compose(true_rel, record.error_poses)
    poses = np.empty_like(track.poses)
    poses[0] = track.poses[0]
    for k in range(measured.shape[0]):
        nxt = geom.pose3_compose(poses[k], measured[k])
        nxt[3:] = geom.quat_normalize(nxt[3:])
        if noise.dof_mode == PLANAR:
            nxt[[2, 4, 5]] = 0.0
        poses[k + 1] = nxt
    return poses


def loop_detect(track, layout, placement, model, seed):
    """Oracle: the per-tick, per-sighting detector the array sweep
    replaced.  Returns (timestamp, pole_id, rel) triples."""
    rng = np.random.default_rng(seed)
    pole_world = geom.pose3_compose(placement.packed, layout.template())
    span = float(track.times[-1] - track.times[0])
    tick_count = int(np.floor(span * model.rate + 1e-9)) + 1
    ticks = track.times[0] + np.arange(tick_count, dtype=float) / model.rate
    sigma_rot = np.radians(model.sigma_rot_deg)
    out = []
    for tick in ticks:
        right = int(np.searchsorted(track.times, tick))
        if right < track.times.size and track.times[right] == tick:
            robot = track.poses[right]
        else:
            left = right - 1
            alpha = (tick - track.times[left]) / (track.times[right] - track.times[left])
            robot = geom.pose3_interpolate(track.poses[left], track.poses[right], alpha)
        rel = geom.pose3_relative(robot, pole_world)
        dist = np.linalg.norm(rel[:, :3], axis=1)
        with np.errstate(invalid="ignore"):
            bearing = np.arccos(
                np.clip(rel[:, 0] / np.where(dist == 0.0, 1.0, dist), -1.0, 1.0)
            )
        visible = (dist <= model.max_range) & (bearing <= np.radians(model.max_bearing_deg))
        for pole_id in np.flatnonzero(visible):
            measured = rel[pole_id].copy()
            if model.sigma_trans > 0.0:
                measured[:3] += rng.normal(0.0, model.sigma_trans, 3)
            if sigma_rot > 0.0:
                wobble = geom.quat_from_rotvec(rng.normal(0.0, sigma_rot, 3))
                measured[3:] = geom.quat_mul(measured[3:], wobble)
            out.append((float(tick), int(pole_id), measured))
    return out


def quat_angle_deg(q):
    """Rotation angle of a unit quaternion, recomputed from scratch."""
    w = min(1.0, abs(float(q[0])))
    return math.degrees(2.0 * math.acos(w))


class TestGroundTruth:
    def test_duration_and_frame_count_arithmetic(self):
        prof = sim.TrajectoryProfile()
        # 100 m at 0.5 m/s out and back plus 180 deg at 30 deg/s
        assert prof.total_duration == 2 * (100.0 / 0.5) + 180.0 / 30.0 == 406.0
        for rate in (2.0, 5.0, 10.0, 50.0):
            track = sim.generate_ground_truth(prof, rate)
            assert track.frame_count == int(406.0 * rate) + 1
            assert track.times[0] == 0.0
            assert np.allclose(np.diff(track.times), 1.0 / rate, atol=1e-12)

    def test_matches_scalar_reference_everywhere(self):
        prof = sim.TrajectoryProfile()
        for rate in (5.0, 50.0):
            track = sim.generate_ground_truth(prof, rate)
            for i in range(0, track.frame_count, 7):
                x, y, yaw = reference_pose(prof, track.times[i])
                p = track.poses[i]
                assert abs(p[0] - x) < 1e-9
                assert abs(p[1] - y) < 1e-9
                assert abs(geom.wrap_angle(geom.SE2.from_pose3(p)[2] - yaw)) < 1e-9
                assert p[2] == 0.0 and p[4] == 0.0 and p[5] == 0.0

    def test_no_return_leg(self):
        prof = sim.TrajectoryProfile(return_leg=False)
        assert prof.total_duration == 206.0
        track = sim.generate_ground_truth(prof, 5.0)
        assert abs(track.poses[-1, 0] - 100.0) < 1e-9
        assert abs(abs(geom.SE2.from_pose3(track.poses[-1])[2]) - math.pi) < 1e-9

    def test_negative_turn(self):
        prof = sim.TrajectoryProfile(turn_angle_deg=-90.0)
        track = sim.generate_ground_truth(prof, 10.0)
        x, y, yaw = reference_pose(prof, track.times[-1])
        assert abs(track.poses[-1, 0] - x) < 1e-9
        assert abs(track.poses[-1, 1] - y) < 1e-9
        assert y < -50.0  # return leg heads in the -y direction

    def test_rejects_bad_rate(self):
        with pytest.raises(DataError):
            sim.generate_ground_truth(sim.TrajectoryProfile(), 0.0)


class TestPresets:
    def test_calibration_values(self):
        d = sim.dvso_preset()
        assert (d.frame_rate, d.trans_per_frame, d.rot_deg_per_frame) == (5.0, 0.00148, 0.043)
        assert d.dof_mode == FULL3D
        w = sim.wheel_preset()
        assert (w.frame_rate, w.trans_per_frame, w.rot_deg_per_frame) == (50.0, 0.00018, 0.002)
        assert w.dof_mode == PLANAR
        lidar = sim.degenerate_lidar_preset()
        assert lidar.dof_mode == PLANAR
        assert lidar.axis_scale[0] > 10.0 * lidar.axis_scale[1]


class TestCorrupt:
    def test_injected_magnitudes_are_exact(self):
        gt = sim.generate_ground_truth(sim.TrajectoryProfile(), 5.0)
        _, rec = sim.corrupt(gt, sim.dvso_preset(), seed=11)
        assert rec.trans_magnitudes.shape == (gt.frame_count - 1,)
        assert np.allclose(rec.trans_magnitudes, 0.00148, atol=1e-15)
        # recompute each rotation angle from the raw quaternion
        for err in rec.error_poses[::37]:
            assert abs(quat_angle_deg(err[3:]) - 0.043) < 1e-9
            assert abs(np.linalg.norm(err[:3]) - 0.00148) < 1e-15

    def test_track_increments_carry_the_injected_error(self):
        gt = sim.generate_ground_truth(sim.TrajectoryProfile(), 5.0)
        track, rec = sim.corrupt(gt, sim.dvso_preset(), seed=5)
        true_rel = geom.pose3_relative(gt.poses[:-1], gt.poses[1:])
        meas_rel = geom.pose3_relative(track.poses[:-1], track.poses[1:])
        err = geom.pose3_relative(true_rel, meas_rel)
        # quaternions match up to the double-cover sign
        assert np.allclose(err[:, :3], rec.error_poses[:, :3], atol=1e-9)
        assert np.allclose(
            geom.quat_canonical(err[:, 3:]),
            geom.quat_canonical(rec.error_poses[:, 3:]),
            atol=1e-9,
        )
        mean_trans = np.linalg.norm(err[:, :3], axis=1).mean()
        mean_rot = np.degrees(geom.rotation_angle(err[:, 3:])).mean()
        assert abs(mean_trans - 0.00148) < 1e-9
        assert abs(mean_rot - 0.043) < 1e-9

    def test_planar_noise_keeps_track_planar(self):
        gt = sim.generate_ground_truth(sim.TrajectoryProfile(), 50.0)
        track, rec = sim.corrupt(gt, sim.wheel_preset(), seed=3)
        assert np.all(track.poses[:, 2] == 0.0)
        assert np.all(track.poses[:, 4] == 0.0)
        assert np.all(track.poses[:, 5] == 0.0)
        assert np.all(rec.error_poses[:, 2] == 0.0)
        # rotation axis strictly vertical
        assert np.all(rec.error_poses[:, 4] == 0.0)
        assert np.all(rec.error_poses[:, 5] == 0.0)

    def test_axis_scale_shapes_the_error(self):
        gt = sim.generate_ground_truth(sim.TrajectoryProfile(), 10.0)
        noise = sim.degenerate_lidar_preset()
        _, rec = sim.corrupt(gt, noise, seed=9)
        # undo the configured scaling: what remains must be unit planar directions
        d = rec.error_poses[:, :3] / (noise.trans_per_frame * np.asarray(noise.axis_scale))
        assert np.allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-12)
        assert np.all(d[:, 2] == 0.0)
        # the forward component dominates on average
        assert np.abs(rec.error_poses[:, 0]).mean() > 10.0 * np.abs(rec.error_poses[:, 1]).mean()

    def test_zero_noise_is_bit_identical_passthrough(self):
        gt = sim.generate_ground_truth(sim.TrajectoryProfile(), 5.0)
        quiet = sim.NoiseProfile("quiet", 5.0, 0.0, 0.0, FULL3D)
        track, rec = sim.corrupt(gt, quiet, seed=1)
        assert np.array_equal(track.poses, gt.poses)
        assert np.array_equal(track.times, gt.times)
        assert np.all(rec.error_poses[:, :3] == 0.0)
        assert np.all(rec.error_poses[:, 3] == 1.0)

    def test_seed_determinism(self):
        gt = sim.generate_ground_truth(sim.TrajectoryProfile(), 5.0)
        a, _ = sim.corrupt(gt, sim.dvso_preset(), seed=21)
        b, _ = sim.corrupt(gt, sim.dvso_preset(), seed=21)
        c, _ = sim.corrupt(gt, sim.dvso_preset(), seed=22)
        assert np.array_equal(a.poses, b.poses)
        assert not np.array_equal(a.poses, c.poses)

    @pytest.mark.parametrize("preset", ["dvso", "wheel", "lidar"])
    def test_scan_matches_per_frame_loop(self, preset):
        noise = sim.PRESETS[preset]()
        gt = sim.generate_ground_truth(sim.TrajectoryProfile(), noise.frame_rate)
        track, rec = sim.corrupt(gt, noise, seed=13)
        ref = loop_corrupt_poses(gt, noise, rec)
        np.testing.assert_array_equal(track.poses[0], ref[0])
        assert np.abs(track.poses[:, :3] - ref[:, :3]).max() <= 1e-12
        # the scan composes in another order: quaternions agree up to the
        # double-cover sign, which canonicalization may pick differently
        # where w is within rounding of zero
        q, q_ref = track.poses[:, 3:], ref[:, 3:]
        gap = np.minimum(np.abs(q - q_ref).max(axis=1), np.abs(q + q_ref).max(axis=1))
        assert gap.max() <= 1e-12
        if noise.dof_mode == PLANAR:
            assert np.all(track.poses[:, [2, 4, 5]] == 0.0)

    @pytest.mark.parametrize(
        "count", [*range(1, 10), 15, 17, 31, 33, 1023, 1025, 20300]
    )
    def test_prefix_compose_matches_sequential_loop(self, count):
        # odometry-sized increments: 5 cm steps, about 1 degree of turn
        rng = np.random.default_rng(count)
        steps = np.concatenate(
            [rng.normal(0.0, 0.05, (count, 3)),
             geom.quat_from_rotvec(rng.normal(0.0, 0.02, (count, 3)))], axis=1,
        )
        want = steps.copy()
        for k in range(1, count):
            want[k] = geom.pose3_compose(want[k - 1], steps[k])
            want[k, 3:] = geom.quat_normalize(want[k, 3:])
        got = sim._prefix_compose(steps)
        assert np.abs(got[:, :3] - want[:, :3]).max() <= 1e-12
        q, q_ref = got[:, 3:], want[:, 3:]  # up to the double-cover sign
        gap = np.minimum(np.abs(q - q_ref).max(axis=1), np.abs(q + q_ref).max(axis=1))
        assert gap.max() <= 1e-12

    def test_rejects_rate_mismatch(self):
        gt = sim.generate_ground_truth(sim.TrajectoryProfile(), 5.0)
        with pytest.raises(DataError):
            sim.corrupt(gt, sim.wheel_preset(), seed=0)


class TestDetection:
    def reference_sweep(self, prof, layout, offset, model):
        """Brute-force pole sweep recomputed with plain trig."""
        expected = set()
        ticks = int(prof.total_duration * model.rate) + 1
        for k in range(ticks):
            t = k / model.rate
            x, y, yaw = reference_pose(prof, t)
            for pole in range(layout.count):
                px, py = pole * layout.spacing, offset
                dx, dy = px - x, py - y
                dist = math.hypot(dx, dy)
                forward = dx * math.cos(yaw) + dy * math.sin(yaw)
                if dist > model.max_range:
                    continue
                bearing = math.degrees(math.acos(max(-1.0, min(1.0, forward / dist if dist else 1.0))))
                if bearing <= model.max_bearing_deg:
                    expected.add((round(t, 9), pole))
        return expected

    def test_sweep_matches_brute_force(self):
        prof = sim.TrajectoryProfile()
        layout = sim.LandmarkLayout()
        model = sim.DetectionModel(sigma_trans=0.0, sigma_rot_deg=0.0)
        gt = sim.generate_ground_truth(prof, 5.0)
        obs = sim.simulate_landmark_observations(
            gt, layout, sim.default_placement(), model, seed=0
        )
        got = {(round(o.timestamp, 9), o.pole_id) for o in obs}
        assert got == self.reference_sweep(prof, layout, 1.2, model)
        assert len(obs) > 50

    def test_noiseless_relative_poses_are_exact(self):
        prof = sim.TrajectoryProfile()
        gt = sim.generate_ground_truth(prof, 5.0)
        model = sim.DetectionModel(sigma_trans=0.0, sigma_rot_deg=0.0)
        obs = sim.simulate_landmark_observations(
            gt, sim.LandmarkLayout(), sim.default_placement(), model, seed=0
        )
        for o in (obs[k] for k in range(0, len(obs), 11)):
            x, y, yaw = reference_pose(prof, o.timestamp)
            px, py = o.pole_id * 18.0, 1.2
            dx, dy = px - x, py - y
            fwd = dx * math.cos(yaw) + dy * math.sin(yaw)
            left = -dx * math.sin(yaw) + dy * math.cos(yaw)
            assert abs(o.rel[0] - fwd) < 1e-9
            assert abs(o.rel[1] - left) < 1e-9
            assert abs(o.rel[2]) < 1e-12
            # pole frame is axis-aligned with the world: yaw of rel == -yaw
            assert abs(geom.wrap_angle(geom.SE2.from_pose3(o.rel)[2] + yaw)) < 1e-9

    def test_noise_perturbs_but_stays_bounded(self):
        gt = sim.generate_ground_truth(sim.TrajectoryProfile(), 5.0)
        model = sim.DetectionModel()
        clean = sim.simulate_landmark_observations(
            gt, sim.LandmarkLayout(), sim.default_placement(),
            sim.DetectionModel(sigma_trans=0.0, sigma_rot_deg=0.0), seed=0,
        )
        noisy = sim.simulate_landmark_observations(
            gt, sim.LandmarkLayout(), sim.default_placement(), model, seed=0
        )
        assert len(clean) == len(noisy)
        deltas = np.array([n.rel[:3] - c.rel[:3] for c, n in zip(clean, noisy)])
        assert np.all(np.linalg.norm(deltas, axis=1) > 0.0)
        assert np.all(np.abs(deltas) < 8.0 * model.sigma_trans)
        assert abs(deltas.mean()) < 2.0 * model.sigma_trans

    @pytest.mark.parametrize(
        "rate, sigma_trans, sigma_rot_deg",
        [
            (2.0, 0.005, 0.2),  # both sigmas: six draws per sighting
            (2.0, 0.0, 0.2),  # rotation only
            (2.0, 0.005, 0.0),  # translation only
            (2.0, 0.0, 0.0),  # noiseless: no draws
            (3.0, 0.005, 0.2),  # ticks between frames: interpolated robot poses
        ],
    )
    def test_sweep_matches_per_tick_oracle(self, rate, sigma_trans, sigma_rot_deg):
        noise = sim.dvso_preset()
        gt = sim.generate_ground_truth(sim.TrajectoryProfile(), noise.frame_rate)
        track, _ = sim.corrupt(gt, noise, seed=2)  # full 3D poses
        model = sim.DetectionModel(
            rate=rate, sigma_trans=sigma_trans, sigma_rot_deg=sigma_rot_deg
        )
        args = (track, sim.LandmarkLayout(), sim.default_placement(), model, 17)
        got = sim.simulate_landmark_observations(*args)
        want = loop_detect(*args)
        assert len(got) == len(want) > 100
        np.testing.assert_array_equal(got.times, [w[0] for w in want])
        np.testing.assert_array_equal(got.pole_ids, [w[1] for w in want])
        np.testing.assert_array_equal(got.rel, np.stack([w[2] for w in want]))
        assert np.all(got.w_trans == model.weight_trans())
        assert np.all(got.w_rot == model.weight_rot())

    def test_weights_follow_sigma(self):
        model = sim.DetectionModel(sigma_trans=0.005, sigma_rot_deg=0.2)
        assert abs(model.weight_trans() - 1.0 / 0.005**2) < 1e-9
        assert abs(model.weight_rot() - 1.0 / math.radians(0.2) ** 2) < 1e-6
        quiet = sim.DetectionModel(sigma_trans=0.0, sigma_rot_deg=0.0)
        assert quiet.weight_trans() == 1.0
        assert quiet.weight_rot() == 1.0

    def test_information_weight(self):
        assert sim.information_weight(0.0) == 1.0  # a noiseless channel
        assert sim.information_weight(0.5) == 4.0
        assert sim.information_weight(0.005) == 1.0 / 0.005**2

    def test_observation_determinism(self):
        gt = sim.generate_ground_truth(sim.TrajectoryProfile(), 5.0)
        args = (gt, sim.LandmarkLayout(), sim.default_placement(), sim.DetectionModel())
        a = sim.simulate_landmark_observations(*args, seed=4)
        b = sim.simulate_landmark_observations(*args, seed=4)
        assert len(a) == len(b)
        for oa, ob in zip(a, b):
            assert oa.pole_id == ob.pole_id and oa.timestamp == ob.timestamp
            assert np.array_equal(oa.rel, ob.rel)


class TestValidation:
    def test_layout_template(self):
        layout = sim.LandmarkLayout(count=4, spacing=18.0)
        template = layout.template()
        assert template.shape == (4, 7)
        assert np.allclose(template[:, 0], [0.0, 18.0, 36.0, 54.0])
        assert np.all(template[:, 1:3] == 0.0)

    def test_pole_count_is_an_integer(self):
        with pytest.raises(FieldError) as err:
            sim.LandmarkLayout(count=2.5)  # np.tile would reject it in template()
        assert err.value.field == "count"
        assert sim.LandmarkLayout(count=np.int64(3)).template().shape == (3, 7)

    def test_bad_inputs_raise(self):
        with pytest.raises(DataError):
            sim.LandmarkLayout(count=0)
        with pytest.raises(DataError):
            sim.LandmarkLayout(spacing=-1.0)
        with pytest.raises(DataError):
            sim.TrajectoryProfile(speed=0.0)
        with pytest.raises(DataError):
            sim.NoiseProfile("x", 5.0, -1.0, 0.0)
        with pytest.raises(DataError):
            sim.NoiseProfile("x", 5.0, 0.1, 0.1, "sideways")
        with pytest.raises(DataError):
            sim.NoiseProfile("x", 5.0, 0.1, 0.1, PLANAR, (1.0, 0.0, 1.0))
        with pytest.raises(DataError):
            sim.DetectionModel(max_range=0.0)
        with pytest.raises(DataError):
            sim.DetectionModel(max_bearing_deg=200.0)
