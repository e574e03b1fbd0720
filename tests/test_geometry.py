import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunnelgraph import geometry as g
from tunnelgraph.geometry import SE2, SE3, Pose3


def rodrigues(axis, angle):
    # independent rotation-matrix construction for cross-checking
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    K = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def random_pose(rng, trans_scale=5.0, max_angle=3.0):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, max_angle)
    return Pose3(g.quat_from_rotvec(axis * angle), rng.normal(size=3) * trans_scale)


def random_pose2(rng, count, trans_scale=5.0):
    return np.column_stack(
        [rng.normal(size=(count, 2)) * trans_scale, rng.uniform(-np.pi, np.pi, count)]
    )


def test_wrap_angle_half_open_interval():
    assert g.wrap_angle(np.pi) == pytest.approx(np.pi)
    assert g.wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert g.wrap_angle(3.0 * np.pi) == pytest.approx(np.pi)
    assert g.wrap_angle(0.0) == 0.0
    assert g.wrap_angle(2.5 * np.pi) == pytest.approx(0.5 * np.pi)
    vals = g.wrap_angle(np.linspace(-20.0, 20.0, 2001))
    assert np.all(vals > -np.pi) and np.all(vals <= np.pi)


def test_quaternion_normalized_after_operations():
    rng = np.random.default_rng(1)
    p = Pose3.identity()
    for _ in range(200):
        p = Pose3.from_packed(g.pose3_compose(p.packed, random_pose(rng).packed))
        assert abs(np.linalg.norm(p.q) - 1.0) < 1e-9
    assert p.q[0] >= 0.0


def test_compose_identity_and_inverse():
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = random_pose(rng).packed
        e = g.pose3_compose(p, g.pose3_inverse(p))
        assert np.linalg.norm(e[:3]) < 1e-12
        assert g.rotation_angle(e[3:]) < 1e-12
        i = g.pose3_compose(p, g.POSE3_IDENTITY)
        assert np.allclose(i, p, atol=1e-15)


def test_compose_associative():
    rng = np.random.default_rng(3)
    for _ in range(30):
        a, b, c = (random_pose(rng).packed for _ in range(3))
        lhs = g.pose3_compose(g.pose3_compose(a, b), c)
        rhs = g.pose3_compose(a, g.pose3_compose(b, c))
        assert np.allclose(lhs[:3], rhs[:3], atol=1e-9)
        assert np.allclose(lhs[3:], rhs[3:], atol=1e-12)


def test_relative_reaches_target():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a, b = random_pose(rng).packed, random_pose(rng).packed
        back = g.pose3_compose(a, g.pose3_relative(a, b))
        assert np.allclose(back[:3], b[:3], atol=1e-9)
        assert np.allclose(back[3:], b[3:], atol=1e-12)


def test_exp_log_roundtrip_1000_twists():
    rng = np.random.default_rng(5)
    axis = rng.normal(size=(1000, 3))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    theta = axis * rng.uniform(0.0, 3.0, (1000, 1))
    rho = rng.normal(size=(1000, 3)) * rng.uniform(0.0, 10.0, (1000, 1))
    xi = np.concatenate([rho, theta], axis=1)
    assert np.abs(g.se3_log(g.se3_exp(xi)) - xi).max() < 1e-9


def test_log_zero_rotation_small_angle_branch():
    xi = np.array([1.0, -2.0, 0.5, 0.0, 0.0, 0.0])
    p = g.se3_exp(xi)
    assert np.allclose(p[:3], xi[:3], atol=1e-15)
    assert np.allclose(g.se3_log(p), xi, atol=1e-12)
    # continuity across the series cutoff
    for mag in (1e-9, 1e-6, 9e-5, 2e-4, 1e-2):
        xi = np.array([0.3, 0.1, -0.2, 0.6 * mag, -0.8 * mag, 0.0])
        assert np.abs(g.se3_log(g.se3_exp(xi)) - xi).max() < 1e-12


def test_log_at_pi_deterministic_branch():
    # both q and -q describe the same half-turn; log must pick the branch
    # whose dominant axis component is positive
    q = np.array([0.0, 0.0, 0.0, 1.0])
    r1 = g.quat_to_rotvec(q)
    r2 = g.quat_to_rotvec(-q)
    assert np.allclose(r1, r2)
    assert np.allclose(r1, [0.0, 0.0, np.pi], atol=1e-12)
    axis = np.array([2.0, -3.0, 1.0])
    axis /= np.linalg.norm(axis)
    q = np.concatenate([[0.0], axis])
    r = g.quat_to_rotvec(-q)
    assert r[1] > 0.0  # dominant component forced positive
    assert abs(np.linalg.norm(r) - np.pi) < 1e-12


def test_rotation_angle_matches_trace_oracle():
    rng = np.random.default_rng(6)
    for _ in range(100):
        axis = rng.normal(size=3)
        angle = rng.uniform(0.0, np.pi)
        q = g.quat_from_rotvec(axis / np.linalg.norm(axis) * angle)
        R = rodrigues(axis, angle)
        oracle = np.degrees(np.arccos(np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)))
        assert np.degrees(g.rotation_angle(q)) == pytest.approx(oracle, abs=1e-6)


def test_rotation_matrix_matches_rodrigues():
    rng = np.random.default_rng(7)
    for _ in range(50):
        axis = rng.normal(size=3)
        angle = rng.uniform(0.0, np.pi)
        q = g.quat_from_rotvec(axis / np.linalg.norm(axis) * angle)
        assert np.allclose(g.quat_to_matrix(q), rodrigues(axis, angle), atol=1e-12)


def test_interpolate_endpoints_bit_exact():
    rng = np.random.default_rng(8)
    a, b = random_pose(rng), random_pose(rng)
    p0 = g.interpolate(a, b, 0.0)
    p1 = g.interpolate(a, b, 1.0)
    assert np.array_equal(p0.t, a.t) and np.array_equal(p0.q, a.q)
    assert np.array_equal(p1.t, b.t) and np.array_equal(p1.q, b.q)


def test_interpolate_is_single_geodesic():
    # quarter-turn plus offset: the screw path is a circular arc, so the
    # midpoint bulges sideways where separate-lerp of parts would give y = 0
    a = Pose3.identity()
    b = Pose3.from_packed(SE2.to_pose3([1.0, 0.0, np.pi / 2.0]))
    mid = g.interpolate(a, b, 0.5)
    step = g.se3_log(g.pose3_relative(a.packed, b.packed))
    expect = g.se3_exp(0.5 * step)
    assert np.allclose(mid.packed, expect, atol=1e-12)
    assert abs(mid.t[1]) > 0.1
    # consistency: two half steps chain to the endpoint
    end = g.pose3_compose(mid.packed, g.se3_exp(0.5 * step))
    assert np.allclose(end[:3], b.t, atol=1e-12)
    # the array form takes one fraction per pose pair
    batch = g.pose3_interpolate(
        np.stack([a.packed] * 3), np.stack([b.packed] * 3), [0.0, 0.5, 1.0]
    )
    assert np.allclose(batch, [a.packed, mid.packed, b.packed], atol=1e-12)


def test_interpolate_monotone_along_straight_line():
    a = Pose3.identity()
    b = Pose3(np.array([1.0, 0.0, 0.0, 0.0]), [4.0, 0.0, 0.0])
    for alpha in np.linspace(0.0, 1.0, 11):
        p = g.interpolate(a, b, float(alpha))
        assert p.t[0] == pytest.approx(4.0 * alpha, abs=1e-12)


def test_yaw_projection_matches_euler_oracle():
    # ZYX decomposition oracle: yaw = atan2(R10, R00)
    rng = np.random.default_rng(9)
    for _ in range(100):
        p = random_pose(rng)
        R = g.quat_to_matrix(p.q)
        oracle = np.arctan2(R[1, 0], R[0, 0])
        assert SE2.from_pose3(p.packed)[2] == pytest.approx(oracle, abs=1e-12)
    roll5_yaw30 = g.pose3_compose(
        SE2.to_pose3([0.0, 0.0, np.radians(30.0)]),
        np.concatenate([np.zeros(3), g.quat_from_rotvec([np.radians(5.0), 0.0, 0.0])]),
    )
    assert SE2.from_pose3(roll5_yaw30)[2] == pytest.approx(np.radians(30.0), abs=1e-6)


def test_project_lift_identity_for_planar_poses():
    rng = np.random.default_rng(10)
    p2 = random_pose2(rng, 30, trans_scale=10.0)
    lifted = SE2.to_pose3(p2)
    np.testing.assert_array_equal(lifted[:, 2], 0.0)  # z
    np.testing.assert_array_equal(lifted[:, 4:6], 0.0)  # qx, qy
    back = SE2.from_pose3(lifted)
    assert np.allclose(back[:, :2], p2[:, :2], atol=1e-12)
    assert np.abs(g.wrap_angle(back[:, 2] - p2[:, 2])).max() < 1e-12


def test_pose2_ops_agree_with_projected_pose3():
    rng = np.random.default_rng(11)
    a2, b2 = random_pose2(rng, 50), random_pose2(rng, 50)
    a3, b3 = SE2.to_pose3(a2), SE2.to_pose3(b2)

    def same_planar(x2, x3):
        y2 = SE2.from_pose3(x3)
        assert np.allclose(x2[:, :2], y2[:, :2], atol=1e-9)
        assert np.abs(g.wrap_angle(x2[:, 2] - y2[:, 2])).max() < 1e-9

    same_planar(SE2.compose(a2, b2), SE3.compose(a3, b3))
    same_planar(SE2.relative(a2, b2), SE3.relative(a3, b3))
    # geodesic point at 0.37: planar exp/log against the lifted screw motion
    mid2 = SE2.retract(a2, 0.37 * SE2.log(SE2.relative(a2, b2)))
    same_planar(mid2, g.pose3_interpolate(a3, b3, 0.37))


def test_se2_exp_log_roundtrip():
    rng = np.random.default_rng(12)
    for _ in range(300):
        xi = np.array([rng.normal() * 5, rng.normal() * 5, rng.uniform(-3.1, 3.1)])
        assert np.allclose(g.se2_log(g.se2_exp(xi)), xi, atol=1e-9)


def _fd_jacobian(exp_fn, log_fn, comp_fn, inv_fn, xi, n, h=1e-6):
    J = np.zeros((n, n))
    base = exp_fn(xi)
    for k in range(n):
        d = np.zeros(n)
        d[k] = h
        plus = log_fn(comp_fn(inv_fn(base), exp_fn(xi + d)))
        minus = log_fn(comp_fn(inv_fn(base), exp_fn(xi - d)))
        J[:, k] = (plus - minus) / (2.0 * h)
    return J


# Reference right Jacobians, assembled blockwise and inverted with
# np.linalg.inv, against which the closed-form jr_inv is checked.


def se3_right_jacobian(xi):
    """Jr(xi) = Jl(-xi) = [[J, Q], [0, J]] at (rho, theta) = -xi."""
    xi = np.asarray(xi, dtype=float)
    rho, theta = -xi[..., :3], -xi[..., 3:]
    jl = g.so3_left_jacobian(theta)
    out = np.zeros(xi.shape[:-1] + (6, 6))
    out[..., :3, :3] = jl
    out[..., 3:, 3:] = jl
    out[..., :3, 3:] = g._se3_q_matrix(rho, theta)
    return out


def se2_right_jacobian(xi):
    """Jr = [[M, c], [0, 1]], M the V matrix of -gamma."""
    xi = np.asarray(xi, dtype=float)
    rho, gamma = xi[..., :2], xi[..., 2]
    g2 = gamma * gamma
    half_sinc = np.sinc(gamma / (2.0 * np.pi))
    a = 0.5 * half_sinc * half_sinc
    small = np.abs(gamma) < 1e-2
    safe = np.where(small, 1.0, gamma)
    b = np.where(
        small,
        gamma / 6.0 - gamma * g2 / 120.0 + gamma * g2 * g2 / 5040.0,
        (safe - np.sin(safe)) / (safe * safe),
    )
    out = np.zeros(xi.shape[:-1] + (3, 3))
    alpha, beta = g._se2_v_coeffs(-gamma)
    out[..., 0, 0] = alpha
    out[..., 0, 1] = -beta
    out[..., 1, 0] = beta
    out[..., 1, 1] = alpha
    out[..., 0, 2] = b * rho[..., 0] - a * rho[..., 1]
    out[..., 1, 2] = a * rho[..., 0] + b * rho[..., 1]
    out[..., 2, 2] = 1.0
    return out


def test_se3_right_jacobian_matches_finite_differences():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(60):
        xi = rng.normal(size=6)
        xi[3:] *= rng.uniform(0.0, 2.9) / max(np.linalg.norm(xi[3:]), 1e-12)
        fd = _fd_jacobian(g.se3_exp, g.se3_log, g.pose3_compose, g.pose3_inverse, xi, 6)
        worst = max(worst, np.abs(se3_right_jacobian(xi) - fd).max())
    assert worst < 1e-6


def test_se2_right_jacobian_matches_finite_differences():
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(60):
        xi = np.array([rng.normal() * 3, rng.normal() * 3, rng.uniform(-2.9, 2.9)])
        fd = _fd_jacobian(g.se2_exp, g.se2_log, g.pose2_compose, g.pose2_inverse, xi, 3)
        worst = max(worst, np.abs(se2_right_jacobian(xi) - fd).max())
    assert worst < 1e-6


RIGHT_JACOBIANS = {"SE2": se2_right_jacobian, "SE3": se3_right_jacobian}

# rotation angles on every branch of the closed forms: the series below
# 1e-2, both sides of that cutoff, generic angles, and angles near pi
ANGLES = st.one_of(
    st.floats(0.0, 1e-2 * 0.999),
    st.floats(1e-2 * 0.95, 1e-2 * 1.05),
    st.floats(1e-2, 3.0),
    st.floats(np.pi - 1e-2, np.pi - 1e-3),
)


@pytest.mark.parametrize("name", ["SE2", "SE3"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_jr_inv_closed_form(name, data):
    group = {"SE2": SE2, "SE3": SE3}[name]
    d, k = group.tangent_dim, group.trans_dim
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    rho = 5.0 * np.array(data.draw(st.lists(unit, min_size=k, max_size=k)))
    if d - k == 1:
        axis = np.array([data.draw(st.sampled_from([-1.0, 1.0]))])
    else:
        polar = data.draw(st.floats(0.0, np.pi))
        azimuth = data.draw(st.floats(0.0, 2.0 * np.pi))
        axis = np.array([
            np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)
        ])
    xi = np.concatenate([rho, data.draw(ANGLES) * axis])
    jr_inv = group.jr_inv(xi)

    # log(exp(xi) * exp(delta)) = xi + Jr^-1(xi) delta + O(|delta|^2)
    h = 1e-6
    fd = np.empty((d, d))
    for col in range(d):
        step = np.zeros(d)
        step[col] = h
        plus = group.log(group.retract(group.exp(xi), step))
        minus = group.log(group.retract(group.exp(xi), -step))
        fd[:, col] = (plus - minus) / (2.0 * h)
    scale = 1.0 + np.abs(jr_inv).max()
    assert np.abs(jr_inv - fd).max() < 1e-6 * scale

    reference = np.linalg.inv(RIGHT_JACOBIANS[name](xi))
    assert np.abs(jr_inv - reference).max() < 1e-12 * scale
    # batched rows agree with the single evaluation
    assert np.array_equal(group.jr_inv(np.stack([xi, xi]))[1], jr_inv)


def test_adjoint_identity():
    rng = np.random.default_rng(15)
    for _ in range(30):
        T = random_pose(rng).packed
        xi = rng.normal(size=6) * 0.5
        lhs = g.pose3_compose(g.pose3_compose(T, g.se3_exp(xi)), g.pose3_inverse(T))
        rhs = g.se3_exp(g.se3_adjoint(T) @ xi)
        assert np.abs(g.se3_log(g.pose3_relative(lhs, rhs))).max() < 1e-9


def test_batched_ops_match_scalar_loop():
    rng = np.random.default_rng(16)
    a = np.stack([random_pose(rng).packed for _ in range(40)])
    b = np.stack([random_pose(rng).packed for _ in range(40)])
    batched = g.pose3_compose(a, b)
    for k in range(40):
        single = g.pose3_compose(a[k], b[k])
        assert np.array_equal(batched[k], single)
    logs = g.se3_log(g.pose3_relative(a, b))
    for k in range(5):
        assert np.allclose(logs[k], g.se3_log(g.pose3_relative(a[k], b[k])), atol=1e-15)


def test_pose_values_immutable():
    p = Pose3.identity()
    with pytest.raises((ValueError, AttributeError)):
        p.t[0] = 1.0
    with pytest.raises(AttributeError):
        p.q = np.zeros(4)


def tangent(group):
    """Tangent vectors with translation up to 7.5 and rotation well below pi."""
    d, k = group.tangent_dim, group.trans_dim
    scale = np.array([5.0] * k + [1.0] * (d - k))
    component = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)
    return st.lists(component, min_size=d, max_size=d).map(lambda v: np.array(v) * scale)


@pytest.mark.parametrize("group", [pytest.param(SE2, id="SE2"), pytest.param(SE3, id="SE3")])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_group_identities(group, data):
    xi, eta, zeta = (data.draw(tangent(group)) for _ in range(3))
    assert np.allclose(group.log(group.exp(xi)), xi, atol=1e-9)

    a, meas = group.exp(eta), group.exp(zeta)
    assert np.abs(group.between(meas, a, group.compose(a, meas))).max() < 1e-9

    # x * exp(xi) * x^-1 = exp(Ad_x xi)
    lhs = group.compose(group.compose(a, group.exp(xi)), group.inverse(a))
    rhs = group.exp(group.adjoint(a) @ xi)
    assert np.abs(group.between(lhs, group.identity, rhs)).max() < 1e-9

    back = group.from_pose3(group.to_pose3(a))
    assert back.shape == (group.packed_dim,)
    assert np.abs(group.log(group.relative(a, back))).max() < 1e-12
