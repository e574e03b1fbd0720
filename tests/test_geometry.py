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


def rotation_pose(q):
    """Packed poses of quaternions q with no translation."""
    q = np.asarray(q, dtype=float)
    return np.concatenate([np.zeros(q.shape[:-1] + (3,)), q], axis=-1)


def rotvec(q):
    """The rotation vector of quaternions q: the rotation part of their log."""
    return g.se3_log(rotation_pose(q))[..., 3:]


def rotation_matrix(q):
    """The rotation matrix of quaternions q: a diagonal block of their adjoint."""
    return g.se3_adjoint(rotation_pose(q))[..., :3, :3]


def rotate(q, v):
    """Vectors v rotated by quaternions q: the translation of q * (v, 1)."""
    v = np.asarray(v, dtype=float)
    unit = np.broadcast_to([1.0, 0.0, 0.0, 0.0], v.shape[:-1] + (4,))
    return g.pose3_compose(rotation_pose(q), np.concatenate([v, unit], axis=-1))[..., :3]


def so3_left_jacobian_inv(theta):
    """J_l^-1(theta): the rotation block of Jr^-1 at the twist (0, -theta)."""
    theta = np.asarray(theta, dtype=float)
    return g.se3_right_jacobian_inv(
        np.concatenate([np.zeros_like(theta), -theta], axis=-1)
    )[..., 3:, 3:]


def q_matrix(rho, theta):
    """The coupling block Q of the SE(3) left Jacobian at packed rho and theta."""
    return g._se3_q_matrix(g._rows(rho), g._rows(theta), g.norm3(theta))


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
    r1 = rotvec(q)
    r2 = rotvec(-q)
    assert np.allclose(r1, r2)
    assert np.allclose(r1, [0.0, 0.0, np.pi], atol=1e-12)
    axis = np.array([2.0, -3.0, 1.0])
    axis /= np.linalg.norm(axis)
    q = np.concatenate([[0.0], axis])
    r = rotvec(-q)
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
        assert np.allclose(rotation_matrix(q), rodrigues(axis, angle), atol=1e-12)


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
        R = rotation_matrix(p.q)
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
    out[..., :3, 3:] = q_matrix(rho, theta)
    return out


def sinc_v_coeffs(gamma):
    """sin g / g and (1 - cos g) / g through sinc: the V matrix of SE(2)
    is [[a, -b], [b, a]]."""
    return np.sinc(gamma / np.pi), np.sin(0.5 * gamma) * np.sinc(gamma / (2.0 * np.pi))


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
    alpha, beta = sinc_v_coeffs(-gamma)
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
    jr_inv = group.expand(group.jr_inv_factor(xi))

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
    assert np.array_equal(group.expand(group.jr_inv_factor(np.stack([xi, xi])))[1], jr_inv)


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
    # the column-expression kernels: each batched row is its own single evaluation
    theta, rho = (m.reshape(-1, 3) for m in kernel_cases())
    xi = np.concatenate([rho, theta], axis=-1)
    for kernel, args in (
        (rotate, (a[:, 3:], b[:, :3])), (g.quat_normalize, (1.5 * a[:, 3:],)),
        (rotvec, (a[:, 3:],)), (g.quat_from_rotvec, (theta,)),
        (rotation_matrix, (a[:, 3:],)), (g.so3_left_jacobian, (theta,)),
        (so3_left_jacobian_inv, (theta,)), (q_matrix, (rho, theta)),
        (g.se3_adjoint, (a,)), (g.se3_right_jacobian_inv, (xi,)),
    ):
        batched = kernel(*args)
        for k in range(0, len(args[0]), 7):
            assert np.array_equal(batched[k], kernel(*(x[k] for x in args))), kernel.__name__


# ---------------------------------------------------------------------------
# the column-expression kernels against their textbook forms


def textbook_hat(r):
    """hat(r) v = r x v, column by column."""
    return np.stack([np.cross(r, e) for e in np.eye(3)], axis=-1)


def textbook_q(rho, theta):
    """Q by the hat-matrix products of Barfoot & Furgale, on the same
    coefficient series as the kernel."""
    angle = np.linalg.norm(theta, axis=-1)
    t2 = angle * angle
    small = angle < 1e-2
    safe = np.where(small, 1.0, angle)
    sin_t, cos_t = np.sin(safe), np.cos(safe)
    c2 = np.where(small, 1.0 / 6.0 - t2 / 120.0, (safe - sin_t) / safe**3)
    c3 = -np.where(small, -1.0 / 24.0 + t2 / 720.0, (1.0 - t2 / 2.0 - cos_t) / safe**4)
    c4part = np.where(
        small, -1.0 / 120.0 + t2 / 2520.0, (safe - sin_t - safe**3 / 6.0) / safe**5
    )
    c4 = (0.5 * (c3 + 3.0 * c4part))[..., None, None]
    c2, c3 = c2[..., None, None], c3[..., None, None]
    r, p = textbook_hat(rho), textbook_hat(theta)
    pr, rp, prp = p @ r, r @ p, p @ r @ p
    return (
        0.5 * r + c2 * (pr + rp + prp) + c3 * (p @ pr + rp @ p - 3.0 * prp)
        + c4 * (prp @ p + p @ prp)
    )


def kernel_cases():
    """Rotation vectors, (..., 3), on every branch: below _TAYLOR_CUTOFF,
    below the 1e-2 series cutoff and around it, generic, and near pi."""
    rng = np.random.default_rng(21)
    axes = rng.normal(size=(6, 40, 3))
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    angles = np.stack([
        rng.uniform(0.0, g._TAYLOR_CUTOFF, 40),
        rng.uniform(g._TAYLOR_CUTOFF, 1e-2, 40),
        rng.uniform(0.95e-2, 1.05e-2, 40),
        rng.uniform(1e-2, 3.0, 40),
        np.pi - rng.uniform(0.0, 1e-3, 40),
        np.full(40, np.pi),
    ])
    return axes * angles[..., None], rng.normal(size=(6, 40, 3)) * 3.0


def assert_rows_close(got, want, rtol=1e-12):
    """Each row within ``rtol`` of that row's largest entry."""
    got, want = np.asarray(got), np.asarray(want)
    axes = tuple(range(2, want.ndim))
    scale = np.maximum(np.abs(want).max(axis=axes, initial=0.0), 1e-300)
    assert np.all(np.abs(got - want).max(axis=axes, initial=0.0) <= rtol * scale)


def test_rotation_kernels_match_textbook_forms():
    theta, vec = kernel_cases()
    angle = np.linalg.norm(theta, axis=-1, keepdims=True)
    axis = theta / np.where(angle > 0.0, angle, 1.0)
    textbook_quat = g.quat_canonical(
        np.concatenate([np.cos(0.5 * angle), np.sin(0.5 * angle) * axis], axis=-1)
    )
    q = g.quat_from_rotvec(theta)
    assert_rows_close(q, textbook_quat)
    assert_rows_close(rotvec(q), 2.0 * np.arctan2(
        np.linalg.norm(q[..., 1:], axis=-1, keepdims=True), q[..., :1]
    ) * q[..., 1:] / np.maximum(np.linalg.norm(q[..., 1:], axis=-1, keepdims=True), 1e-300))
    # Rodrigues through two cross products, to the last bit
    qv, w = q[..., 1:], q[..., :1]
    u = 2.0 * np.cross(qv, vec)
    assert np.array_equal(rotate(q, vec), vec + w * u + np.cross(qv, u))
    scaled = 1.7 * q
    assert np.array_equal(
        g.quat_normalize(scaled),
        g.quat_canonical(scaled / np.linalg.norm(scaled, axis=-1, keepdims=True)),
    )
    rot = rotation_matrix(q)
    assert_rows_close(rot @ vec[..., None], rotate(q, vec)[..., None])
    assert_rows_close(rot @ np.swapaxes(rot, -1, -2), np.broadcast_to(np.eye(3), rot.shape))
    assert_rows_close(g.rotation_angle(q)[..., None], angle)


def test_half_turn_at_w_zero():
    # w == 0 exactly: canonical sign, log on the pi branch, rotation by pi
    rng = np.random.default_rng(22)
    v = rng.normal(size=(50, 3))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    q = g.quat_canonical(np.concatenate([np.zeros((50, 1)), v], axis=-1))
    lead = np.take_along_axis(q[:, 1:], np.argmax(np.abs(q[:, 1:]), axis=-1)[:, None], axis=-1)
    assert np.all(q[:, 0] == 0.0) and np.all(lead > 0.0)
    assert_rows_close(rotvec(q), np.pi * q[:, 1:])
    assert_rows_close(rotation_matrix(q), 2.0 * q[:, 1:, None] * q[:, None, 1:] - np.eye(3))
    assert_rows_close(g.quat_normalize(-2.0 * q), q)
    assert_rows_close(g.rotation_angle(q)[:, None], np.full((50, 1), np.pi))


def test_jacobian_kernels_match_textbook_forms():
    theta, rho = kernel_cases()
    hat = textbook_hat(theta)
    angle = np.linalg.norm(theta, axis=-1)
    a, b = g._so3_coeffs(angle)
    c = g._half_cot_coeff(angle)
    eye = np.eye(3)
    a, b, c = a[..., None, None], b[..., None, None], c[..., None, None]
    assert_rows_close(g.so3_left_jacobian(theta), eye + a * hat + b * (hat @ hat))
    assert_rows_close(so3_left_jacobian_inv(theta), eye - 0.5 * hat + c * (hat @ hat))
    assert_rows_close(q_matrix(rho, theta), textbook_q(rho, theta))
    pose = np.concatenate([rho, g.quat_from_rotvec(theta)], axis=-1)
    adjoint = g.se3_adjoint(pose)
    assert_rows_close(adjoint[..., :3, 3:], textbook_hat(rho) @ rotation_matrix(pose[..., 3:]))
    xi = np.concatenate([rho, theta], axis=-1)
    assert_rows_close(g.se3_exp(xi)[..., :3], (g.so3_left_jacobian(theta) @ rho[..., None])[..., 0])


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
    residual, _ = group.between(group.inverse(meas), group.inverse(a), group.compose(a, meas))
    assert np.abs(residual).max() < 1e-9

    # x * exp(xi) * x^-1 = exp(Ad_x xi)
    lhs = group.compose(group.compose(a, group.exp(xi)), group.inverse(a))
    rhs = group.exp(group.expand(group.adjoint_factor(a)) @ xi)
    assert np.abs(group.between(group.inverse(lhs), group.identity, rhs)[0]).max() < 1e-9

    back = group.from_pose3(group.to_pose3(a))
    assert back.shape == (group.packed_dim,)
    assert np.abs(group.log(group.relative(a, back))).max() < 1e-12


# ---------------------------------------------------------------------------
# the row kernels against the packed column formulas they replaced: the
# same arithmetic in the same order, so equal bit for bit on any operand


def ref_quat_canonical(q):
    w = q[..., 0]
    flip = w < 0.0
    at_half_turn = w == 0.0
    if np.any(at_half_turn):
        v = q[..., 1:]
        lead = np.take_along_axis(v, np.argmax(np.abs(v), axis=-1)[..., None], axis=-1)[..., 0]
        flip = flip | (at_half_turn & (lead < 0.0))
    return np.where(flip[..., None], -q, q)


def ref_norm3(v):
    return np.sqrt(v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1] + v[..., 2] * v[..., 2])


def ref_quat_mul(a, b):
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=-1)


def ref_quat_rotate(q, v):
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    vx, vy, vz = v[..., 0], v[..., 1], v[..., 2]
    ux = 2.0 * (y * vz - z * vy)
    uy = 2.0 * (z * vx - x * vz)
    uz = 2.0 * (x * vy - y * vx)
    return np.stack([
        vx + w * ux + (y * uz - z * uy),
        vy + w * uy + (z * ux - x * uz),
        vz + w * uz + (x * uy - y * ux),
    ], axis=-1)


def ref_pose3_compose(a, b):
    t = a[..., :3] + ref_quat_rotate(a[..., 3:], b[..., :3])
    return np.concatenate([t, ref_quat_mul(a[..., 3:], b[..., 3:])], axis=-1)


def ref_pose3_inverse(p):
    qc = np.concatenate([p[..., 3:4], -p[..., 4:]], axis=-1)
    return np.concatenate([-ref_quat_rotate(qc, p[..., :3]), qc], axis=-1)


def ref_quat_normalize(q):
    n = np.sqrt(q[..., 0] ** 2 + q[..., 1] ** 2 + q[..., 2] ** 2 + q[..., 3] ** 2)
    return ref_quat_canonical(q / n[..., None])


def ref_quat_from_rotvec(r):
    half = 0.5 * ref_norm3(r)
    scale = 0.5 * np.sinc(half / np.pi)
    return ref_quat_canonical(np.stack(
        [np.cos(half), scale * r[..., 0], scale * r[..., 1], scale * r[..., 2]], axis=-1
    ))


def ref_quat_to_rotvec(q):
    q = ref_quat_canonical(q)
    w, v = q[..., 0], q[..., 1:]
    s = ref_norm3(v)
    small = s < 1e-4
    w_safe = np.where(w == 0.0, 1.0, w)
    scale = np.where(
        small, 2.0 / w_safe - 2.0 * s * s / (3.0 * w_safe**3),
        2.0 * np.arctan2(s, w) / np.where(small, 1.0, s),
    )
    return scale[..., None] * v


def ref_so3_series(r, a, b):
    x, y, z = r[..., 0], r[..., 1], r[..., 2]
    wx, wy, wz = a * x, a * y, a * z
    sxy, sxz, syz = b * x * y, b * x * z, b * y * z
    return np.stack([
        np.stack([1.0 - b * (y * y + z * z), sxy - wz, sxz + wy], axis=-1),
        np.stack([sxy + wz, 1.0 - b * (x * x + z * z), syz - wx], axis=-1),
        np.stack([sxz - wy, syz + wx, 1.0 - b * (x * x + y * y)], axis=-1),
    ], axis=-2)


def ref_mat_vec(m, v):
    return np.stack([
        m[..., i, 0] * v[..., 0] + m[..., i, 1] * v[..., 1] + m[..., i, 2] * v[..., 2]
        for i in range(3)
    ], axis=-1)


def ref_se3_exp(xi):
    rho, theta = xi[..., :3], xi[..., 3:]
    jl = ref_so3_series(theta, *g._so3_coeffs(ref_norm3(theta)))
    return np.concatenate([ref_mat_vec(jl, rho), ref_quat_from_rotvec(theta)], axis=-1)


def ref_se3_log(p):
    theta = ref_quat_to_rotvec(p[..., 3:])
    jl_inv = ref_so3_series(theta, -0.5, g._half_cot_coeff(ref_norm3(theta)))
    return np.concatenate([ref_mat_vec(jl_inv, p[..., :3]), theta], axis=-1)


def ref_se3_right_jacobian_inv(xi):
    rho, theta = -xi[..., :3], -xi[..., 3:]
    j_inv = ref_so3_series(theta, -0.5, g._half_cot_coeff(ref_norm3(theta)))
    out = np.zeros(xi.shape[:-1] + (6, 6))
    out[..., :3, :3] = j_inv
    out[..., 3:, 3:] = j_inv
    out[..., :3, 3:] = -(j_inv @ q_matrix(rho, theta) @ j_inv)
    return out


def ref_quat_matrix(q):
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack([
        np.stack([1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)], -1),
        np.stack([2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)], -1),
        np.stack([2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)], -1),
    ], axis=-2)


def ref_se3_adjoint(p):
    """[[R, hat(t) R], [0, R]], column j of hat(t) R by np.cross(t, R[:, j])."""
    rot = ref_quat_matrix(p[..., 3:])
    out = np.zeros(p.shape[:-1] + (6, 6))
    out[..., :3, :3] = rot
    out[..., 3:, 3:] = rot
    columns = np.cross(p[..., None, :3], np.swapaxes(rot, -1, -2))
    out[..., :3, 3:] = np.swapaxes(columns, -1, -2)
    return out


def ref_pose3_to_pose2(p):
    w, x, y, z = p[..., 3], p[..., 4], p[..., 5], p[..., 6]
    yaw = np.arctan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))
    return np.concatenate([p[..., :2], yaw[..., None]], axis=-1)


def poses_and_twists(count=61):
    """C-order (count, 7) poses, with a few half turns and negative w, and
    (count, 6) twists up to angle 3 with some below the series cutoffs."""
    rng = np.random.default_rng(29)
    twists = rng.normal(size=(count, 6))
    angles = rng.uniform(0.0, 3.0, count)
    angles[:5] = [0.0, 1e-9, 5e-5, 5e-3, np.pi]
    twists[:, 3:] *= (angles / np.linalg.norm(twists[:, 3:], axis=1))[:, None]
    poses = g.se3_exp(twists)
    poses[5:10, 3:] *= -1.0  # negative w: canonical form flips them back
    poses[10, 3:] = [0.0, -0.6, 0.0, 0.8]  # w == 0, leading component negative
    return poses, twists


def operand_cases(p):
    """Pairs of operands: C-order, views, a broadcast grid, single poses."""
    q = p[::-1].copy()
    return {
        "c-order": (p, q),
        "views": (p[:-1], p[1:]),
        "stride-2": (p[::2], q[::2]),
        "broadcast": (p[None, :9], q[:4, None]),
        "single": (p[0], q[1]),
    }


def quat_part(kernel):
    return lambda p: kernel(p[..., 3:])


def row_kernel(kernel, *parts):
    """A row kernel of ``geometry`` on component slices of packed operands:
    each slice read into rows, the result packed."""
    return lambda *ops: g._packed(*kernel(*(g._rows(op[part]) for op, part in zip(ops, parts))))


BINARY_KERNELS = {
    "pose3_compose": (g.pose3_compose, ref_pose3_compose),
    "quat_mul": (
        lambda a, b: g.quat_mul(a[..., 3:], b[..., 3:]),
        lambda a, b: ref_quat_mul(a[..., 3:], b[..., 3:]),
    ),
    "quat_rotate": (
        row_kernel(g._quat_rotate, np.s_[..., 3:], np.s_[..., :3]),
        lambda a, b: ref_quat_rotate(a[..., 3:], b[..., :3]),
    ),
}

TWIST_KERNELS = {"se3_exp", "se3_right_jacobian_inv"}  # the rest take poses
UNARY_KERNELS = {
    "pose3_inverse": (g.pose3_inverse, ref_pose3_inverse),
    "quat_canonical": (quat_part(g.quat_canonical), quat_part(ref_quat_canonical)),
    "quat_normalize": (
        lambda p: g.quat_normalize(1.5 * p[..., 3:]),
        lambda p: ref_quat_normalize(1.5 * p[..., 3:]),
    ),
    "quat_to_rotvec": (
        row_kernel(g._quat_to_rotvec, np.s_[..., 3:]), quat_part(ref_quat_to_rotvec)
    ),
    "quat_from_rotvec": (lambda p: g.quat_from_rotvec(p[..., :3]), ref_quat_from_rotvec),
    "norm3": (lambda p: g.norm3(p[..., :3]), ref_norm3),
    "se3_log": (g.se3_log, ref_se3_log),
    "se3_exp": (g.se3_exp, ref_se3_exp),
    "se3_right_jacobian_inv": (g.se3_right_jacobian_inv, ref_se3_right_jacobian_inv),
    "se3_adjoint": (g.se3_adjoint, ref_se3_adjoint),
    "pose3_to_pose2": (g.pose3_to_pose2_packed, ref_pose3_to_pose2),
}
CASES = ["c-order", "views", "stride-2", "broadcast", "single"]


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("name", list(BINARY_KERNELS))
def test_binary_row_kernels_equal_packed_formulas(name, case):
    kernel, reference = BINARY_KERNELS[name]
    a, b = operand_cases(poses_and_twists()[0])[case]
    got = kernel(a, b)
    assert got.flags.c_contiguous
    assert np.array_equal(got, reference(a, b))


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("name", list(UNARY_KERNELS))
def test_unary_row_kernels_equal_packed_formulas(name, case):
    kernel, reference = UNARY_KERNELS[name]
    poses, twists = poses_and_twists()
    operand = operand_cases(twists if name in TWIST_KERNELS else poses)[case][0]
    got = kernel(operand)
    assert np.shape(got) == np.shape(reference(operand))
    assert np.array_equal(got, reference(operand))


# ---------------------------------------------------------------------------
# SE(2) exp and log by half angles, against the sinc forms


SE2_ANGLES = [0.0, 1e-12, -1e-12, 1e-2 - 1e-9, 1e-2 + 1e-9, -1e-2 - 1e-9, np.pi - 1e-9, -2.5, 1.0]


@pytest.mark.parametrize("translation", [(0.7, -1.3), (3.0, 5.0), (-20.0, 7.0)])
def test_se2_half_angle_exp_log_match_sinc_forms(translation):
    gamma = np.array(SE2_ANGLES)
    p = np.column_stack([np.outer(np.ones_like(gamma), translation), gamma])
    a, b = sinc_v_coeffs(gamma)
    x, y = p[:, 0], p[:, 1]
    det = a * a + b * b
    sinc_log = np.column_stack([(a * x + b * y) / det, (a * y - b * x) / det, gamma])
    sinc_exp = np.column_stack([a * x - b * y, b * x + a * y, g.wrap_angle(gamma)])
    log, exp = g.se2_log(p), g.se2_exp(p)
    for got, want in ((log, sinc_log), (exp, sinc_exp)):
        scale = np.abs(want[:, :2]).max(axis=1)
        assert np.all(np.abs(got[:, :2] - want[:, :2]).max(axis=1) <= 1e-15 * scale)
    assert np.array_equal(log[:, 2], gamma)  # the log returns the angle as it is
    assert np.array_equal(exp[:, 2], sinc_exp[:, 2])
    back = g.se2_exp(log)
    assert np.abs(back - p).max() <= 1e-15 * np.abs(p).max()
