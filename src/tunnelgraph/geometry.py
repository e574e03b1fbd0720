"""Rigid-body pose arithmetic on SE(3) and SE(2).

Conventions used throughout the package:

* Quaternions are stored ``(w, x, y, z)`` and kept canonical: ``w >= 0``,
  and when ``w == 0`` (half-turn) the sign is fixed so that the vector
  component with the largest magnitude is positive.  This makes ``log``
  deterministic at rotation angle pi.
* Packed 3D poses are arrays ``[tx, ty, tz, qw, qx, qy, qz]`` (shape
  ``(..., 7)``); packed planar poses are ``[x, y, yaw]`` with yaw wrapped
  to the half-open interval ``(-pi, pi]``.
* Tangent vectors ("twists") put translation first: ``[rho, theta]`` with
  shape ``(..., 6)`` in 3D and ``[rho_x, rho_y, gamma]`` in the plane.
* ``exp`` maps a twist to a pose through the screw motion (rotation and
  translation coupled through the integral of the rotation); ``log`` is
  its inverse on the principal branch (rotation angle <= pi).

All array functions broadcast over leading axes, so the same code serves
single poses and whole edge sets.  The batched kernels are column
expressions: each output component is an elementwise formula over the
input components (``x * x + y * y + z * z``, not ``np.linalg.norm``;
cross products written out), and matrices are filled entry by entry.  No
reduction, cross product or einsum runs along a pose axis, because numpy
runs such a pass as a three- or four-long inner loop once per row,
several times slower than the column expression over all rows.  The one
batched matrix product left, in :func:`se3_right_jacobian_inv`,
multiplies 3 x 3 blocks.

The two pose families are :data:`SE2` and :data:`SE3`, instances of one
:class:`Group` table carrying compose, inverse, exp, log, adjoint, the
inverse right Jacobian (in closed form, no matrix inversion) and the
conversions to and from packed SE(3), plus
the derived ``relative``, ``retract`` and ``between`` (the one edge
residual).  Code that serves both families takes a group and never
branches on which one it has.  :class:`Pose3` is the small immutable
value type used for single placements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

_TAYLOR_CUTOFF = 1e-4


def wrap_angle(theta):
    """Wrap an angle (radians) to (-pi, pi]."""
    theta = np.asarray(theta, dtype=float)
    wrapped = np.fmod(theta + np.pi, 2.0 * np.pi)
    wrapped = np.where(wrapped <= 0.0, wrapped + 2.0 * np.pi, wrapped)
    out = wrapped - np.pi
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# quaternions


def quat_canonical(q):
    """Fix the sign ambiguity: w >= 0, ties at w == 0 broken deterministically."""
    q = np.asarray(q, dtype=float)
    w = q[..., 0]
    flip = w < 0.0
    at_half_turn = w == 0.0
    if np.any(at_half_turn):
        v = q[..., 1:]
        lead = np.take_along_axis(
            v, np.argmax(np.abs(v), axis=-1)[..., None], axis=-1
        )[..., 0]
        flip = flip | (at_half_turn & (lead < 0.0))
    return np.where(flip[..., None], -q, q)


def _dot(a, b):
    """Row-wise dot product of (..., 3) vectors."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def norm3(v):
    """Row-wise Euclidean norm of (..., 3) vectors."""
    return np.sqrt(_dot(v, v))


def quat_norm(q):
    """Row-wise norm of (..., 4) quaternions."""
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.sqrt(w * w + x * x + y * y + z * z)


def quat_normalize(q):
    q = np.asarray(q, dtype=float)
    return quat_canonical(q / quat_norm(q)[..., None])


def quat_mul(a, b):
    """Hamilton product of (w, x, y, z) quaternions."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def quat_conj(q):
    q = np.asarray(q, dtype=float)
    return np.concatenate([q[..., :1], -q[..., 1:]], axis=-1)


def quat_rotate(q, v):
    """Rotate vector(s) v by quaternion(s) q: v + w u + q_v x u with
    u = 2 q_v x v, the cross products written out."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    vx, vy, vz = v[..., 0], v[..., 1], v[..., 2]
    ux = 2.0 * (y * vz - z * vy)
    uy = 2.0 * (z * vx - x * vz)
    uz = 2.0 * (x * vy - y * vx)
    return np.stack(
        [
            vx + w * ux + (y * uz - z * uy),
            vy + w * uy + (z * ux - x * uz),
            vz + w * uz + (x * uy - y * ux),
        ],
        axis=-1,
    )


def quat_from_rotvec(r):
    """Exponential of a rotation vector as a quaternion."""
    r = np.asarray(r, dtype=float)
    half = 0.5 * norm3(r)
    # sin(half)/angle written through sinc: smooth at zero, no branch
    scale = 0.5 * np.sinc(half / np.pi)
    return quat_canonical(
        np.stack([np.cos(half), scale * r[..., 0], scale * r[..., 1], scale * r[..., 2]], axis=-1)
    )


def quat_to_rotvec(q):
    """Principal-branch logarithm of a unit quaternion (angle <= pi)."""
    q = quat_canonical(np.asarray(q, dtype=float))
    w = q[..., 0]
    v = q[..., 1:]
    s = norm3(v)
    small = s < _TAYLOR_CUTOFF
    s_safe = np.where(small, 1.0, s)
    angle = 2.0 * np.arctan2(s, w)
    # angle/s with the s -> 0 limit 2/w - 2 s^2 / (3 w^3)
    w_safe = np.where(w == 0.0, 1.0, w)
    scale = np.where(
        small,
        2.0 / w_safe - 2.0 * s * s / (3.0 * w_safe**3),
        angle / s_safe,
    )
    return np.stack([scale * v[..., 0], scale * v[..., 1], scale * v[..., 2]], axis=-1)


def quat_to_matrix(q):
    q = np.asarray(q, dtype=float)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    out = np.empty(q.shape[:-1] + (3, 3))
    out[..., 0, 0] = 1.0 - 2.0 * (y * y + z * z)
    out[..., 0, 1] = 2.0 * (x * y - w * z)
    out[..., 0, 2] = 2.0 * (x * z + w * y)
    out[..., 1, 0] = 2.0 * (x * y + w * z)
    out[..., 1, 1] = 1.0 - 2.0 * (x * x + z * z)
    out[..., 1, 2] = 2.0 * (y * z - w * x)
    out[..., 2, 0] = 2.0 * (x * z - w * y)
    out[..., 2, 1] = 2.0 * (y * z + w * x)
    out[..., 2, 2] = 1.0 - 2.0 * (x * x + y * y)
    return out


def quat_yaw(q):
    """Heading about the vertical axis, ZYX convention."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    out = np.arctan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))
    return float(out) if out.ndim == 0 else out


def rotation_angle(q):
    """Rotation angle in radians, in [0, pi]."""
    q = quat_canonical(np.asarray(q, dtype=float))
    out = 2.0 * np.arctan2(norm3(q[..., 1:]), q[..., 0])
    return float(out) if out.ndim == 0 else out


def _skew_plus_symmetric(w, diagonal, off_diagonal):
    """hat(w) plus the symmetric matrix with the given diagonal and
    (xy, xz, yz) entries, filled entry by entry; each argument is a triple
    of columns."""
    (wx, wy, wz), (sxy, sxz, syz) = w, off_diagonal
    out = np.empty(np.shape(diagonal[0]) + (3, 3))
    out[..., 0, 0], out[..., 1, 1], out[..., 2, 2] = diagonal
    out[..., 0, 1] = sxy - wz
    out[..., 1, 0] = sxy + wz
    out[..., 0, 2] = sxz + wy
    out[..., 2, 0] = sxz - wy
    out[..., 1, 2] = syz - wx
    out[..., 2, 1] = syz + wx
    return out


def _so3_series(r, a, b):
    """I + a hat(r) + b hat(r)^2, with hat(r)^2 = r r^T - |r|^2 I: off the
    diagonal r_i r_j, on it -(r_j^2 + r_k^2), free of cancellation."""
    x, y, z = r[..., 0], r[..., 1], r[..., 2]
    return _skew_plus_symmetric(
        (a * x, a * y, a * z),
        (1.0 - b * (y * y + z * z), 1.0 - b * (x * x + z * z), 1.0 - b * (x * x + y * y)),
        (b * x * y, b * x * z, b * y * z),
    )


def _so3_coeffs(angle):
    """A = (1-cos t)/t^2 and B = (t-sin t)/t^3, cancellation-free."""
    t2 = angle * angle
    # (1-cos t)/t^2 = 2 sin^2(t/2)/t^2 = 0.5 sinc^2(t/(2 pi))
    half_sinc = np.sinc(angle / (2.0 * np.pi))
    a = 0.5 * half_sinc * half_sinc
    small = angle < 1e-2
    safe = np.where(small, 1.0, angle)
    b = np.where(
        small,
        1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0,
        (safe - np.sin(safe)) / (safe**3),
    )
    return a, b


def so3_left_jacobian(r):
    """V matrix: integrates a rotation along the geodesic (also SO(3) J_l)."""
    r = np.asarray(r, dtype=float)
    a, b = _so3_coeffs(norm3(r))
    return _so3_series(r, a, b)


def _half_cot_coeff(angle):
    """(1 - (t/2) cot(t/2)) / t^2 for t >= 0, by its series below 1e-2."""
    t2 = angle * angle
    small = angle < 1e-2
    safe = np.where(small, 1.0, angle)
    return np.where(
        small,
        1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0,
        (1.0 - 0.5 * safe / np.tan(0.5 * safe)) / (safe * safe),
    )


def so3_left_jacobian_inv(r):
    r = np.asarray(r, dtype=float)
    return _so3_series(r, -0.5, _half_cot_coeff(norm3(r)))


# ---------------------------------------------------------------------------
# packed SE(3) poses: [tx, ty, tz, qw, qx, qy, qz]

POSE3_IDENTITY = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0])


def pose3_compose(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    t = a[..., :3] + quat_rotate(a[..., 3:], b[..., :3])
    return np.concatenate([t, quat_mul(a[..., 3:], b[..., 3:])], axis=-1)


def pose3_inverse(p):
    p = np.asarray(p, dtype=float)
    qc = quat_conj(p[..., 3:])
    return np.concatenate([-quat_rotate(qc, p[..., :3]), qc], axis=-1)


def _mat_vec(m, v):
    """Row-wise product of (..., 3, 3) matrices and (..., 3) vectors."""
    return np.stack([_dot(m[..., i, :], v) for i in range(3)], axis=-1)


def se3_exp(xi):
    xi = np.asarray(xi, dtype=float)
    rho, theta = xi[..., :3], xi[..., 3:]
    t = _mat_vec(so3_left_jacobian(theta), rho)
    return np.concatenate([t, quat_from_rotvec(theta)], axis=-1)


def se3_log(p):
    p = np.asarray(p, dtype=float)
    theta = quat_to_rotvec(p[..., 3:])
    rho = _mat_vec(so3_left_jacobian_inv(theta), p[..., :3])
    return np.concatenate([rho, theta], axis=-1)


def se3_adjoint(p):
    """[[R, hat(t) R], [0, R]]; column j of hat(t) R is t x R[:, j]."""
    p = np.asarray(p, dtype=float)
    rot = quat_to_matrix(p[..., 3:])
    out = np.zeros(p.shape[:-1] + (6, 6))
    out[..., :3, :3] = rot
    out[..., 3:, 3:] = rot
    tx, ty, tz = p[..., 0], p[..., 1], p[..., 2]
    for j in range(3):
        r0, r1, r2 = rot[..., 0, j], rot[..., 1, j], rot[..., 2, j]
        out[..., 0, 3 + j] = ty * r2 - tz * r1
        out[..., 1, 3 + j] = tz * r0 - tx * r2
        out[..., 2, 3 + j] = tx * r1 - ty * r0
    return out


def _se3_q_matrix(rho, theta):
    """Translation-rotation coupling block of the SE(3) left Jacobian.

    With p = hat(theta) and r = hat(rho) (Barfoot & Furgale, T-RO 2014),
    Q = r/2 + c2 (pr + rp + prp) + c3 (ppr + rpp - 3 prp) + c4 (prpp + pprp).
    The identities pr = rho theta^T - (theta.rho) I and prp = -(theta.rho) p
    reduce it to hat(a) + c2 (rho theta^T + theta rho^T - 2 (theta.rho) I)
    - 2 c4 (theta.rho) pp, with a = (1/2 - c3 t^2) rho + (2 c3 - c2)
    (theta.rho) theta and pp = theta theta^T - t^2 I, filled entry by entry.
    """
    angle = norm3(theta)
    t2 = angle * angle
    small = angle < 1e-2
    safe = np.where(small, 1.0, angle)
    sin_t, cos_t = np.sin(safe), np.cos(safe)
    c2 = np.where(small, 1.0 / 6.0 - t2 / 120.0, (safe - sin_t) / safe**3)
    c3 = -np.where(
        small, -1.0 / 24.0 + t2 / 720.0, (1.0 - t2 / 2.0 - cos_t) / safe**4
    )
    c4part = np.where(
        small, -1.0 / 120.0 + t2 / 2520.0, (safe - sin_t - safe**3 / 6.0) / safe**5
    )
    c4 = 0.5 * (c3 + 3.0 * c4part)
    tx, ty, tz = theta[..., 0], theta[..., 1], theta[..., 2]
    rx, ry, rz = rho[..., 0], rho[..., 1], rho[..., 2]
    dot = _dot(theta, rho)
    e = 2.0 * c4 * dot
    on_rho, on_theta = 0.5 - c3 * t2, (2.0 * c3 - c2) * dot
    return _skew_plus_symmetric(
        (on_rho * rx + on_theta * tx, on_rho * ry + on_theta * ty, on_rho * rz + on_theta * tz),
        (
            e * (ty * ty + tz * tz) - 2.0 * c2 * (ry * ty + rz * tz),
            e * (tx * tx + tz * tz) - 2.0 * c2 * (rx * tx + rz * tz),
            e * (tx * tx + ty * ty) - 2.0 * c2 * (rx * tx + ry * ty),
        ),
        (
            c2 * (rx * ty + tx * ry) - e * tx * ty,
            c2 * (rx * tz + tx * rz) - e * tx * tz,
            c2 * (ry * tz + ty * rz) - e * ty * tz,
        ),
    )


def se3_right_jacobian_inv(xi):
    """Closed-form inverse of the SE(3) right Jacobian Jr(xi) = Jl(-xi).

    Jl = [[J, Q], [0, J]] (Sola et al., arXiv:1812.01537), so
    Jl^-1 = [[J^-1, -J^-1 Q J^-1], [0, J^-1]] with J^-1 in closed form.
    """
    xi = np.asarray(xi, dtype=float)
    rho, theta = -xi[..., :3], -xi[..., 3:]
    j_inv = so3_left_jacobian_inv(theta)
    out = np.zeros(xi.shape[:-1] + (6, 6))
    out[..., :3, :3] = j_inv
    out[..., 3:, 3:] = j_inv
    out[..., :3, 3:] = -(j_inv @ _se3_q_matrix(rho, theta) @ j_inv)
    return out


# ---------------------------------------------------------------------------
# packed SE(2) poses: [x, y, yaw]

POSE2_IDENTITY = np.array([0.0, 0.0, 0.0])


def pose2_compose(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c, s = np.cos(a[..., 2]), np.sin(a[..., 2])
    x = a[..., 0] + (c * b[..., 0] - s * b[..., 1])
    y = a[..., 1] + (s * b[..., 0] + c * b[..., 1])
    return np.stack([x, y, wrap_angle(a[..., 2] + b[..., 2])], axis=-1)


def pose2_inverse(p):
    p = np.asarray(p, dtype=float)
    c, s = np.cos(p[..., 2]), np.sin(p[..., 2])
    x = -(c * p[..., 0] + s * p[..., 1])
    y = -(-s * p[..., 0] + c * p[..., 1])
    return np.stack([x, y, wrap_angle(-p[..., 2])], axis=-1)


def _se2_v_coeffs(gamma):
    # sin g / g and (1 - cos g)/g through sinc: smooth, cancellation-free
    alpha = np.sinc(gamma / np.pi)
    beta = np.sin(0.5 * gamma) * np.sinc(gamma / (2.0 * np.pi))
    return alpha, beta


def se2_exp(xi):
    xi = np.asarray(xi, dtype=float)
    rho, gamma = xi[..., :2], xi[..., 2]
    alpha, beta = _se2_v_coeffs(gamma)
    x = alpha * rho[..., 0] - beta * rho[..., 1]
    y = beta * rho[..., 0] + alpha * rho[..., 1]
    yaw = wrap_angle(gamma)
    return np.stack([x, y, np.asarray(yaw)], axis=-1)


def se2_log(p):
    p = np.asarray(p, dtype=float)
    gamma = p[..., 2]
    alpha, beta = _se2_v_coeffs(gamma)
    denom = alpha * alpha + beta * beta
    x = (alpha * p[..., 0] + beta * p[..., 1]) / denom
    y = (-beta * p[..., 0] + alpha * p[..., 1]) / denom
    return np.stack([x, y, gamma], axis=-1)


def se2_adjoint(p):
    p = np.asarray(p, dtype=float)
    c, s = np.cos(p[..., 2]), np.sin(p[..., 2])
    out = np.zeros(p.shape[:-1] + (3, 3))
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    out[..., 0, 2] = p[..., 1]
    out[..., 1, 2] = -p[..., 0]
    out[..., 2, 2] = 1.0
    return out


def se2_right_jacobian_inv(xi):
    """Closed-form inverse of the SE(2) right Jacobian.

    With c = (1 - (g/2) cot(g/2)) / g^2 and p = (g/2) cot(g/2) = 1 - c g^2,
    Jr^-1 = [[p, -g/2, c g x + y/2], [g/2, p, c g y - x/2], [0, 0, 1]].
    """
    xi = np.asarray(xi, dtype=float)
    x, y, gamma = xi[..., 0], xi[..., 1], xi[..., 2]
    cg = _half_cot_coeff(np.abs(gamma)) * gamma
    out = np.zeros(xi.shape[:-1] + (3, 3))
    out[..., 0, 0] = out[..., 1, 1] = 1.0 - cg * gamma
    out[..., 0, 1] = -0.5 * gamma
    out[..., 1, 0] = 0.5 * gamma
    out[..., 0, 2] = cg * x + 0.5 * y
    out[..., 1, 2] = cg * y - 0.5 * x
    out[..., 2, 2] = 1.0
    return out


def pose2_to_pose3_packed(p2):
    """Embed packed planar poses (..., 3) in 3D (..., 7): z = 0, yaw-only rotation."""
    p2 = np.asarray(p2, dtype=float)
    half = 0.5 * p2[..., 2]
    zeros = np.zeros_like(half)
    return np.concatenate(
        [
            p2[..., :2],
            zeros[..., None],
            np.stack([np.cos(half), zeros, zeros, np.sin(half)], axis=-1),
        ],
        axis=-1,
    )


def pose3_to_pose2_packed(p3):
    """Drop packed 3D poses (..., 7) to the plane (..., 3): xy and heading."""
    p3 = np.asarray(p3, dtype=float)
    yaw = quat_yaw(p3[..., 3:])
    return np.concatenate([p3[..., :2], np.asarray(yaw)[..., None]], axis=-1)


def pose3_interpolate(a, b, alpha):
    """Point(s) at fraction alpha along the single geodesic from a to b.

    ``alpha`` broadcasts against the leading axes of the packed poses.
    """
    step = se3_log(pose3_relative(a, b))
    alpha = np.asarray(alpha, dtype=float)
    return pose3_compose(a, se3_exp(alpha[..., None] * step))


# ---------------------------------------------------------------------------
# pose families


def _copy(p):
    return np.array(p, dtype=float)


@dataclass(frozen=True, eq=False)
class Group:
    """Vectorized operations of one pose family over packed arrays.

    ``from_pose3``/``to_pose3`` convert to and from packed SE(3) poses,
    the layout every track and observation is stored in.  Tangent
    vectors put the ``trans_dim`` translation components first.
    """

    packed_dim: int
    tangent_dim: int
    trans_dim: int
    identity: np.ndarray
    compose: Callable
    inverse: Callable
    exp: Callable
    log: Callable
    adjoint: Callable
    jr_inv: Callable
    from_pose3: Callable
    to_pose3: Callable

    def relative(self, a, b):
        """Transform taking frame a to frame b: a^-1 * b."""
        return self.compose(self.inverse(a), b)

    def retract(self, x, delta):
        """Right-multiplicative update x * exp(delta)."""
        return self.compose(x, self.exp(delta))

    def between(self, meas_inv, a_inv, b):
        """Tangent residual of a measured a -> b transform, log(meas^-1 * rel),
        and the transform it measures, rel = a^-1 * b.  It takes the inverted
        measurement and the inverted a, so that a caller can invert each
        constant measurement once and each state once for all its edges."""
        rel = self.compose(a_inv, b)
        return self.log(self.compose(meas_inv, rel)), rel


SE2 = Group(
    3, 3, 2, POSE2_IDENTITY,
    pose2_compose, pose2_inverse, se2_exp, se2_log, se2_adjoint,
    se2_right_jacobian_inv, pose3_to_pose2_packed, pose2_to_pose3_packed,
)
SE3 = Group(
    7, 6, 3, POSE3_IDENTITY,
    pose3_compose, pose3_inverse, se3_exp, se3_log, se3_adjoint,
    se3_right_jacobian_inv, _copy, _copy,
)
pose2_relative = SE2.relative
pose3_relative = SE3.relative


# ---------------------------------------------------------------------------
# value type


@dataclass(frozen=True)
class Pose3:
    """Rigid transform: unit quaternion (w, x, y, z) plus translation."""

    q: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        q = quat_normalize(np.asarray(self.q, dtype=float))
        t = np.array(self.t, dtype=float)
        q.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "t", t)

    @classmethod
    def identity(cls) -> "Pose3":
        return cls(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))

    @classmethod
    def from_packed(cls, arr) -> "Pose3":
        arr = np.asarray(arr, dtype=float)
        return cls(arr[3:], arr[:3])

    @property
    def packed(self) -> np.ndarray:
        return np.concatenate([self.t, self.q])


def interpolate(a: Pose3, b: Pose3, alpha: float) -> Pose3:
    """Pose3 wrapper of :func:`pose3_interpolate`.

    Endpoints are returned as-is, so alpha = 0 and alpha = 1 reproduce the
    inputs bit for bit.
    """
    if alpha == 0.0:
        return a
    if alpha == 1.0:
        return b
    return Pose3.from_packed(pose3_interpolate(a.packed, b.packed, alpha))
