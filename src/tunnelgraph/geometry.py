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
several times slower than the column expression over all rows.  The
batched matrix products and einsums left are in the SE(3) entries: the
3 x 3 blocks of :func:`se3_right_jacobian_inv`, and the 6 x 6
normal-equation products.

The two pose families are :data:`SE2` and :data:`SE3`, instances of one
:class:`Group` table carrying compose, inverse, exp, log, the conversions
to and from packed SE(3), and the solver's Jacobian algebra: the adjoint
and the inverse right Jacobian (in closed form, no matrix inversion) as
factors, their products, and the normal-equation products J_a^T W J_b and
J^T W r formed from them; plus the derived ``relative``, ``retract`` and
``between`` (the one edge residual).  Every planar Jacobian block the
solver forms is M(a, b, e, f) = [[a, -b, e], [b, a, f], [0, 0, 1]]:
Jr^-1 and Ad are, and so is a product of two (Sola, Deray & Atchuthan,
arXiv:1812.01537, the SE(2) Jacobians).  SE2 carries such a block as its
factor (a, b, e, f) and forms the products as column expressions over
the four; SE3 carries the 6 x 6 matrices themselves and forms them by
batched matrix products.  Code that serves both families takes a group
and never branches on which one it has.  :class:`Pose3` is the small
immutable value type used for single placements.
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


def _se3_weights(w_trans, w_rot):
    """The diagonal of W, (..., 6), from the per-edge weights."""
    return np.stack([w_trans] * 3 + [w_rot] * 3, axis=-1)


def _se3_edge_normals(neg_left, right, w_trans, w_rot, r):
    """As :func:`_se2_edge_normals`, by batched matrix products: each block
    is J_a^T (W J_b), with J_a^T a transposed view, not a copy."""
    w = _se3_weights(w_trans, w_rot)
    t_left, t_right = np.swapaxes(neg_left, 1, 2), np.swapaxes(right, 1, 2)
    w_right, wr = right * w[:, :, None], w * r
    ij = t_left @ w_right
    i = np.einsum("eki,ek->ei", neg_left, wr)
    return (
        t_left @ (neg_left * w[:, :, None]), np.negative(ij, out=ij), t_right @ w_right,
        np.negative(i, out=i), np.einsum("eki,ek->ei", right, wr),
    )


def _se3_take(matrices, index):
    return np.take(matrices, index, axis=0)


def _se3_run_normals(jacobian, w_trans, w_rot, r, runs, adjoint):
    """(G^T S G, -G^T h) per run of rows, as :func:`_se2_run_normals`
    forms them, by batched matrix products."""
    w = _se3_weights(w_trans, w_rot)
    s = np.add.reduceat(np.swapaxes(jacobian, 1, 2) @ (jacobian * w[:, :, None]), runs, axis=0)
    h = np.add.reduceat(np.einsum("mki,mk->mi", jacobian, w * r), runs, axis=0)
    adj_t = np.swapaxes(adjoint, 1, 2)
    return adj_t @ s @ adjoint, np.negative(np.einsum("kij,kj->ki", adj_t, h))


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


def _se2_adjoint_factor(p):
    """Ad(p) as its factor: (cos yaw, sin yaw, y, -x)."""
    p = np.asarray(p, dtype=float)
    return np.cos(p[..., 2]), np.sin(p[..., 2]), p[..., 1], -p[..., 0]


def _se2_jr_inv_factor(xi):
    """Jr^-1(xi) as its factor (see :func:`se2_right_jacobian_inv`)."""
    xi = np.asarray(xi, dtype=float)
    x, y, gamma = xi[..., 0], xi[..., 1], xi[..., 2]
    cg = _half_cot_coeff(np.abs(gamma)) * gamma
    return 1.0 - cg * gamma, 0.5 * gamma, cg * x + 0.5 * y, cg * y - 0.5 * x


def _se2_expand(factor):
    """The matrices M(a, b, e, f) = [[a, -b, e], [b, a, f], [0, 0, 1]] of a
    factor (a, b, e, f)."""
    a, b, e, f = factor
    out = np.zeros(np.shape(a) + (3, 3))
    out[..., 0, 0] = out[..., 1, 1] = a
    out[..., 0, 1] = -b
    out[..., 1, 0] = b
    out[..., 0, 2] = e
    out[..., 1, 2] = f
    out[..., 2, 2] = 1.0
    return out


def se2_right_jacobian_inv(xi):
    """Closed-form inverse of the SE(2) right Jacobian.

    With c = (1 - (g/2) cot(g/2)) / g^2 and p = (g/2) cot(g/2) = 1 - c g^2,
    Jr^-1 = [[p, -g/2, c g x + y/2], [g/2, p, c g y - x/2], [0, 0, 1]].
    """
    return _se2_expand(_se2_jr_inv_factor(xi))


def _se2_factor_product(left, right):
    """The factor of M(left) M(right): M is closed under products."""
    a1, b1, e1, f1 = left
    a2, b2, e2, f2 = right
    return (
        a1 * a2 - b1 * b2, a1 * b2 + b1 * a2,
        a1 * e2 - b1 * f2 + e1, b1 * e2 + a1 * f2 + f1,
    )


def _se2_factor_take(factor, index):
    return tuple(np.take(c, index) for c in factor)


def _se2_gram(left, right, w_trans, w_rot):
    """J_a^T W J_b of the factors of J_a and J_b, W = diag(w_t, w_t, w_r):
    [[P, -Q, .], [Q, P, .], [., ., w_t (e1 e2 + f1 f2) + w_r]] with
    P = w_t (a1 a2 + b1 b2) and Q = w_t (a1 b2 - b1 a2)."""
    a1, b1, e1, f1 = left
    a2, b2, e2, f2 = right
    out = np.empty(np.shape(a1) + (3, 3))
    out[..., 0, 0] = out[..., 1, 1] = w_trans * (a1 * a2 + b1 * b2)
    out[..., 1, 0] = w_trans * (a1 * b2 - b1 * a2)
    out[..., 0, 1] = -out[..., 1, 0]
    out[..., 0, 2] = w_trans * (a1 * e2 + b1 * f2)
    out[..., 1, 2] = w_trans * (a1 * f2 - b1 * e2)
    out[..., 2, 0] = w_trans * (a2 * e1 + b2 * f1)
    out[..., 2, 1] = w_trans * (a2 * f1 - b2 * e1)
    out[..., 2, 2] = w_trans * (e1 * e2 + f1 * f2) + w_rot
    return out


def _se2_project(factor, w_trans, w_rot, r):
    """J^T W r of the factor of J."""
    a, b, e, f = factor
    u, v = w_trans * r[..., 0], w_trans * r[..., 1]
    return np.stack([a * u + b * v, a * v - b * u, e * u + f * v + w_rot * r[..., 2]], axis=-1)


def _se2_edge_normals(neg_left, right, w_trans, w_rot, r):
    """(J_i^T W J_i, J_i^T W J_j, J_j^T W J_j, J_i^T W r, J_j^T W r) of
    edges whose residuals r take the Jacobians J_i = -M(neg_left) and
    J_j = M(right), factors both."""
    ij = _se2_gram(neg_left, right, w_trans, w_rot)
    i = _se2_project(neg_left, w_trans, w_rot, r)
    return (
        _se2_gram(neg_left, neg_left, w_trans, w_rot), np.negative(ij, out=ij),
        _se2_gram(right, right, w_trans, w_rot),
        np.negative(i, out=i), _se2_project(right, w_trans, w_rot, r),
    )


def _se2_run_normals(factor, w_trans, w_rot, r, runs, adjoint):
    """(G^T S G, -G^T h) per run of rows, ``runs`` holding their starts:
    S and h sum J^T W J and J^T W r over the run, and G = M(adjoint) is
    the run's own.  J^T W J = [[p, 0, x], [0, p, y], [x, y, z]] has four
    distinct entries, so the run sums reduce one table of seven rows, and
    the congruence is closed form."""
    a, b, e, f = factor
    u, v = w_trans * r[..., 0], w_trans * r[..., 1]
    table = np.empty((7, np.size(a)))
    table[0] = w_trans * (a * a + b * b)
    table[1] = w_trans * (a * e + b * f)
    table[2] = w_trans * (a * f - b * e)
    table[3] = w_trans * (e * e + f * f) + w_rot
    table[4] = a * u + b * v
    table[5] = a * v - b * u
    table[6] = e * u + f * v + w_rot * r[..., 2]
    p, x, y, z, h0, h1, h2 = np.add.reduceat(table, runs, axis=1)
    del table
    ga, gb, ge, gf = adjoint
    s, t = p * ge + x, p * gf + y  # the top of S G's last column
    out = np.empty(p.shape + (3, 3))
    out[..., 0, 0] = out[..., 1, 1] = p * (ga * ga + gb * gb)
    out[..., 0, 1] = out[..., 1, 0] = 0.0
    out[..., 0, 2] = out[..., 2, 0] = ga * s + gb * t
    out[..., 1, 2] = out[..., 2, 1] = ga * t - gb * s
    out[..., 2, 2] = ge * s + gf * t + (x * ge + y * gf) + z
    grad = np.stack([-(ga * h0 + gb * h1), gb * h0 - ga * h1, -(ge * h0 + gf * h1 + h2)], axis=-1)
    return out, grad


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

    The Jacobian blocks of the solver are carried as factors: the
    ``adjoint_factor`` and ``jr_inv_factor`` of poses and twists, their
    ``factor_product``, ``factor_take`` to gather them by row, and
    ``expand`` to the (..., d, d) matrices.  On them, with W the diagonal
    of per-edge weights (``w_trans`` on the translation components,
    ``w_rot`` on the rest), ``edge_normals`` forms the blocks J_a^T W J_b
    and gradients J^T W r of edges between two states, and
    ``run_normals`` forms G^T S G and -G^T h per run of rows, S and h
    summing J^T W J and J^T W r over the run.
    """

    packed_dim: int
    tangent_dim: int
    trans_dim: int
    identity: np.ndarray
    compose: Callable
    inverse: Callable
    exp: Callable
    log: Callable
    adjoint_factor: Callable
    jr_inv_factor: Callable
    factor_product: Callable
    factor_take: Callable
    expand: Callable
    edge_normals: Callable
    run_normals: Callable
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
    pose2_compose, pose2_inverse, se2_exp, se2_log,
    _se2_adjoint_factor, _se2_jr_inv_factor, _se2_factor_product, _se2_factor_take, _se2_expand,
    _se2_edge_normals, _se2_run_normals,
    pose3_to_pose2_packed, pose2_to_pose3_packed,
)
SE3 = Group(
    7, 6, 3, POSE3_IDENTITY,
    pose3_compose, pose3_inverse, se3_exp, se3_log,
    se3_adjoint, se3_right_jacobian_inv, np.matmul, _se3_take, np.asarray,
    _se3_edge_normals, _se3_run_normals,
    _copy, _copy,
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
