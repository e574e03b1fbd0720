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

The row contract: operands may have any strides (views such as ``p[1:]``
or ``p[::2]``, broadcast shapes, single poses).  A kernel copies each
operand once into contiguous component rows (``_rows``; a kernel that
reads each component once takes views instead) and writes each column of
its new C-order packed result once (``_packed``).  The SE(3) kernels keep
their arithmetic and its order, so they give the same bits on any layout.
A direct form above the series cutoff runs only when some angle needs it.

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
batched matrix products.  A planar compose takes the cos and sin of its
left operand's yaw, which ``prepare`` takes once for a pose that composes
many times, and SE(2) exp and log take half angles.  Code that serves both
families takes a group and never branches on which one it has.
:class:`Pose3` is the small immutable value type used for single
placements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

_TAYLOR_CUTOFF = 1e-4


def wrap_angle(theta):
    """Wrap an angle (radians) to (-pi, pi]."""
    out = np.add(theta, np.pi, out=np.empty(np.shape(theta)))
    np.fmod(out, 2.0 * np.pi, out=out)
    np.add(out, 2.0 * np.pi, out=out, where=out <= 0.0)
    out -= np.pi
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# component rows and quaternions


def _components(p):
    """The components of packed arrays (..., k) as k views (k, ...)."""
    p = np.asarray(p, dtype=float)
    return p.transpose(-1, *range(p.ndim - 1))


def _rows(p):
    """The components of packed arrays (..., k) as contiguous rows (k, ...),
    read in one copy whatever the operand's strides."""
    return _components(p).copy()


def _packed(*columns):
    """A new C-order (..., k) array of k columns, each written once; the
    columns broadcast against each other."""
    out = np.empty(np.broadcast(*columns).shape + (len(columns),))
    for k, column in enumerate(columns):
        out[..., k] = column
    return out


def _norm(v):
    """Euclidean norm of a triple of rows."""
    x, y, z = v
    return np.sqrt(x * x + y * y + z * z)


def _canonical(q):
    """Quaternion rows (4, ...) made canonical in place, and returned."""
    w = q[0]
    flip = w < 0.0
    at_half_turn = w == 0.0
    if np.any(at_half_turn):
        v = q[1:]
        lead = np.take_along_axis(v, np.argmax(np.abs(v), axis=0)[None], axis=0)[0]
        flip = flip | (at_half_turn & (lead < 0.0))
    return np.negative(q, out=q, where=flip)


def quat_canonical(q):
    """Fix the sign ambiguity: w >= 0, ties at w == 0 broken deterministically."""
    return _packed(*_canonical(_rows(q)))


def norm3(v):
    """Row-wise Euclidean norm of (..., 3) vectors."""
    return _norm(_components(v))


def quat_norm(q):
    """Row-wise norm of (..., 4) quaternions."""
    w, x, y, z = _components(q)
    return np.sqrt(w * w + x * x + y * y + z * z)


def quat_normalize(q):
    q = _rows(q)
    w, x, y, z = q
    q /= np.sqrt(w * w + x * x + y * y + z * z)
    return _packed(*_canonical(q))


def _quat_mul(a, b):
    """Hamilton product of quaternion rows."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def quat_mul(a, b):
    """Hamilton product of (w, x, y, z) quaternions."""
    return _packed(*_quat_mul(_rows(a), _rows(b)))


def _quat_rotate(q, v):
    """Vector rows v rotated by quaternion rows q: v + w u + q_v x u with
    u = 2 q_v x v, the cross products written out."""
    w, x, y, z = q
    vx, vy, vz = v
    ux = 2.0 * (y * vz - z * vy)
    uy = 2.0 * (z * vx - x * vz)
    uz = 2.0 * (x * vy - y * vx)
    return (
        vx + w * ux + (y * uz - z * uy),
        vy + w * uy + (z * ux - x * uz),
        vz + w * uz + (x * uy - y * ux),
    )


def _quat_from_rotvec(r, angle):
    """Canonical quaternion rows of rotation-vector rows r, |r| = angle."""
    half = 0.5 * angle
    # sin(half)/angle written through sinc: smooth at zero, no branch
    scale = 0.5 * np.sinc(half / np.pi)
    x, y, z = r
    return _canonical(np.array([np.cos(half), scale * x, scale * y, scale * z]))


def quat_from_rotvec(r):
    """Exponential of a rotation vector as a quaternion."""
    r = _rows(r)
    return _packed(*_quat_from_rotvec(r, _norm(r)))


def _quat_to_rotvec(q):
    """Principal-branch logarithm of unit quaternion rows (angle <= pi),
    as rows; ``q`` is made canonical in place."""
    w, x, y, z = _canonical(q)
    s = np.sqrt(x * x + y * y + z * z)
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
    return scale * x, scale * y, scale * z


def _quat_matrix(q):
    """The rotation matrix of quaternion rows, as rows of its entries."""
    w, x, y, z = q
    return (
        (1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)),
        (2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)),
        (2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)),
    )


def _matrix(entries):
    """A new (..., 3, 3) array of 3 x 3 rows of entries."""
    out = np.empty(np.broadcast(*(e for row in entries for e in row)).shape + (3, 3))
    for i, row in enumerate(entries):
        for j, entry in enumerate(row):
            out[..., i, j] = entry
    return out


def rotation_angle(q):
    """Rotation angle in radians, in [0, pi]."""
    w, x, y, z = _canonical(_rows(q))
    out = 2.0 * np.arctan2(np.sqrt(x * x + y * y + z * z), w)
    return float(out) if np.ndim(out) == 0 else out


def _skew_plus_symmetric(w, diagonal, off_diagonal):
    """hat(w) plus the symmetric matrix with the given diagonal and
    (xy, xz, yz) entries, as rows of entries; each argument is a triple
    of rows."""
    (wx, wy, wz), (d0, d1, d2), (sxy, sxz, syz) = w, diagonal, off_diagonal
    return (
        (d0, sxy - wz, sxz + wy),
        (sxy + wz, d1, syz - wx),
        (sxz - wy, syz + wx, d2),
    )


def _mat_vec(m, v):
    """The product of rows of 3 x 3 entries and a triple of vector rows."""
    v0, v1, v2 = v
    return tuple(m0 * v0 + m1 * v1 + m2 * v2 for m0, m1, m2 in m)


def _so3_series(r, a, b):
    """I + a hat(r) + b hat(r)^2 of rows r, as entries, with hat(r)^2 =
    r r^T - |r|^2 I: off the diagonal r_i r_j, on it -(r_j^2 + r_k^2),
    free of cancellation."""
    x, y, z = r
    return _skew_plus_symmetric(
        (a * x, a * y, a * z),
        (1.0 - b * (y * y + z * z), 1.0 - b * (x * x + z * z), 1.0 - b * (x * x + y * y)),
        (b * x * y, b * x * z, b * y * z),
    )


def _series_or_direct(angle, series, direct):
    """``series`` where the angle is below 1e-2, and elsewhere ``direct(t)``
    at t = the angle (1 where the series holds, so that no form divides by
    zero).  The direct form runs only when some angle needs it."""
    small = angle < 1e-2
    if np.all(small):
        return series
    return np.where(small, series, direct(np.where(small, 1.0, angle)))


def _so3_coeffs(angle):
    """A = (1-cos t)/t^2 and B = (t-sin t)/t^3, cancellation-free."""
    t2 = angle * angle
    # (1-cos t)/t^2 = 2 sin^2(t/2)/t^2 = 0.5 sinc^2(t/(2 pi))
    half_sinc = np.sinc(angle / (2.0 * np.pi))
    a = 0.5 * half_sinc * half_sinc
    b = _series_or_direct(
        angle, 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0, lambda t: (t - np.sin(t)) / (t**3)
    )
    return a, b


def so3_left_jacobian(r):
    """V matrix: integrates a rotation along the geodesic (also SO(3) J_l)."""
    r = _rows(r)
    return _matrix(_so3_series(r, *_so3_coeffs(_norm(r))))


def _half_cot_coeff(angle):
    """(1 - (t/2) cot(t/2)) / t^2 for t >= 0, by its series below 1e-2."""
    t2 = angle * angle
    return _series_or_direct(
        angle,
        1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0,
        lambda t: (1.0 - 0.5 * t / np.tan(0.5 * t)) / (t * t),
    )


def _so3_left_jacobian_inv(r, angle):
    """J_l^-1 of rows r, |r| = angle, as entries."""
    return _so3_series(r, -0.5, _half_cot_coeff(angle))


# ---------------------------------------------------------------------------
# packed SE(3) poses: [tx, ty, tz, qw, qx, qy, qz]

POSE3_IDENTITY = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0])


def pose3_compose(a, b):
    a, b = _rows(a), _rows(b)
    t0, t1, t2 = _quat_rotate(a[3:], b[:3])
    return _packed(a[0] + t0, a[1] + t1, a[2] + t2, *_quat_mul(a[3:], b[3:]))


def pose3_inverse(p):
    tx, ty, tz, w, x, y, z = _rows(p)
    qc = w, -x, -y, -z
    t0, t1, t2 = _quat_rotate(qc, (tx, ty, tz))
    return _packed(-t0, -t1, -t2, *qc)


def se3_exp(xi):
    xi = _rows(xi)
    rho, theta = xi[:3], xi[3:]
    angle = _norm(theta)
    t = _mat_vec(_so3_series(theta, *_so3_coeffs(angle)), rho)
    return _packed(*t, *_quat_from_rotvec(theta, angle))


def se3_log(p):
    p = _rows(p)
    theta = _quat_to_rotvec(p[3:])
    return _packed(*_mat_vec(_so3_left_jacobian_inv(theta, _norm(theta)), p[:3]), *theta)


def se3_adjoint(p):
    """[[R, hat(t) R], [0, R]]; column j of hat(t) R is t x R[:, j]."""
    p = _rows(p)
    rot = _quat_matrix(p[3:])
    out = np.zeros(np.shape(p[0]) + (6, 6))
    for i in range(3):
        for j in range(3):
            out[..., i, j] = out[..., 3 + i, 3 + j] = rot[i][j]
    tx, ty, tz = p[:3]
    for j in range(3):
        r0, r1, r2 = rot[0][j], rot[1][j], rot[2][j]
        out[..., 0, 3 + j] = ty * r2 - tz * r1
        out[..., 1, 3 + j] = tz * r0 - tx * r2
        out[..., 2, 3 + j] = tx * r1 - ty * r0
    return out


def _se3_q_matrix(rho, theta, angle):
    """Translation-rotation coupling block of the SE(3) left Jacobian, of
    rows rho and theta, |theta| = angle.

    With p = hat(theta) and r = hat(rho) (Barfoot & Furgale, T-RO 2014),
    Q = r/2 + c2 (pr + rp + prp) + c3 (ppr + rpp - 3 prp) + c4 (prpp + pprp).
    The identities pr = rho theta^T - (theta.rho) I and prp = -(theta.rho) p
    reduce it to hat(a) + c2 (rho theta^T + theta rho^T - 2 (theta.rho) I)
    - 2 c4 (theta.rho) pp, with a = (1/2 - c3 t^2) rho + (2 c3 - c2)
    (theta.rho) theta and pp = theta theta^T - t^2 I, filled entry by entry.
    """
    tx, ty, tz = theta
    rx, ry, rz = rho
    t2 = angle * angle

    def direct(t):  # c2, -c3 and the c4 part, at angles of 1e-2 and more
        sin_t, cos_t = np.sin(t), np.cos(t)
        return np.array([
            (t - sin_t) / t**3,
            (1.0 - t * t / 2.0 - cos_t) / t**4,
            (t - sin_t - t**3 / 6.0) / t**5,
        ])

    series = np.array([
        1.0 / 6.0 - t2 / 120.0, -1.0 / 24.0 + t2 / 720.0, -1.0 / 120.0 + t2 / 2520.0
    ])
    c2, neg_c3, c4part = _series_or_direct(angle, series, direct)
    c3 = -neg_c3
    c4 = 0.5 * (c3 + 3.0 * c4part)
    dot = tx * rx + ty * ry + tz * rz
    e = 2.0 * c4 * dot
    on_rho, on_theta = 0.5 - c3 * t2, (2.0 * c3 - c2) * dot
    return _matrix(_skew_plus_symmetric(
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
    ))


def se3_right_jacobian_inv(xi):
    """Closed-form inverse of the SE(3) right Jacobian Jr(xi) = Jl(-xi).

    Jl = [[J, Q], [0, J]] (Sola et al., arXiv:1812.01537), so
    Jl^-1 = [[J^-1, -J^-1 Q J^-1], [0, J^-1]] with J^-1 in closed form.
    """
    xi = _rows(xi)
    rho, theta = np.negative(xi, out=xi)[:3], xi[3:]
    angle = _norm(theta)
    j_inv = _matrix(_so3_left_jacobian_inv(theta, angle))
    out = np.zeros(np.shape(angle) + (6, 6))
    out[..., :3, :3] = j_inv
    out[..., 3:, 3:] = j_inv
    out[..., :3, 3:] = -(j_inv @ _se3_q_matrix(rho, theta, angle) @ j_inv)
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


def _se3_take(arrays, index):
    return np.take(arrays, index, axis=0)


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


def _se2_prepare(p):
    """Planar poses as the left operand of a compose: the rows (x, y, yaw,
    cos yaw, sin yaw).  Poses already prepared are returned as they are."""
    if isinstance(p, tuple):
        return p
    x, y, yaw = _rows(p)
    return x, y, yaw, np.cos(yaw), np.sin(yaw)


def pose2_compose(a, b):
    """a * b, with ``a`` packed or prepared (:func:`_se2_prepare`)."""
    ax, ay, ayaw, c, s = _se2_prepare(a)
    bx, by, byaw = _rows(b)
    return _packed(ax + (c * bx - s * by), ay + (s * bx + c * by), wrap_angle(ayaw + byaw))


def pose2_inverse(p):
    x, y, yaw = _rows(p)
    c, s = np.cos(yaw), np.sin(yaw)
    return _packed(-(c * x + s * y), -(-s * x + c * y), wrap_angle(-yaw))


def se2_exp(xi):
    """V(gamma) rho and gamma, with V = [[a, -b], [b, a]], a = sin g / g and
    b = (1 - cos g) / g written through half angles: sin(g/2) / (g/2) times
    cos(g/2) and sin(g/2)."""
    x, y, gamma = _rows(xi)
    half = 0.5 * gamma
    sin_half = np.sin(half)
    ratio = np.divide(sin_half, half, out=np.ones_like(half), where=half != 0.0)
    a, b = ratio * np.cos(half), ratio * sin_half
    return _packed(a * x - b * y, b * x + a * y, wrap_angle(gamma))


def se2_log(p):
    """V(gamma)^-1 t and gamma: V^-1 = [[q, g/2], [-g/2, q]] with
    q = (g/2) cot(g/2) = 1 - c g^2, the q and c of Jr^-1: one tan a row."""
    x, y, gamma = _rows(p)
    q = 1.0 - _half_cot_coeff(np.abs(gamma)) * gamma * gamma
    half = 0.5 * gamma
    return _packed(q * x + half * y, q * y - half * x, gamma)


def _se2_adjoint_factor(p):
    """Ad(p) as its factor: (cos yaw, sin yaw, y, -x)."""
    x, y, yaw = _rows(p)
    return np.cos(yaw), np.sin(yaw), y, -x


def _se2_jr_inv_factor(xi):
    """Jr^-1(xi) as its factor (see :func:`se2_right_jacobian_inv`)."""
    x, y, gamma = _rows(xi)
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


def _se2_take(rows, index):
    return tuple(np.take(c, index) for c in rows)


def _se2_blocks(shape):
    """A new (..., 3, 3) array held component-major, so that each entry's
    column over the batch is contiguous and is written in one pass."""
    return np.moveaxis(np.empty((3, 3) + shape), (0, 1), (-2, -1))


def _se2_gram(left, right, w_trans, w_rot):
    """J_a^T W J_b of the factors of J_a and J_b, W = diag(w_t, w_t, w_r):
    [[P, -Q, .], [Q, P, .], [., ., w_t (e1 e2 + f1 f2) + w_r]] with
    P = w_t (a1 a2 + b1 b2) and Q = w_t (a1 b2 - b1 a2)."""
    a1, b1, e1, f1 = left
    a2, b2, e2, f2 = right
    out = _se2_blocks(np.shape(a1))
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
    """J^T W r of the factor of J, as three rows."""
    a, b, e, f = factor
    u, v = w_trans * r[..., 0], w_trans * r[..., 1]
    return a * u + b * v, a * v - b * u, e * u + f * v + w_rot * r[..., 2]


def _se2_edge_normals(neg_left, right, w_trans, w_rot, r):
    """(J_i^T W J_i, J_i^T W J_j, J_j^T W J_j, J_i^T W r, J_j^T W r) of
    edges whose residuals r take the Jacobians J_i = -M(neg_left) and
    J_j = M(right), factors both."""
    ij = _se2_gram(neg_left, right, w_trans, w_rot)
    i, j = (np.stack(_se2_project(m, w_trans, w_rot, r), axis=-1) for m in (neg_left, right))
    return (
        _se2_gram(neg_left, neg_left, w_trans, w_rot), np.negative(ij, out=ij),
        _se2_gram(right, right, w_trans, w_rot), np.negative(i, out=i), j,
    )


def _se2_run_normals(factor, w_trans, w_rot, r, runs, adjoint):
    """(G^T S G, -G^T h) per run of rows, ``runs`` holding their starts:
    S and h sum J^T W J and J^T W r over the run, and G = M(adjoint) is
    the run's own.  J^T W J = [[p, 0, x], [0, p, y], [x, y, z]] has four
    distinct entries, so the run sums reduce one table of seven rows, and
    the congruence is closed form."""
    a, b, e, f = factor
    table = np.empty((7, np.size(a)))
    table[0] = w_trans * (a * a + b * b)
    table[1] = w_trans * (a * e + b * f)
    table[2] = w_trans * (a * f - b * e)
    table[3] = w_trans * (e * e + f * f) + w_rot
    table[4], table[5], table[6] = _se2_project(factor, w_trans, w_rot, r)
    p, x, y, z, h0, h1, h2 = np.add.reduceat(table, runs, axis=1)
    del table
    ga, gb, ge, gf = adjoint
    s, t = p * ge + x, p * gf + y  # the top of S G's last column
    out = _se2_blocks(p.shape)
    out[..., 0, 0] = out[..., 1, 1] = p * (ga * ga + gb * gb)
    out[..., 0, 1] = out[..., 1, 0] = 0.0
    out[..., 0, 2] = out[..., 2, 0] = ga * s + gb * t
    out[..., 1, 2] = out[..., 2, 1] = ga * t - gb * s
    out[..., 2, 2] = ge * s + gf * t + (x * ge + y * gf) + z
    grad = np.stack([-(ga * h0 + gb * h1), gb * h0 - ga * h1, -(ge * h0 + gf * h1 + h2)], axis=-1)
    return out, grad


def pose2_to_pose3_packed(p2):
    """Embed packed planar poses (..., 3) in 3D (..., 7): z = 0, yaw-only rotation."""
    x, y, yaw = _components(p2)
    half = 0.5 * yaw
    return _packed(x, y, 0.0, np.cos(half), 0.0, 0.0, np.sin(half))


def pose3_to_pose2_packed(p3):
    """Drop packed 3D poses (..., 7) to the plane (..., 3): xy and ZYX yaw."""
    tx, ty, _, w, x, y, z = _components(p3)
    return _packed(tx, ty, np.arctan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z)))


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

    ``compose`` takes its left operand packed, or ``prepare``d: in the
    form that carries what composing on its left needs (for SE2, the cos
    and sin of its yaw; SE3 needs nothing more), so that a pose composed
    many times pays for that once.  ``take`` gathers rows of a prepared
    pose or of a factor.

    The Jacobian blocks of the solver are carried as factors: the
    ``adjoint_factor`` and ``jr_inv_factor`` of poses and twists, their
    ``factor_product``, and ``expand`` to the (..., d, d) matrices.  On them, with W the diagonal
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
    prepare: Callable
    take: Callable
    adjoint_factor: Callable
    jr_inv_factor: Callable
    factor_product: Callable
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

    def between(self, meas_inv, a_inv, b, index=None):
        """Tangent residual of a measured a -> b transform, log(meas^-1 * rel),
        and the transform it measures, rel = a^-1 * b.  It takes the inverted
        measurement and the inverted a, so that a caller can invert each
        constant measurement once and each state once for all its edges.
        With ``index``, row k of b is measured from row ``index[k]`` of
        ``a_inv``, which is prepared once for all the rows that take it."""
        if index is not None:
            a_inv = self.take(self.prepare(a_inv), index)
        rel = self.compose(a_inv, b)
        return self.log(self.compose(meas_inv, rel)), rel


SE2 = Group(
    3, 3, 2, POSE2_IDENTITY,
    pose2_compose, pose2_inverse, se2_exp, se2_log, _se2_prepare, _se2_take,
    _se2_adjoint_factor, _se2_jr_inv_factor, _se2_factor_product, _se2_expand,
    _se2_edge_normals, _se2_run_normals,
    pose3_to_pose2_packed, pose2_to_pose3_packed,
)
SE3 = Group(
    7, 6, 3, POSE3_IDENTITY,
    pose3_compose, pose3_inverse, se3_exp, se3_log, np.asarray, _se3_take,
    se3_adjoint, se3_right_jacobian_inv, np.matmul, np.asarray,
    _se3_edge_normals, _se3_run_normals,
    _copy, _copy,
)
pose2_relative = SE2.relative
pose3_relative = SE3.relative


def pose3_interpolate(a, b, alpha):
    """Point(s) at fraction alpha along the single geodesic from a to b.

    ``alpha`` broadcasts against the leading axes of the packed poses.
    """
    return SE3.retract(a, np.asarray(alpha, dtype=float)[..., None] * SE3.log(SE3.relative(a, b)))


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
