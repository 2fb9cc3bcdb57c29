"""secp256k1 elliptic-curve arithmetic, from scratch.

Substrate for the ECVRF backend (:class:`repro.crypto.vrf.ECVRF`) -- the
style of VRF the paper's citations [16, 19] and deployed systems
(Algorand, and RFC 9381's ECVRF) actually use.

Points cross the module boundary in affine form (:class:`Point`).  Inside,
scalar multiplication runs in Jacobian coordinates ``(X, Y, Z)`` standing
for the affine point ``(X/Z², Y/Z³)``, so doubling and mixed
(Jacobian + affine) addition need no field inversion; each result pays
one, via the built-in ``pow(z, -1, p)``.  Three multiplications cover
every use in the VRF and signature schemes:

* :func:`generator_mult` -- ``k·G`` from a fixed-base window table built
  once at import (no doublings at all);
* :func:`scalar_mult` -- ``k·P`` for any point, with a 4-bit window;
* :func:`joint_mult` -- ``a·A + b·B`` by Strauss–Shamir interleaving
  (one shared doubling chain), for the verify equations.

None of this is constant-time: the simulator has no side channel to
guard.

Curve: y² = x³ + 7 over F_p, p = 2²⁵⁶ − 2³² − 977, prime group order N.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "CURVE_ORDER",
    "FIELD_P",
    "GENERATOR",
    "Point",
    "generator_mult",
    "hash_to_point",
    "joint_mult",
    "negate",
    "point_add",
    "scalar_mult",
]

FIELD_P = 2**256 - 2**32 - 977
CURVE_ORDER = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
_B = 7

_GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
_GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

# Scalar window width (bits) for scalar_mult/joint_mult and the G table.
_WINDOW = 4
_DIGITS = 256 // _WINDOW
_MASK = (1 << _WINDOW) - 1


@dataclass(frozen=True)
class Point:
    """An affine curve point; ``None`` coordinates encode infinity."""

    x: int | None
    y: int | None

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def encode(self) -> bytes:
        """Compressed SEC-style encoding (prefix by y parity)."""
        if self.is_infinity:
            return b"\x00"
        prefix = b"\x03" if self.y & 1 else b"\x02"
        return prefix + self.x.to_bytes(32, "big")


INFINITY = Point(None, None)
GENERATOR = Point(_GX, _GY)


def is_on_curve(point: Point) -> bool:
    """Membership check (infinity counts as on-curve)."""
    if point.is_infinity:
        return True
    if not (0 <= point.x < FIELD_P and 0 <= point.y < FIELD_P):
        return False
    return (point.y * point.y - point.x**3 - _B) % FIELD_P == 0


def negate(point: Point) -> Point:
    """``−P`` (infinity is its own negative)."""
    if point.is_infinity:
        return point
    return Point(point.x, (-point.y) % FIELD_P)


def point_add(a: Point, b: Point) -> Point:
    """Group addition of two affine points."""
    if b.is_infinity:
        return a
    return _to_affine(_add_mixed(_to_jacobian(a), b.x, b.y))


# --- Jacobian arithmetic ---------------------------------------------------
# A Jacobian point is a tuple (X, Y, Z); Z == 0 is the point at infinity.
# secp256k1 has no point of order two, so Y != 0 for every finite point.

_J_INFINITY = (1, 1, 0)


def _to_jacobian(point: Point) -> tuple[int, int, int]:
    if point.is_infinity:
        return _J_INFINITY
    return point.x, point.y, 1


def _to_affine(jac: tuple[int, int, int]) -> Point:
    x, y, z = jac
    if z == 0:
        return INFINITY
    p = FIELD_P
    z_inv = pow(z, -1, p)
    z_inv2 = z_inv * z_inv % p
    return Point(x * z_inv2 % p, y * z_inv2 * z_inv % p)


def _double(x: int, y: int, z: int) -> tuple[int, int, int]:
    """2·P for a = 0 (3M + 4S); infinity doubles to infinity."""
    p = FIELD_P
    y2 = y * y % p
    s = 4 * x * y2 % p
    m = 3 * x * x % p
    x3 = (m * m - 2 * s) % p
    return x3, (m * (s - x3) - 8 * y2 * y2) % p, 2 * y * z % p


def _add_mixed(jac: tuple[int, int, int], x2: int, y2: int) -> tuple[int, int, int]:
    """P + Q for Jacobian P and finite affine Q (8M + 3S).

    Equal inputs fall through to doubling, opposite ones give infinity.
    """
    x1, y1, z1 = jac
    if z1 == 0:
        return x2, y2, 1
    p = FIELD_P
    z1z1 = z1 * z1 % p
    h = (x2 * z1z1 - x1) % p
    r = (y2 * z1 * z1z1 - y1) % p
    if h == 0:
        return _double(x1, y1, z1) if r == 0 else _J_INFINITY
    hh = h * h % p
    hhh = h * hh % p
    v = x1 * hh % p
    x3 = (r * r - hhh - 2 * v) % p
    return x3, (r * (v - x3) - y1 * hhh) % p, z1 * h % p


def _window_table(point: Point) -> list[tuple[int, int] | None]:
    """Affine ``[0·P, 1·P, …, 15·P]``, with ``None`` standing for infinity.

    The multiples are built in Jacobian form and normalised with one
    shared inversion (Montgomery's trick).
    """
    if point.is_infinity:
        return [None] * (_MASK + 1)
    multiples = [_to_jacobian(point)]
    for _ in range(_MASK - 1):
        multiples.append(_add_mixed(multiples[-1], point.x, point.y))
    return [None] + _normalize(multiples)


def _normalize(points: list[tuple[int, int, int]]) -> list[tuple[int, int]]:
    """Batch Jacobian→affine for finite points, with one field inversion."""
    p = FIELD_P
    prefix = [1]
    for _, _, z in points:
        prefix.append(prefix[-1] * z % p)
    inv = pow(prefix[-1], -1, p)
    out = [None] * len(points)
    for i in range(len(points) - 1, -1, -1):
        x, y, z = points[i]
        z_inv = inv * prefix[i] % p
        inv = inv * z % p
        z_inv2 = z_inv * z_inv % p
        out[i] = (x * z_inv2 % p, y * z_inv2 * z_inv % p)
    return out


def _digits(k: int) -> list[int]:
    """Base-16 digits of ``k mod N``, most significant first."""
    k %= CURVE_ORDER
    return [(k >> shift) & _MASK for shift in range(256 - _WINDOW, -1, -_WINDOW)]


def _strauss(terms: list[tuple[list[int], list[tuple[int, int] | None]]]) -> Point:
    """``Σ kᵢ·Pᵢ`` over one doubling chain, from digits and window tables."""
    acc = _J_INFINITY
    for position in range(_DIGITS):
        if acc[2]:
            for _ in range(_WINDOW):
                acc = _double(*acc)
        for digits, table in terms:
            entry = table[digits[position]]
            if entry is not None:
                acc = _add_mixed(acc, *entry)
    return _to_affine(acc)


def _table_for(point: Point) -> list[tuple[int, int] | None]:
    # G's window table is the first row of the fixed-base table.
    return _G_TABLE[0] if point == GENERATOR else _window_table(point)


def scalar_mult(k: int, point: Point) -> Point:
    """``k·P`` for any point; ``k`` is reduced mod N."""
    return _strauss([(_digits(k), _table_for(point))])


def joint_mult(a: int, point_a: Point, b: int, point_b: Point) -> Point:
    """``a·A + b·B`` (Strauss–Shamir); scalars are reduced mod N."""
    return _strauss([
        (_digits(a), _table_for(point_a)),
        (_digits(b), _table_for(point_b)),
    ])


def _generator_table() -> list[list[tuple[int, int] | None]]:
    """``table[i][j] = j·16ⁱ·G`` in affine form, one row per 4-bit window."""
    rows = []
    base = GENERATOR
    for _ in range(_DIGITS):
        rows.append(_window_table(base))
        jac = _to_jacobian(base)
        for _ in range(_WINDOW):
            jac = _double(*jac)
        base = _to_affine(jac)
    return rows


_G_TABLE = _generator_table()


def generator_mult(k: int) -> Point:
    """``k·G`` from the fixed-base table: one mixed addition per window."""
    k %= CURVE_ORDER
    acc = _J_INFINITY
    for row in _G_TABLE:
        entry = row[k & _MASK]
        if entry is not None:
            acc = _add_mixed(acc, *entry)
        k >>= _WINDOW
    return _to_affine(acc)


def _sqrt_mod_p(value: int) -> int | None:
    """Square root modulo the field prime (p ≡ 3 mod 4), or ``None``."""
    candidate = pow(value, (FIELD_P + 1) // 4, FIELD_P)
    if candidate * candidate % FIELD_P == value % FIELD_P:
        return candidate
    return None


def hash_to_point(data: bytes) -> Point:
    """Try-and-increment hash-to-curve (the classic ECVRF H1).

    Deterministic; expected two attempts.  The resulting point's discrete
    log is unknown to everyone, which the VRF's security needs.
    """
    from repro.crypto.hashing import hash_to_int

    counter = 0
    while True:
        x = hash_to_int("ec-h2c", counter, data) % FIELD_P
        y_squared = (x**3 + _B) % FIELD_P
        y = _sqrt_mod_p(y_squared)
        if y is not None:
            # Normalise parity from the hash so the map is deterministic.
            want_odd = hash_to_int("ec-h2c-sign", counter, data, bits=1)
            if (y & 1) != want_odd:
                y = FIELD_P - y
            return Point(x, y)
        counter += 1
