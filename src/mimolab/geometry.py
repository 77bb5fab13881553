"""3D antenna-array geometry and look directions on the unit sphere."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi


def as_int(value, name: str) -> int:
    """value as an int, if it is a whole number; a bool, a fraction, NaN, an
    infinity or a non-number raises ValueError instead of being truncated."""
    if isinstance(value, bool) or not (
            isinstance(value, numbers.Integral)
            or isinstance(value, numbers.Real) and float(value).is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _is_real(value) -> bool:
    """True for an int or float (numpy scalars, NaN and infinities included);
    False for a bool, a string, None or any other non-number."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real)


def as_real(value, name: str) -> float:
    """value as a float, if it is an int or float (NaN and infinities pass, and
    a number beyond float range reads as the infinity of its sign, for the
    caller's range check); a bool, a string or None raises ValueError instead
    of being converted."""
    if not _is_real(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def is_finite_real(value) -> bool:
    """True for a finite int or float (numpy scalars included); False for a
    bool, a string, None, NaN, an infinity or an integer beyond float range."""
    if not _is_real(value):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def real_array(obj, name: str) -> np.ndarray:
    """Nested lists (or an array) of real numbers as a float array. Every
    entry is checked, since np.asarray would read True as 1 and "0.5" as 0.5:
    a bool, a string, any other non-number or a number beyond float range
    raises ValueError naming name. NaN and infinities pass, for the caller's
    finiteness check."""
    entries = np.asarray(obj, dtype=object)
    bad = [x for x in entries.flat if not _is_real(x)]
    if bad:
        raise ValueError(f"{name} must hold only numbers, got {bad[0]!r}")
    try:
        return entries.astype(float)
    except OverflowError:
        raise ValueError(f"{name} holds a number beyond float range") from None


def json_fields(obj, keys, name: str) -> list:
    """The values of keys in the JSON object obj; a non-object or a missing
    key raises ValueError naming name."""
    if not isinstance(obj, dict):
        raise ValueError(f"{name} must be a JSON object, got {obj!r}")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{name} requires {key!r}")
    return [obj[key] for key in keys]


@dataclass(frozen=True)
class Direction:
    """A look direction, azimuth in [-pi, pi) and elevation in [-pi/2, pi/2].

    Azimuth is wrapped into range at construction; a non-number, a
    non-finite azimuth and an out-of-range elevation are rejected. At
    elevation +-pi/2 the azimuth is degenerate; the tangent formulas below
    still return finite values there, but information-matrix conditioning
    degrades for directions at the poles.
    """

    azimuth: float
    elevation: float

    def __post_init__(self):
        el = as_real(self.elevation, "elevation")
        if not -HALF_PI <= el <= HALF_PI:
            raise ValueError(f"elevation {el} outside [-pi/2, pi/2]")
        az = as_real(self.azimuth, "azimuth")
        if not math.isfinite(az):
            raise ValueError(f"azimuth {az} is not finite")
        object.__setattr__(self, "azimuth", wrap_azimuth(az))
        object.__setattr__(self, "elevation", el)

    def to_json(self) -> dict:
        return {"az": self.azimuth, "el": self.elevation}

    @classmethod
    def from_json(cls, obj: dict) -> "Direction":
        return cls(*json_fields(obj, ("az", "el"), "direction"))


def wrap_azimuth(az):
    """Azimuth wrapped into [-pi, pi); the same formula, bit for bit, on a
    float and elementwise on a numpy array."""
    return (az + math.pi) % TWO_PI - math.pi


def unit_vector(d: Direction) -> np.ndarray:
    """Cartesian unit vector (cos el cos az, cos el sin az, sin el)."""
    return unit_vectors([d])[:, 0]


def unit_vectors(directions) -> np.ndarray:
    """Unit vectors of many directions, stacked as the columns of a 3 x k array."""
    return unit_vectors_from_angles(*direction_angles(directions))


def direction_angles(directions) -> np.ndarray:
    """Azimuths (row 0) and elevations (row 1) of many directions, 2 x k."""
    angles = np.array([(d.azimuth, d.elevation) for d in directions], dtype=float)
    return angles.reshape(-1, 2).T


def unit_vectors_from_angles(az: np.ndarray, el: np.ndarray) -> np.ndarray:
    """unit_vector's formula on arrays of wrapped azimuths and elevations, 3 x k."""
    ce = np.cos(el)
    return np.stack([ce * np.cos(az), ce * np.sin(az), np.sin(el)])


def tangents_from_angles(az: np.ndarray, el: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tangent_basis's formula on arrays of azimuths and elevations: the
    azimuthal and the elevational unit tangents, each 3 x k."""
    ca, sa = np.cos(az), np.sin(az)
    ce, se = np.cos(el), np.sin(el)
    return (np.stack([-sa, ca, np.zeros_like(ca)]),
            np.stack([-se * ca, -se * sa, ce]))


def tangent_basis(d: Direction) -> tuple[np.ndarray, np.ndarray]:
    """Unit tangent vectors (azimuthal, elevational) at d.

    Both are orthogonal to unit_vector(d) and to each other. Together with
    the radial vector they form the local orthonormal frame in which all
    direction derivatives are expressed (per radian of arc, so moving the
    direction along either tangent by t radians traces a great circle).
    """
    v_az, v_el = tangents_from_angles(*direction_angles([d]))
    return v_az[:, 0], v_el[:, 0]


def direction_from_unit(u) -> Direction:
    """Inverse of unit_vector; accepts any nonzero 3-vector."""
    u = np.asarray(u, dtype=float)
    nrm = np.linalg.norm(u)
    if nrm == 0.0:
        raise ValueError("zero vector has no direction")
    x, y, z = u / nrm
    return Direction(math.atan2(y, x), math.asin(min(1.0, max(-1.0, z))))


class ArrayGeometry:
    """Antenna positions as a 3 x n matrix in radians per unit direction.

    Positions are stored pre-multiplied by 2*pi/wavelength so every
    downstream formula is wavelength-free. The columns are re-centered on
    their centroid at construction (twice, to squeeze out round-off): the
    decoupling of gain, arrival and departure parameters in the information
    matrix relies on the scaled position matrix having zero row sums.

    factors, derived once from the centred positions, are the line arrays
    whose Kronecker product the array is, as read-only n_f x 3 position
    matrices: antenna i_0 n_1 + i_1 (row-major, the first factor's index
    the slow one) sits at factors[0][i_0] + factors[1][i_1], exactly. Each
    axis whose coordinate varies gives one factor, its distinct values
    along that axis; the centring leaves a coordinate that does not vary at
    exactly 0. That holds when the antennas run row-major over those
    values, as every upa and ula does. Any other array, a custom one in
    another order among them, is one factor: the whole array, A^T itself.
    """

    __slots__ = ("scaled_positions", "factors")

    def __init__(self, scaled_positions):
        A = np.array(scaled_positions, dtype=float)
        if A.ndim != 2 or A.shape[0] != 3:
            raise ValueError("scaled_positions must be a 3 x n matrix")
        if A.shape[1] < 1:
            raise ValueError("array needs at least one antenna")
        if not np.all(np.isfinite(A)):
            raise ValueError("antenna positions must be finite")
        A -= A.mean(axis=1, keepdims=True)
        A -= A.mean(axis=1, keepdims=True)
        A.setflags(write=False)
        self.scaled_positions = A
        self.factors = _kronecker_factors(A)

    @property
    def n_antennas(self) -> int:
        return self.scaled_positions.shape[1]

    @classmethod
    def from_positions(cls, positions_wavelengths) -> "ArrayGeometry":
        """Build from raw antenna positions expressed in wavelengths."""
        return cls(TWO_PI * real_array(positions_wavelengths, "antenna positions"))

    @classmethod
    def from_json(cls, obj: dict) -> "ArrayGeometry":
        json_fields(obj, (), "array spec")   # raises unless obj is a JSON object
        kind = obj.get("type", "custom")
        spec = f"{kind} array spec"
        if kind == "ula":
            (n,) = json_fields(obj, ("n",), spec)
            return ula(as_int(n, "n"), obj.get("spacing", 0.5), obj.get("axis", "x"))
        if kind == "upa":
            nx, ny = json_fields(obj, ("nx", "ny"), spec)
            return upa(as_int(nx, "nx"), as_int(ny, "ny"), obj.get("spacing", 0.5),
                       obj.get("plane", "yz"))
        if kind == "custom":
            return cls.from_positions(*json_fields(obj, ("positions",), spec))
        raise ValueError(f"unknown array type {kind!r}")


def _kronecker_factors(A: np.ndarray) -> tuple[np.ndarray, ...]:
    """ArrayGeometry.factors of the centred 3 x n positions A. The distinct values
    are sorted in Python: numpy's sort kernels would page in about 0.3 MB on a
    first call, for a few dozen antennas."""
    index, varying = [0] * A.shape[1], []
    for axis, row in enumerate(A.tolist()):
        values = sorted(set(row))
        if len(values) > 1:
            rank = {v: i for i, v in enumerate(values)}
            index = [i * len(values) + rank[v] for i, v in zip(index, row)]
            varying.append((axis, values))
    if not varying or index != list(range(A.shape[1])):
        return (A.T,)
    factors = []
    for axis, values in varying:
        B = np.zeros((len(values), 3))
        B[:, axis] = values
        B.setflags(write=False)
        factors.append(B)
    return tuple(factors)


_PLANES = {"xy": (0, 1), "yz": (1, 2), "xz": (0, 2)}


def ula(n: int, spacing_wavelengths: float = 0.5, axis: str = "x") -> ArrayGeometry:
    """Uniform linear array of n antennas along a coordinate axis: the
    one-row upa along it, so element i (1-based) sits at (i - (n+1)/2) *
    spacing wavelengths, with the centroid at the origin by construction.
    """
    if axis == "z":
        return upa(1, n, spacing_wavelengths, "xz")
    if axis not in ("x", "y"):
        raise ValueError("axis must be one of ['x', 'y', 'z']")
    return upa(n, 1, spacing_wavelengths, "xy" if axis == "x" else "yz")


def upa(nx: int, ny: int, spacing_wavelengths: float = 0.5,
        plane: str = "yz") -> ArrayGeometry:
    """Uniform planar array on an nx x ny grid in a coordinate plane.

    Columns are ordered row-major over (ix, iy) with ix the slow index.
    """
    if nx < 1 or ny < 1:
        raise ValueError("grid dimensions must be positive")
    spacing_wavelengths = as_real(spacing_wavelengths, "spacing")
    if not (math.isfinite(spacing_wavelengths) and spacing_wavelengths > 0):
        raise ValueError(f"spacing must be positive and finite, got {spacing_wavelengths}")
    if not isinstance(plane, str) or plane not in _PLANES:
        raise ValueError(f"plane must be one of {sorted(_PLANES)}")
    off_x = (np.arange(1, nx + 1) - (nx + 1) / 2.0) * spacing_wavelengths
    off_y = (np.arange(1, ny + 1) - (ny + 1) / 2.0) * spacing_wavelengths
    a, b = _PLANES[plane]
    pos = np.zeros((3, nx * ny))
    pos[a] = np.repeat(off_x, ny)
    pos[b] = np.tile(off_y, nx)
    return ArrayGeometry(TWO_PI * pos)
