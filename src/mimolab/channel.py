"""Sparse physical channel model: steering vectors, path parameters, synthesis.

The channel between an n_t-antenna transmitter and an n_r-antenna receiver
is a sum of rank-1 path contributions c_p * e_r(doa_p) e_t(dod_p)^H, with
unit-norm steering vectors e_x and complex gains c_p = rho_p exp(j phi_p).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (TWO_PI, ArrayGeometry, Direction, as_real, direction_angles,
                       json_fields, tangents_from_angles, unit_vector, unit_vectors,
                       unit_vectors_from_angles)

MERGE_DIRECTION_TOL = 1e-9   # merge_paths' largest unit-vector distance of shared directions


@dataclass(frozen=True)
class PathParams:
    """One propagation path: gain magnitude, phase, arrival and departure.

    rho must be strictly positive: zero-gain paths make the gain-magnitude
    information entry (which carries a 1/rho^2 factor) meaningless and the
    Fisher matrix singular. rho and phi must be finite numbers.
    """

    rho: float
    phi: float
    doa: Direction
    dod: Direction

    def __post_init__(self):
        rho = as_real(self.rho, "path gain magnitude")
        if not 0 < rho < math.inf:
            raise ValueError(f"path gain magnitude must be positive and finite, got {rho}")
        phi = as_real(self.phi, "path phase")
        if not math.isfinite(phi):
            raise ValueError(f"path phase {phi} is not finite")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "phi", phi % TWO_PI)

    @property
    def gain(self) -> complex:
        return self.rho * cmath.exp(1j * self.phi)

    def to_json(self) -> dict:
        return {"rho": self.rho, "phi": self.phi,
                "doa": self.doa.to_json(), "dod": self.dod.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "PathParams":
        rho, phi, doa, dod = json_fields(obj, ("rho", "phi", "doa", "dod"), "path")
        return cls(rho, phi, Direction.from_json(doa), Direction.from_json(dod))


class PathSet:
    """Ordered, non-empty collection of paths."""

    __slots__ = ("paths",)

    def __init__(self, paths):
        paths = tuple(paths)
        if not paths:
            raise ValueError("a path set needs at least one path")
        if not all(isinstance(p, PathParams) for p in paths):
            raise TypeError("all entries must be PathParams")
        self.paths = paths

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)

    def __getitem__(self, i):
        return self.paths[i]

    def to_json(self) -> list:
        return [p.to_json() for p in self.paths]

    @classmethod
    def from_json(cls, obj) -> "PathSet":
        if not isinstance(obj, list):
            raise ValueError(f"paths must be a JSON list, got {obj!r}")
        return cls(PathParams.from_json(p) for p in obj)


class ChannelMatrix:
    """Complex n_r x n_t channel with a column-major vector view."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        M = np.array(matrix, dtype=complex)
        if M.ndim != 2:
            raise ValueError("channel must be a 2D matrix")
        M.setflags(write=False)
        self.matrix = M

    @property
    def vector(self) -> np.ndarray:
        """Column-major (column-stacked) flattening of the matrix."""
        return self.matrix.reshape(-1, order="F")


def steering_vector(g: ArrayGeometry, d: Direction) -> np.ndarray:
    """Unit-norm array response of one direction, a column of steering_matrix."""
    return steering_matrix(g, unit_vectors([d]))[:, 0]


def steering_matrix(g: ArrayGeometry, U: np.ndarray) -> np.ndarray:
    """Unit-norm array responses exp(-j A^T u) / sqrt(n), stacked as columns.

    U holds the directions' unit vectors u as its columns, 3 x k (see
    geometry.unit_vectors); A is the scaled position matrix. The response
    is the Kronecker product of the responses of the array's factors (see
    ArrayGeometry.factors): exp(-j B_f U), one n_f x k phasor matrix per
    factor with 1/sqrt(n) folded into the smallest, multiplied in one
    broadcast, so a 64-antenna upa takes 8 + 8 complex exponentials per
    direction, not 64. A one-factor array is exp(-j A^T U) / sqrt(n) bit for
    bit, its ufuncs in place on one complex array. A factor holds one
    varying coordinate per row, so its phases are the one rounded product
    v u_axis whatever the batch, and a column of a product array is the
    same bits in any batch. Against exp(-j a.u) / sqrt(n) formed per
    antenna a, each entry of a factored product lies within
    (3 ||a||_1 + 16) 2^-53 / sqrt(n): the two phases' roundings, against
    one more in a.u, the exponentials', the scaling's and the product's.
    """
    k = U.shape[1]
    phasors = []
    for B in g.factors:
        F = np.multiply(B @ U, -1j)
        np.exp(F, out=F)
        phasors.append(F)
    smallest = min(phasors, key=len)
    smallest /= math.sqrt(g.n_antennas)
    E = phasors[0]
    for F in phasors[1:]:
        E = np.multiply(E[:, None, :], F).reshape(len(E) * len(F), k)
    return E


def steering_derivatives(g: ArrayGeometry, directions) -> tuple[np.ndarray, ...]:
    """Steering matrix E of many directions and its two tangent derivatives.

    Returns (E, dE_az, dE_el), each n x k. Column j of dE_v is the derivative
    of e(directions[j]) per radian of arc along the unit tangent v (azimuthal
    or elevational, see geometry.tangent_basis): diag(-j A^T v) e, from the
    same phases as E.
    """
    angles = direction_angles(directions)
    E = steering_matrix(g, unit_vectors_from_angles(*angles))
    A_T = g.scaled_positions.T
    return (E, *((-1j * (A_T @ V)) * E for V in tangents_from_angles(*angles)))


def synthesize(ps: PathSet, g_r: ArrayGeometry, g_t: ArrayGeometry) -> ChannelMatrix:
    """Sum of the rank-1 path channels c_p e_r(doa_p) e_t(dod_p)^H, formed as
    the one product E_r diag(c) E_t^H. A single path's channel has Frobenius
    norm rho; a channel with an entry beyond the largest float raises
    ValueError naming the largest gain."""
    E_r = steering_matrix(g_r, unit_vectors([p.doa for p in ps]))
    E_t = steering_matrix(g_t, unit_vectors([p.dod for p in ps]))
    c = np.array([p.gain for p in ps])
    with np.errstate(over="ignore", invalid="ignore"):
        H = (E_r * c) @ E_t.conj().T
    if not np.isfinite(H).all():
        raise ValueError("the channel E_r diag(c) E_t^H has an entry beyond the largest float "
                         f"at path gains up to rho = {max(p.rho for p in ps)}")
    return ChannelMatrix(H)


def merge_paths(paths) -> PathParams:
    """Collapse paths sharing a DoA/DoD into one virtual path of summed gain.

    Raises if the directions differ by more than MERGE_DIRECTION_TOL (in
    unit-vector distance) or if the gains cancel exactly.
    """
    paths = list(paths)
    if not paths:
        raise ValueError("nothing to merge")
    first = paths[0]
    u_r, u_t = unit_vector(first.doa), unit_vector(first.dod)
    for p in paths[1:]:
        if (np.linalg.norm(unit_vector(p.doa) - u_r) > MERGE_DIRECTION_TOL
                or np.linalg.norm(unit_vector(p.dod) - u_t) > MERGE_DIRECTION_TOL):
            raise ValueError("paths do not share directions")
    total = sum(p.gain for p in paths)
    if total == 0:
        raise ValueError("merged gain is zero")
    return PathParams(abs(total), cmath.phase(total) % TWO_PI, first.doa, first.dod)
