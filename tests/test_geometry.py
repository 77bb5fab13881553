import math

import numpy as np
import pytest

from mimolab.estimation import hemisphere_directions
from mimolab.geometry import (ArrayGeometry, Direction, direction_from_unit,
                              tangent_basis, ula, unit_vector, unit_vectors, upa, wrap_azimuth)

from conftest import random_direction


def test_unit_vector_axis_aligned():
    assert np.allclose(unit_vector(Direction(0.0, 0.0)), [1, 0, 0])
    assert np.allclose(unit_vector(Direction(math.pi / 2, 0.0)), [0, 1, 0])
    assert np.allclose(unit_vector(Direction(0.0, math.pi / 2)), [0, 0, 1])


def test_tangent_basis_axis_aligned():
    v_az, v_el = tangent_basis(Direction(0.0, 0.0))
    assert np.allclose(v_az, [0, 1, 0])
    assert np.allclose(v_el, [0, 0, 1])
    v_az, v_el = tangent_basis(Direction(math.pi / 2, 0.0))
    assert np.allclose(v_az, [-1, 0, 0])
    assert np.allclose(v_el, [0, 0, 1])


def test_frame_orthonormal_many_random(rng):
    for _ in range(1000):
        d = random_direction(rng, el_max=math.pi / 2)
        u = unit_vector(d)
        v_az, v_el = tangent_basis(d)
        assert abs(np.linalg.norm(u) - 1.0) < 1e-12
        assert abs(np.linalg.norm(v_az) - 1.0) < 1e-12
        assert abs(np.linalg.norm(v_el) - 1.0) < 1e-12
        assert abs(u @ v_az) < 1e-12
        assert abs(u @ v_el) < 1e-12
        assert abs(v_az @ v_el) < 1e-12


def test_direction_wraps_azimuth_and_rejects_elevation():
    d = Direction(3 * math.pi / 2, 0.1)
    assert -math.pi <= d.azimuth < math.pi
    assert np.allclose(unit_vector(d), unit_vector(Direction(-math.pi / 2, 0.1)))
    with pytest.raises(ValueError):
        Direction(0.0, 2.0)


@pytest.mark.parametrize("azimuth", [math.nan, math.inf, -math.inf])
def test_direction_rejects_non_finite_azimuth(azimuth):
    with pytest.raises(ValueError, match="azimuth"):
        Direction(azimuth, 0.1)
    with pytest.raises(ValueError):
        Direction(0.1, azimuth)


def test_unit_vectors_equal_stacked_unit_vector(rng):
    random = [Direction(a, e) for a, e in zip(rng.uniform(-10.0, 10.0, 2000),
                                              rng.uniform(-math.pi / 2, math.pi / 2, 2000))]
    poles = [Direction(0.3, math.pi / 2), Direction(-2.0, -math.pi / 2)]
    for dirs in (hemisphere_directions(50, 50), random, poles):
        U = unit_vectors(dirs)
        assert U.shape == (3, len(dirs))
        assert np.array_equal(U, np.stack([unit_vector(d) for d in dirs], axis=1))
    assert np.array_equal(unit_vectors(d for d in poles), unit_vectors(poles))
    assert unit_vectors([]).shape == (3, 0)


def test_wrap_azimuth_array_equals_direction_wrap(rng):
    az = np.concatenate([rng.uniform(-10.0, 10.0, 100_000),
                         [-math.pi, math.pi, 0.0, -0.0, 3 * math.pi, -1e-300]])
    wrapped = wrap_azimuth(az)
    assert wrapped.tolist() == [Direction(a, 0.0).azimuth for a in az.tolist()]
    assert np.all((-math.pi <= wrapped) & (wrapped < math.pi))
    # wrapping is idempotent, so a Direction rebuilt from its own azimuth is equal
    assert np.array_equal(wrap_azimuth(wrapped), wrapped)


def test_direction_from_unit_round_trip(rng):
    for _ in range(200):
        d = random_direction(rng, el_max=math.pi / 2 - 1e-6)
        d2 = direction_from_unit(unit_vector(d))
        assert abs(d.azimuth - d2.azimuth) < 1e-9
        assert abs(d.elevation - d2.elevation) < 1e-9
    with pytest.raises(ValueError):
        direction_from_unit([0.0, 0.0, 0.0])


def test_ula_single_antenna_is_origin():
    g = ula(1, 0.5, "x")
    assert g.n_antennas == 1
    assert np.all(g.scaled_positions == 0.0)


def test_ula_half_wavelength_positions():
    # hand-computed: 2*pi * 0.5 * (i - 2.5) for i = 1..4, along each axis
    # and 0 on the other two
    for row, axis in enumerate("xyz"):
        g = ula(4, 0.5, axis)
        expected = np.zeros((3, 4))
        expected[row] = math.pi * np.array([-1.5, -0.5, 0.5, 1.5])
        assert np.array_equal(g.scaled_positions, expected), axis


def test_ula_rejects_bad_arguments():
    with pytest.raises(ValueError):
        ula(0)
    with pytest.raises(ValueError):
        ula(4, -0.5)
    with pytest.raises(ValueError):
        ula(4, 0.5, "w")


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_ula_second_moment(n):
    # brute-force oracle: mean of squared scaled offsets along the axis
    g = ula(n, 0.5, "z")
    axis = np.array([0.0, 0.0, 1.0])
    brute = sum(float(g.scaled_positions[:, i] @ axis) ** 2
                for i in range(n)) / n
    assert abs(brute - math.pi ** 2 * (n ** 2 - 1) / 12.0) < 1e-9
    fast = np.linalg.norm(g.scaled_positions.T @ axis) ** 2 / n
    assert abs(fast - brute) < 1e-9


def test_upa_square_array_counts():
    assert upa(8, 8, 0.5).n_antennas == 64
    assert upa(4, 4, 0.5).n_antennas == 16


def test_upa_single_antenna():
    g = upa(1, 1, 0.5)
    assert g.n_antennas == 1
    assert np.all(g.scaled_positions == 0.0)


def test_upa_2x2_offsets():
    # hand-computed grid offsets: (+-0.25 wavelengths) * 2*pi = +-pi/2
    g = upa(2, 2, 0.5, plane="xy")
    xs = np.sort(g.scaled_positions[0])
    assert np.allclose(xs, [-math.pi / 2, -math.pi / 2, math.pi / 2, math.pi / 2])
    assert np.all(g.scaled_positions[2] == 0.0)


def test_upa_rejects_bad_arguments():
    with pytest.raises(ValueError):
        upa(0, 2)
    with pytest.raises(ValueError):
        upa(2, 2, 0.5, plane="ab")


def test_centroid_zero_for_all_constructions(rng):
    geometries = [ula(5, 0.7, "y"), upa(3, 4, 0.5, "yz"),
                  ArrayGeometry.from_positions(rng.normal(0, 2, (3, 9)) + 5.0)]
    for g in geometries:
        row_sums = g.scaled_positions.sum(axis=1)
        scale = max(1.0, np.abs(g.scaled_positions).max())
        assert np.all(np.abs(row_sums) <= 1e-12 * scale)


def test_custom_json_positions_are_wavelength_units():
    g = ArrayGeometry.from_json({"type": "custom",
                                 "positions": [[-0.25, 0.25], [0, 0], [0, 0]]})
    assert np.allclose(g.scaled_positions[0], [-math.pi / 2, math.pi / 2])


def test_geometry_immutable():
    g = ula(3)
    with pytest.raises(ValueError):
        g.scaled_positions[0, 0] = 1.0


@pytest.mark.parametrize("spec", ["upa", None, 3, [], [{"type": "upa"}]])
def test_geometry_from_json_rejects_non_object_spec(spec):
    with pytest.raises(ValueError, match="array spec must be a JSON object"):
        ArrayGeometry.from_json(spec)


@pytest.mark.parametrize("spec, key", [({"type": "upa", "nx": 4}, "ny"),
                                       ({"type": "upa", "ny": 4}, "nx"),
                                       ({"type": "ula"}, "n"), ({"type": "custom"}, "positions"),
                                       ({}, "positions")])
def test_geometry_from_json_names_a_missing_key(spec, key):
    with pytest.raises(ValueError, match=f"array spec requires '{key}'"):
        ArrayGeometry.from_json(spec)


@pytest.mark.parametrize("spacing", [math.nan, math.inf, -math.inf, 0.0, -0.5])
def test_arrays_reject_non_finite_or_non_positive_spacing(spacing):
    for build in (lambda: ula(4, spacing), lambda: upa(2, 2, spacing),
                  lambda: ArrayGeometry.from_json({"type": "upa", "nx": 2, "ny": 2,
                                                   "spacing": spacing})):
        with pytest.raises(ValueError, match="spacing must be positive and finite"):
            build()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_geometry_rejects_non_finite_positions(bad):
    positions = np.zeros((3, 4))
    positions[1, 2] = bad
    with pytest.raises(ValueError, match="antenna positions must be finite"):
        ArrayGeometry.from_positions(positions)
    with pytest.raises(ValueError, match="antenna positions must be finite"):
        ArrayGeometry.from_json({"type": "custom", "positions": positions.tolist()})


@pytest.mark.parametrize("bad", ["0.5", True, None])
def test_geometry_rejects_a_string_or_bool_for_a_number(bad):
    # each was read as a number by float() or np.asarray(..., dtype=float)
    positions = [[0.0, 0.5], [0.0, bad], [0.0, 0.0]]
    for build, name in ((lambda: Direction(bad, 0.0), "azimuth"),
                        (lambda: Direction(0.0, bad), "elevation"),
                        (lambda: ula(4, bad), "spacing"), (lambda: upa(2, 2, bad), "spacing"),
                        (lambda: ArrayGeometry.from_positions(positions), "antenna positions")):
        with pytest.raises(ValueError, match=f"{name} must"):
            build()


def assert_factors_place_every_antenna(g):
    """Antenna i_0 n_1 + i_1 sits at factors[0][i_0] + factors[1][i_1], bit for bit."""
    positions = g.factors[0]
    for B in g.factors[1:]:
        positions = (positions[:, None, :] + B).reshape(-1, 3)
    assert np.array_equal(positions, g.scaled_positions.T)
    assert not any(B.flags.writeable for B in g.factors)


@pytest.mark.parametrize("plane", ["xy", "yz", "xz"])
def test_every_upa_is_the_product_of_its_two_line_arrays(plane):
    for nx in range(2, 10):
        for ny in range(2, 10):
            g = upa(nx, ny, 0.37, plane)
            assert [B.shape for B in g.factors] == [(nx, 3), (ny, 3)]
            assert_factors_place_every_antenna(g)


@pytest.mark.parametrize("g", [ula(1), upa(1, 1), ula(5, 0.5, "x"), ula(7, 0.3, "y"),
                               ula(2, 0.5, "z"), upa(1, 6, 0.5, "xy"), upa(6, 1, 0.5, "yz")],
                         ids=["ula_1", "upa_1x1", "ula_x", "ula_y", "ula_z", "upa_1x6",
                              "upa_6x1"])
def test_a_line_array_or_one_antenna_is_one_factor(g):
    assert len(g.factors) == 1
    assert_factors_place_every_antenna(g)


def test_an_array_out_of_row_major_order_finds_no_factors(rng):
    # a upa's positions in a shuffled antenna order, and a generic custom array:
    # their one factor is the whole array, A^T itself
    A = upa(4, 3).scaled_positions
    perm = rng.permutation(A.shape[1])
    assert not np.array_equal(perm, np.arange(A.shape[1]))
    for g in (ArrayGeometry(A[:, perm]), ArrayGeometry(rng.normal(size=(3, 12)))):
        (B,) = g.factors
        assert np.shares_memory(B, g.scaled_positions)
        assert np.array_equal(B, g.scaled_positions.T)


def test_a_upa_off_its_plane_is_the_same_product():
    # the centring takes a constant coordinate to exactly 0, so a upa lifted
    # off its plane factors as the upa does
    for nx, ny in ((3, 4), (8, 8), (9, 7)):
        for offset in (0.1, 1 / 3, 0.7, -12.345):
            lifted = upa(nx, ny, 0.5, "yz").scaled_positions / (2 * math.pi)
            lifted[0] += offset
            g = ArrayGeometry.from_positions(lifted)
            assert [B.shape for B in g.factors] == [(nx, 3), (ny, 3)]
            assert_factors_place_every_antenna(g)
