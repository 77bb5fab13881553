"""Malformed input at the library's boundary raises ValueError naming what is wrong.

Each row once ended in another exception or in numpy's message: an integer
beyond float range raised OverflowError, a missing key or a non-object
raised KeyError or TypeError, an unhashable plane or a non-integer grid size
raised TypeError, a pilot or combiner matrix that does not fit its array
reached build_dictionaries' matmul, a negative product grid size read only
math.isqrt's "argument must be nonnegative", and a grid too large to
allocate ended in numpy's MemoryError (10^15 cells, petabytes) or its
"Maximum allowed size exceeded" (10^20); both fail before any allocation. A
finite observation whose Frobenius norm exceeds the largest float ended in
OverflowError from the pursuit's residual norm.
"""

import numpy as np
import pytest

from mimolab.channel import PathParams, PathSet
from mimolab.estimation import (DirectionGrid, build_dictionaries, hemisphere_directions,
                                matching_pursuit)
from mimolab.geometry import ArrayGeometry, Direction, upa
from mimolab.observation import ObservationSetup, complex_from_json

BIG = 10 ** 400   # a JSON integer beyond float range
D0 = Direction(0.0, 0.0)
PATH = {"rho": 1.0, "phi": 0.0, "doa": {"az": 0.0, "el": 0.0}, "dod": {"az": 0.0, "el": 0.0}}


def dictionaries(X, W):
    # 4 receive and 6 transmit antennas
    return build_dictionaries(DirectionGrid(2, 2, 2, 2), ObservationSetup(X, W, 1.0),
                              upa(2, 2), upa(2, 3))


@pytest.mark.parametrize("call, message", [
    (lambda: Direction(BIG, 0.0), "azimuth inf is not finite"),
    (lambda: Direction(0.0, -BIG), r"elevation -inf outside"),
    (lambda: PathParams(BIG, 0.0, D0, D0), "gain magnitude must be positive and finite"),
    (lambda: PathParams(1.0, BIG, D0, D0), "phase inf is not finite"),
    (lambda: upa(2, 2, BIG), "spacing must be positive and finite, got inf"),
    (lambda: complex_from_json([[[BIG, 0.0]]], "pilot matrix X"),
     "pilot matrix X holds a number beyond float range"),
    (lambda: ArrayGeometry.from_positions([[BIG], [0.0], [0.0]]),
     "antenna positions holds a number beyond float range"),
    (lambda: ObservationSetup([[BIG]], np.eye(1), 1.0), "pilot matrix X must hold numbers"),
    (lambda: ObservationSetup(np.eye(1), [[{}]], 1.0), "combiner matrix W must hold numbers"),
    (lambda: Direction.from_json({"az": 0.0}), "direction requires 'el'"),
    (lambda: Direction.from_json([0.0, 0.0]), "direction must be a JSON object"),
    (lambda: PathParams.from_json({k: v for k, v in PATH.items() if k != "rho"}),
     "path requires 'rho'"),
    (lambda: PathParams.from_json(5), "path must be a JSON object"),
    (lambda: PathParams.from_json(dict(PATH, dod=None)), "direction must be a JSON object"),
    (lambda: PathSet.from_json(5), "paths must be a JSON list"),
    (lambda: upa(2, 2, plane=[]), "plane must be one of"),
    (lambda: DirectionGrid("a", 1, 1, 1), "grid dimension must be an integer"),
    (lambda: hemisphere_directions(2.5, 2), "grid dimension must be an integer"),
    (lambda: DirectionGrid.product(-4, 4), "^m must be positive, got -4$"),
    (lambda: DirectionGrid.product(4, 0), "^n must be positive, got 0$"),
    (lambda: DirectionGrid(10 ** 15, 10 ** 15, 2, 2),
     "^a 1000000000000000 x 1000000000000000 grid of directions is too large to allocate$"),
    (lambda: DirectionGrid(2, 2, 3, 10 ** 20), "^a 3 x 100000000000000000000 grid of directions"),
    (lambda: DirectionGrid.product(4, 10 ** 30), "^a 1000000000000000 x 1000000000000000 grid"),
    (lambda: hemisphere_directions(10 ** 15, 1), "^a 1000000000000000 x 1 grid of directions"),
    (lambda: dictionaries(np.eye(4), np.eye(6)),
     "pilot matrix X has 4 rows, but the transmit array has 6 antennas"),
    (lambda: dictionaries(np.eye(5), np.eye(4)),
     "pilot matrix X has 5 rows, but the transmit array has 6 antennas"),
    (lambda: dictionaries(np.eye(6), np.eye(3)),
     "combiner matrix W has 3 rows, but the receive array has 4 antennas"),
    (lambda: matching_pursuit(np.full((4, 6), 1e308), dictionaries(np.eye(6), np.eye(4)), 1,
                              "joint"),
     "^observation Y has a Frobenius norm beyond the largest float$"),
])
def test_malformed_input_raises_a_value_error_naming_it(call, message):
    with pytest.raises(ValueError, match=message):
        call()
