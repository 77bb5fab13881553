"""mimolab: sparse multipath MIMO channels, their estimation limits, and
greedy direction-estimation benchmarks.

The package synthesizes physical-model channels from path parameters,
models hybrid pilot/combiner observation, computes Fisher information and
the Cramer-Rao bound on relative channel error, and benchmarks joint
versus sequential greedy direction estimation inside Matching Pursuit.
"""

from . import bench, blas, channel, estimation, fim, geometry, observation, workers

__version__ = "0.1.0"
