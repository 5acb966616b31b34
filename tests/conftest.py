import os

# One BLAS/OpenMP thread unless the environment says otherwise, as in the
# CLI: the small fronts and 3 x 3 to 400 x 400 dense kernels of the suite
# lose from threading.  Set before NumPy loads, or it has no effect.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

import lamedn as ld
from lamedn.fem import build_cache


@pytest.fixture(scope="session")
def mesh_1x4():
    return ld.build_layered_cube(1, 4)


@pytest.fixture(scope="session")
def cache_1x4(mesh_1x4):
    return build_cache(mesh_1x4)


@pytest.fixture(scope="session")
def mesh_2x4():
    return ld.build_layered_cube(2, 4)


@pytest.fixture(scope="session")
def cache_2x4(mesh_2x4):
    return build_cache(mesh_2x4)


@pytest.fixture(scope="session")
def ctx_2x4(mesh_2x4, cache_2x4):
    from lamedn.inverse import ForwardContext
    return ForwardContext(cache=cache_2x4)


@pytest.fixture(scope="session")
def mesh_2x8():
    return ld.build_layered_cube(2, 8)


@pytest.fixture(scope="session")
def cache_2x8(mesh_2x8):
    return build_cache(mesh_2x8)


@pytest.fixture(scope="session")
def ctx_2x8(mesh_2x8, cache_2x8):
    from lamedn.inverse import ForwardContext
    return ForwardContext(cache=cache_2x8)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
