import importlib.util
import warnings

import numpy as np
import pytest

from safefl.clbf import RegionBox, assemble_weak_clbf
from safefl.numerics import solve_lyapunov_2x2
from safefl.scenario import build_bundle, default_config_path, load_config


# A failing hypothesis test imports libcst to explain its falsifying example,
# and importing libcst warns "mypy_extensions.TypedDict is deprecated"; under
# -W error that warning becomes a pytest INTERNALERROR that hides the example.
# Import libcst once here, ignoring that one warning only.
if importlib.util.find_spec("libcst") is not None:
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning
        )
        import libcst  # noqa: F401

Q_DEFAULT = np.array([[1.0, -0.9], [-0.9, 1.0]])

# decoupled loop matrices for the bundled scenario gains
A_SUB1 = np.array([[0.0, 1.0], [-1.5, -1.0]])
A_SUB2 = np.array([[0.0, 1.0], [-1.0, -1.0]])

# error-coordinate boxes induced by the bundled region and goal
BOX_SUB1 = RegionBox(-1.2, 0.5, -2.5, 2.5)
BOX_SUB2 = RegionBox(-2.0, 0.2, -2.5, 2.5)


@pytest.fixture(scope="session")
def p_sub1():
    return solve_lyapunov_2x2(A_SUB1, Q_DEFAULT)


@pytest.fixture(scope="session")
def p_sub2():
    return solve_lyapunov_2x2(A_SUB2, Q_DEFAULT)


@pytest.fixture(scope="session")
def table_cert_sub1(p_sub1):
    """First-axis certificate from the published parameter row at v2 = 2."""
    from safefl.clbf import HalfPlaneUnsafe

    return assemble_weak_clbf(
        p_sub1, BOX_SUB1, HalfPlaneUnsafe(-1.0), v2=2.0, l=4.0, delta=0.28, theta=50.0
    )


@pytest.fixture(scope="session")
def table_cert_sub2(p_sub2):
    """Second-axis certificate from the published parameter row at v2 = 2."""
    from safefl.clbf import HalfPlaneUnsafe

    return assemble_weak_clbf(
        p_sub2, BOX_SUB2, HalfPlaneUnsafe(-1.3), v2=2.0, l=4.0, delta=0.58, theta=6.1
    )


@pytest.fixture(scope="session")
def default_config():
    return load_config(default_config_path())


@pytest.fixture(scope="session")
def default_bundle(default_config):
    return build_bundle(default_config)
