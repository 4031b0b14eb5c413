import numpy as np
import pytest

from maxshape import DeformationField, generate_unit_square

# Smallest finite eigenvalues of the PEC Maxwell problem on the unit square:
# pi^2 * (m^2 + n^2) for integers m, n >= 0, not both zero.
SQUARE_SPECTRUM = np.pi ** 2 * np.array([1.0, 1.0, 2.0, 4.0, 4.0, 5.0, 5.0])

TWO_TRIANGLE_MSH = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
4
1 0 0 0
2 1 0 0
3 1 1 0
4 0 1 0
$EndNodes
$Elements
6
1 1 2 0 1 1 2
2 1 2 0 1 2 3
3 1 2 0 1 3 4
4 1 2 0 1 4 1
5 2 2 0 1 1 2 3
6 2 2 0 1 1 3 4
$EndElements
"""

SINGLE_TRIANGLE_MSH = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
3
1 0 0 0
2 1 0 0
3 0 1 0
$EndNodes
$Elements
4
1 1 2 0 1 1 2
2 1 2 0 1 2 3
3 1 2 0 1 3 1
4 2 2 0 1 1 2 3
$EndElements
"""


@pytest.fixture(scope="session")
def square2():
    return generate_unit_square(2)


@pytest.fixture(scope="session")
def square4():
    return generate_unit_square(4)


@pytest.fixture(scope="session")
def square8():
    return generate_unit_square(8)


@pytest.fixture(scope="session")
def square16():
    return generate_unit_square(16)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_feasible_control(mesh, rng, q_inf, epsilon=1e-4):
    """Random nodal deformation with given max norm, redrawn until feasible."""
    from maxshape.reference_transform import jacobian_range

    for _ in range(100):
        vals = rng.uniform(-1.0, 1.0, size=(mesh.n_vertices, 2))
        vals *= q_inf / np.abs(vals).max()
        q = DeformationField(mesh, vals)
        if jacobian_range(q)[0] > 2.0 * epsilon:
            return q
    raise AssertionError("could not draw a feasible deformation")


def assert_entries_close(got, want, rtol=1e-15):
    """Largest entry difference at most rtol times the largest entry: the
    tolerance of a reordered kernel, which a BLAS build may round apart."""
    assert got.shape == want.shape
    diff = np.abs(got - want).max()
    assert diff <= rtol * np.abs(want).max(), f"largest difference {diff:.3e}"


def dilation_control(mesh, s, center=(0.5, 0.5)):
    """Nodal coefficients of q(x) = s * (x - center)."""
    return DeformationField(mesh, s * (mesh.vertices - np.asarray(center)))
