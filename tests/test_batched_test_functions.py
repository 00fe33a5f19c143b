"""The batched test functions against their one-test-at-a-time references
(helpers.py), bit for bit: BumpTest's profile kernel, the ladder battery
(_battery_integrals) and the bump residuals of residual_suite."""
from unittest import mock

import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import gfpk.linear
from gfpk import BumpTest, ChaosDensity, HermiteTest, custom_drift, enumerate_basis, gauss_hermite, product_grid
from gfpk import DegenerateDensityError, residual_suite, uniform_gaussian_grid
from gfpk.drift import drift_from_block
from gfpk.ladder import _battery_integrals
from gfpk.linear import BUMP_RULE
from helpers import (
    SEPARABLE_BLOCKS,
    NodelessGrid,
    battery_integrals_per_test,
    bump_defects_per_test,
    bump_per_test,
    node_values,
)


def random_density(k, degree, seed):
    rng = np.random.default_rng(seed)
    basis = enumerate_basis(k, degree)
    coeffs = rng.standard_normal(basis.size) / (1.0 + basis.degrees())
    coeffs[0] = 1.0
    return ChaosDensity(basis, coeffs)


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def outcome(f, *args):
    """The bytes of f(*args), or the message of the ValueError it raises."""
    try:
        return bits(f(*args))
    except ValueError as exc:
        return str(exc)


# centers out to 12 and radii down to 0.05: some bumps miss every node
CENTERS = st.floats(-12.0, 12.0)
RADII = st.floats(0.05, 4.0)


@st.composite
def bumps_on(draw, axes, size):
    """size bumps on the active set axes, each listing it in its own order."""
    return [
        BumpTest(tuple(draw(st.permutations(axes))), tuple(draw(CENTERS) for _ in axes), draw(RADII))
        for _ in range(size)
    ]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_profile_kernel_equals_the_per_bump_formula(data, k, seed):
    axes = data.draw(st.permutations(range(k)))[: data.draw(st.integers(1, k))]
    bumps = data.draw(bumps_on(axes, data.draw(st.integers(1, 6))))
    rng = np.random.default_rng(seed)
    # Gaussian points, each bump's center and points near its rim
    x = rng.standard_normal((30, k)) * 3.0
    for phi in bumps:
        point = rng.standard_normal(k)
        point[list(phi.active)] = phi.center
        rim = point.copy()
        rim[phi.active[0]] += phi.radius * (1.0 - 1e-9)
        x = np.vstack([x, point, rim])
    g, grad, lap = BumpTest.profiles(bumps, x, derivatives=True)
    assert bits(BumpTest.profiles(bumps, x)) == bits(g)
    for row, phi in enumerate(bumps):
        value, gradient, laplacian = bump_per_test(phi, x)
        assert bits(g[row]) == bits(value)
        assert bits(grad[row]) == bits(gradient[:, sorted(axes)])
        assert bits(lap[row]) == bits(laplacian)


@st.composite
def batteries(draw, k, degree):
    """One-coordinate Hermite tests of degrees 0..N+2 and one-coordinate
    bumps, on coordinates of a k-dimensional density; sometimes with a test
    that is refused: one of two coordinates, or one beyond k."""
    tests = []
    for _ in range(draw(st.integers(1, 12))):
        i = draw(st.integers(0, k - 1))
        if draw(st.booleans()):
            tests.append(HermiteTest(tuple(draw(st.integers(0, degree + 2)) if a == i else 0 for a in range(i + 1))))
        else:
            tests += draw(bumps_on((i,), 1))
    refused = draw(st.sampled_from([None, None, None, "beyond", "two"]))
    if refused is not None:
        bad = HermiteTest((0,) * k + (1,)) if refused == "beyond" else BumpTest((0, k), (0.0, 0.0), 1.0)
        tests.insert(draw(st.integers(0, len(tests))), bad)
    return tests


@settings(max_examples=80, deadline=None)
@given(data=st.data(), k=st.integers(1, 4), degree=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
def test_battery_integrals_equal_the_per_test_loop(data, k, degree, seed):
    """On grids whose axes draw from two rules, one Gauss-Hermite and one
    uniform, so that axes share a rule or not; the batched path on a grid
    whose product nodes raise."""
    pool = [gauss_hermite(data.draw(st.integers(1, 8))).rules[0],
            uniform_gaussian_grid(4.0, data.draw(st.integers(2, 9))).rules[0]]
    grid = product_grid([pool[data.draw(st.integers(0, 1))] for _ in range(k)])
    battery = data.draw(batteries(k, degree))
    rho = random_density(k, degree, seed)
    batched = outcome(_battery_integrals, rho, NodelessGrid(grid.rules), battery)
    assert batched == outcome(battery_integrals_per_test, rho, grid, battery)


def coupled_drift(k):
    return custom_drift(lambda p, x: 0.5 * np.tanh(x + 1.0 - x[:, ::-1]), k, "componentwise", 0.5,
                        reads_measure=False)


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    k=st.integers(1, 3),
    drift=st.sampled_from(sorted(SEPARABLE_BLOCKS) + ["coupled"]),
    block_nodes=st.sampled_from([gfpk.linear.BLOCK_NODES, 2_000, 300]),
    seed=st.integers(0, 2**32 - 1),
)
def test_bump_residuals_equal_the_per_bump_loop(data, k, drift, block_nodes, seed):
    """One-axis and, at k >= 2, two-axis bumps of random centers and radii
    under separable drifts (the 1-D sums where the other rules are exact)
    and a coupled one (the axis sums); bumps are batched in at most
    BLOCK_NODES values, so the smaller budgets split a batch."""
    degree = data.draw(st.integers(0, 3))
    grid = product_grid([gauss_hermite(data.draw(st.integers(degree + 1, 4 if k == 3 else 6))).rules[0] for _ in range(k)])
    bumps = []
    for _ in range(data.draw(st.integers(1, 4))):
        axes = data.draw(st.permutations(range(k)))[: data.draw(st.integers(1, min(2, k)))]
        bumps += data.draw(bumps_on(tuple(sorted(axes)), data.draw(st.integers(1, 3))))
    bumps = data.draw(st.permutations(bumps))
    v = coupled_drift(k) if drift == "coupled" else drift_from_block(SEPARABLE_BLOCKS[drift](k), k)
    rho = random_density(k, degree, seed)
    try:
        p = v.read_measure(rho, grid)
    except DegenerateDensityError:
        reject()  # a truncation that is no measure gives a measure-reading drift nothing to read
    rule = uniform_gaussian_grid(*BUMP_RULE).rules[0]
    swapped = lambda axes: product_grid([rule if i in axes else r for i, r in enumerate(grid.rules)])
    with mock.patch.object(gfpk.linear, "BLOCK_NODES", block_nodes):
        batched = residual_suite(rho, v, p, grid, *node_values(rho, v, p, grid), bumps)["bumps"]
        reference = bump_defects_per_test(bumps, rho, v, p, swapped)
    assert bits(batched) == bits(reference)
