"""Dimension ladder: moment certificates, tails and marginal stability."""
import csv
import io
import json
import math

import numpy as np
import pytest

import gfpk.ladder
import gfpk.linear
import gfpk.nonlinear
from gfpk import (
    BumpTest,
    ChaosDensity,
    FixedPointOptions,
    HermiteTest,
    LadderConfig,
    constant_drift,
    custom_drift,
    default_battery,
    enumerate_basis,
    lyapunov_moment,
    marginal_distance,
    oracle_1d_selfconsistent,
    run_ladder,
    solve_linear,
    tanh_kernel,
    tensor_grid,
    vlasov_drift,
)
from gfpk.cli import main
from gfpk.config import parse_config
from helpers import cameron_martin, cell_holds, hermite_eval, registry_drift, two_call_pair_distances

WEIGHTS = (0.25, 0.0625, 0.015625, 0.00390625)  # alpha_n = 4^{-n}


def make_config(**overrides):
    base = dict(
        weights=WEIGHTS,
        component_bound=0.5,
        levels=(1, 2, 3),
        degrees=(6, 5, 4),
        quad_orders=(8, 6, 5),
        fixed_point=FixedPointOptions(damping=0.5, tolerance=1e-9, max_iterations=100),
    )
    base.update(overrides)
    return LadderConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError, match="increasing"):
        make_config(levels=(2, 1, 3))
    with pytest.raises(ValueError, match="weight"):
        LadderConfig(
            weights=(0.5, 0.49),  # ratio 0.98 > 0.9, not geometric enough
            component_bound=0.5,
            levels=(1, 2),
            degrees=(4, 4),
            quad_orders=(6, 6),
        )
    with pytest.raises(ValueError, match="equal length"):
        make_config(degrees=(6, 5))


def test_weight_total_geometric_tail():
    # sum of 4^{-n} over all n is 1/3; the configured prefix plus the
    # geometric tail bound must reproduce it exactly
    cfg = make_config()
    assert cfg.weight_total == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert cfg.moment_threshold == pytest.approx(2.25 / 3.0, abs=1e-14)


def test_lyapunov_moment_constant_density():
    rho = ChaosDensity.constant(enumerate_basis(3, 2))
    expected = sum(WEIGHTS[:3])
    assert lyapunov_moment(rho, WEIGHTS) == pytest.approx(expected, abs=1e-15)


def test_lyapunov_moment_cameron_martin():
    # shifted Gaussian second moment: 1 + c^2
    c = 0.4
    rho = cameron_martin(c, 6)
    assert lyapunov_moment(rho, WEIGHTS) == pytest.approx(
        WEIGHTS[0] * (1 + c**2), abs=1e-12
    )


def test_lyapunov_moment_explicit_h2_coefficient():
    # x^2 = sqrt(2) h_2 + 1, so c_{2 e_1} = 1/sqrt(2) means E[x_1^2] = 2
    basis = enumerate_basis(1, 2)
    rho = ChaosDensity(basis, np.array([1.0, 0.0, 1.0 / np.sqrt(2.0)]))
    assert lyapunov_moment(rho, WEIGHTS) == pytest.approx(2 * WEIGHTS[0], abs=1e-14)


def test_marginal_distance_identical_measures():
    rho = ChaosDensity.constant(enumerate_basis(1, 4))
    grid = tensor_grid(8, 1)
    battery = default_battery(1)
    assert marginal_distance(rho, grid, rho, grid, battery) == 0.0


def test_marginal_distance_mean_battery():
    # gamma vs Cameron-Martin(c), battery {x_1}: means differ by c
    from gfpk import HermiteTest

    rho_a = ChaosDensity.constant(enumerate_basis(1, 6))
    rho_b = cameron_martin(0.3, 6)
    grid = tensor_grid(16, 1)
    d = marginal_distance(rho_a, grid, rho_b, grid, [HermiteTest((1,))])
    assert d == pytest.approx(0.3, abs=1e-12)


@pytest.mark.parametrize(
    "phi", [HermiteTest((0, 1)), HermiteTest((0, 0, 0)), BumpTest(active=(2,), center=(0.0,), radius=2.0)]
)
def test_marginal_distance_refuses_a_coordinate_beyond_the_densities(phi):
    # such a test once read the missing coordinates as 0 (a point mass),
    # while the ladder's seeds make them standard Gaussians
    rho_a = ChaosDensity.constant(enumerate_basis(1, 4))
    rho_b = ChaosDensity.constant(enumerate_basis(2, 4))
    with pytest.raises(ValueError, match="beyond the density's k=1"):
        marginal_distance(rho_a, tensor_grid(6, 1), rho_b, tensor_grid(6, 2), [HermiteTest((1,)), phi])


@pytest.mark.parametrize(
    "phi", [HermiteTest((1, 1)), HermiteTest((0, 0)), BumpTest(active=(0, 1), center=(0.0, 0.0), radius=2.0)]
)
def test_marginal_distance_refuses_a_test_of_other_than_one_coordinate(phi):
    rho = ChaosDensity.constant(enumerate_basis(2, 4))
    with pytest.raises(ValueError, match="not one"):
        marginal_distance(rho, tensor_grid(6, 2), rho, tensor_grid(6, 2), [HermiteTest((1,)), phi])


def test_ladder_zero_drift():
    cfg = make_config(component_bound=0.0)
    report = run_ladder(registry_drift("componentwise-tanh", scale=0.0, n_components=3), cfg)
    assert report.completed
    for level, k in zip(report.levels, cfg.levels):
        assert np.max(np.abs(level["solution"].coefficients[1:])) <= 1e-12
        assert level["moment"] == pytest.approx(sum(WEIGHTS[:k]), abs=1e-12)
        assert level["pass"]


def test_ladder_tanh_moment_certificates():
    cfg = make_config()
    report = run_ladder(registry_drift("componentwise-tanh", scale=0.5, n_components=3, mean_shift=True), cfg)
    assert report.completed
    for level in report.levels:
        assert level["pass"]
        assert level["moment"] <= cfg.moment_threshold + level["quad_error"]
        # Chebyshev: tail mass at R bounded by moment / R
        for r, mass in level["tail_masses"].items():
            assert mass <= level["moment"] / r + 1e-9


def test_ladder_decoupled_marginal_stability():
    """With v_n = 0 for n >= 2 the first marginal is identical across levels.

    Identical truncation parameters per level make the shared coefficient
    block solve the same 1-D system exactly.
    """
    cfg = make_config(degrees=(6, 6, 6), quad_orders=(8, 8, 8))
    report = run_ladder(registry_drift("componentwise-decoupled-tanh", scale=0.5, n_components=3), cfg)
    assert report.completed
    for level in report.levels[:-1]:
        assert level["distance_to_next"] is not None
        assert level["distance_to_next"] <= 1e-8


def test_ladder_aborts_on_non_convergence():
    cfg = make_config(
        fixed_point=FixedPointOptions(damping=0.5, tolerance=1e-12, max_iterations=1)
    )
    report = run_ladder(registry_drift("componentwise-tanh", scale=0.5, n_components=3, mean_shift=True), cfg)
    assert not report.completed
    assert "k=1" in report.failure
    assert report.levels == []


@pytest.mark.parametrize("kind", ["componentwise-tanh", "componentwise-decoupled-tanh"])
def test_a_level_whose_drift_ignores_the_measure_takes_one_linear_solve(monkeypatch, kind):
    """run_ladder solves each level through solve_stationary: a drift that
    does not read the measure assembles once per level, reports 0
    iterations and the quadrature error tolerance * sum(weights), and its
    density is solve_linear's, bit for bit."""
    calls = []
    for module in (gfpk.linear, gfpk.nonlinear):
        original = module.assemble
        monkeypatch.setattr(module, "assemble", lambda *args, original=original: calls.append(args[2].k) or original(*args))
    cfg, drift = make_config(), registry_drift(kind, scale=0.5, n_components=3)
    report = run_ladder(drift, cfg)
    assert report.completed and calls == [1, 2, 3]
    for level in report.levels:
        assert level["iterations"] == 0
        assert level["quad_error"] == cfg.fixed_point.tolerance * sum(cfg.weights[: level["k"]])
        grid = tensor_grid(level["quad_order"], level["k"])
        expected = solve_linear(drift(level["k"]), None, enumerate_basis(level["k"], level["degree"]), grid)
        assert np.array_equal(level["solution"].coefficients, expected.coefficients)


def test_ladder_rejects_a_drift_beyond_its_component_bound():
    # the threshold (2 + C^2) T certifies only drifts bounded by C: scale 2.0
    # against C = 0.1 once ran and reported 0.67 instead of 2.0
    cfg = make_config(weights=(0.25, 0.0625), component_bound=0.1, levels=(1, 2), degrees=(5, 4),
                      quad_orders=(6, 6))
    with pytest.raises(ValueError, match="component_bound=0.1 is below"):
        run_ladder(registry_drift("componentwise-tanh", scale=2.0, n_components=2), cfg)
    with pytest.raises(ValueError, match="component_bound=0.1 is below the drift's bound 0.2"):
        run_ladder(lambda k: vlasov_drift(tanh_kernel(0.2), k), cfg)
    # a drift that bounds only |v|_H states no C for the threshold
    h_only = lambda k: custom_drift(lambda p, x: 0.05 * np.tanh(x), k, reads_measure=False, h_bound=0.05 * math.sqrt(k))
    with pytest.raises(ValueError, match="componentwise-bounded drift; a custom drift bounds only"):
        run_ladder(h_only, cfg)
    # constant and Vlasov drifts within C, once refused as H-bounded, are certified
    for drift in (lambda k: constant_drift([0.05] * k), lambda k: vlasov_drift(tanh_kernel(0.05), k)):
        report = run_ladder(drift, cfg)
        assert report.completed and all(level["pass"] for level in report.levels)


def test_ladder_runs_a_custom_drift():
    """A custom componentwise field is laddered like the registry's; equal
    values give equal levels."""
    cfg = make_config(levels=(1, 2), degrees=(5, 4), quad_orders=(6, 6))
    custom = run_ladder(lambda k: custom_drift(lambda p, x: 0.3 * np.tanh(x), k, component_bound=0.3,
                                               reads_measure=True), cfg)
    registry = run_ladder(registry_drift("componentwise-tanh", scale=0.3, n_components=2), cfg)
    assert custom.completed
    assert [lv["moment"] for lv in custom.levels] == [lv["moment"] for lv in registry.levels]


def test_ladder_pair_distances_match_the_two_call_path_on_unequal_marginals():
    """Each coordinate has its own law here, so pairing a level's integrals
    with the wrong tests of the level above would change a distance."""
    drift = lambda k: custom_drift(lambda p, x: 0.5 * np.tanh(x - np.arange(k)), k, component_bound=0.5,
                                   reads_measure=False)
    report = run_ladder(drift, make_config())
    distances = [lv["distance_to_next"] for lv in report.levels]
    assert report.completed and distances[-1] is None
    assert distances == [lv["distance_to_next"] for lv in two_call_pair_distances(report).levels]


def test_ladder_report_serialization():
    cfg = make_config(levels=(1, 2), degrees=(5, 4), quad_orders=(6, 6))
    report = run_ladder(registry_drift("componentwise-tanh", scale=0.3, n_components=2), cfg)
    doc = report.to_json_dict()
    assert doc["completed"] and len(doc["levels"]) == 2
    csv_lines = report.to_csv().strip().splitlines()
    assert len(csv_lines) == 3
    assert csv_lines[0].startswith("k,moment,threshold,pass")


def test_ladder_files_hold_the_level_entries_exactly():
    """ladder.csv holds each level's values (None an empty cell) on CRLF
    rows, and ladder.json each level entry apart from its solution, written
    as its JSON dict, and its tail_masses, keyed by str(R).  The aborted
    ladder solves k = 1 by one linear solve and fails to converge at k = 2."""
    cfg = make_config(levels=(1, 2), degrees=(5, 4), quad_orders=(6, 6))
    completed = run_ladder(registry_drift("componentwise-tanh", scale=0.3, n_components=2), cfg)
    shifted = lambda k: custom_drift(lambda p, x: 0.5 * np.tanh(x - p.mean() - 0.3), k, component_bound=0.5,
                                     reads_measure=True)
    first = registry_drift("componentwise-tanh", scale=0.3, n_components=3)
    aborted = run_ladder(lambda k: shifted(k) if k > 1 else first(k),
                         make_config(fixed_point=FixedPointOptions(max_iterations=1)))
    assert completed.completed and not aborted.completed and len(aborted.levels) == 1
    for report in (completed, aborted):
        tails = sorted(report.levels[0]["tail_masses"])
        text = report.to_csv()
        rows = list(csv.reader(io.StringIO(text)))
        assert text.count("\r\n") == len(rows) == len(report.levels) + 1
        assert rows[0] == ["k", "moment", "threshold", "pass", "d_next"] + [f"tail@{r}" for r in tails]
        for row, lv in zip(rows[1:], report.levels):
            values = [lv[key] for key in ("k", "moment", "threshold", "pass", "distance_to_next")]
            values += [lv["tail_masses"][r] for r in tails]
            assert all(cell_holds(c, x) for c, x in zip(row, values, strict=True))
        doc = json.loads(json.dumps(report.to_json_dict()))
        for entry, lv in zip(doc["levels"], report.levels, strict=True):
            assert set(entry) == set(lv)
            solution = ChaosDensity.from_json_dict(entry["solution"])
            assert solution.coefficients.tobytes() == lv["solution"].coefficients.tobytes()
            assert {float(r): m for r, m in entry["tail_masses"].items()} == lv["tail_masses"]
            assert all(entry[key] == lv[key] for key in set(lv) - {"solution", "tail_masses"})
    assert completed.levels[-1]["distance_to_next"] is None and aborted.levels[0]["distance_to_next"] is None


# five levels of the mean-shifted componentwise tanh, as the ladder-k5 bench workload runs them
LADDER_K5 = {
    "mode": "ladder",
    "drift": {"kind": "componentwise-tanh", "scale": 0.5, "n_components": 5, "mean_shift": True},
    "ladder": {
        "weights": [1.0, 0.5, 0.25, 0.125, 0.0625],
        "component_bound": 0.5,
        "levels": [1, 2, 3, 4, 5],
        "degrees": [8, 6, 5, 4, 4],
        "quad_orders": [10, 8, 6, 6, 6],
    },
}


def test_ladder_integrates_each_level_battery_once_and_keeps_its_files(tmp_path, monkeypatch):
    """One battery pass per level, and ladder.json and ladder.csv byte-identical
    to those of the two-call pair distances (marginal_distance per pair)."""
    calls = []
    original = gfpk.ladder._battery_integrals
    monkeypatch.setattr(gfpk.ladder, "_battery_integrals", lambda *args: calls.append(args[0].k) or original(*args))
    out = tmp_path / "out"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**LADDER_K5, "output": {"dir": str(out)}}))
    assert main(["ladder", "--config", str(path)]) == 0
    assert calls == [1, 2, 3, 4, 5]
    monkeypatch.undo()

    config = parse_config(LADDER_K5)
    reference = two_call_pair_distances(run_ladder(config["ladder_drifts"].__getitem__, config["ladder"]))
    assert reference.completed and len(reference.levels) == 5
    expected = json.dumps(reference.to_json_dict(), sort_keys=True, indent=1)
    assert (out / "ladder.json").read_bytes() == expected.encode()
    assert (out / "ladder.csv").read_bytes() == reference.to_csv().encode()


# the multiple of the truncation tail a ladder level's moment may miss by
QUASI_OPTIMALITY = 2.0


def product_tail(x, pdf, k: int, degree: int, n_max: int = 40) -> float:
    """L^2(gamma_k) norm of the chaos components of total degree > degree of
    the product of k copies of the 1-D law with Lebesgue density pdf on the
    grid x, its coefficients c_n = integral h_n pdf dx up to n_max."""
    c = np.array([np.trapezoid(hermite_eval(n, x) * pdf, x) for n in range(n_max + 1)])
    shells = np.ones(1)
    for _ in range(k):
        shells = np.convolve(shells, c**2)  # shells[d] = squared norm of total degree d
    return math.sqrt(float(np.sum(shells[degree + 1 : n_max + 1])))


def vlasov_tanh_marginal():
    oracle = oracle_1d_selfconsistent(lambda z: 0.5 * np.tanh(z))
    return oracle.x, oracle.pdf


def clipped_potential_marginal():
    """exp(-x^2/2) cosh(x / width)^(lam width) / Z for lam = 0.5, width = 2."""
    x = np.linspace(-12.0, 12.0, 4801)
    pdf = np.exp(-0.5 * x * x) * np.cosh(x / 2.0)
    return x, pdf / np.trapezoid(pdf, x)


@pytest.mark.parametrize(
    "drift, marginal",
    [
        ({"kind": "vlasov", "kernel": {"kind": "tanh", "scale": 0.5}}, vlasov_tanh_marginal),
        ({"kind": "clipped-potential", "lam": 0.5}, clipped_potential_marginal),
    ],
    ids=["vlasov-tanh", "clipped-potential"],
)
def test_ladder_runs_every_componentwise_bounded_drift(tmp_path, drift, marginal):
    """The Vlasov tanh drift and the clipped potential, each bounded by 0.5 in
    every component, run the ladder-k5 schedule.  Both laws are products of
    one 1-D marginal (the self-consistent one, the cosh power), so level k's
    moment is sum_{n<k} alpha_n E[x^2], up to sqrt(2) times that weight times
    a multiple of the level's truncation tail: a Galerkin solve is within a
    constant of the best approximation, and the Vlasov solve reads its
    measure on the level's rule too (at k = 1 its gap is 1.1 tails)."""
    out = tmp_path / "out"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**LADDER_K5, "drift": drift, "output": {"dir": str(out)}}))
    assert main(["ladder", "--config", str(path)]) == 0
    doc = json.loads((out / "ladder.json").read_text())
    schedule = LADDER_K5["ladder"]
    x, pdf = marginal()
    ex2 = np.trapezoid(x * x * pdf, x)
    assert doc["completed"] and [lv["k"] for lv in doc["levels"]] == schedule["levels"]
    for lv, degree in zip(doc["levels"], schedule["degrees"]):
        assert lv["pass"] and lv["moment"] <= lv["threshold"] == 4.5
        weight = sum(schedule["weights"][: lv["k"]])
        tail = product_tail(x, pdf, lv["k"], degree)
        assert abs(lv["moment"] - weight * ex2) <= QUASI_OPTIMALITY * math.sqrt(2.0) * weight * tail + 1e-9
