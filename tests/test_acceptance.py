"""Acceptance battery: every headline check at its stated tolerance.

One test per check; each prints a PASS/FAIL line with the measured
error against its tolerance (run with ``pytest -s`` to see the lines on
passing runs) and then asserts the outcome.
"""

import time

import pytest

from lebp import validation


def _report(results, budget=None, elapsed=None):
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: measured {r.measured:.6g} vs tolerance {r.tolerance:.6g}")
        if r.detail:
            print(f"     {r.detail}")
    if budget is not None:
        status = "PASS" if elapsed < budget else "FAIL"
        print(f"{status} runtime: {elapsed:.2f}s vs budget {budget:.0f}s")
        assert elapsed < budget
    failed = [r.name for r in results if not r.passed]
    assert not failed, "failed checks: " + "; ".join(failed)


def _timed(check):
    start = time.perf_counter()
    results = check()
    return results, time.perf_counter() - start


def test_acceptance_01_walk_determinant_vs_enumeration():
    results, elapsed = _timed(validation.check_fomin_identity)
    _report(results, budget=60.0, elapsed=elapsed)


def test_acceptance_02_kernel_composition():
    results = validation.check_semigroup()
    for r in results:
        status = "PASS" if r.elapsed < 1.0 else "FAIL"
        print(f"{status} {r.name} runtime: {r.elapsed:.3f}s vs budget 1s")
        assert r.elapsed < 1.0
    _report(results)


def test_acceptance_03_crossing_exponent_fit():
    _report(validation.check_crossing_exponent())


def test_acceptance_04_density_normalizations():
    _report(validation.check_normalization())


def test_acceptance_05_backward_kernel_dual_form():
    _report(validation.check_kernel_dual())


def test_acceptance_06_one_point_function_vs_marginal():
    _report(validation.check_kernel_marginal())


def test_acceptance_07_closed_form_density():
    _report(validation.check_closed_density())


def test_acceptance_08_figure_shapes():
    _report(validation.check_figure_shapes())


def test_acceptance_09_many_path_flatness():
    # the 200-path density against its closed form, relative to the value
    name = "200-path arc density vs closed form (relative)"
    (record,) = [r for r in validation.check_closed_density() if r.name == name]
    _report([record])


def test_acceptance_10_edge_scaling_limit():
    _report(validation.check_scaling_limit())


def test_acceptance_11_lattice_refinement():
    _report(validation.check_lattice_refinement())


def test_acceptance_12_conformal_covariance():
    _report(validation.check_conformal())


# each record with the production route it calls: scaling the route's value
# by 1 + eps must fail the record, which passes with a nonzero measured
# error as it is
PERTURBED_ROUTES = [
    ("joint_pdf", 1e-6, "check_normalization", "midpoint-start density mass, 2 paths"),
    ("joint_pdf", 1e-6, "check_normalization", "midpoint-start density mass, 3 paths"),
    ("joint_pdf", 1e-6, "check_normalization", "two-path density mass, finite rectangle"),
    (
        "poisson_rect",
        1e-6,
        "check_normalization",
        "two-cut two-path joint mass, finite rectangle",
    ),
    ("joint_pdf", 1e-6, "check_kernel_marginal", "two-path one-point function vs density marginal"),
    (
        "poisson_rect",
        1e-8,
        "check_conformal",
        "rectangle kernel vs half-plane kernel under w = cosh z",
    ),
    # "three-path density on the imaginary axis vs 4/(pi r)" has no row: it
    # measures exactly 0.0, and the test needs a nonzero unperturbed value
    (
        "density_semicircle",
        1e-6,
        "check_closed_density",
        "arc density and equal-radius kernel vs closed forms",
    ),
    (
        "density_semicircle",
        1e-6,
        "check_closed_density",
        "200-path arc density vs closed form (relative)",
    ),
    (
        "two_point_semicircle",
        1e-6,
        "check_figure_shapes",
        "two-point function vanishes at coincident angles",
    ),
]


@pytest.mark.parametrize("route, eps, check, name", PERTURBED_ROUTES)
def test_record_fails_when_its_route_is_perturbed(monkeypatch, route, eps, check, name):
    def record():
        return next(r for r in getattr(validation, check)() if r.name == name)

    plain = record()
    assert plain.passed and plain.measured > 0.0
    original = getattr(validation, route)

    def perturbed(*args, **kwargs):
        out = original(*args, **kwargs)
        if hasattr(out, "bound"):
            return out._replace(value=out.value * (1.0 + eps))
        return out * (1.0 + eps)

    monkeypatch.setattr(validation, route, perturbed)
    assert not record().passed


def test_two_cut_record_fails_when_its_interior_links_are_perturbed(monkeypatch):
    # joint_pdf's links between consecutive cuts (_kernel_det at x > 0) reach
    # the two-cut record only through its last-cut marginal
    from lebp import passage_densities

    name = "two-cut two-path joint mass, finite rectangle"
    original = passage_densities._kernel_det

    def perturbed(x, L, start, rho):
        lead, rest = original(x, L, start, rho)
        return lead, (rest * (1.0 + 1e-6) if x > 0.0 else rest)

    monkeypatch.setattr(passage_densities, "_kernel_det", perturbed)
    (record,) = [r for r in validation.check_normalization() if r.name == name]
    assert not record.passed


@pytest.mark.parametrize(
    "key, larger, names",
    [
        ("midpoint_mass", 120, ("midpoint-start density mass, 2 paths",
                                "midpoint-start density mass, 3 paths")),
        ("rectangle_mass", 64, ("two-path density mass, finite rectangle",)),
    ],
)
def test_mass_records_are_converged_at_their_order(monkeypatch, key, larger, names):
    # each mass record reads at rounding level, and where it read at the
    # larger order it used before
    def records():
        return {r.name: r.measured for r in validation.check_normalization() if r.name in names}

    now = records()
    monkeypatch.setitem(validation.QUADRATURE_ORDERS, key, larger)
    before = records()
    for name in names:
        assert now[name] <= 2e-15, name
        assert abs(now[name] - before[name]) <= 4e-15, name
