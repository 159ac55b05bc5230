"""Acceptance battery: every headline check at its stated tolerance.

One test per check; each prints a PASS/FAIL line with the measured
error against its tolerance (run with ``pytest -s`` to see the lines on
passing runs) and then asserts the outcome.
"""

import importlib
import math
import time

import numpy as np
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
    results = validation.run_check(check)
    return results, time.perf_counter() - start


def test_acceptance_01_walk_determinant_vs_enumeration():
    results, elapsed = _timed(validation.check_fomin_identity)
    _report(results, budget=60.0, elapsed=elapsed)


def test_acceptance_02_kernel_composition():
    results = validation.run_check(validation.check_semigroup)
    for r in results:
        status = "PASS" if r.elapsed < 1.0 else "FAIL"
        print(f"{status} {r.name} runtime: {r.elapsed:.3f}s vs budget 1s")
        assert r.elapsed < 1.0
    _report(results)


def test_acceptance_03_crossing_exponent_fit():
    _report(validation.run_check(validation.check_crossing_exponent))


def test_acceptance_04_density_normalizations():
    _report(validation.run_check(validation.check_normalization))


def test_acceptance_05_backward_kernel_dual_form():
    _report(validation.run_check(validation.check_kernel_dual))


def test_acceptance_06_one_point_function_vs_marginal():
    _report(validation.run_check(validation.check_kernel_marginal))


def test_acceptance_07_closed_form_density():
    _report(validation.run_check(validation.check_closed_density))


def test_acceptance_08_figure_shapes():
    _report(validation.run_check(validation.check_figure_shapes))


def test_acceptance_09_many_path_flatness():
    # the 200-path density against its closed form, relative to the value
    name = "200-path arc density vs closed form (relative)"
    (record,) = [r for r in validation.run_check(validation.check_closed_density) if r.name == name]
    _report([record])


def test_acceptance_10_edge_scaling_limit():
    _report(validation.run_check(validation.check_scaling_limit))


def test_acceptance_11_lattice_refinement():
    _report(validation.run_check(validation.check_lattice_refinement))


def test_acceptance_12_conformal_covariance():
    _report(validation.run_check(validation.check_conformal))


# the records that no scaling of their route fails yet: the crossing fits,
# the lattice refinements and the 500-path kernel wait on extrapolated
# tolerances (ROADMAP item 9), the ridge and peak counts on a stated shape
# mutation (ROADMAP item 11)
UNMUTATED = (
    "crossing exponent fit, 2 paths",
    "crossing exponent fit, 3 paths",
    "boundary kernel error falls at every refinement",
    "two-path density error falls at every refinement",
    "500-path kernel vs limit kernel",
    "three-path density ridge count",
    "five-path two-point repulsion peak count",
)

MUTATIONS = [r for r in validation.RECORDS if r.eps is not None]


def _route(record):
    home, attr = record.route.split(".")
    return importlib.import_module(f"lebp.{home}"), attr


def test_every_record_has_a_mutation_or_waits_for_one():
    names = [r.name for r in validation.RECORDS]
    assert len(names) == len(set(names))
    assert sorted([r.name for r in MUTATIONS] + list(UNMUTATED)) == sorted(names)
    for record in validation.RECORDS:
        module, attr = _route(record)
        assert callable(getattr(module, attr)), record.route


@pytest.mark.parametrize("record", MUTATIONS, ids=lambda r: r.name)
def test_record_fails_when_its_route_is_perturbed(monkeypatch, record):
    # scaling the route's value by 1 + eps, in its module and where
    # validation binds it, fails the record, which passes as it is
    def result():
        return next(r for r in validation.run_check(record.check) if r.name == record.name)

    assert result().passed
    module, attr = _route(record)
    original = getattr(module, attr)

    def perturbed(*args, **kwargs):
        out = original(*args, **kwargs)
        if not isinstance(out, tuple):
            return out * (1.0 + record.eps)
        # a (value, bound) pair, named (TailBoundedValue) or not
        scaled = (out[0] * (1.0 + record.eps), *out[1:])
        return out._make(scaled) if hasattr(out, "_make") else scaled

    for namespace in (module, validation):
        if getattr(namespace, attr, None) is original:
            monkeypatch.setattr(namespace, attr, perturbed)
    assert not result().passed


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
    (record,) = [r for r in validation.run_check(validation.check_normalization) if r.name == name]
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
        return {
            r.name: r.measured
            for r in validation.run_check(validation.check_normalization)
            if r.name in names
        }

    now = records()
    monkeypatch.setitem(validation.QUADRATURE_ORDERS, key, larger)
    before = records()
    for name in names:
        assert now[name] <= 2e-15, name
        assert abs(now[name] - before[name]) <= 4e-15, name


def test_samples_follow_the_stated_rule():
    # the R_d points each sampled check maps onto its stated ranges; the
    # first point's t_1 is 1/g - 1/2, with g^(d+1) = g + 1
    for d in (3, 4, 5, 6):
        g = 1.0 / (next(validation._rd_points(d))[0] + 0.5)
        assert g ** (d + 1) == pytest.approx(g + 1.0, rel=1e-14)

    def angles(pad, *values):
        return all(pad < v < math.pi - pad for v in values)

    semigroup = list(validation._semigroup_sample())
    assert len(semigroup) == 10
    for length, x_mid, x, *rest in semigroup:
        assert 1.5 < length < 3.0 and 0.4 < x_mid < length - 0.4 and 0.1 < x < x_mid - 0.1
        assert angles(0.1, *rest)
    dual = list(validation._kernel_dual_sample())
    assert len(dual) == 20 and sorted({p[0] for p in dual}) == [1, 2, 3, 4, 5]
    for _, x, th, x_prime, tp in dual:
        assert 0.2 < x_prime < 2.0 and 0.1 < x - x_prime < 1.5 and angles(0.05, th, tp)
    scaling = validation._scaling_sample()
    assert len(scaling) == 10 and any(u > up for u, _, up, _ in scaling)
    for u, a, up, ap in scaling:
        assert -2.0 < min(u, up) and max(u, up) < 3.0 and abs(u - up) >= 0.05
        assert 0.0 < min(a, ap) and max(a, ap) < 5.0
    conformal = list(validation._conformal_sample())
    assert len(conformal) == 50
    for x, th, phi in conformal:
        assert 0.05 < x < 2.0 and angles(0.05, th, phi)
