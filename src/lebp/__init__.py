"""Nonintersecting loop-erased paths and their determinantal statistics.

Subpackages cover the discrete side (walk matrices on weighted networks and
their Fomin determinants), the continuum side (Poisson kernels of a rectangle,
first-passage densities for families of paths, determinantal correlation
kernels in a strip and a half-disk), and a lattice-refinement bridge between
the two.

``import lebp`` loads none of them: a public name imports its submodule on
first use (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "errors": ("DomainError", "EnumerationBudgetError", "PrecisionError", "TruncationError"),
    "correlation": (
        "corr_strip", "density_semicircle", "kernel_semicircle", "kernel_strip",
        "kernel_strip_dual", "limit_kernel", "two_point_semicircle",
    ),
    "graph_fomin": (
        "BoundaryTuple", "Network", "brute_force_fomin", "fomin_det", "lerw_weight",
        "load_network", "save_network", "square_grid_network", "walk_green",
    ),
    "lattice_validation": (
        "LatticeStrip", "boundary_refinement", "density_refinement",
        "discrete_first_passage_density", "exit_right",
        "first_passage_decomposition",
    ),
    "numerics": (
        "QuadratureRule", "TailBoundedValue", "chamber_integrate", "det_lu", "det_lu_bounded",
        "gauss_legendre", "ordered_minor_sum", "sinh_ratio",
    ),
    "passage_densities": (
        "ChamberSequence", "joint_pdf", "norm_boundary", "norm_inner",
        "ordered_sine_det_integral",
    ),
    "rect_kernels": (
        "RectConfig", "boundary_poisson_rect", "crossing_decay_rate", "crossing_ratio",
        "fomin_boundary_det", "fomin_inner_det", "hat_h", "poisson_rect", "weyl_point",
    ),
    "validation": ("CheckResult", "run_suite", "suite_report"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
