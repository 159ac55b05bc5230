"""Seeded job lists for the three benchmark workloads.

A job is one fresh interpreter: either a ``lebp`` command line (run through
``lebp.cli.main``) or a library call made by the benchmark's own code in
``job.py``.  The seed moves only angles and start rows.  Cut positions,
radii, rectangle lengths, path counts, grid counts and ``max_len`` are
fixed, because they set series lengths and enumeration sizes, so the cost
and the row count of every job are the same for every seed.

Print the argv of every job of a workload, to replay a run by hand::

    python3 bench/workloads.py --workload grid_scan --seed 7
"""

import argparse
import math
import random
from dataclasses import dataclass

WORKLOADS = ("grid_scan", "chamber_norms", "discrete_checks")

# fixed shape of the discrete density job: strip rows/columns, cut column
DENSITY_STRIP = 31
DENSITY_CUT = 16
DENSITY_PATHS = 3
# fixed shape of the loop-erased weight job (5-vertex path network)
LERW_MAX_LEN = 34
LERW_PATHS = ((1, 0), (2, 1, 0), (0,))


@dataclass(frozen=True)
class Job:
    """One job: its runner kind ("cli" or "lib"), argv, and expected
    output shape.  ``check`` names the output checker in checks.py."""

    name: str
    kind: str
    argv: tuple
    rows: int
    check: str

    def command(self):
        """The job as one line, as printed for replay."""
        return f"{self.kind} " + " ".join(self.argv)


def _fmt(value):
    return f"{value:.6f}"


def _span(rng, lo, hi, count):
    """A 'start:stop:count' angle grid with seeded endpoints."""
    return f"{_fmt(rng.uniform(*lo))}:{_fmt(rng.uniform(*hi))}:{count}"


def _ordered(rng, n, lo=0.15, hi=math.pi - 0.15):
    """n strictly increasing angles in (lo, hi), one per equal bin, kept a
    fifth of a bin away from the bin edges so neighbours never coincide."""
    width = (hi - lo) / n
    return [lo + width * (j + rng.uniform(0.2, 0.8)) for j in range(n)]


def _tuple(values):
    return ",".join(_fmt(v) for v in values)


def _grid_scan(rng):
    lo, hi = (0.05, 0.6), (2.5, 3.1)
    return [
        # 25 x 20 x 5 x 16 points; x runs on both sides of every x', so the
        # finite x <= x' branch and the tail x > x' branch are both exercised
        Job("kernel_strip", "cli", (
            "kernel", "--domain", "strip", "--N", "4",
            "--x", "0.2:2.6:25", "--theta", _span(rng, lo, hi, 20),
            "--xp", "0.5:2.5:5", "--thetap", _span(rng, lo, hi, 16),
        ), 25 * 20 * 5 * 16, "kernel_strip"),
        Job("kernel_semicircle", "cli", (
            "kernel", "--domain", "semicircle", "--N", "3",
            "--r", "1.2:4:15", "--theta", _fmt(rng.uniform(0.3, 2.8)),
            "--rp", "2", "--thetap", _span(rng, (0.0, 0.3), (2.85, 3.1), 91),
        ), 15 * 91, "kernel_semicircle"),
        Job("two_point", "cli", (
            "two-point", "--N", "4",
            "--r", "1.5", "--theta", _span(rng, lo, hi, 21),
            "--rp", "3", "--thetap", _span(rng, lo, hi, 301),
        ), 21 * 301, "two_point"),
        Job("density", "cli", (
            "density", "--N", "5", "--r", "1.1:5:50", "--theta", _span(rng, lo, hi, 721),
        ), 50 * 721, "density"),
        Job("figure_7", "cli", ("figure", "--id", "7"), 40 * 181, "figure_7"),
        Job("figure_9", "cli", ("figure", "--id", "9"), 2001, "figure_9"),
        Job("figure_10", "cli", ("figure", "--id", "10"), 60 * 121, "figure_10"),
    ]


def _chamber_norms(rng):
    def pdf(n, x, length):
        return (
            "pdf", "--x", x, "--theta", _tuple(_ordered(rng, n)),
            "--phi", _tuple(_ordered(rng, n)), "--L", length,
        )

    def joint(n, cuts):
        thetas = "/".join(_tuple(_ordered(rng, n)) for _ in cuts.split(","))
        return (
            "joint-pdf", "--cuts", cuts, "--theta", thetas,
            "--phi", _tuple(_ordered(rng, n)), "--L", "2",
        )

    return [
        Job("pdf_4paths", "cli", pdf(4, "0.9", "2.5"), 1, "positive"),
        Job("pdf_3paths", "cli", pdf(3, "0.8", "1.6"), 1, "positive"),
        Job("joint_3paths_2cuts", "cli", joint(3, "0.5,1.2"), 1, "positive"),
        Job("joint_2paths_3cuts", "cli", joint(2, "0.4,0.9,1.4"), 1, "positive"),
        Job("crossing_exponent", "cli", (
            "crossing-exponent", "--paths", "3", "--cap", "12",
            "--phi", _tuple(_ordered(rng, 3)), "--rho", _tuple(_ordered(rng, 3)),
        ), 4, "crossing"),
    ]


def _discrete_checks(rng):
    starts = sorted(rng.sample(range(1, DENSITY_STRIP + 1), DENSITY_PATHS))
    return [
        Job("lattice_validate", "cli", ("lattice-validate", "--levels", "15,31,63"),
            6, "lattice"),
        Job("fomin_3x3", "cli",
            ("fomin-check", "--size", "3", "--paths", "2", "--max-len", "15"),
            1, "fomin"),
        Job("fomin_4x4", "cli",
            ("fomin-check", "--size", "4", "--paths", "3", "--max-len", "12"),
            1, "fomin"),
        Job("validate_all", "cli", ("validate", "--suite", "all"), 22, "validate"),
        Job("discrete_density", "lib",
            ("discrete-density", "--starts", ",".join(map(str, starts))),
            math.comb(DENSITY_STRIP, DENSITY_PATHS), "discrete_density"),
        Job("lerw_weight", "lib", ("lerw-weight",), len(LERW_PATHS), "lerw"),
    ]


_JOB_LISTS = {
    "grid_scan": _grid_scan,
    "chamber_norms": _chamber_norms,
    "discrete_checks": _discrete_checks,
}


def jobs(workload, seed):
    """The job list of `workload` at `seed`; equal seeds give equal lists."""
    if workload not in _JOB_LISTS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _JOB_LISTS[workload](random.Random(f"{workload}:{seed}"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    ns = parser.parse_args()
    for job in jobs(ns.workload, ns.seed):
        print(job.command())


if __name__ == "__main__":
    main()
