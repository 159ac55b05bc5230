"""Run one benchmark job in this (fresh) interpreter.

    python3 bench/job.py [--spans FILE --job-id ID] cli <lebp arguments...>
    python3 bench/job.py [--spans FILE --job-id ID] lib <name> [options]

``cli`` calls ``lebp.cli.main`` with the arguments.  ``lib`` calls a
library function that has no subcommand and prints its result as CSV:

* ``discrete-density --starts a,b,c``: the three-path discrete first-passage
  density on a 31-row square strip, cut at column 16; one row per ordered
  row triple;
* ``lerw-weight``: loop-erased weights on the 5-vertex path network
  0-1-2-3-4 (weights 1/2, absorbing ends) for three paths.

With ``--spans`` the public functions of every layer are wrapped first and
the spans are written to FILE when the job ends.  ``lebp`` must be
importable (run.py puts the checkout's ``src`` on PYTHONPATH).
"""

import argparse
import sys

from workloads import DENSITY_CUT, DENSITY_PATHS, DENSITY_STRIP, LERW_MAX_LEN, LERW_PATHS


def _fmt(value):
    return format(float(value), ".17g")


def discrete_density(argv):
    import itertools

    from lebp import lattice_validation as lv

    parser = argparse.ArgumentParser(prog="discrete-density")
    parser.add_argument("--starts", required=True)
    ns = parser.parse_args(argv)
    starts = tuple(int(s) for s in ns.starts.split(","))
    strip = lv.LatticeStrip(DENSITY_STRIP, DENSITY_STRIP)
    dens = lv.discrete_first_passage_density(strip, DENSITY_PATHS, DENSITY_CUT, starts)
    out = [",".join(f"m_{j + 1}" for j in range(DENSITY_PATHS)) + ",value"]
    for combo in itertools.combinations(range(DENSITY_STRIP), DENSITY_PATHS):
        out.append(",".join(str(m + 1) for m in combo) + "," + _fmt(dens[combo]))
    sys.stdout.write("\n".join(out) + "\n")
    return 0


def lerw_weight(argv):
    from lebp import graph_fomin as gf

    argparse.ArgumentParser(prog="lerw-weight").parse_args(argv)
    edges = []
    for a, b in [(0, 1), (1, 2), (2, 3), (3, 4)]:
        edges += [(a, b, 0.5), (b, a, 0.5)]
    net = gf.Network(5, edges, interior=[1, 2, 3], boundary=[0, 4])
    out = ["zeta,value,tail_bound"]
    for zeta in LERW_PATHS:
        value, tail = gf.lerw_weight(net, zeta, LERW_MAX_LEN)
        out.append("-".join(map(str, zeta)) + f",{_fmt(value)},{_fmt(tail)}")
    sys.stdout.write("\n".join(out) + "\n")
    return 0


LIBRARY_JOBS = {"discrete-density": discrete_density, "lerw-weight": lerw_weight}


def run(kind, argv):
    if kind == "cli":
        from lebp import cli

        return cli.main(argv)
    if kind == "lib" and argv and argv[0] in LIBRARY_JOBS:
        return LIBRARY_JOBS[argv[0]](argv[1:])
    raise SystemExit(f"unknown job {kind} {' '.join(argv)}")


def main(argv):
    spans_path = job_id = None
    while argv and argv[0] in ("--spans", "--job-id"):
        if argv[0] == "--spans":
            spans_path = argv[1]
        else:
            job_id = argv[1]
        argv = argv[2:]
    if not argv:
        raise SystemExit(__doc__)
    if spans_path is None:
        return run(argv[0], argv[1:])
    from spans import Recorder

    recorder = Recorder(job_id)
    recorder.install()
    try:
        return run(argv[0], argv[1:])
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
