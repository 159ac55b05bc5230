"""Command-line front end.

Evaluates the kernels and densities on grids, fits the crossing exponent,
checks the walk determinant against enumeration, runs the lattice
refinement table, emits the data sets behind the figures, and drives the
validation suites.

Conventions
-----------
* Output is RFC-4180 CSV with a mandatory header row; floats are printed
  with 17 significant digits so they round-trip exactly.  ``validate``
  emits a JSON report instead.
* Angle-valued flags accept rational multiples of pi ("pi/2", "3pi/4",
  "2*pi/3") as well as plain decimals; grid-valued flags accept either a
  single literal or "start:stop:count".
* Every CSV row whose value came from a truncated series carries a
  ``tail_bound`` column with the certified truncation bound; closed-form
  rows either omit the column or report 0.
* Runs are deterministic.  ``--save-manifest FILE`` records the
  subcommand, raw parameters, series policy, quadrature orders, output
  path and tool version; ``lebp --manifest FILE`` replays the record and
  reproduces the output byte for byte.
* Grids are evaluated one broadcast library call per cut pair (x, x')
  or radius pair (r, r') over the whole angle grid; every row prints
  exactly what the per-point library call returns.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import re
import sys

import numpy as np

from . import __version__
from .correlation import (
    density_semicircle,
    kernel_semicircle,
    kernel_strip,
    pdf_special_start,
    joint_pdf_special_start,
    two_point_semicircle,
)
from .errors import DomainError, EnumerationBudgetError, PrecisionError, TruncationError
from .graph_fomin import brute_force_fomin, fomin_det, square_grid_network
from .lattice_validation import boundary_refinement, density_refinement
from .numerics import SeriesPolicy
from .passage_densities import (
    ChamberSequence,
    joint_pdf,
    pdf_first_passage,
    pdf_first_passage_finite,
)
from .rect_kernels import (
    RectConfig,
    boundary_poisson_rect,
    crossing_decay_rate,
    fomin_expansion,
)
from .validation import SUITES, suite_report


class UsageError(Exception):
    """A flag combination violates a precondition; the message names it."""


# --- literal parsing --------------------------------------------------------------

_PI_LITERAL = re.compile(
    r"(-?)(\d+(?:\.\d+)?)?\s*\*?\s*pi(?:\s*/\s*(\d+(?:\.\d+)?))?", re.IGNORECASE
)


def parse_pi_literal(text):
    """Parse a number that may be a rational multiple of pi.

    Accepts "pi", "pi/2", "3pi/4", "2*pi/3", "-pi/6" and plain decimals;
    the multiple is applied to math.pi in one rounding step.
    """
    s = str(text).strip()
    m = _PI_LITERAL.fullmatch(s)
    if m:
        sign = -1.0 if m.group(1) else 1.0
        num = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        return sign * num * math.pi / den
    try:
        return float(s)
    except ValueError:
        raise UsageError(
            f"{text!r} is not a number or a rational multiple of pi (like pi/2)"
        ) from None


def parse_grid(text, flag):
    """Parse a grid flag: one literal or 'start:stop:count'."""
    parts = str(text).split(":")
    if len(parts) == 1:
        return np.array([parse_pi_literal(parts[0])])
    if len(parts) == 3:
        try:
            count = int(parts[2])
        except ValueError:
            raise UsageError(f"{flag}: grid count {parts[2]!r} must be an integer") from None
        if count < 1:
            raise UsageError(f"{flag}: grid count must be at least 1")
        return np.linspace(parse_pi_literal(parts[0]), parse_pi_literal(parts[1]), count)
    raise UsageError(f"{flag}: expected a single value or start:stop:count, got {text!r}")


def parse_tuple(text, flag):
    """Parse a comma-separated tuple of pi literals."""
    items = [p for p in str(text).split(",") if p.strip()]
    if not items:
        raise UsageError(f"{flag}: expected a comma-separated tuple of values")
    return tuple(parse_pi_literal(p) for p in items)


def _parse_int(text, flag, minimum=1):
    try:
        value = int(str(text))
    except ValueError:
        raise UsageError(f"{flag}: expected an integer, got {text!r}") from None
    if value < minimum:
        raise UsageError(f"{flag}: must be at least {minimum}")
    return value


# --- output plumbing ---------------------------------------------------------------


def _fmt(value):
    return format(float(value), ".17g")


def _write_csv(stream, header, rows):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)


def _policy_from(ns):
    try:
        return SeriesPolicy(
            tol=float(ns.tol), n_max=_parse_int(ns.n_max, "--n-max"), min_gap=float(ns.min_gap)
        )
    except ValueError as exc:
        raise UsageError(f"series policy: {exc}") from None


# --- subcommand handlers -------------------------------------------------------------


def _pair_grid_rows(first, theta, second, theta_p, evaluate):
    """CSV rows over first x theta x second x theta_p, in that order.

    evaluate(u, v) returns the TailBoundedValue of one (first, second)
    pair on the theta x theta_p grid, from one broadcast call.
    """
    shape = (len(first), len(second), len(theta), len(theta_p))
    value, bound = np.empty(shape), np.empty(shape)
    for i, u in enumerate(first):
        for k, v in enumerate(second):
            value[i, k], bound[i, k] = evaluate(float(u), float(v))
    cells = zip(
        map(_fmt, value.transpose(0, 2, 1, 3).ravel().tolist()),
        map(_fmt, bound.transpose(0, 2, 1, 3).ravel().tolist()),
    )
    coords = itertools.product(*([_fmt(t) for t in g] for g in (first, theta, second, theta_p)))
    return [[*c, v, b] for c, (v, b) in zip(coords, cells)]


def _cmd_kernel(ns, stream):
    pol = _policy_from(ns)
    n_paths = _parse_int(ns.N, "--N")
    if ns.domain == "strip":
        names, kernel = ("x", "theta", "xp", "thetap"), kernel_strip
    else:
        names, kernel = ("r", "theta", "rp", "thetap"), kernel_semicircle
    missing = [f for f in names if getattr(ns, f) is None]
    if missing:
        raise UsageError(f"{ns.domain} kernel needs --" + ", --".join(missing))
    first, theta, second, theta_p = (parse_grid(getattr(ns, f), "--" + f) for f in names)
    rows = _pair_grid_rows(
        first,
        theta,
        second,
        theta_p,
        lambda u, v: kernel(pol, n_paths, u, theta[:, None], v, theta_p[None, :]),
    )
    _write_csv(stream, [*names, "value", "tail_bound"], rows)
    return 0


def _cmd_density(ns, stream):
    n_paths = _parse_int(ns.N, "--N")
    radii = parse_grid(ns.r, "--r")
    thetas = parse_grid(ns.theta, "--theta")
    rows = []
    for r in radii:
        values = density_semicircle(n_paths, float(r), thetas)
        values = np.atleast_1d(values)
        for th, v in zip(thetas, values):
            rows.append([_fmt(r), _fmt(th), _fmt(v)])
    _write_csv(stream, ["r", "theta", "value"], rows)
    return 0


def _cmd_two_point(ns, stream):
    pol = _policy_from(ns)
    n_paths = _parse_int(ns.N, "--N")
    radii = parse_grid(ns.r, "--r")
    theta = parse_grid(ns.theta, "--theta")
    radii_p = parse_grid(ns.rp, "--rp")
    theta_p = parse_grid(ns.thetap, "--thetap")
    rows = _pair_grid_rows(
        radii,
        theta,
        radii_p,
        theta_p,
        lambda r, rp: two_point_semicircle(pol, n_paths, r, theta[:, None], rp, theta_p[None, :]),
    )
    _write_csv(stream, ["r", "theta", "rp", "thetap", "value", "tail_bound"], rows)
    return 0


def _cmd_pdf(ns, stream):
    theta = parse_tuple(ns.theta, "--theta")
    if ns.phi is None:
        if ns.L is not None:
            raise UsageError("the midpoint start lives in the infinite strip; drop --L")
        x = parse_pi_literal(ns.x) if ns.x is not None else 1.0
        value = pdf_special_start(x, theta)
        header = [f"theta_{j + 1}" for j in range(len(theta))] + ["value"]
        _write_csv(stream, header, [[*map(_fmt, theta), _fmt(value)]])
        return 0
    pol = _policy_from(ns)
    phi = parse_tuple(ns.phi, "--phi")
    if ns.x is None:
        raise UsageError("--x (the cut position) is required with --phi")
    x = parse_pi_literal(ns.x)
    header = ["x"]
    header += [f"theta_{j + 1}" for j in range(len(theta))]
    header += [f"phi_{j + 1}" for j in range(len(phi))]
    if ns.L is not None:
        length = parse_pi_literal(ns.L)
        value = pdf_first_passage_finite(RectConfig(length), pol, x, theta, phi)
        header += ["length", "value"]
        row = [_fmt(x), *map(_fmt, theta), *map(_fmt, phi), _fmt(length), _fmt(value)]
    else:
        value = pdf_first_passage(pol, x, theta, phi)
        header += ["value"]
        row = [_fmt(x), *map(_fmt, theta), *map(_fmt, phi), _fmt(value)]
    _write_csv(stream, header, [row])
    return 0


def _cmd_joint_pdf(ns, stream):
    pol = _policy_from(ns)
    cuts = parse_tuple(ns.cuts, "--cuts")
    groups = [g for g in str(ns.theta).split("/") if g.strip()]
    if len(groups) != len(cuts):
        raise UsageError(
            "--theta needs one comma-tuple per cut, separated by '/'"
            f" ({len(cuts)} cuts, {len(groups)} tuples given)"
        )
    thetas = [parse_tuple(g, "--theta") for g in groups]
    header = [f"cut_{m + 1}" for m in range(len(cuts))]
    for m, t in enumerate(thetas):
        header += [f"theta_{m + 1}_{j + 1}" for j in range(len(t))]
    row = [*map(_fmt, cuts)]
    for t in thetas:
        row += [*map(_fmt, t)]
    if ns.phi is None:
        if ns.L is not None:
            raise UsageError("the midpoint start lives in the infinite strip; drop --L")
        seq = ChamberSequence(cuts)
        value = joint_pdf_special_start(pol, seq, thetas)
    else:
        phi = parse_tuple(ns.phi, "--phi")
        header += [f"phi_{j + 1}" for j in range(len(phi))]
        row += [*map(_fmt, phi)]
        if ns.L is not None:
            length = parse_pi_literal(ns.L)
            seq = ChamberSequence(cuts, L=length)
            value = joint_pdf(RectConfig(length), pol, seq, thetas, phi)
            header += ["length"]
            row += [_fmt(length)]
        else:
            seq = ChamberSequence(cuts)
            value = joint_pdf(None, pol, seq, thetas, phi)
    header += ["value"]
    row += [_fmt(value)]
    _write_csv(stream, header, [row])
    return 0


def _cmd_fomin_check(ns, stream):
    size = _parse_int(ns.size, "--size")
    n_paths = _parse_int(ns.paths, "--paths")
    max_len = _parse_int(ns.max_len, "--max-len")
    if n_paths > size:
        raise UsageError("--paths cannot exceed --size (one edge row per path)")
    net, id_of = square_grid_network(size, size)
    picks = sorted({int(round(v)) for v in np.linspace(0, size - 1, n_paths)})
    if len(picks) != n_paths:
        raise UsageError("--paths too large for distinct edge rows at this --size")
    a = tuple(id_of[(i, -1)] for i in picks)
    b = tuple(id_of[(i, size)] for i in picks)
    det = fomin_det(net, (a, b))
    brute, bound = brute_force_fomin(net, (a, b), max_len)
    diff = abs(det - brute)
    _write_csv(
        stream,
        [
            "size",
            "paths",
            "max_len",
            "determinant",
            "enumeration",
            "tail_bound",
            "abs_diff",
            "within_bound",
        ],
        [
            [
                str(size),
                str(n_paths),
                str(max_len),
                _fmt(det),
                _fmt(brute),
                _fmt(bound),
                _fmt(diff),
                "1" if diff <= bound else "0",
            ]
        ],
    )
    return 0 if diff <= bound else 1


_CROSSING_DEFAULTS = {
    2: ((1.0, 2.0), (1.2, 1.9)),
    3: ((0.8, 1.6, 2.4), (0.9, 1.7, 2.5)),
}


def _cmd_crossing(ns, stream):
    pol = _policy_from(ns)
    n_paths = _parse_int(ns.paths, "--paths")
    if ns.phi is None or ns.rho is None:
        if n_paths not in _CROSSING_DEFAULTS:
            raise UsageError(
                "built-in start/end angles exist only for --paths 2 or 3;"
                " give --phi and --rho explicitly"
            )
        phi, rho = _CROSSING_DEFAULTS[n_paths]
    else:
        phi = parse_tuple(ns.phi, "--phi")
        rho = parse_tuple(ns.rho, "--rho")
    if len(phi) != n_paths or len(rho) != n_paths:
        raise UsageError("--phi and --rho must each list one angle per path")
    lengths = parse_tuple(ns.lengths, "--lengths")
    if len(lengths) < 2:
        raise UsageError("--lengths needs at least two rectangle lengths to fit a slope")
    cap = _parse_int(ns.cap, "--cap")
    ratios = []
    for length in lengths:
        cfg = RectConfig(float(length))
        ratio = fomin_expansion(cfg, phi, rho, cap).value
        for p, r in zip(phi, rho):
            ratio /= boundary_poisson_rect(cfg, pol, p, r).value
        ratios.append(ratio)
    logs = np.log(np.array(ratios))
    slope = -float(np.polyfit(np.array(lengths), logs, 1)[0])
    target = float(crossing_decay_rate(n_paths))
    rel = abs(slope - target) / target
    rows = [
        [
            _fmt(length),
            _fmt(ratio),
            _fmt(math.log(ratio)),
            _fmt(slope),
            _fmt(target),
            _fmt(rel),
        ]
        for length, ratio in zip(lengths, ratios)
    ]
    _write_csv(
        stream,
        ["length", "ratio", "log_ratio", "fitted_exponent", "expected_exponent", "relative_error"],
        rows,
    )
    return 0


def _cmd_lattice_validate(ns, stream):
    pol = _policy_from(ns)
    levels = tuple(_parse_int(v, "--levels") for v in str(ns.levels).split(","))
    rows = []
    boundary = boundary_refinement(pol, levels=levels)
    errs = [max(e) for _, e in boundary]
    for i, ((h, _), err) in enumerate(zip(boundary, errs)):
        ratio = "" if i == 0 else _fmt(err / errs[i - 1])
        rows.append(["boundary_kernel", _fmt(h), _fmt(err), ratio])
    density = density_refinement(pol, levels=levels)
    errs = [e for _, e in density]
    for i, ((h, _), err) in enumerate(zip(density, errs)):
        ratio = "" if i == 0 else _fmt(err / errs[i - 1])
        rows.append(["two_path_density", _fmt(h), _fmt(err), ratio])
    _write_csv(stream, ["quantity", "h", "error", "ratio"], rows)
    return 0


def _cmd_figure(ns, stream):
    pol = _policy_from(ns)
    fig = str(ns.id)
    if fig == "7":
        radii = np.linspace(1.05, 3.0, 40)
        thetas = np.linspace(0.0, math.pi, 181)
        rows = []
        for r in radii:
            values = density_semicircle(3, float(r), thetas)
            for th, v in zip(thetas, values):
                rows.append(
                    [_fmt(r * math.cos(th)), _fmt(r * math.sin(th)), _fmt(v)]
                )
        _write_csv(stream, ["x", "y", "value"], rows)
        return 0
    if fig in ("8", "9"):
        n_paths = 5 if fig == "8" else 20
        thetas = np.linspace(0.0, math.pi, 2001)
        values = two_point_semicircle(pol, n_paths, 4.0, math.pi / 2, 4.0, thetas).value
        rows = [[_fmt(th), _fmt(v)] for th, v in zip(thetas, values)]
        _write_csv(stream, ["theta_prime", "value"], rows)
        return 0
    if fig == "10":
        r0, th0 = 2.0, math.pi / 2
        radii = np.linspace(1.05, 4.0, 60)
        # radii indistinguishable from the probe radius within the policy
        # gap snap onto it, where the closed equal-radius form applies
        radii = np.where(np.abs(np.log(radii / r0)) < pol.min_gap, r0, radii)
        thetas = np.linspace(0.0, math.pi, 121)
        rows = []
        for r in radii.tolist():
            g2 = two_point_semicircle(pol, 3, r0, th0, r, thetas)
            bounds = np.broadcast_to(g2.bound, thetas.shape)
            for th, v, bound in zip(thetas.tolist(), g2.value.tolist(), bounds.tolist()):
                rows.append(
                    [_fmt(r * math.cos(th)), _fmt(r * math.sin(th)), _fmt(v), _fmt(bound)]
                )
        _write_csv(stream, ["x_prime", "y_prime", "value", "tail_bound"], rows)
        return 0
    raise UsageError("--id must be one of 7, 8, 9, 10")


def _cmd_validate(ns, stream):
    pol = _policy_from(ns)
    names = sorted(SUITES) if ns.suite == "all" else [ns.suite]
    reports = [suite_report(name, pol) for name in names]
    passed = all(r["passed"] for r in reports)
    payload = reports[0] if len(reports) == 1 else {"passed": passed, "suites": reports}
    stream.write(json.dumps(payload, indent=2))
    stream.write("\n")
    return 0 if passed else 1


# --- parser / manifest ---------------------------------------------------------------

_HANDLERS = {
    "kernel": _cmd_kernel,
    "density": _cmd_density,
    "two-point": _cmd_two_point,
    "pdf": _cmd_pdf,
    "joint-pdf": _cmd_joint_pdf,
    "fomin-check": _cmd_fomin_check,
    "crossing-exponent": _cmd_crossing,
    "lattice-validate": _cmd_lattice_validate,
    "figure": _cmd_figure,
    "validate": _cmd_validate,
}

# orders of the fixed quadrature rules each subcommand relies on (recorded
# in manifests; everything else is series evaluation with explicit bounds)
_ORDERS = {
    "validate": {
        "composition": 200,
        "marginal": 200,
        "rectangle_mass": 64,
        "midpoint_mass": 120,
        "joint_mass": 48,
    }
}

_POLICY_COMMANDS = {
    "kernel",
    "two-point",
    "pdf",
    "joint-pdf",
    "crossing-exponent",
    "lattice-validate",
    "figure",
    "validate",
}


def _add_common(parser, policy):
    if policy:
        parser.add_argument("--tol", default="1e-12", help="series truncation target")
        parser.add_argument("--n-max", dest="n_max", default="100000", help="series term cap")
        parser.add_argument(
            "--min-gap", dest="min_gap", default="1e-3", help="smallest certified series gap"
        )
    parser.add_argument("--output", default=None, help="CSV/JSON file (default: stdout)")
    parser.add_argument(
        "--save-manifest", dest="save_manifest", default=None, help="record the run as JSON"
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lebp",
        description="Nonintersecting loop-erased paths: kernels, densities, validation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("kernel", help="correlation kernel on a parameter grid")
    p.add_argument("--domain", choices=("strip", "semicircle"), required=True)
    p.add_argument("--N", required=True, help="number of paths")
    p.add_argument("--x", default=None, help="strip cut (grid)")
    p.add_argument("--xp", default=None, help="strip second cut (grid)")
    p.add_argument("--r", default=None, help="semicircle radius (grid)")
    p.add_argument("--rp", default=None, help="semicircle second radius (grid)")
    p.add_argument("--theta", required=True, help="first angle (grid)")
    p.add_argument("--thetap", required=True, help="second angle (grid)")
    _add_common(p, policy=True)

    p = sub.add_parser("density", help="closed-form arc density on a grid")
    p.add_argument("--N", required=True, help="number of paths")
    p.add_argument("--r", required=True, help="radius (grid)")
    p.add_argument("--theta", required=True, help="angle (grid)")
    _add_common(p, policy=False)

    p = sub.add_parser("two-point", help="two-point correlation on a grid")
    p.add_argument("--N", required=True, help="number of paths")
    p.add_argument("--r", required=True, help="first radius (grid)")
    p.add_argument("--theta", required=True, help="first angle (grid)")
    p.add_argument("--rp", required=True, help="second radius (grid)")
    p.add_argument("--thetap", required=True, help="second angle (grid)")
    _add_common(p, policy=True)

    p = sub.add_parser("pdf", help="first-passage density at one cut")
    p.add_argument("--x", default=None, help="cut position")
    p.add_argument("--theta", required=True, help="comma tuple of passage angles")
    p.add_argument("--phi", default=None, help="comma tuple of start angles (default: midpoint start)")
    p.add_argument("--L", default=None, help="rectangle length (default: infinite strip)")
    _add_common(p, policy=True)

    p = sub.add_parser("joint-pdf", help="joint passage density across several cuts")
    p.add_argument("--cuts", required=True, help="comma tuple of cut positions")
    p.add_argument("--theta", required=True, help="angle tuples, one per cut, '/'-separated")
    p.add_argument("--phi", default=None, help="comma tuple of start angles (default: midpoint start)")
    p.add_argument("--L", default=None, help="rectangle length (default: infinite strip)")
    _add_common(p, policy=True)

    p = sub.add_parser("fomin-check", help="walk determinant vs brute-force enumeration")
    p.add_argument("--size", default="3", help="interior grid size")
    p.add_argument("--paths", default="2", help="number of paths")
    p.add_argument("--max-len", dest="max_len", default="14", help="enumeration length cap")
    _add_common(p, policy=False)

    p = sub.add_parser("crossing-exponent", help="fit the nonintersection decay exponent")
    p.add_argument("--paths", default="2", help="number of paths")
    p.add_argument("--lengths", default="6,8,10,12", help="comma tuple of rectangle lengths")
    p.add_argument("--phi", default=None, help="comma tuple of start angles")
    p.add_argument("--rho", default=None, help="comma tuple of end angles")
    p.add_argument("--cap", default="8", help="partition expansion cap")
    _add_common(p, policy=True)

    p = sub.add_parser("lattice-validate", help="random-walk refinement table")
    p.add_argument("--levels", default="15,31,63", help="comma tuple of strip heights")
    _add_common(p, policy=True)

    p = sub.add_parser("figure", help="emit the data set behind one figure")
    p.add_argument("--id", required=True, choices=("7", "8", "9", "10"))
    _add_common(p, policy=True)

    p = sub.add_parser("validate", help="run a validation suite")
    p.add_argument(
        "--suite",
        required=True,
        choices=tuple(sorted(SUITES)) + ("all",),
    )
    _add_common(p, policy=True)

    return parser


def _manifest_payload(ns):
    skip = {"subcommand", "output", "save_manifest"}
    arguments = {}
    for key, value in sorted(vars(ns).items()):
        if key in skip or value is None:
            continue
        arguments[key] = str(value)
    payload = {
        "tool": "lebp",
        "version": __version__,
        "subcommand": ns.subcommand,
        "arguments": arguments,
        "orders": _ORDERS.get(ns.subcommand, {}),
        "output": ns.output,
    }
    if ns.subcommand in _POLICY_COMMANDS:
        pol = _policy_from(ns)
        payload["policy"] = {"tol": pol.tol, "n_max": pol.n_max, "min_gap": pol.min_gap}
    else:
        payload["policy"] = None
    return payload


def _argv_from_manifest(payload, output_override=None):
    sub_name = payload.get("subcommand")
    if sub_name not in _HANDLERS:
        raise UsageError(f"manifest names unknown subcommand {sub_name!r}")
    argv = [sub_name]
    for key, value in payload.get("arguments", {}).items():
        argv += ["--" + key.replace("_", "-") if len(key) > 1 else "--" + key, str(value)]
    output = output_override if output_override is not None else payload.get("output")
    if output:
        argv += ["--output", output]
    return argv


def _replay(manifest_path, output_override):
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read manifest: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"manifest is not valid JSON: {exc}") from None
    return main(_argv_from_manifest(payload, output_override))


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        if argv and argv[0] == "--manifest":
            replay = argparse.ArgumentParser(prog="lebp --manifest")
            replay.add_argument("manifest")
            replay.add_argument("--output", default=None)
            rns = replay.parse_args(argv[1:])
            return _replay(rns.manifest, rns.output)
        ns = build_parser().parse_args(argv)
        handler = _HANDLERS[ns.subcommand]
        if ns.output is None:
            code = handler(ns, sys.stdout)
        else:
            buffer = io.StringIO()
            code = handler(ns, buffer)
            with open(ns.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(buffer.getvalue())
        if ns.save_manifest is not None:
            with open(ns.save_manifest, "w", encoding="utf-8") as fh:
                json.dump(_manifest_payload(ns), fh, indent=2)
                fh.write("\n")
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, PrecisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TruncationError as exc:
        print(f"error: {exc} (best certified bound: {exc.achieved})", file=sys.stderr)
        return 2
    except EnumerationBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
