"""Command-line front end.

Evaluates the kernels and densities on grids, fits the crossing exponent,
checks the walk determinant against enumeration, runs the lattice
refinement table, emits the data sets behind the figures, and drives the
validation suites.

Conventions
-----------
* Output is CSV with a mandatory header row; floats are printed with 17
  significant digits so they round-trip exactly.  Handlers return
  columns and one writer formats every CSV; no field holds a comma, a
  quote or a newline, so none needs quoting.  ``validate`` emits a JSON
  report instead.
* Angle-valued flags accept rational multiples of pi ("pi/2", "3pi/4",
  "2*pi/3") as well as plain decimals; grid-valued flags accept either a
  single literal or "start:stop:count".  A literal with a zero
  denominator or a non-finite value (inf, nan), or a grid that
  overflows, exits 2.
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
    joint_pdf_special_start,
    kernel_semicircle,
    kernel_strip,
    two_point_semicircle,
)
from .errors import DomainError, EnumerationBudgetError, PrecisionError, TruncationError
from .graph_fomin import brute_force_fomin, fomin_det, square_grid_network
from .lattice_validation import boundary_refinement, density_refinement
from .numerics import SeriesPolicy
from .passage_densities import ChamberSequence, joint_pdf
from .rect_kernels import CROSSING_CASES, RectConfig, crossing_decay_rate, crossing_exponent_fit
from .validation import QUADRATURE_ORDERS, SUITES, suite_report


class UsageError(Exception):
    """A flag combination violates a precondition; the message names it."""


# --- literal parsing --------------------------------------------------------------

_PI_LITERAL = re.compile(
    r"(-?)(\d+(?:\.\d+)?)?\s*\*?\s*pi(?:\s*/\s*(\d+(?:\.\d+)?))?", re.IGNORECASE
)


def parse_pi_literal(text):
    """Parse a number that may be a rational multiple of pi.

    Accepts "pi", "pi/2", "3pi/4", "2*pi/3", "-pi/6" and plain decimals;
    the multiple is applied to math.pi in one rounding step.  A zero
    denominator and a non-finite value (inf, nan, overflow) raise
    UsageError.
    """
    s = str(text).strip()
    m = _PI_LITERAL.fullmatch(s)
    if m:
        sign = -1.0 if m.group(1) else 1.0
        num = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        if den == 0.0:
            raise UsageError(f"{text!r} divides by zero")
        value = sign * num * math.pi / den
    else:
        try:
            value = float(s)
        except ValueError:
            raise UsageError(
                f"{text!r} is not a number or a rational multiple of pi (like pi/2)"
            ) from None
    if not math.isfinite(value):
        raise UsageError(f"{text!r} is not a finite number")
    return value


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
        with np.errstate(over="ignore", invalid="ignore"):
            grid = np.linspace(parse_pi_literal(parts[0]), parse_pi_literal(parts[1]), count)
        if not np.isfinite(grid).all():
            raise UsageError(f"{flag}: grid {text!r} overflows")
        return grid
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


def _write_csv(stream, header, columns):
    """Write the header line, then one line per row of `columns`.

    A column is a numeric array, or a sequence whose cells are numbers or
    preformatted strings (coordinates, integer fields, flags, names, an
    empty cell); _fmt formats every numeric cell.  No field can hold a
    comma, a quote or a newline, so no field needs RFC-4180 quoting.
    """
    cells = [
        map(_fmt, c.ravel().tolist())
        if isinstance(c, np.ndarray)
        else [v if isinstance(v, str) else _fmt(v) for v in c]
        for c in columns
    ]
    stream.write("".join(",".join(line) + "\n" for line in (header, *zip(*cells))))


def _policy_from(ns):
    try:
        return SeriesPolicy(
            tol=float(ns.tol), n_max=_parse_int(ns.n_max, "--n-max"), min_gap=float(ns.min_gap)
        )
    except ValueError as exc:
        raise UsageError(f"series policy: {exc}") from None


# --- subcommand handlers -------------------------------------------------------------
#
# A CSV handler returns (header, columns), or (header, columns, exit_code);
# main() hands them to _write_csv.


def _names(prefix, count):
    return [f"{prefix}_{j + 1}" for j in range(count)]


def _coordinates(*axes):
    """Preformatted coordinate columns of the product grid of `axes`, last
    axis fastest; each axis value is formatted once."""
    return list(zip(*itertools.product(*([_fmt(t) for t in a] for a in axes))))


def _stack(evaluate, axes, inner):
    """evaluate(*point) over the product grid of `axes`, each call one
    broadcast call over the `inner` grid; one array per output of
    evaluate, shaped (*axis lengths, *inner)."""
    points = itertools.product(*(np.asarray(a).tolist() for a in axes))
    outputs = zip(*(evaluate(*p) for p in points))
    shape = (*map(len, axes), *inner)
    return [np.reshape([np.broadcast_to(x, inner) for x in out], shape) for out in outputs]


def _pair_grid(ns, names, evaluate):
    """Header and columns over the grid flags `names` (first, theta, second,
    theta_p), in that order: the four coordinates, the value and its tail
    bound.

    evaluate(u, theta, v, theta_p) returns a TailBoundedValue; it is called
    once per (first, second) pair, broadcast over the theta x theta_p grid.
    """
    first, theta, second, theta_p = (parse_grid(getattr(ns, f), "--" + f) for f in names)
    grids = _stack(
        lambda u, v: evaluate(u, theta[:, None], v, theta_p[None, :]),
        (first, second),
        (len(theta), len(theta_p)),
    )
    columns = _coordinates(first, theta, second, theta_p)
    columns += [g.transpose(0, 2, 1, 3) for g in grids]
    return [*names, "value", "tail_bound"], columns


def _cartesian(radii, thetas):
    """x and y of every (r, theta) in radii x thetas, as r * math.cos(theta)
    and r * math.sin(theta)."""
    trig = (np.array([f(t) for t in thetas.tolist()]) for f in (math.cos, math.sin))
    return [np.multiply.outer(radii, t) for t in trig]


def _cmd_kernel(ns):
    pol = _policy_from(ns)
    n_paths = _parse_int(ns.N, "--N")
    if ns.domain == "strip":
        names, kernel = ["x", "theta", "xp", "thetap"], kernel_strip
    else:
        names, kernel = ["r", "theta", "rp", "thetap"], kernel_semicircle
    missing = [f for f in names if getattr(ns, f) is None]
    if missing:
        raise UsageError(f"{ns.domain} kernel needs --" + ", --".join(missing))
    return _pair_grid(ns, names, lambda *p: kernel(pol, n_paths, *p))


def _cmd_density(ns):
    n_paths = _parse_int(ns.N, "--N")
    radii = parse_grid(ns.r, "--r")
    thetas = parse_grid(ns.theta, "--theta")
    (value,) = _stack(lambda r: (density_semicircle(n_paths, r, thetas),), [radii], thetas.shape)
    return ["r", "theta", "value"], [*_coordinates(radii, thetas), value]


def _cmd_two_point(ns):
    pol = _policy_from(ns)
    n_paths = _parse_int(ns.N, "--N")
    names = ["r", "theta", "rp", "thetap"]
    return _pair_grid(ns, names, lambda *p: two_point_semicircle(pol, n_paths, *p))


def _passage_density(ns, cuts, thetas, header, fields):
    """Header and columns of the joint passage density at `cuts`, one row:
    the given `header`/`fields`, then the start angles and the length when
    given, then the value.  Without --phi the paths start at the midpoint."""
    pol = _policy_from(ns)
    if ns.phi is None:
        if ns.L is not None:
            raise UsageError("the midpoint start lives in the infinite strip; drop --L")
        value = joint_pdf_special_start(pol, ChamberSequence(cuts), thetas)
    else:
        phi = parse_tuple(ns.phi, "--phi")
        header, fields = [*header, *_names("phi", len(phi))], [*fields, *phi]
        if ns.L is not None:
            length = parse_pi_literal(ns.L)
            seq = ChamberSequence(cuts, L=length)
            value = joint_pdf(RectConfig(length), pol, seq, thetas, phi)
            header, fields = [*header, "length"], [*fields, length]
        else:
            value = joint_pdf(None, pol, ChamberSequence(cuts), thetas, phi)
    return [*header, "value"], [[v] for v in (*fields, value)]


def _cmd_pdf(ns):
    """joint-pdf at the one cut --x, under pdf's own column names.  The
    midpoint-start density does not depend on the cut, so there --x is
    optional (default 1) and not printed."""
    theta = parse_tuple(ns.theta, "--theta")
    header, fields = _names("theta", len(theta)), list(theta)
    if ns.x is not None:
        x = parse_pi_literal(ns.x)
    elif ns.phi is None:
        x = 1.0
    else:
        raise UsageError("--x (the cut position) is required with --phi")
    if ns.phi is not None:
        header, fields = ["x", *header], [x, *fields]
    return _passage_density(ns, (x,), [theta], header, fields)


def _cmd_joint_pdf(ns):
    cuts = parse_tuple(ns.cuts, "--cuts")
    groups = [g for g in str(ns.theta).split("/") if g.strip()]
    if len(groups) != len(cuts):
        raise UsageError(
            "--theta needs one comma-tuple per cut, separated by '/'"
            f" ({len(cuts)} cuts, {len(groups)} tuples given)"
        )
    thetas = [parse_tuple(g, "--theta") for g in groups]
    header = _names("cut", len(cuts))
    fields = list(cuts)
    for m, t in enumerate(thetas):
        header += _names(f"theta_{m + 1}", len(t))
        fields += t
    return _passage_density(ns, cuts, thetas, header, fields)


def _cmd_fomin_check(ns):
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
    within = diff <= bound
    header = ["size", "paths", "max_len", "determinant", "enumeration", "tail_bound"]
    fields = [str(size), str(n_paths), str(max_len), det, brute, bound, diff, str(int(within))]
    return [*header, "abs_diff", "within_bound"], [[v] for v in fields], 0 if within else 1


def _cmd_crossing(ns):
    n_paths = _parse_int(ns.paths, "--paths")
    if ns.phi is None or ns.rho is None:
        if n_paths not in CROSSING_CASES:
            raise UsageError(
                "built-in start/end angles exist only for --paths 2 or 3;"
                " give --phi and --rho explicitly"
            )
        phi, rho = CROSSING_CASES[n_paths]
    else:
        phi = parse_tuple(ns.phi, "--phi")
        rho = parse_tuple(ns.rho, "--rho")
    if len(phi) != n_paths or len(rho) != n_paths:
        raise UsageError("--phi and --rho must each list one angle per path")
    lengths = parse_tuple(ns.lengths, "--lengths")
    cap = _parse_int(ns.cap, "--cap")
    ratios, slope = crossing_exponent_fit(phi, rho, lengths, cap)
    target = float(crossing_decay_rate(n_paths))
    rel = abs(slope - target) / target
    fit = [[v] * len(lengths) for v in (slope, target, rel)]
    header = ["length", "ratio", "log_ratio", "fitted_exponent", "expected_exponent"]
    log_ratio = [math.log(q) for q in ratios.tolist()]
    return [*header, "relative_error"], [lengths, ratios, log_ratio, *fit]


def _cmd_lattice_validate(ns):
    pol = _policy_from(ns)
    levels = tuple(_parse_int(v, "--levels") for v in str(ns.levels).split(","))
    tables = {
        "boundary_kernel": [(h, max(e)) for h, e in boundary_refinement(pol, levels=levels)],
        "two_path_density": density_refinement(pol, levels=levels),
    }
    quantity, steps, errors, ratios = [], [], [], []
    for name, table in tables.items():
        errs = [e for _, e in table]
        quantity += [name] * len(table)
        steps += [h for h, _ in table]
        errors += errs
        ratios += ["", *(e / prev for prev, e in zip(errs, errs[1:]))]
    return ["quantity", "h", "error", "ratio"], [quantity, steps, errors, ratios]


def _cmd_figure(ns):
    pol = _policy_from(ns)
    if ns.id == "7":
        radii = np.linspace(1.05, 3.0, 40)
        thetas = np.linspace(0.0, math.pi, 181)
        (value,) = _stack(lambda r: (density_semicircle(3, r, thetas),), [radii], thetas.shape)
        return ["x", "y", "value"], [*_cartesian(radii, thetas), value]
    if ns.id in ("8", "9"):
        n_paths = 5 if ns.id == "8" else 20
        thetas = np.linspace(0.0, math.pi, 2001)
        values = two_point_semicircle(pol, n_paths, 4.0, math.pi / 2, 4.0, thetas).value
        return ["theta_prime", "value"], [thetas, values]
    r0, th0 = 2.0, math.pi / 2
    radii = np.linspace(1.05, 4.0, 60)
    # radii indistinguishable from the probe radius within the policy
    # gap snap onto it, where the closed equal-radius form applies
    radii = np.where(np.abs(np.log(radii / r0)) < pol.min_gap, r0, radii)
    thetas = np.linspace(0.0, math.pi, 121)
    g2 = _stack(lambda r: two_point_semicircle(pol, 3, r0, th0, r, thetas), [radii], thetas.shape)
    return ["x_prime", "y_prime", "value", "tail_bound"], [*_cartesian(radii, thetas), *g2]


def _cmd_validate(ns):
    """The JSON report of the named suites and the exit code."""
    pol = _policy_from(ns)
    names = sorted(SUITES) if ns.suite == "all" else [ns.suite]
    reports = [suite_report(name, pol) for name in names]
    passed = all(r["passed"] for r in reports)
    payload = reports[0] if len(reports) == 1 else {"passed": passed, "suites": reports}
    return json.dumps(payload, indent=2) + "\n", 0 if passed else 1


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
    _add_common(p, policy=False)

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
        "orders": dict(QUADRATURE_ORDERS) if ns.subcommand == "validate" else {},
        "output": ns.output,
    }
    # a subcommand takes a series policy exactly when _add_common gave its
    # parser the policy flags
    if hasattr(ns, "tol"):
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
        result = _HANDLERS[ns.subcommand](ns)
        if isinstance(result[0], str):  # validate: JSON text and exit code
            text, code = result
        else:
            buffer = io.StringIO()
            _write_csv(buffer, result[0], result[1])
            text, code = buffer.getvalue(), result[2] if len(result) > 2 else 0
        if ns.output is None:
            sys.stdout.write(text)
        else:
            with open(ns.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        if ns.save_manifest is not None:
            with open(ns.save_manifest, "w", encoding="utf-8") as fh:
                json.dump(_manifest_payload(ns), fh, indent=2)
                fh.write("\n")
        return code
    except TruncationError as exc:
        print(f"error: {exc} (best certified bound: {exc.achieved})", file=sys.stderr)
        return 2
    except (UsageError, DomainError, PrecisionError, EnumerationBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
