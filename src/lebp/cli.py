"""Command-line front end.

Evaluates the kernels and densities on grids, fits the crossing exponent,
checks the walk determinant against enumeration, runs the lattice
refinement table, emits the data sets behind the figures, and drives the
validation suites.

Conventions
-----------
* Output is CSV with a mandatory header row; floats are printed with 17
  significant digits so they round-trip exactly.  Handlers return
  columns, a grid handler its axes too, and one writer formats every CSV.
  A grid's text is assembled a block of rows at a time (the rows that
  share every coordinate but the last): each axis value and each entry of
  a per-pair bound is formatted once, and every full-grid column goes
  through one "%.17g" pass.  No field holds a comma, a quote or a newline,
  so none needs quoting.  ``validate`` emits a JSON report instead.
* Angle-valued flags accept rational multiples of pi ("pi/2", "3pi/4",
  "2*pi/3") as well as plain decimals; grid-valued flags accept either a
  single literal or "start:stop:count".  A literal with a zero
  denominator or a non-finite value (inf, nan), or a grid that
  overflows, exits 2.
* Every CSV row whose value came from a truncated series carries a
  ``tail_bound`` column with the certified truncation bound; rows from
  exact finite sums either omit the column or report 0.
* Runs are deterministic.  ``--save-manifest FILE`` records the
  subcommand, raw parameters, quadrature orders, output path and tool
  version; ``lebp --manifest FILE`` replays the record and
  reproduces the output byte for byte.
* Each grid is one library call, broadcast over every cut pair (x, x')
  or radius pair (r, r') and the whole angle grid; every row prints
  exactly what the per-point library call returns.
* Each handler imports the library modules it runs when it runs, and
  ``json`` is imported only to write or read a report or a manifest, so
  building the parser loads no compute module.  A run builds the parser
  of its own subcommand only; ``--help`` and a bad or missing subcommand
  get the full parser, and both print the same usage line.
* Every series is truncated at the library's fixed targets
  (``rect_kernels.SERIES_TOL``, ``N_MAX``, ``MIN_GAP``); no flag sets them.
"""

from __future__ import annotations

import argparse
import io
import itertools
import math
import re
import sys

import numpy as np

from . import __version__
from .errors import DomainError, EnumerationBudgetError, PrecisionError, TruncationError

# the keys of validation.SUITES, sorted; the parser's --suite choices
_SUITE_NAMES = ("crossing", "fomin", "lattice", "limits", "normalization", "semigroup")


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


def _write_csv(stream, header, columns, axes=()):
    """Write the header line, then one line per row.

    Without `axes`, a column is a numeric array, or a sequence whose cells
    are numbers or preformatted strings (integer fields, flags, names, an
    empty cell); _fmt formats every numeric cell of a sequence.  The rows
    are one %-line template, "%.17g" per array column and "%s" per sequence
    column, repeated once per row and applied to every cell at once.

    With `axes`, the rows are the product grid of the axes, last axis
    fastest, and they print each point's coordinates before `columns`,
    numeric arrays that broadcast over the grid (see _grid_template).

    '%.17g' % v prints the bytes of _fmt(v), -0, inf and nan included.  No
    field can hold a comma, a quote or a newline, so no field needs RFC-4180
    quoting.
    """
    if axes:
        template, cells = _grid_template(columns, axes)
    else:
        template = ",".join("%.17g" if isinstance(c, np.ndarray) else "%s" for c in columns)
        cells = [
            c.ravel().tolist()
            if isinstance(c, np.ndarray)
            else [v if isinstance(v, str) else _fmt(v) for v in c]
            for c in columns
        ]
        template = (template + "\n") * min(map(len, cells), default=0)
    text = template % tuple(itertools.chain.from_iterable(zip(*cells)))
    stream.write(",".join(header) + "\n" + text)


def _grid_template(columns, axes):
    """The %-template of the rows over the product grid of `axes`, last axis
    fastest, and the cell lists that fill its "%.17g" fields in one pass.

    Each axis value, and each entry of a column smaller than the grid (a
    per-pair bound), is formatted once and written into the template; a
    column that fills the grid is a "%.17g" field.  A block is the rows that
    share every coordinate but the last.  They differ only from the last
    coordinate through the last column that varies along the last axis
    alone, so a block is its own head and tail joined around per-row
    middles that every block shares.  A column inside that span that varies
    along an outer axis becomes a "%.17g" field too.
    """
    shape = tuple(map(len, axes))
    k = len(shape)
    columns = [np.reshape(c, (1,) * (k - np.ndim(c)) + np.shape(c)) for c in columns]
    ends = [","] * (k + len(columns) - 1) + ["\n"]
    # one past the last segment (coordinate or column) that varies along the last axis alone
    stop = max((k + n + 1 for n, c in enumerate(columns) if c.size == c.shape[-1] > 1), default=k)
    segments, cells = [], []
    for a, axis in enumerate(axes):
        text = np.array([_fmt(t) + ends[a] for t in axis.tolist()], dtype=object)
        segments.append(text.reshape((1,) * a + (-1,) + (1,) * (k - a - 1)))
    for n, c in enumerate(columns, start=k):
        outer = c.size > c.shape[-1]
        if c.shape == shape or outer and (c.shape[-1] > 1 or n < stop):
            cells.append(np.broadcast_to(c, shape).ravel().tolist())
            segments.append(np.array("%.17g" + ends[n], dtype=object))
        else:
            text = [_fmt(v) + ends[n] for v in c.ravel().tolist()]
            segments.append(np.array(text, dtype=object).reshape(c.shape))

    def joined(parts, over):
        out = np.full(over, "", dtype=object)
        for part in parts:
            out = out + part
        return out.ravel().tolist()

    block = shape[:-1] + (1,)
    heads = joined(segments[: k - 1], block)
    tails = joined(segments[stop:], block)
    middles = joined(segments[k - 1 : stop], (1,) * (k - 1) + shape[-1:])
    template = "".join(h + (t + h).join(middles) + t for h, t in zip(heads, tails) if middles)
    return template, cells


# --- subcommand handlers -------------------------------------------------------------
#
# A CSV handler returns (header, columns), (header, columns, axes) for a
# product grid, or (header, columns, axes, exit_code); main() hands the first
# three to _write_csv.


def _names(prefix, count):
    return [f"{prefix}_{j + 1}" for j in range(count)]


def _pair_grid(ns, names, evaluate):
    """Header, columns and axes over the grid flags `names` (first, theta,
    second, theta_p), in that order: the four coordinates, the value and its
    tail bound.

    evaluate(u, theta, v, theta_p) returns a TailBoundedValue; it is called
    once, broadcast over the whole first x theta x second x theta_p grid.
    """
    first, theta, second, theta_p = (parse_grid(getattr(ns, f), "--" + f) for f in names)
    value, bound = evaluate(
        first[:, None, None, None], theta[:, None, None], second[:, None], theta_p
    )
    return [*names, "value", "tail_bound"], [value, bound], (first, theta, second, theta_p)


def _cartesian(radii, thetas):
    """x and y of every (r, theta) in radii x thetas, as r * math.cos(theta)
    and r * math.sin(theta)."""
    trig = (np.array([f(t) for t in thetas.tolist()]) for f in (math.cos, math.sin))
    return [np.multiply.outer(radii, t) for t in trig]


def _cmd_kernel(ns):
    from .correlation import kernel_semicircle, kernel_strip

    n_paths = _parse_int(ns.N, "--N")
    if ns.domain == "strip":
        names, kernel = ["x", "theta", "xp", "thetap"], kernel_strip
    else:
        names, kernel = ["r", "theta", "rp", "thetap"], kernel_semicircle
    missing = [f for f in names if getattr(ns, f) is None]
    if missing:
        raise UsageError(f"{ns.domain} kernel needs --" + ", --".join(missing))
    return _pair_grid(ns, names, lambda *p: kernel(n_paths, *p))


def _cmd_density(ns):
    from .correlation import density_semicircle

    n_paths = _parse_int(ns.N, "--N")
    radii = parse_grid(ns.r, "--r")
    thetas = parse_grid(ns.theta, "--theta")
    value = density_semicircle(n_paths, radii[:, None], thetas)
    return ["r", "theta", "value"], [value], (radii, thetas)


def _cmd_two_point(ns):
    from .correlation import two_point_semicircle

    n_paths = _parse_int(ns.N, "--N")
    names = ["r", "theta", "rp", "thetap"]
    return _pair_grid(ns, names, lambda *p: two_point_semicircle(n_paths, *p))


def _passage_density(ns, cuts, thetas, header, fields):
    """Header and columns of the joint passage density at `cuts`, one row:
    the given `header`/`fields`, then the start angles and the length when
    given, then the value.  Without --phi the paths enter from x -> -infinity
    (the midpoint start)."""
    from .passage_densities import ChamberSequence, joint_pdf
    from .rect_kernels import RectConfig

    phi = cfg = None
    if ns.phi is not None:
        phi = parse_tuple(ns.phi, "--phi")
        header, fields = [*header, *_names("phi", len(phi))], [*fields, *phi]
    if ns.L is not None:
        cfg = RectConfig(parse_pi_literal(ns.L))
        header, fields = [*header, "length"], [*fields, cfg.L]
    value = joint_pdf(cfg, ChamberSequence(cuts), thetas, phi)
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
    from .graph_fomin import grid_fomin_check

    size = _parse_int(ns.size, "--size")
    n_paths = _parse_int(ns.paths, "--paths")
    max_len = _parse_int(ns.max_len, "--max-len")
    if n_paths > size:
        raise UsageError("--paths cannot exceed --size (one edge row per path)")
    rows = sorted({int(round(v)) for v in np.linspace(0, size - 1, n_paths)})
    if len(rows) != n_paths:
        raise UsageError("--paths too large for distinct edge rows at this --size")
    det, brute, bound = grid_fomin_check(size, rows)
    diff = abs(det - brute)
    within = diff <= bound
    header = ["size", "paths", "max_len", "determinant", "enumeration", "tail_bound"]
    fields = [str(size), str(n_paths), str(max_len), det, brute, bound, diff, str(int(within))]
    return [*header, "abs_diff", "within_bound"], [[v] for v in fields], (), 0 if within else 1


def _cmd_crossing(ns):
    from .rect_kernels import CROSSING_CASES, crossing_decay_rate, crossing_exponent_fit

    # one path has decay rate 0, so the fit has no relative error to report
    n_paths = _parse_int(ns.paths, "--paths", minimum=2)
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
    _parse_int(ns.cap, "--cap")  # inert, but still validated
    ratios, slope = crossing_exponent_fit(phi, rho, lengths)
    target = float(crossing_decay_rate(n_paths))
    rel = abs(slope - target) / target
    fit = [[v] * len(lengths) for v in (slope, target, rel)]
    header = ["length", "ratio", "log_ratio", "fitted_exponent", "expected_exponent"]
    log_ratio = [math.log(q) for q in ratios.tolist()]
    return [*header, "relative_error"], [lengths, ratios, log_ratio, *fit]


def _cmd_lattice_validate(ns):
    from .lattice_validation import boundary_refinement, density_refinement

    levels = tuple(_parse_int(v, "--levels") for v in str(ns.levels).split(","))
    if len(set(levels)) != len(levels):
        raise UsageError(f"--levels: each level must appear once, got {ns.levels}")
    tables = {
        "boundary_kernel": [(h, max(e)) for h, e in boundary_refinement(levels)],
        "two_path_density": density_refinement(levels),
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
    from .correlation import density_semicircle, two_point_semicircle

    if ns.id == "7":
        radii = np.linspace(1.05, 3.0, 40)
        thetas = np.linspace(0.0, math.pi, 181)
        value = density_semicircle(3, radii[:, None], thetas)
        return ["x", "y", "value"], [*_cartesian(radii, thetas), value]
    if ns.id in ("8", "9"):
        n_paths = 5 if ns.id == "8" else 20
        thetas = np.linspace(0.0, math.pi, 2001)
        values = two_point_semicircle(n_paths, 4.0, math.pi / 2, 4.0, thetas).value
        return ["theta_prime", "value"], [thetas, values]
    r0, th0 = 2.0, math.pi / 2
    radii = np.linspace(1.05, 4.0, 60)
    # the grid radius nearest r0 snaps onto it, where the kernels are exact finite sums
    radii[np.argmin(np.abs(radii - r0))] = r0
    thetas = np.linspace(0.0, math.pi, 121)
    g2 = two_point_semicircle(3, r0, th0, radii[:, None], thetas)
    return ["x_prime", "y_prime", "value", "tail_bound"], [*_cartesian(radii, thetas), *g2]


def _cmd_validate(ns):
    """The JSON report of the named suites and the exit code."""
    import json

    from . import validation

    names = _SUITE_NAMES if ns.suite == "all" else [ns.suite]
    reports = [validation.suite_report(name) for name in names]
    passed = all(r["passed"] for r in reports)
    payload = reports[0] if len(reports) == 1 else {"passed": passed, "suites": reports}
    return json.dumps(payload, indent=2) + "\n", 0 if passed else 1


# --- parser / manifest ---------------------------------------------------------------

# the --phi help of pdf and joint-pdf
_PHI_HELP = "comma tuple of start angles (default: the midpoint start, entering from x = -inf)"
_L_HELP = "rectangle length (default: infinite strip)"

# every subcommand: its handler, its help line and its own arguments, as
# (flag, add_argument keywords) in help order; --output and --save-manifest
# follow them in every subcommand
_SUBCOMMANDS = {
    "kernel": (_cmd_kernel, "correlation kernel on a parameter grid", (
        ("--domain", dict(choices=("strip", "semicircle"), required=True)),
        ("--N", dict(required=True, help="number of paths")),
        ("--x", dict(default=None, help="strip cut (grid)")),
        ("--xp", dict(default=None, help="strip second cut (grid)")),
        ("--r", dict(default=None, help="semicircle radius (grid)")),
        ("--rp", dict(default=None, help="semicircle second radius (grid)")),
        ("--theta", dict(required=True, help="first angle (grid)")),
        ("--thetap", dict(required=True, help="second angle (grid)")),
    )),
    "density": (_cmd_density, "arc density on a grid", (
        ("--N", dict(required=True, help="number of paths")),
        ("--r", dict(required=True, help="radius (grid)")),
        ("--theta", dict(required=True, help="angle (grid)")),
    )),
    "two-point": (_cmd_two_point, "two-point correlation on a grid", (
        ("--N", dict(required=True, help="number of paths")),
        ("--r", dict(required=True, help="first radius (grid)")),
        ("--theta", dict(required=True, help="first angle (grid)")),
        ("--rp", dict(required=True, help="second radius (grid)")),
        ("--thetap", dict(required=True, help="second angle (grid)")),
    )),
    "pdf": (_cmd_pdf, "first-passage density at one cut", (
        ("--x", dict(default=None, help="cut position")),
        ("--theta", dict(required=True, help="comma tuple of passage angles")),
        ("--phi", dict(default=None, help=_PHI_HELP)),
        ("--L", dict(default=None, help=_L_HELP)),
    )),
    "joint-pdf": (_cmd_joint_pdf, "joint passage density across several cuts", (
        ("--cuts", dict(required=True, help="comma tuple of cut positions")),
        ("--theta", dict(required=True, help="angle tuples, one per cut, '/'-separated")),
        ("--phi", dict(default=None, help=_PHI_HELP)),
        ("--L", dict(default=None, help=_L_HELP)),
    )),
    "fomin-check": (_cmd_fomin_check, "walk determinant vs brute-force enumeration", (
        ("--size", dict(default="3", help="interior grid size")),
        ("--paths", dict(default="2", help="number of paths")),
        ("--max-len", dict(
            dest="max_len",
            default="14",
            help="ignored: the enumeration is exact; still checked and printed",
        )),
    )),
    "crossing-exponent": (_cmd_crossing, "fit the nonintersection decay exponent", (
        ("--paths", dict(default="2", help="number of paths")),
        ("--lengths", dict(default="6,8,10,12", help="comma tuple of rectangle lengths")),
        ("--phi", dict(default=None, help="comma tuple of start angles")),
        ("--rho", dict(default=None, help="comma tuple of end angles")),
        ("--cap", dict(default="8", help="ignored: the truncation is certified")),
    )),
    "lattice-validate": (_cmd_lattice_validate, "lattice refinement table", (
        ("--levels", dict(default="15,31,63", help="comma tuple of strip heights")),
    )),
    "figure": (_cmd_figure, "emit the data set behind one figure", (
        ("--id", dict(required=True, choices=("7", "8", "9", "10"))),
    )),
    "validate": (_cmd_validate, "run a validation suite", (
        ("--suite", dict(required=True, choices=(*_SUITE_NAMES, "all"))),
    )),
}


def build_parser(name=None):
    """The lebp parser: with every subcommand, or with `name`'s alone.

    Both print the same usage line, so any error after a valid subcommand
    reads the same.  A bad or missing subcommand needs the full parser: its
    error names the argument "subcommand", where the one-subcommand parser's
    would name it by that usage line's list of choices.
    """
    parser = argparse.ArgumentParser(
        prog="lebp",
        description="Nonintersecting loop-erased paths: kernels, densities, validation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    choices = "{" + ",".join(_SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(
        dest="subcommand", required=True, metavar=None if name is None else choices
    )
    for sub_name in _SUBCOMMANDS if name is None else (name,):
        _, help_text, arguments = _SUBCOMMANDS[sub_name]
        p = sub.add_parser(sub_name, help=help_text)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
        p.add_argument("--output", default=None, help="CSV/JSON file (default: stdout)")
        p.add_argument(
            "--save-manifest", dest="save_manifest", default=None, help="record the run as JSON"
        )
    return parser


def _manifest_payload(ns):
    skip = {"subcommand", "output", "save_manifest"}
    arguments = {}
    for key, value in sorted(vars(ns).items()):
        if key in skip or value is None:
            continue
        arguments[key] = str(value)
    orders = {}
    if ns.subcommand == "validate":
        from .validation import QUADRATURE_ORDERS

        orders = dict(QUADRATURE_ORDERS)
    return {
        "tool": "lebp",
        "version": __version__,
        "subcommand": ns.subcommand,
        "arguments": arguments,
        "orders": orders,
        "output": ns.output,
    }


def _replay(path, output_override):
    """Run the invocation that the manifest at `path` records."""
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read manifest: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"manifest {path} is not valid JSON: {exc}") from None
    arguments = payload.get("arguments", {}) if isinstance(payload, dict) else None
    if not isinstance(arguments, dict):
        raise UsageError(f"manifest {path}: the record and its arguments must be JSON objects")
    sub_name = payload.get("subcommand")
    if not isinstance(sub_name, str) or sub_name not in _SUBCOMMANDS:
        raise UsageError(f"manifest {path} names unknown subcommand {sub_name!r}")
    argv = [sub_name]
    for key, value in arguments.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    output = output_override if output_override is not None else payload.get("output")
    if output:
        argv += ["--output", str(output)]
    return main(argv)


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        if argv and argv[0] == "--manifest":
            replay = argparse.ArgumentParser(prog="lebp --manifest")
            replay.add_argument("manifest")
            replay.add_argument("--output", default=None)
            rns = replay.parse_args(argv[1:])
            return _replay(rns.manifest, rns.output)
        # a run builds its own subcommand's parser only
        ns = build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None).parse_args(argv)
        result = _SUBCOMMANDS[ns.subcommand][0](ns)
        if isinstance(result[0], str):  # validate: JSON text and exit code
            text, code = result
        else:
            buffer = io.StringIO()
            _write_csv(buffer, *result[:3])
            text, code = buffer.getvalue(), result[3] if len(result) > 3 else 0
        # every file is written before stdout, so a run that cannot write
        # one prints nothing
        files = [] if ns.output is None else [(ns.output, text)]
        if ns.save_manifest is not None:
            import json

            files.append((ns.save_manifest, json.dumps(_manifest_payload(ns), indent=2) + "\n"))
        for path, content in files:
            try:
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    fh.write(content)
            except OSError as exc:
                raise UsageError(f"cannot write {path}: {exc.strerror}") from None
        if ns.output is None:
            sys.stdout.write(text)
        return code
    except TruncationError as exc:
        print(f"error: {exc} (best certified bound: {exc.achieved})", file=sys.stderr)
        return 2
    except (UsageError, DomainError, PrecisionError, EnumerationBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
