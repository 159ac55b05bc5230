"""Output checks for benchmark jobs; a job that fails a check counts in
``fail_frac``.

Every job is checked for the expected header columns, the expected row
count and finite values.  Columns are matched by name, so an added column
(such as a new ``tail_bound``) does not break a check.  Values are then
checked one of two ways:

* where a finite sum or a closed form exists, every row is compared with a
  double-precision re-summation written here, and a seeded sample of rows
  with a 40-digit mpmath oracle (arc densities, equal-radius two-point
  functions, the x <= x' strip-kernel branch, edge-to-edge kernel entries);
* elsewhere, invariants: ``validate`` passes, ``fomin-check`` is within its
  bound, lattice error ratios are below 1, the discrete density sums to 1,
  loop-erased weights sit within their own tail of the exact value.

Tolerances are ``REL`` times the natural scale of each quantity (the sum of
the absolute series terms), plus any certified ``tail_bound`` the row
carries: loose enough that a legitimate accuracy fix still passes, tight
enough that a wrong ninth digit does not.
"""

import csv
import io
import json
import math
import random

import mpmath
import numpy as np

REL = 1e-9
POLICY_TOL = 1e-12  # the CLI's default --tol: certified bound on each series entry
ORACLE_DPS = 40
SAMPLE = 12  # rows per job compared with the mpmath oracle
TWO_OVER_PI = 2.0 / math.pi


class CheckFailure(Exception):
    """A job's output is wrong; the message says where."""


# --- parsing -----------------------------------------------------------------


def read_csv(text, required, expected_rows):
    """Parse CSV output; returns (header, rows) after shape checks."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        raise CheckFailure("no output")
    missing = [c for c in required if c not in header]
    if missing:
        raise CheckFailure(f"header {header} lacks {missing}")
    rows = list(reader)
    if len(rows) != expected_rows:
        raise CheckFailure(f"{len(rows)} rows, expected {expected_rows}")
    if any(len(r) != len(header) for r in rows):
        raise CheckFailure("ragged rows")
    return header, rows


def numeric_columns(text, names, expected_rows):
    """Named columns as finite float arrays."""
    header, rows = read_csv(text, names, expected_rows)
    out = {}
    for name in names:
        j = header.index(name)
        try:
            col = np.array([float(r[j]) for r in rows])
        except ValueError as exc:
            raise CheckFailure(f"column {name}: {exc}") from None
        if not np.all(np.isfinite(col)):
            raise CheckFailure(f"column {name} has non-finite values")
        out[name] = col
    return out


def expect_close(what, got, want, allowed):
    """Fail on the worst row where |got - want| exceeds `allowed` (arrays or
    scalars)."""
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    excess = np.abs(got - want) - allowed
    if np.any(excess > 0.0) or not np.all(np.isfinite(excess)):
        i = int(np.nanargmax(np.where(np.isfinite(excess), excess, np.inf)))
        raise CheckFailure(
            f"{what}: row {i} reads {float(got[i])!r}, reference {float(want[i])!r}"
        )


def sample_rows(rng, candidates, count=SAMPLE):
    candidates = list(candidates)
    return rng.sample(candidates, min(count, len(candidates)))


# --- double-precision references ----------------------------------------------


def _sinh_ratio(n, num, den):
    """sinh(n num) / sinh(n den) without forming large sinh values."""
    return np.exp(n * (num - den)) * (np.expm1(-2.0 * n * num) / np.expm1(-2.0 * n * den))


def strip_kernel_ref(n_paths, x, theta, xp, thetap):
    """Strip correlation kernel and its term scale, by direct summation.

    x <= x': (2/pi) sum_{n<=N} sinh(n x')/sinh(n x) sin(n th) sin(n th');
    x > x': minus the same sum over n > N, summed until the terms fall
    below 1e-20 of the first.  Arrays of equal length; returns two arrays.
    """
    value = np.empty(len(x))
    scale = np.empty(len(x))
    pairs = np.stack([x, xp], axis=1)
    for a, b in np.unique(pairs, axis=0):
        idx = (x == a) & (xp == b)
        if a <= b:
            n = np.arange(1.0, n_paths + 1.0)
            c = TWO_OVER_PI * _sinh_ratio(n, b, a)
        else:
            last = n_paths + math.ceil(math.log(1e20) / (a - b)) + 1
            n = np.arange(n_paths + 1.0, last + 1.0)
            c = -TWO_OVER_PI * _sinh_ratio(n, b, a)
        value[idx] = (np.sin(np.outer(theta[idx], n)) * np.sin(np.outer(thetap[idx], n))) @ c
        scale[idx] = np.sum(np.abs(c))
    return value, scale


def density_ref(n_paths, r, theta):
    """Arc density (2/(pi r)) sum_{n<=N} sin^2(n theta), and its scale."""
    n = np.arange(1.0, n_paths + 1.0)
    value = TWO_OVER_PI / r * (np.sin(np.outer(theta, n)) ** 2).sum(axis=1)
    return value, TWO_OVER_PI * n_paths / r * np.ones_like(value)


def two_point_ref(n_paths, r, theta, rp, thetap, equal):
    """Two-point function rho rho' - K(w, w') K(w', w) on the arcs, and its
    scale.  Rows flagged `equal` use one radius for both points."""
    rp = np.where(equal, r, rp)
    rho, s1 = density_ref(n_paths, r, theta)
    rho_p, s2 = density_ref(n_paths, rp, thetap)
    k12, c12 = strip_kernel_ref(n_paths, np.log(r), theta, np.log(rp), thetap)
    k21, c21 = strip_kernel_ref(n_paths, np.log(rp), thetap, np.log(r), theta)
    value = rho * rho_p - (k12 / r) * (k21 / rp)
    return value, s1 * s2 + c12 * c21 / (r * rp)


# --- 40-digit oracles ---------------------------------------------------------


def mp_strip_finite(n_paths, x, theta, xp, thetap):
    """x <= x' strip-kernel branch as a 40-digit finite sum."""
    with mpmath.workdps(ORACLE_DPS):
        x, theta, xp, thetap = map(mpmath.mpf, (x, theta, xp, thetap))
        s = mpmath.fsum(
            mpmath.sinh(n * xp) / mpmath.sinh(n * x) * mpmath.sin(n * theta) * mpmath.sin(n * thetap)
            for n in range(1, n_paths + 1)
        )
        return float(2 * s / mpmath.pi)


def mp_density(n_paths, r, theta):
    with mpmath.workdps(ORACLE_DPS):
        r, theta = mpmath.mpf(r), mpmath.mpf(theta)
        s = mpmath.fsum(mpmath.sin(n * theta) ** 2 for n in range(1, n_paths + 1))
        return float(2 * s / (mpmath.pi * r))


def mp_two_point_equal(n_paths, r, theta, thetap):
    """Equal-radius two-point function rho rho' - K^2 at 40 digits."""
    with mpmath.workdps(ORACLE_DPS):
        r, theta, thetap = map(mpmath.mpf, (r, theta, thetap))
        ns = range(1, n_paths + 1)
        rho = mpmath.fsum(mpmath.sin(n * theta) ** 2 for n in ns)
        rho_p = mpmath.fsum(mpmath.sin(n * thetap) ** 2 for n in ns)
        k = mpmath.fsum(mpmath.sin(n * theta) * mpmath.sin(n * thetap) for n in ns)
        return float((2 / (mpmath.pi * r)) ** 2 * (rho * rho_p - k * k))


def mp_crossing_ratio(length, phi, rho):
    """det[H_b(phi_j, rho_k)] / prod_j H_b(phi_j, rho_j) at 40 digits, with
    the edge-to-edge kernel H_b = (2/pi) sum_n n sin(n phi) sin(n rho) / sinh(n L)
    summed until its terms drop below 10^-45.  Returns the ratio and the
    relative error that entry errors of POLICY_TOL allow in the diagonal
    product, sum_j POLICY_TOL / |H_b(phi_j, rho_j)|."""
    with mpmath.workdps(ORACLE_DPS):
        big_l = mpmath.mpf(length)
        last = int(45 * math.log(10) / length) + 10

        def h_b(p, r):
            p, r = mpmath.mpf(p), mpmath.mpf(r)
            s = mpmath.fsum(
                n * mpmath.sin(n * p) * mpmath.sin(n * r) / mpmath.sinh(n * big_l)
                for n in range(1, last + 1)
            )
            return 2 * s / mpmath.pi

        m = mpmath.matrix([[h_b(p, r) for r in rho] for p in phi])
        diag = [m[j, j] for j in range(len(phi))]
        slack = sum(POLICY_TOL / abs(float(d)) for d in diag)
        return float(mpmath.det(m) / mpmath.fprod(diag)), slack


# --- per-job checkers ---------------------------------------------------------


def _option(argv, flag):
    return argv[list(argv).index(flag) + 1]


def _n_paths(argv):
    return int(_option(argv, "--N"))


def check_kernel_strip(job, text, rng):
    c = numeric_columns(text, ("x", "theta", "xp", "thetap", "value", "tail_bound"), job.rows)
    n = _n_paths(job.argv)
    ref, scale = strip_kernel_ref(n, c["x"], c["theta"], c["xp"], c["thetap"])
    expect_close("strip kernel", c["value"], ref, c["tail_bound"] + REL * scale)
    for i in sample_rows(rng, np.flatnonzero(c["x"] <= c["xp"])):
        want = mp_strip_finite(n, c["x"][i], c["theta"][i], c["xp"][i], c["thetap"][i])
        expect_close("strip kernel vs mpmath", c["value"][i], want, REL * scale[i])


def check_kernel_semicircle(job, text, rng):
    c = numeric_columns(text, ("r", "theta", "rp", "thetap", "value", "tail_bound"), job.rows)
    n = _n_paths(job.argv)
    x, xp = np.log(c["r"]), np.log(c["rp"])
    ref, scale = strip_kernel_ref(n, x, c["theta"], xp, c["thetap"])
    scale = scale / c["r"]
    expect_close("arc kernel", c["value"], ref / c["r"], c["tail_bound"] + REL * scale)
    for i in sample_rows(rng, np.flatnonzero(c["r"] <= c["rp"])):
        with mpmath.workdps(ORACLE_DPS):
            xi, xpi = mpmath.log(mpmath.mpf(c["r"][i])), mpmath.log(mpmath.mpf(c["rp"][i]))
        want = mp_strip_finite(n, xi, c["theta"][i], xpi, c["thetap"][i]) / c["r"][i]
        expect_close("arc kernel vs mpmath", c["value"][i], want, REL * scale[i])


def check_two_point(job, text, rng):
    c = numeric_columns(text, ("r", "theta", "rp", "thetap", "value", "tail_bound"), job.rows)
    n = _n_paths(job.argv)
    equal = c["r"] == c["rp"]
    ref, scale = two_point_ref(n, c["r"], c["theta"], c["rp"], c["thetap"], equal)
    expect_close("two-point", c["value"], ref, c["tail_bound"] + REL * scale)


def check_density(job, text, rng):
    c = numeric_columns(text, ("r", "theta", "value"), job.rows)
    n = _n_paths(job.argv)
    ref, scale = density_ref(n, c["r"], c["theta"])
    expect_close("arc density", c["value"], ref, REL * scale)
    for i in sample_rows(rng, range(job.rows)):
        want = mp_density(n, c["r"][i], c["theta"][i])
        expect_close("arc density vs mpmath", c["value"][i], want, REL * scale[i])


def check_figure_7(job, text, rng):
    c = numeric_columns(text, ("x", "y", "value"), job.rows)
    r, theta = np.hypot(c["x"], c["y"]), np.arctan2(c["y"], c["x"])
    ref, scale = density_ref(3, r, theta)
    expect_close("figure 7 density", c["value"], ref, REL * scale)
    for i in sample_rows(rng, range(job.rows)):
        want = mp_density(3, r[i], theta[i])
        expect_close("figure 7 vs mpmath", c["value"][i], want, REL * scale[i])


def check_figure_9(job, text, rng):
    c = numeric_columns(text, ("theta_prime", "value"), job.rows)
    tp = c["theta_prime"]
    ones = np.ones_like(tp)
    ref, scale = two_point_ref(20, 4.0 * ones, 0.5 * math.pi * ones, 4.0 * ones, tp, ones > 0)
    expect_close("figure 9 two-point", c["value"], ref, REL * scale)
    for i in sample_rows(rng, range(job.rows)):
        want = mp_two_point_equal(20, 4.0, mpmath.pi / 2, tp[i])
        expect_close("figure 9 vs mpmath", c["value"][i], want, REL * scale[i])


def check_figure_10(job, text, rng):
    c = numeric_columns(text, ("x_prime", "y_prime", "value", "tail_bound"), job.rows)
    rp, tp = np.hypot(c["x_prime"], c["y_prime"]), np.arctan2(c["y_prime"], c["x_prime"])
    ones = np.ones_like(rp)
    # radii within the default min_gap of the probe radius 2 use its arc
    equal = np.abs(np.log(rp / 2.0)) < 1e-3
    ref, scale = two_point_ref(3, 2.0 * ones, 0.5 * math.pi * ones, rp, tp, equal)
    expect_close("figure 10 two-point", c["value"], ref, c["tail_bound"] + REL * scale)
    for i in sample_rows(rng, np.flatnonzero(equal)):
        want = mp_two_point_equal(3, 2.0, mpmath.pi / 2, tp[i])
        expect_close("figure 10 vs mpmath", c["value"][i], want, REL * scale[i])


def check_positive(job, text, rng):
    c = numeric_columns(text, ("value",), job.rows)
    if not np.all(c["value"] > 0.0):
        raise CheckFailure(f"density {c['value'][0]!r} is not positive")


def check_crossing(job, text, rng):
    names = ("length", "ratio", "log_ratio", "fitted_exponent", "expected_exponent", "relative_error")
    c = numeric_columns(text, names, job.rows)
    phi = [float(v) for v in _option(job.argv, "--phi").split(",")]
    rho = [float(v) for v in _option(job.argv, "--rho").split(",")]
    n = len(phi)
    want, slack = np.array([mp_crossing_ratio(length, phi, rho) for length in c["length"]]).T
    # the diagonal kernel values are exponentially small in L, so their
    # absolute series tolerance sets the ratio's relative accuracy
    expect_close("crossing ratio vs mpmath", c["ratio"], want, (REL + 2.0 * slack) * np.abs(want))
    expect_close("log ratio", c["log_ratio"], np.log(c["ratio"]), REL * np.abs(c["log_ratio"]))
    slope = -np.polyfit(c["length"], c["log_ratio"], 1)[0]
    expect_close("fitted exponent", c["fitted_exponent"], slope, 1e-6)
    expected = n * (n - 1) / 2.0
    expect_close("expected exponent", c["expected_exponent"], expected, 0.0)
    if not np.all(c["relative_error"] < 0.01):
        raise CheckFailure(f"fitted exponent misses {expected} by {c['relative_error'][0]:.3g}")


def check_lattice(job, text, rng):
    header, rows = read_csv(text, ("quantity", "h", "error", "ratio"), job.rows)
    ratio = [r[header.index("ratio")] for r in rows]
    values = [float(v) for v in ratio if v != ""]
    if len(values) != job.rows - 2:
        raise CheckFailure("expected a refinement ratio on every row but the first of each quantity")
    if not all(0.0 < v < 1.0 for v in values):
        raise CheckFailure(f"refinement error ratios {values} not all below 1")
    numeric_columns(text, ("h", "error"), job.rows)


def check_fomin(job, text, rng):
    header, rows = read_csv(text, ("within_bound",), job.rows)
    if any(r[header.index("within_bound")] != "1" for r in rows):
        raise CheckFailure("walk determinant is outside the enumeration bound")
    c = numeric_columns(text, ("determinant", "enumeration", "tail_bound", "abs_diff"), job.rows)
    expect_close("abs_diff", c["abs_diff"], np.abs(c["determinant"] - c["enumeration"]), 1e-15)
    if not np.all(c["abs_diff"] <= c["tail_bound"]):
        raise CheckFailure("abs_diff exceeds tail_bound")


def check_validate(job, text, rng):
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailure(f"validate output is not JSON: {exc}") from None
    checks = [c for suite in report.get("suites", []) for c in suite.get("checks", [])]
    if len(checks) != job.rows:
        raise CheckFailure(f"{len(checks)} checks reported, expected {job.rows}")
    if report.get("passed") is not True:
        raise CheckFailure("validate reports passed != true")
    if not all(c.get("passed") is True for c in checks):
        raise CheckFailure("a validation check failed")


def check_discrete_density(job, text, rng):
    names = ("m_1", "m_2", "m_3", "value")
    c = numeric_columns(text, names, job.rows)
    idx = np.stack([c["m_1"], c["m_2"], c["m_3"]], axis=1)
    if not np.all(np.diff(idx, axis=1) > 0):
        raise CheckFailure("passage rows are not strictly increasing")
    if np.any(c["value"] < -1e-15):
        raise CheckFailure("negative discrete density")
    total = math.fsum(c["value"])
    if abs(total - 1.0) > 1e-9:
        raise CheckFailure(f"discrete density sums to {total!r}, not 1")


LERW_EXACT = {"1-0": 0.75, "2-1-0": 0.5, "0": 1.375}


def check_lerw(job, text, rng):
    header, rows = read_csv(text, ("zeta", "value", "tail_bound"), job.rows)
    c = numeric_columns(text, ("value", "tail_bound"), job.rows)
    zetas = [r[header.index("zeta")] for r in rows]
    if sorted(zetas) != sorted(LERW_EXACT):
        raise CheckFailure(f"unexpected paths {zetas}")
    want = np.array([LERW_EXACT[z] for z in zetas])
    expect_close("loop-erased weight", c["value"], want, c["tail_bound"] + 1e-12)


CHECKERS = {
    "kernel_strip": check_kernel_strip,
    "kernel_semicircle": check_kernel_semicircle,
    "two_point": check_two_point,
    "density": check_density,
    "figure_7": check_figure_7,
    "figure_9": check_figure_9,
    "figure_10": check_figure_10,
    "positive": check_positive,
    "crossing": check_crossing,
    "lattice": check_lattice,
    "fomin": check_fomin,
    "validate": check_validate,
    "discrete_density": check_discrete_density,
    "lerw": check_lerw,
}


def check_output(job, text, seed):
    """None when `text` is a correct output of `job`, else the reason.

    The mpmath sample is drawn from a generator seeded by the workload seed
    and the job name, so a run is reproducible."""
    rng = random.Random(f"{seed}:{job.name}")
    try:
        CHECKERS[job.check](job, text, rng)
    except CheckFailure as exc:
        return str(exc)
    return None
