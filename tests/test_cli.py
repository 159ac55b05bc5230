"""Command-line behavior: literal parsing, CSV shape, golden regression,
determinism, manifest replay, figure data properties, and exit codes."""

import csv
import io
import itertools
import json
import math
import pathlib
import re
import shlex

import numpy as np
import pytest
from contextlib import redirect_stderr, redirect_stdout

from lebp import numerics
from lebp.cli import (
    _SUBCOMMANDS,
    UsageError,
    _fmt,
    _write_csv,
    build_parser,
    main,
    parse_grid,
    parse_pi_literal,
    parse_tuple,
)
from lebp.correlation import (
    kernel_semicircle,
    kernel_strip,
    two_point_semicircle,
)
from lebp.rect_kernels import CROSSING_CASES, MIN_GAP, RectConfig, crossing_ratio
from oracles import pdf_special_start

DATA = pathlib.Path(__file__).parent / "data"


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def rows_of(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


# --- literal and grid parsing ---------------------------------------------------


def test_pi_literal_parsing():
    assert parse_pi_literal("pi") == math.pi
    assert parse_pi_literal("pi/2") == math.pi / 2
    assert parse_pi_literal("3pi/4") == 3 * math.pi / 4
    assert parse_pi_literal("2*pi/3") == 2 * math.pi / 3
    assert parse_pi_literal("-pi/6") == -math.pi / 6
    assert parse_pi_literal("PI/2") == math.pi / 2
    assert parse_pi_literal("0.25") == 0.25
    assert parse_pi_literal("1e-3") == 1e-3
    with pytest.raises(UsageError):
        parse_pi_literal("two pies")


@pytest.mark.parametrize("text", ["pi/0", "2pi/0", "-3*pi/0.0", "inf", "-inf", "nan", "1e999"])
def test_pi_literal_rejects_zero_denominators_and_non_finite_values(text):
    with pytest.raises(UsageError, match=re.escape(repr(text))):
        parse_pi_literal(text)


def test_grid_parsing():
    assert parse_grid("pi/2", "--x").tolist() == [math.pi / 2]
    grid = parse_grid("0:pi:5", "--x")
    assert len(grid) == 5 and grid[0] == 0.0 and grid[-1] == math.pi
    with pytest.raises(UsageError):
        parse_grid("1:2", "--x")
    with pytest.raises(UsageError):
        parse_grid("1:2:0", "--x")
    with pytest.raises(UsageError):
        parse_grid("1:2:half", "--x")


# --- kernel subcommand -------------------------------------------------------------


def test_kernel_trivial_value():
    code, out, _ = run_cli(
        ["kernel", "--domain", "strip", "--N", "2", "--x", "1", "--theta", "pi/2",
         "--xp", "1", "--thetap", "pi/2"]
    )
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["x", "theta", "xp", "thetap", "value", "tail_bound"]
    assert len(rows) == 1
    assert float(rows[0][4]) == pytest.approx(2.0 / math.pi, rel=1e-15)
    assert float(rows[0][5]) == 0.0


def test_kernel_semicircle_equals_scaled_strip():
    r, rp = 2.0, 3.0
    code, semi, _ = run_cli(
        ["kernel", "--domain", "semicircle", "--N", "3", "--r", str(r), "--theta", "1.1",
         "--rp", str(rp), "--thetap", "2.2"]
    )
    assert code == 0
    code, strip, _ = run_cli(
        ["kernel", "--domain", "strip", "--N", "3", "--x", str(math.log(r)), "--theta", "1.1",
         "--xp", str(math.log(rp)), "--thetap", "2.2"]
    )
    assert code == 0
    v_semi = float(rows_of(semi)[1][0][4])
    v_strip = float(rows_of(strip)[1][0][4])
    assert v_semi == pytest.approx(v_strip / r, abs=1e-13)


def test_kernel_golden_grid():
    code, out, _ = run_cli(
        ["kernel", "--domain", "strip", "--N", "2", "--x", "0.4:1.2:5",
         "--theta", "0.5:2.6:5", "--xp", "0.2", "--thetap", "1.9"]
    )
    assert code == 0
    golden = (DATA / "kernel_grid_5x5.csv").read_text()
    assert out == golden


def test_kernel_tail_rows_carry_bounds():
    header, rows = rows_of((DATA / "kernel_grid_5x5.csv").read_text())
    bounds = [float(r[5]) for r in rows]
    assert len(rows) == 25
    assert all(b > 0.0 for b in bounds)
    assert max(bounds) < 1e-11


# --- other evaluation subcommands --------------------------------------------------


def test_density_single_path_values():
    code, out, _ = run_cli(["density", "--N", "1", "--r", "3", "--theta", "0.3:2.8:6"])
    assert code == 0
    _, rows = rows_of(out)
    for row in rows:
        th, v = float(row[1]), float(row[2])
        assert v == pytest.approx(2.0 / (3.0 * math.pi) * math.sin(th) ** 2, rel=1e-13)


def test_two_point_equal_and_cross_radius():
    code, out, _ = run_cli(
        ["two-point", "--N", "3", "--r", "2", "--theta", "1", "--rp", "2", "--thetap", "2"]
    )
    assert code == 0
    _, rows = rows_of(out)
    assert float(rows[0][4]) == pytest.approx(
        two_point_semicircle(3, 2.0, 1.0, 2.0, 2.0).value, rel=1e-14
    )
    assert float(rows[0][5]) == 0.0

    code, out, _ = run_cli(
        ["two-point", "--N", "3", "--r", "2", "--theta", "1", "--rp", "3", "--thetap", "2"]
    )
    assert code == 0
    _, rows = rows_of(out)
    # 40-digit reference; the kernel determinant emitted here must agree to
    # well inside its own tail bound
    assert float(rows[0][4]) == pytest.approx(0.1565720742434987580453, rel=1e-12)
    assert 0.0 < float(rows[0][5]) < 1e-12


def test_two_point_near_coincident_angles_matches_mpmath():
    # equal radii, angles 1e-5 apart: rho rho' - K^2 cancels about ten digits,
    # and the row still carries bound 0 (both kernels are exact finite sums)
    import mpmath as mp

    code, out, _ = run_cli(
        ["two-point", "--N", "3", "--r", "2", "--theta", "1.0", "--rp", "2", "--thetap", "1.00001"]
    )
    assert code == 0
    _, rows = rows_of(out)
    with mp.workdps(50):
        th, tp = mp.mpf(1.0), mp.mpf(1.00001)

        def k(a, b):
            return mp.fsum(mp.sin(n * a) * mp.sin(n * b) for n in (1, 2, 3)) / mp.pi

        want = float(k(th, th) * k(tp, tp) - k(th, tp) ** 2)
    assert abs(float(rows[0][4]) / want - 1.0) < 1e-6
    assert float(rows[0][5]) == 0.0


def test_pdf_special_start_row():
    code, out, _ = run_cli(["pdf", "--theta", "1.0,2.0"])
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["theta_1", "theta_2", "value"]
    assert float(rows[0][2]) == pytest.approx(pdf_special_start((1.0, 2.0)), rel=1e-15)


def test_pdf_general_infinite_and_finite():
    code, out, _ = run_cli(["pdf", "--x", "0.9", "--theta", "1.0,2.2", "--phi", "0.9,2.0"])
    assert code == 0
    header, rows = rows_of(out)
    assert header[-1] == "value" and "length" not in header
    v_inf = float(rows[0][-1])
    code, out, _ = run_cli(
        ["pdf", "--x", "0.9", "--theta", "1.0,2.2", "--phi", "0.9,2.0", "--L", "14"]
    )
    assert code == 0
    header, rows = rows_of(out)
    assert "length" in header
    assert float(rows[0][-1]) == pytest.approx(v_inf, rel=1e-10)


PROBE_THETA, PROBE_PHI = "0.6,1.2,1.9,2.6", "0.5,1.1,1.8,2.5"


def _mp_strip_density(cuts, thetas, phi=None, digits=60):
    """Joint first-passage density of the infinite strip at the cuts, with
    `digits` significant digits, as the product of full determinants and
    strip norms W(x) = prod_j sinh(j x) / N!:

        det[H_boundary(x_1)] / hat_h(phi)  (midpoint start, phi None:
        2^{N^2} / pi^N * hat_h(theta_1) / W(x_1)),
        times det[H(x_m + i theta_m, x_{m+1} + i theta_{m+1})] per step,
        times W(x_M) * hat_h(theta_M).

    An N x N determinant with a gap g between its edges cancels about
    N(N-1)/2 * g / ln 10 digits; the working precision adds them back."""
    import mpmath as mp

    n = len(thetas[0])
    gaps = [b - a for a, b in zip(cuts, cuts[1:])] + ([cuts[0]] if phi is not None else [])
    lost = max((n * (n - 1) / 2 * g / math.log(10) for g in gaps), default=0.0)
    with mp.workdps(digits + int(lost) + 10):

        def hat(t):
            out = mp.fprod(mp.sin(a) for a in t)
            for k, l in itertools.combinations(range(len(t)), 2):
                out *= mp.cos(t[l]) - mp.cos(t[k])
            return out

        def weight(x):
            return mp.fprod(mp.sinh(j * x) for j in range(1, n + 1)) / mp.factorial(n)

        def det(coeff, gap, start, end):
            ks = range(1, n + int(mp.mp.dps * math.log(10) / gap) + 6)

            def entry(s, e):
                return 2 / mp.pi * mp.fsum(coeff(k) * mp.sin(k * s) * mp.sin(k * e) for k in ks)

            return mp.det(mp.matrix([[entry(s, e) for e in end] for s in start]))

        xs = [mp.mpf(x) for x in cuts]
        th = [[mp.mpf(t) for t in tup] for tup in thetas]
        if phi is None:
            value = 2 ** (n * n) / mp.pi**n * hat(th[0]) / weight(xs[0])
        else:
            p = [mp.mpf(a) for a in phi]
            value = det(lambda k: k / mp.sinh(k * xs[0]), cuts[0], p, th[0]) / hat(p)
        for a, b, ta, tb in zip(xs, xs[1:], th, th[1:]):
            value *= det(lambda k: mp.sinh(k * a) / mp.sinh(k * b), float(b - a), ta, tb)
        return float(value * weight(xs[-1]) * hat(th[-1]))


def test_pdf_at_large_cuts_matches_mpmath():
    # an LU of the assembled 4 x 4 kernel matrix gives -2.8e-7 at x = 8,
    # where the density is 7.0611; a product of sinh(n x) overflows from
    # x = 119 on at N = 3.  From x = 40 on the 50-digit excess over the
    # midpoint-start density is below 1e-17 relative, so it is the oracle.
    cases = [(PROBE_THETA, PROBE_PHI, x) for x in (4, 6, 8, 10, 12)]
    cases += [("0.6,1.9,2.6", "0.5,1.8,2.5", x) for x in (20, 60, 119, 124, 150, 200)]
    for theta, phi, x in cases:
        code, out, _ = run_cli(["pdf", "--x", str(x), "--theta", theta, "--phi", phi])
        assert code == 0, x
        theta, phi = parse_tuple(theta, "--theta"), parse_tuple(phi, "--phi")
        want = _mp_strip_density((x,), [theta], phi) if x < 40 else pdf_special_start(theta)
        assert abs(float(rows_of(out)[1][0][-1]) / want - 1.0) <= 1e-13, x


def test_joint_pdf_at_large_cuts_matches_mpmath():
    # at these cuts prod_n sinh(n x) overflows or the full determinants
    # underflow; the telescoped product forms neither
    thetas = "0.6,1.9,2.6/0.7,1.8,2.5"
    tuples = [parse_tuple(t, "--theta") for t in thetas.split("/")]
    for cuts, phi in [("100,130", None), ("100,130", "0.5,1.8,2.5"), ("250,251", None)]:
        start = [] if phi is None else ["--phi", phi]
        code, out, _ = run_cli(["joint-pdf", "--cuts", cuts, "--theta", thetas, *start])
        assert code == 0, (cuts, phi)
        phi = None if phi is None else parse_tuple(phi, "--phi")
        want = _mp_strip_density(parse_tuple(cuts, "--cuts"), tuples, phi)
        assert abs(float(rows_of(out)[1][0][-1]) / want - 1.0) <= 1e-13, (cuts, phi)


def _passage_argv():
    theta, phi = "0.6,1.9,2.6", "0.5,1.8,2.5"
    for x in ("1e-17", "1", "20", "119", "124", "125", "150", "200", "236", "237", "400"):
        args = ["pdf", "--x", x, "--theta", theta]
        yield from (args, args + ["--phi", phi], args + ["--phi", phi, "--L", f"{float(x) + 1}"])
    for cuts in ("1,2", "100,130", "250,251", "1,250", "399,400", "10,200,400"):
        args = ["joint-pdf", "--cuts", cuts, "--theta", "/".join([theta] * len(cuts.split(",")))]
        last = float(cuts.split(",")[-1])
        yield from (args, args + ["--phi", phi], args + ["--phi", phi, "--L", f"{last + 1}"])


@pytest.mark.parametrize("args", list(_passage_argv()), ids=" ".join)
def test_passage_density_is_positive_or_refused(args):
    # every start, strip or rectangle, at cuts up to 400: a finite positive
    # density, or exit 2 with one line naming the precondition
    code, out, err = run_cli(args)
    if code == 0:
        value = float(rows_of(out)[1][0][-1])
        assert math.isfinite(value) and value > 0.0 and err == ""
    else:
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_joint_pdf_row():
    code, out, _ = run_cli(
        ["joint-pdf", "--cuts", "0.4,0.9", "--theta", "1.0,2.1/0.9,2.0"]
    )
    assert code == 0
    header, rows = rows_of(out)
    assert header[:2] == ["cut_1", "cut_2"]
    assert float(rows[0][-1]) > 0.0


def test_fomin_check_row_within_bound():
    code, out, _ = run_cli(["fomin-check"])
    assert code == 0
    header, rows = rows_of(out)
    assert rows[0][header.index("within_bound")] == "1"
    diff = float(rows[0][header.index("abs_diff")])
    bound = float(rows[0][header.index("tail_bound")])
    assert diff <= bound


@pytest.mark.parametrize("size, paths", [(2, 2), (3, 2), (4, 3)])
def test_fomin_check_bound_is_rounding_level(size, paths):
    # the enumeration is exact, so the bound covers rounding alone
    code, out, _ = run_cli(["fomin-check", "--size", str(size), "--paths", str(paths)])
    assert code == 0
    header, (row,) = rows_of(out)
    col = {name: float(row[header.index(name)]) for name in ("determinant", "tail_bound", "abs_diff")}
    assert col["abs_diff"] <= col["tail_bound"] <= 1e-6 * abs(col["determinant"])


def test_fomin_check_max_len_is_validated_and_printed_but_changes_nothing():
    rows = {}
    for max_len in ("3", "40"):
        code, out, _ = run_cli(["fomin-check", "--size", "3", "--max-len", max_len])
        assert code == 0
        header, (row,) = rows_of(out)
        assert row[header.index("max_len")] == max_len
        rows[max_len] = row[: header.index("max_len")] + row[header.index("max_len") + 1 :]
    assert rows["3"] == rows["40"]
    code, _, err = run_cli(["fomin-check", "--max-len", "0"])
    assert code == 2 and "--max-len" in err


def test_crossing_exponent_fit_columns():
    code, out, _ = run_cli(["crossing-exponent", "--paths", "2"])
    assert code == 0
    header, rows = rows_of(out)
    assert len(rows) == 4
    rel = float(rows[0][header.index("relative_error")])
    assert rel < 0.01
    assert all(r[header.index("fitted_exponent")] == rows[0][header.index("fitted_exponent")] for r in rows)


def test_crossing_exponent_rows_are_library_ratios():
    code, out, _ = run_cli(["crossing-exponent", "--paths", "3"])
    assert code == 0
    header, rows = rows_of(out)
    phi, rho = CROSSING_CASES[3]
    for row in rows:
        length = float(row[header.index("length")])
        want = crossing_ratio(RectConfig(length), phi, rho)
        assert row[header.index("ratio")] == _fmt(want)


def test_crossing_exponent_cap_is_validated_but_changes_nothing():
    runs = [run_cli(["crossing-exponent", "--paths", "3", "--cap", cap]) for cap in ("3", "12")]
    assert runs[0][0] == 0 and runs[0] == runs[1]
    code, _, err = run_cli(["crossing-exponent", "--cap", "0"])
    assert code == 2 and "--cap" in err


def test_crossing_exponent_explicit_builtin_angles_print_the_same_bytes():
    phi, rho = CROSSING_CASES[2]
    explicit = ["--phi", ",".join(map(repr, phi)), "--rho", ",".join(map(repr, rho))]
    builtin = run_cli(["crossing-exponent", "--paths", "2"])
    assert builtin[0] == 0
    assert run_cli(["crossing-exponent", "--paths", "2", *explicit]) == builtin


@pytest.mark.parametrize(
    "args",
    [
        ["crossing-exponent", "--paths", "2"],
        ["validate", "--suite", "fomin"],
        ["lattice-validate", "--levels", "15"],
        ["kernel", "--domain", "strip", "--N", "2", "--x", "0.5", "--theta", "1",
         "--xp", "0.4", "--thetap", "2"],
        ["two-point", "--N", "2", "--r", "2", "--theta", "1", "--rp", "3", "--thetap", "2"],
        ["pdf", "--x", "0.8", "--theta", "0.9,2.1", "--phi", "1,2", "--L", "2"],
        ["joint-pdf", "--cuts", "0.5,1.2", "--theta", "0.3,1.3/0.7,1.5", "--phi", "0.7,1.4"],
        ["figure", "--id", "8"],
    ],
    ids=lambda a: a[0],
)
def test_crossing_exponent_takes_no_series_policy(args, tmp_path):
    # every series truncates at the library's fixed certified targets; no
    # subcommand takes the old policy flags, and no manifest records them
    for flag in ("--tol", "--n-max", "--min-gap"):
        with pytest.raises(SystemExit) as exc:
            run_cli([*args, flag, "1"])
        assert exc.value.code == 2
    output, manifest = tmp_path / "out", tmp_path / "run.json"
    code, out, _ = run_cli([*args, "--output", str(output), "--save-manifest", str(manifest)])
    assert code == 0 and out == "" and output.read_text()
    payload = json.loads(manifest.read_text())
    assert "policy" not in payload
    assert not {"tol", "n_max", "min_gap"} & set(payload["arguments"])
    # a manifest that records the policy flags replays with exit 2 and
    # names them
    payload["arguments"].update(tol="1e-12", n_max="100000", min_gap="1e-3")
    manifest.write_text(json.dumps(payload))
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, redirect_stderr(err):
        main(["--manifest", str(manifest)])
    assert exc.value.code == 2 and "--tol" in err.getvalue()


def test_lattice_validate_ratios_fall():
    code, out, _ = run_cli(["lattice-validate", "--levels", "15,31"])
    assert code == 0
    header, rows = rows_of(out)
    idx = header.index("ratio")
    ratios = [float(r[idx]) for r in rows if r[idx]]
    assert len(ratios) == 2
    assert all(q < 1.0 for q in ratios)


# --- figures -----------------------------------------------------------------------


def test_figure_7_has_three_ridges():
    code, out, _ = run_cli(["figure", "--id", "7"])
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["x", "y", "value"]
    # rows are emitted radius-outer, angle-inner; the last 181 rows form
    # the outermost angle scan
    scan = np.array([float(r[2]) for r in rows[-181:]])
    inner = scan[1:-1]
    peaks = int(np.sum((inner > scan[:-2]) & (inner > scan[2:])))
    assert peaks == 3


def test_figure_8_peaks_and_vanishing():
    code, out, _ = run_cli(["figure", "--id", "8"])
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["theta_prime", "value"]
    tp = np.array([float(r[0]) for r in rows])
    v = np.array([float(r[1]) for r in rows])
    inner = v[1:-1]
    peaks = int(np.sum((inner > v[:-2]) & (inner > v[2:])))
    assert peaks == 4
    assert v[int(np.argmin(np.abs(tp - math.pi / 2)))] == 0.0


def test_figure_9_vanishes_at_center():
    code, out, _ = run_cli(["figure", "--id", "9"])
    assert code == 0
    _, rows = rows_of(out)
    tp = np.array([float(r[0]) for r in rows])
    v = np.array([float(r[1]) for r in rows])
    center = int(np.argmin(np.abs(tp - math.pi / 2)))
    assert v[center] == 0.0
    assert v[center - 1] < 0.01 and v[center + 1] < 0.01
    assert v.max() > 1.0


def test_figure_10_snaps_probe_radius():
    code, out, _ = run_cli(["figure", "--id", "10"])
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["x_prime", "y_prime", "value", "tail_bound"]
    radii = sorted({math.hypot(float(r[0]), float(r[1])) for r in rows})
    # the grid point nearest the probe radius collapses onto it exactly
    assert any(abs(q - 2.0) < 1e-12 for q in radii)
    on_probe = [r for r in rows if abs(math.hypot(float(r[0]), float(r[1])) - 2.0) < 1e-12]
    assert all(float(r[3]) == 0.0 for r in on_probe)


# --- determinism and manifests -------------------------------------------------------


def _scalar_grid_rows(grids, evaluate):
    rows = []
    for a, b, c, d in itertools.product(*(parse_grid(g, "grid") for g in grids)):
        value, bound = evaluate(float(a), float(b), float(c), float(d))
        rows.append(",".join(map(_fmt, (a, b, c, d, value, bound))))
    return rows


def test_grid_output_is_scalar_library_calls(monkeypatch):
    # every grid row is what the per-point library call prints, and the
    # output does not depend on how the series are blocked
    strip = ("0.4:1.4:3", "0.2:2.9:4", "0.9", "0.3:3.0:5")  # x <, = and > x'
    semi = ("1.5:3:3", "0.2:2.9:4", "2", "0.3:3.0:5")
    pair = ("2:3:2", "0.2:2.9:4", "2", "0.3:3.0:5")  # equal and distinct radii
    cases = [
        (["kernel", "--domain", "strip", "--N", "3"], ("--x", "--theta", "--xp", "--thetap"),
         strip, lambda *p: kernel_strip(3, *p)),
        (["kernel", "--domain", "semicircle", "--N", "4"], ("--r", "--theta", "--rp", "--thetap"),
         semi, lambda *p: kernel_semicircle(4, *p)),
        (["two-point", "--N", "4"], ("--r", "--theta", "--rp", "--thetap"),
         pair, lambda *p: two_point_semicircle(4, *p)),
    ]
    outputs = []
    for head, flags, grids, evaluate in cases:
        args = head + [x for f, g in zip(flags, grids) for x in (f, g)]
        code, out, _ = run_cli(args)
        assert code == 0
        assert out.split("\n")[1:-1] == _scalar_grid_rows(grids, evaluate)
        outputs.append((args, out))

    code, fig10, _ = run_cli(["figure", "--id", "10"])
    assert code == 0
    _, rows = rows_of(fig10)
    radii = np.linspace(1.05, 4.0, 60)
    radii = np.where(np.abs(np.log(radii / 2.0)) < MIN_GAP, 2.0, radii)
    thetas = np.linspace(0.0, math.pi, 121)
    probed = 0
    for i, r in enumerate(radii.tolist()):
        if i % 6 and r != 2.0:
            continue
        for row, th in zip(rows[121 * i : 121 * (i + 1)], thetas.tolist()):
            value, bound = two_point_semicircle(3, 2.0, math.pi / 2, r, th)
            want = [_fmt(r * math.cos(th)), _fmt(r * math.sin(th)), _fmt(value), _fmt(bound)]
            assert row == want
            probed += 1
    assert probed == 121 * 11
    outputs.append((["figure", "--id", "10"], fig10))

    monkeypatch.setattr(numerics, "BLOCK_ENTRIES", 7)
    for args, out in outputs:
        assert run_cli(args)[1] == out


# each grid subcommand, the library function it calls and the number of
# sine-series evaluations that one call makes (one per kernel or density)
_ONE_CALL_GRIDS = [
    (["kernel", "--domain", "strip", "--N", "3", "--x", "0.4:1.4:3", "--theta", "0.2:2.9:4",
      "--xp", "0.5:0.9:2", "--thetap", "0.3:3.0:5"], "kernel_strip", 1),
    (["kernel", "--domain", "semicircle", "--N", "3", "--r", "1.5:3:3", "--theta", "0.2:2.9:4",
      "--rp", "2:2.5:2", "--thetap", "0.3:3.0:5"], "kernel_semicircle", 1),
    (["two-point", "--N", "4", "--r", "2:3:2", "--theta", "0.2:2.9:4", "--rp", "2:2.2:3",
      "--thetap", "0.3:3.0:5"], "two_point_semicircle", 4),
    (["figure", "--id", "10"], "two_point_semicircle", 4),
]


@pytest.mark.parametrize("args, name, series", _ONE_CALL_GRIDS, ids=lambda v: str(v)[:24])
def test_grid_is_one_library_call(monkeypatch, args, name, series):
    # every cut or radius pair of a grid shares one library call, and so
    # one sine table per angle argument and series
    import lebp.correlation as correlation

    calls = {name: 0, "_sine_series": 0}

    def counted(key):
        original = getattr(correlation, key)

        def wrapper(*a, **k):
            calls[key] += 1
            return original(*a, **k)

        return wrapper

    for key in calls:
        monkeypatch.setattr(correlation, key, counted(key))
    code, out, _ = run_cli(args)
    assert code == 0 and out.count("\n") > 20
    assert calls == {name: 1, "_sine_series": series}


def test_manifest_roundtrip(tmp_path):
    first = tmp_path / "a.csv"
    manifest = tmp_path / "run.json"
    replayed = tmp_path / "b.csv"
    code = main(
        ["kernel", "--domain", "strip", "--N", "2", "--x", "0.5:1.5:3", "--theta", "pi/3",
         "--xp", "2", "--thetap", "pi/4", "--output", str(first),
         "--save-manifest", str(manifest)]
    )
    assert code == 0
    payload = json.loads(manifest.read_text())
    assert payload["subcommand"] == "kernel"
    assert payload["arguments"]["theta"] == "pi/3"
    assert "policy" not in payload
    assert payload["version"]
    code = main(["--manifest", str(manifest), "--output", str(replayed)])
    assert code == 0
    assert replayed.read_bytes() == first.read_bytes()


def test_manifest_orders_are_the_orders_validate_uses(tmp_path, monkeypatch):
    from lebp import validation

    used = []

    def recording_rule(order, *args):
        used.append(order)
        return numerics.gauss_legendre(order, *args)

    monkeypatch.setattr(validation, "gauss_legendre", recording_rule)
    manifest = tmp_path / "run.json"
    report = tmp_path / "report.json"
    code = main(["validate", "--suite", "all", "--output", str(report),
                 "--save-manifest", str(manifest)])
    assert code == 0
    orders = json.loads(manifest.read_text())["orders"]
    assert sorted(orders.values()) == sorted(used)
    assert orders == validation.QUADRATURE_ORDERS
    # the benchmark's validate job expects exactly this many passing records
    checks = [c for suite in json.loads(report.read_text())["suites"] for c in suite["checks"]]
    assert len(checks) == 22
    assert all(c["passed"] is True for c in checks)


def test_manifest_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    code, _, err = run_cli(["--manifest", str(bad)])
    assert code == 2
    assert "manifest" in err


# --- validate and error paths ---------------------------------------------------------


def test_validate_suite_passes():
    code, out, _ = run_cli(["validate", "--suite", "crossing"])
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "crossing"
    assert report["passed"] is True
    assert all(c["measured"] <= c["tolerance"] for c in report["checks"])


def test_validate_report_carries_elapsed():
    # the timed checks report their wall time as a number, not in free text
    code, out, _ = run_cli(["validate", "--suite", "fomin"])
    assert code == 0
    (check,) = json.loads(out)["checks"]
    assert isinstance(check["elapsed"], float) and check["elapsed"] > 0.0
    assert "elapsed" not in check["detail"]


def test_validate_failure_sets_exit_code(monkeypatch):
    from lebp import validation

    monkeypatch.setattr(
        validation, "suite_report", lambda name: {"suite": name, "passed": False, "checks": []}
    )
    code, out, _ = run_cli(["validate", "--suite", "crossing"])
    assert code == 1
    assert json.loads(out)["passed"] is False


def _readme_examples():
    """The argv of every `lebp <subcommand>` line of the README, continued
    lines joined and comments dropped."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    lines = text.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("lebp ")]


_README_ARGV = [args for args in _readme_examples() if args[0] != "--manifest"]


def test_readme_shows_every_subcommand():
    assert {args[0] for args in _README_ARGV} == set(_SUBCOMMANDS)


@pytest.mark.parametrize("args", _README_ARGV, ids=" ".join)
def test_one_subcommand_parser_reads_what_the_full_parser_reads(args):
    assert build_parser(args[0]).parse_args(args) == build_parser().parse_args(args)


def _outcome(call):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = call()
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


_PARSER_MESSAGES = [
    (["--help"], "{kernel,density,two-point,pdf,joint-pdf,fomin-check,"),
    (["kernel", "--help"], "usage: lebp kernel [-h] --domain {strip,semicircle}"),
    (["kernl"], "argument subcommand: invalid choice: 'kernl'"),
    (["pdf"], "lebp pdf: error: the following arguments are required: --theta"),
    (["pdf", "--theta", "0.5", "--bogus", "1"], "{kernel,density,two-point,pdf,joint-pdf,"),
    (["validate", "--suite", "nope"], "argument --suite: invalid choice: 'nope'"),
    (["figure", "--id", "11"], "argument --id: invalid choice: '11'"),
]


@pytest.mark.parametrize(
    "args, fragment", _PARSER_MESSAGES, ids=[" ".join(a) for a, _ in _PARSER_MESSAGES]
)
def test_help_usage_and_errors_are_the_full_parsers(args, fragment):
    # main builds one subcommand's parser where it can; what it prints, and
    # its exit code, are what the full parser gives
    code, out, err = _outcome(lambda: main(args))
    assert (code, out, err) == _outcome(lambda: build_parser().parse_args(args))
    assert code == (0 if "--help" in args else 2)
    assert fragment in out + err


def test_suite_choices_are_the_validation_suites():
    from lebp import cli, validation

    (sub,) = [a for a in build_parser()._actions if a.dest == "subcommand"]
    (suite,) = [a for a in sub.choices["validate"]._actions if a.dest == "suite"]
    assert list(suite.choices) == sorted(validation.SUITES) + ["all"]
    # the parser's copy, kept so that building it does not import validation
    assert cli._SUITE_NAMES == tuple(sorted(validation.SUITES))


def test_unknown_suite_is_rejected():
    with pytest.raises(SystemExit) as exc:
        run_cli(["validate", "--suite", "bogus"])
    assert exc.value.code == 2


def test_usage_errors_name_the_precondition():
    cases = [
        (["kernel", "--domain", "strip", "--N", "2", "--theta", "1", "--thetap", "1"], "--x"),
        (["two-point", "--N", "2", "--r", "2", "--theta", "1", "--rp", "2.000001",
          "--thetap", "1.5"], "MIN_GAP"),
        (["pdf", "--theta", "1.0,2.0", "--L", "3"], "midpoint start"),
        (["density", "--N", "0", "--r", "2", "--theta", "1"], "at least 1"),
        (["joint-pdf", "--cuts", "0.4,0.9", "--theta", "1.0,2.0"], "per cut"),
        (["pdf", "--theta", "1.0,2.0", "--phi", "0.9,2.0"], "--x"),
    ]
    for args, fragment in cases:
        code, _, err = run_cli(args)
        assert code == 2, args
        assert fragment in err, (args, err)


@pytest.mark.parametrize(
    "args, fragment",
    [
        (["pdf", "--theta", "pi/0"], "'pi/0' divides by zero"),
        (["pdf", "--theta", "2pi/0"], "'2pi/0' divides by zero"),
        (["two-point", "--N", "2", "--r", "2", "--theta", "1", "--rp", "inf", "--thetap", "1"],
         "'inf' is not a finite number"),
        (["density", "--N", "2", "--r", "2", "--theta", "nan"], "'nan' is not a finite number"),
        (["density", "--N", "2", "--r", "2", "--theta", "1e308:-1e308:3"], "overflows"),
        (["kernel", "--domain", "strip", "--N", "2", "--x", "inf", "--theta", "1",
          "--xp", "1", "--thetap", "1"], "'inf' is not a finite number"),
        (["crossing-exponent", "--paths", "2", "--lengths", "6,6"], "two distinct"),
        (["crossing-exponent", "--paths", "2", "--phi", "1,2,2.5", "--rho", "1.2,1.9"],
         "one angle per path"),
        (["crossing-exponent", "--paths", "3", "--phi", "1,2,2.5", "--rho", "1.2,1.9"],
         "one angle per path"),
        (["crossing-exponent", "--paths", "4"], "give --phi and --rho explicitly"),
        (["crossing-exponent", "--paths", "1", "--phi", "1", "--rho", "1", "--lengths", "1,2"],
         "--paths: must be at least 2"),
        (["lattice-validate", "--levels", "15,15"], "each level must appear once"),
        (["density", "--N", "3", "--r", "2", "--theta", "4"], "angles must lie in [0, pi]"),
        (["pdf", "--x", "200", "--theta", "0.6,1.2,1.9,2.6", "--phi", "0.5,1.1,1.8,2.5"],
         "coefficients underflow"),
        (["joint-pdf", "--cuts", "1,250", "--theta", "0.6,1.2,1.9,2.6/0.6,1.2,1.9,2.6",
          "--phi", "0.5,1.1,1.8,2.5"], "coefficients underflow"),
        (["crossing-exponent", "--lengths", "800,900"], "coefficients underflow"),
        (["crossing-exponent", "--paths", "2", "--phi", "0.3,2.8", "--rho", "2.7,2.9",
          "--lengths", "0.01,0.02"], "at length 0.01 is not positive"),
        (["kernel", "--domain", "strip", "--N", "20", "--x", "0.1", "--xp", "40",
          "--theta", "1", "--thetap", "2"], "sinh ratio overflows"),
        (["two-point", "--N", "3", "--r", "1.0000001", "--theta", "1", "--rp", "1e300",
          "--thetap", "2"], "sinh ratio overflows"),
        (["pdf", "--theta", "1,2", "--output", str(DATA / "missing" / "out.csv")],
         "out.csv: No such file or directory"),
        (["pdf", "--theta", "1,2", "--output", str(DATA)], "data: Is a directory"),
        (["pdf", "--theta", "1,2", "--save-manifest", str(DATA / "missing" / "m.json")],
         "m.json: No such file or directory"),
        (["--manifest", str(DATA / "manifest_array.json")], "manifest_array.json"),
        (["--manifest", str(DATA / "manifest_string.json")], "manifest_string.json"),
        (["--manifest", str(DATA / "manifest_list_arguments.json")],
         "manifest_list_arguments.json"),
    ],
)
def test_bad_literals_and_degenerate_fits_exit_2_without_traceback(args, fragment):
    code, out, err = run_cli(args)
    assert code == 2
    assert out == ""
    # one error line: no traceback, and no numpy warning on the way there
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert fragment in err


def test_run_suite_times_every_check(monkeypatch):
    # a check that times nothing gets its function's wall time; a check that
    # times its own computation keeps that time
    from lebp import validation

    def untimed():
        return [validation.Measured(0.0), validation.Measured(0.0)]

    def timed():
        return [validation.Measured(0.0, elapsed=123.0)]

    probes = tuple(
        validation.Record(name, check, 1.0, "numerics.det_lu", None)
        for name, check in (("a", untimed), ("b", untimed), ("c", timed))
    )
    monkeypatch.setattr(validation, "RECORDS", validation.RECORDS + probes)
    monkeypatch.setitem(validation.SUITES, "probe", (untimed, timed))
    a, b, c = validation.run_suite("probe")
    assert a.elapsed == b.elapsed and 0.0 < a.elapsed < 1.0
    assert c.elapsed == 123.0
    code, out, _ = run_cli(["validate", "--suite", "limits"])
    assert code == 0
    checks = json.loads(out)["checks"]
    assert len(checks) == 9
    assert all(isinstance(c["elapsed"], float) and c["elapsed"] >= 0.0 for c in checks)


# --- the CSV writer ------------------------------------------------------------------

# small arguments for every CSV subcommand
_CSV_ARGV = [
    ["kernel", "--domain", "strip", "--N", "3", "--x", "0.4:1.4:3", "--theta", "0.2:2.9:4",
     "--xp", "0.9", "--thetap", "0.3:3.0:2"],
    ["kernel", "--domain", "semicircle", "--N", "2", "--r", "1.5:3:2", "--theta", "pi/3",
     "--rp", "2", "--thetap", "0:pi:3"],
    ["density", "--N", "3", "--r", "1.5:3:2", "--theta", "0:pi:5"],
    ["two-point", "--N", "3", "--r", "2", "--theta", "1", "--rp", "2:3:2", "--thetap", "0.5:2.5:3"],
    ["pdf", "--theta", "1.0,2.0"],
    ["pdf", "--x", "0.9", "--theta", "1.0,2.2", "--phi", "0.9,2.0", "--L", "2"],
    ["joint-pdf", "--cuts", "0.4,0.9", "--theta", "1.0,2.1/0.9,2.0", "--phi", "0.9,2.0"],
    ["fomin-check", "--size", "2", "--paths", "2", "--max-len", "6"],
    ["crossing-exponent", "--paths", "2", "--lengths", "6,8"],
    ["lattice-validate", "--levels", "15,31"],
    ["figure", "--id", "10"],
]


@pytest.mark.parametrize("args", _CSV_ARGV, ids=lambda a: " ".join(a[:3]))
def test_csv_output_needs_no_quoting_and_output_file_matches_stdout(args, tmp_path):
    code, out, err = run_cli(args)
    assert code in (0, 1) and err == ""
    # csv.writer quotes a field only if it holds a delimiter, quote or line
    # break, so an unchanged round trip means no field needed quoting
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows)
    again = io.StringIO()
    csv.writer(again, lineterminator="\n").writerows(rows)
    assert again.getvalue() == out
    target = tmp_path / "out.csv"
    assert main(args + ["--output", str(target)]) == code
    assert target.read_bytes() == out.encode("utf-8")


def test_csv_writer_subcommands_are_covered():
    assert {a[0] for a in _CSV_ARGV} == set(_SUBCOMMANDS) - {"validate"}


def _per_cell(header, columns):
    """The writer's byte contract: _fmt joined per numeric cell, strings as given."""
    cells = [
        [_fmt(v) for v in c.ravel().tolist()]
        if isinstance(c, np.ndarray)
        else [v if isinstance(v, str) else _fmt(v) for v in c]
        for c in columns
    ]
    return "".join(",".join(line) + "\n" for line in (header, *zip(*cells)))


def test_csv_writer_bytes_equal_per_cell_formatting():
    edge = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308,
            -2.5e-310, 0.1, 1.0 / 3.0]
    columns = [
        np.array(edge),
        np.array(edge[::-1]).reshape(2, 5),
        np.array([-0.0, 0.1, 1.0 / 3.0, 3.4028235e38, 1e-45] * 2, dtype=np.float32),
        np.arange(-4, 6),
        np.array([2**62 + 1, -(2**53) - 1] * 5),
        np.array([True, False] * 5),
        ["", "name", 0.5, -0.0, math.inf, 7, "x", math.nan, 5e-324, "1e3"],
    ]
    header = [f"c{j}" for j in range(len(columns))]
    out = io.StringIO()
    _write_csv(out, header, columns)
    assert out.getvalue() == _per_cell(header, columns)
    # a table without rows is its header line
    empty = [np.empty((0, 3)), np.array([], dtype=np.float32), []]
    out = io.StringIO()
    _write_csv(out, ["a", "b", "c"], empty)
    assert out.getvalue() == _per_cell(["a", "b", "c"], empty) == "a,b,c\n"


_EDGE = [-0.0, math.inf, math.nan, 5e-324, -math.inf, 0.1]


def _grid_case(shape, *column_shapes):
    """Axes of `shape` and columns of `column_shapes`, seeded values with the
    edge values -0, inf, nan and 5e-324 among them."""
    rng = np.random.default_rng(len(shape) + sum(map(sum, column_shapes)))
    axes = [np.sort(rng.uniform(0.0, 3.0, n)) for n in shape]
    axes[0][:2] = [-0.0, 5e-324][: shape[0]]
    columns = []
    for s in column_shapes:
        column = rng.standard_normal(s) * 10.0 ** rng.integers(-300, 300, s)
        column.flat[: len(_EDGE)] = _EDGE[: column.size]
        columns.append(column)
    return axes, columns


@pytest.mark.parametrize(
    "shape, column_shapes",
    [
        # the kernel grid: a full value and a per-pair bound
        ((3, 4, 2, 5), [(3, 4, 2, 5), (3, 1, 2, 1)]),
        # two-point: a full bound
        ((2, 3, 2, 4), [(2, 3, 2, 4), (2, 3, 2, 4)]),
        # single-point axes
        ((1, 1, 1, 1), [(1, 1, 1, 1), (1, 1, 1, 1)]),
        ((1, 1, 1, 1), [(1, 1, 1, 1), ()]),
        # a last axis of length 1
        ((3, 2, 2, 1), [(3, 2, 2, 1), (3, 1, 2, 1)]),
        ((4, 1), [(4, 1)]),
        # a bound that varies along the last axis alone
        ((3, 2, 1, 6), [(3, 2, 1, 6), (1, 1, 1, 6)]),
        ((2, 2, 2, 5), [(2, 2, 2, 5), (5,)]),
        # varying along the last axis and an outer one, short of the grid
        ((3, 2, 2, 5), [(3, 2, 2, 5), (3, 1, 1, 5)]),
        # a per-pair column before one that varies along the last axis alone
        ((3, 2, 2, 5), [(3, 1, 2, 1), (3, 2, 2, 5), (1, 1, 1, 5), (3, 1, 1, 1)]),
        # the density grid, and one axis
        ((5, 7), [(5, 7)]),
        ((9,), [(9,), (1,)]),
        # no rows
        ((2, 0), [(2, 0), (2, 1)]),
        ((0, 3), [(0, 3)]),
    ],
)
def test_csv_writer_grid_bytes_equal_per_cell_formatting(shape, column_shapes):
    # a grid prints each point's formatted coordinates, last axis fastest,
    # then every column broadcast over the grid
    axes, columns = _grid_case(shape, *column_shapes)
    header = [f"a{j}" for j in range(len(axes))] + [f"c{j}" for j in range(len(columns))]
    coordinates = [
        ",".join(p) for p in itertools.product(*([_fmt(t) for t in a] for a in axes))
    ]
    expected = _per_cell(header, [coordinates, *(np.broadcast_to(c, shape) for c in columns)])
    out = io.StringIO()
    _write_csv(out, header, columns, axes)
    assert out.getvalue() == expected
    assert out.getvalue().count("\n") == 1 + math.prod(shape)


@pytest.mark.parametrize(
    "golden, args",
    [
        ("density_grid.csv", ["density", "--N", "3", "--r", "1.2:2.0:3", "--theta", "0:pi:13"]),
        (
            "two_point_grid.csv",
            ["two-point", "--N", "3", "--r", "1.5:2.5:3", "--theta", "0.3:2.8:4",
             "--rp", "2.0", "--thetap", "0.5:2.5:3"],
        ),
        (
            "kernel_semicircle_grid.csv",
            ["kernel", "--domain", "semicircle", "--N", "2", "--r", "1.5:2.5:3",
             "--theta", "0.4:2.7:4", "--rp", "2.0", "--thetap", "1.1:2.1:2"],
        ),
    ],
)
def test_grid_golden_csv(golden, args):
    # r = 1.5, 2, 2.5 against r' = 2: both kernel branches and the exact
    # equal-radius sum; theta from 0 to pi for the density
    code, out, _ = run_cli(args)
    assert code == 0
    assert out == (DATA / golden).read_text()
