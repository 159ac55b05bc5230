"""Command-line behavior: literal parsing, CSV shape, golden regression,
determinism, manifest replay, figure data properties, and exit codes."""

import csv
import io
import itertools
import json
import math
import os
import pathlib
import re

import numpy as np
import pytest
from contextlib import redirect_stderr, redirect_stdout

from lebp import numerics
from lebp.cli import (
    _HANDLERS,
    UsageError,
    _fmt,
    _manifest_payload,
    build_parser,
    main,
    parse_grid,
    parse_pi_literal,
)
from lebp.correlation import (
    kernel_semicircle,
    kernel_strip,
    pdf_special_start,
    two_point_semicircle,
)
from lebp.numerics import DEFAULT_POLICY as POL
from lebp.rect_kernels import CROSSING_CASES, RectConfig, crossing_ratio

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
        two_point_semicircle(POL, 3, 2.0, 1.0, 2.0, 2.0).value, rel=1e-14
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


def test_pdf_special_start_row():
    code, out, _ = run_cli(["pdf", "--theta", "1.0,2.0"])
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["theta_1", "theta_2", "value"]
    assert float(rows[0][2]) == pytest.approx(pdf_special_start(1.0, (1.0, 2.0)), rel=1e-15)


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


def test_crossing_exponent_fit_columns():
    code, out, _ = run_cli(["crossing-exponent", "--paths", "2"])
    assert code == 0
    header, rows = rows_of(out)
    assert len(rows) == 4
    rel = float(rows[0][header.index("relative_error")])
    assert rel < 0.01
    assert all(r[header.index("fitted_exponent")] == rows[0][header.index("fitted_exponent")] for r in rows)


def test_crossing_exponent_rows_are_library_ratios():
    code, out, _ = run_cli(["crossing-exponent", "--paths", "3", "--cap", "12"])
    assert code == 0
    header, rows = rows_of(out)
    phi, rho = CROSSING_CASES[3]
    for row in rows:
        length = float(row[header.index("length")])
        want = crossing_ratio(RectConfig(length), phi, rho, 12)
        assert row[header.index("ratio")] == _fmt(want)


def test_crossing_exponent_takes_no_series_policy():
    # the partition expansion has no series policy; its old flags are gone
    for flag in ("--tol", "--n-max", "--min-gap"):
        with pytest.raises(SystemExit) as exc:
            run_cli(["crossing-exponent", "--paths", "2", flag, "1"])
        assert exc.value.code == 2


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
         strip, lambda *p: kernel_strip(POL, 3, *p)),
        (["kernel", "--domain", "semicircle", "--N", "4"], ("--r", "--theta", "--rp", "--thetap"),
         semi, lambda *p: kernel_semicircle(POL, 4, *p)),
        (["two-point", "--N", "4"], ("--r", "--theta", "--rp", "--thetap"),
         pair, lambda *p: two_point_semicircle(POL, 4, *p)),
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
    radii = np.where(np.abs(np.log(radii / 2.0)) < POL.min_gap, 2.0, radii)
    thetas = np.linspace(0.0, math.pi, 121)
    probed = 0
    for i, r in enumerate(radii.tolist()):
        if i % 6 and r != 2.0:
            continue
        for row, th in zip(rows[121 * i : 121 * (i + 1)], thetas.tolist()):
            value, bound = two_point_semicircle(POL, 3, 2.0, math.pi / 2, r, th)
            want = [_fmt(r * math.cos(th)), _fmt(r * math.sin(th)), _fmt(value), _fmt(bound)]
            assert row == want
            probed += 1
    assert probed == 121 * 11
    outputs.append((["figure", "--id", "10"], fig10))

    monkeypatch.setattr(numerics, "BLOCK_ENTRIES", 7)
    for args, out in outputs:
        assert run_cli(args)[1] == out


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
    assert payload["policy"]["tol"] == 1e-12
    assert payload["version"]
    code = main(["--manifest", str(manifest), "--output", str(replayed)])
    assert code == 0
    assert replayed.read_bytes() == first.read_bytes()


# the fewest arguments each subcommand parses with
_MINIMAL_ARGV = {
    "kernel": ["--domain", "strip", "--N", "2", "--theta", "1", "--thetap", "1"],
    "density": ["--N", "2", "--r", "2", "--theta", "1"],
    "two-point": ["--N", "2", "--r", "2", "--theta", "1", "--rp", "3", "--thetap", "1"],
    "pdf": ["--theta", "1"],
    "joint-pdf": ["--cuts", "1", "--theta", "1"],
    "fomin-check": [],
    "crossing-exponent": [],
    "lattice-validate": [],
    "figure": ["--id", "7"],
    "validate": ["--suite", "fomin"],
}


def test_manifest_policy_exactly_when_the_parser_takes_tol():
    assert set(_MINIMAL_ARGV) == set(_HANDLERS)
    parser = build_parser()
    for name, args in _MINIMAL_ARGV.items():
        payload = _manifest_payload(parser.parse_args([name] + args))
        try:
            with redirect_stderr(io.StringIO()):
                ns = parser.parse_args([name] + args + ["--tol", "1e-9"])
        except SystemExit:
            assert payload["policy"] is None, name
        else:
            assert payload["policy"]["tol"] == 1e-12, name
            assert _manifest_payload(ns)["policy"]["tol"] == 1e-9, name


def test_manifest_orders_are_the_orders_validate_uses(tmp_path, monkeypatch):
    from lebp import validation

    used = []

    def recording_rule(order, *args):
        used.append(order)
        return numerics.gauss_legendre(order, *args)

    monkeypatch.setattr(validation, "gauss_legendre", recording_rule)
    manifest = tmp_path / "run.json"
    code = main(["validate", "--suite", "all", "--output", str(tmp_path / "report.json"),
                 "--save-manifest", str(manifest)])
    assert code == 0
    orders = json.loads(manifest.read_text())["orders"]
    assert sorted(orders.values()) == sorted(used)
    assert orders == validation.QUADRATURE_ORDERS


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
    import lebp.cli as cli

    monkeypatch.setattr(
        cli, "suite_report", lambda name, pol: {"suite": name, "passed": False, "checks": []}
    )
    code, out, _ = run_cli(["validate", "--suite", "crossing"])
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_unknown_suite_is_rejected():
    with pytest.raises(SystemExit) as exc:
        run_cli(["validate", "--suite", "bogus"])
    assert exc.value.code == 2


def test_usage_errors_name_the_precondition():
    cases = [
        (["kernel", "--domain", "strip", "--N", "2", "--theta", "1", "--thetap", "1"], "--x"),
        (["two-point", "--N", "2", "--r", "2", "--theta", "1", "--rp", "2.000001",
          "--thetap", "1.5"], "min_gap"),
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
        (["pdf", "--theta", "1,2", "--tol", "-1"], "tol must be a positive"),
        (["pdf", "--theta", "1,2", "--tol", "-1", "--save-manifest", os.devnull],
         "tol must be a positive"),
    ],
)
def test_bad_literals_and_degenerate_fits_exit_2_without_traceback(args, fragment):
    code, out, err = run_cli(args)
    assert code == 2
    assert out == ""
    # one error line: no traceback, and no numpy warning on the way there
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert fragment in err


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
    assert {a[0] for a in _CSV_ARGV} == set(_HANDLERS) - {"validate"}
