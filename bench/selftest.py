"""The benchmark's own tests.

    python3 -m pytest -q bench/selftest.py

Not collected by a plain ``pytest`` run (the file name does not start with
``test_``), because the seed comparison runs every job of every workload
traced at two seeds, which takes a few minutes.
"""

import json
import shutil
import subprocess
import sys

import pytest

import checks
import run
import spans
import workloads

SEEDS = (11, 12)


# --- seeded generator ---------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_argv(workload):
    assert workloads.jobs(workload, 5) == workloads.jobs(workload, 5)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_moves_only_inputs_not_shape(workload):
    a, b = (workloads.jobs(workload, s) for s in SEEDS)
    assert [(j.name, j.kind, j.rows, j.check) for j in a] == [
        (j.name, j.kind, j.rows, j.check) for j in b
    ]
    assert [j.argv for j in a] != [j.argv for j in b]


def test_workload_row_counts():
    rows = {w: sum(j.rows for j in workloads.jobs(w, 1)) for w in workloads.WORKLOADS}
    assert rows == {"grid_scan": 100237, "chamber_norms": 8, "discrete_checks": 4528}


# --- self-time arithmetic -----------------------------------------------------


def _span(name, start, end, parent, terms=0):
    return [name, start, end, parent, terms]


def test_self_times_on_nested_tree():
    tree = [
        _span("cli.main", 0, 100, -1),
        _span("correlation.kernel_strip", 10, 40, 0),
        _span("rect_kernels._sine_series", 20, 30, 1, terms=7),
        _span("correlation.kernel_strip", 50, 60, 0),
        _span("correlation.kernel_strip", 52, 58, 3),  # recursive call
    ]
    assert spans.self_times(tree) == [60, 20, 10, 4, 6]
    assert spans.outermost(tree) == [True, True, True, True, False]
    metrics, absent = spans.layer_metrics(
        [{"job": "0", "absent": ["numerics.gone"], "spans": tree}]
    )
    assert absent == ["numerics.gone"]
    assert metrics["cli.calls"] == 1
    assert metrics["cli.self_s"] == 60e-9
    assert metrics["correlation.calls"] == 3
    assert metrics["correlation.self_s"] == 30e-9
    assert metrics["correlation.kernel_strip.calls"] == 3
    assert metrics["correlation.kernel_strip.total_s"] == 40e-9
    assert metrics["rect_kernels.self_s"] == 10e-9
    assert metrics["rect_kernels.series_term_evals"] == 7
    assert metrics["graph_fomin.calls"] == 0


def test_overlapping_children_are_covered_once():
    tree = [
        _span("cli.main", 0, 100, -1),
        _span("numerics.det_lu", 10, 50, 0),
        _span("numerics.det_lu", 30, 70, 0),
        _span("numerics.det_lu", 90, 120, 0),  # clipped at the parent's end
    ]
    assert spans.self_times(tree)[0] == 100 - 60 - 10


# --- output checks ------------------------------------------------------------


def _job(workload, name):
    return next(j for j in workloads.jobs(workload, SEEDS[0]) if j.name == name)


def _corrupt(text, row, column):
    """Change the leading digit of one value (row counted after the header)."""
    lines = text.splitlines()
    cells = lines[row + 1].split(",")
    j = lines[0].split(",").index(column)
    digits = list(cells[j])
    k = next(i for i, ch in enumerate(digits) if ch in "123456789")
    digits[k] = "9" if digits[k] != "9" else "8"
    cells[j] = "".join(digits)
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


CORRUPTIONS = [
    ("grid_scan", "figure_9", 1234, "value"),
    ("chamber_norms", "crossing_exponent", 2, "ratio"),
    ("discrete_checks", "lerw_weight", 1, "value"),
]


@pytest.mark.parametrize("workload,name,row,column", CORRUPTIONS)
def test_corrupted_value_raises_fail_frac(monkeypatch, workload, name, row, column):
    job = _job(workload, name)
    env = run.child_env()
    real = run.run_child

    def corrupting(argv, env, timeout=run.JOB_TIMEOUT_S):
        res = real(argv, env, timeout)
        res["stdout"] = _corrupt(res["stdout"], row, column)
        return res

    clean, _, _ = run.run_pass([job], SEEDS[0], env)
    assert clean["failed"] == 0
    monkeypatch.setattr(run, "run_child", corrupting)
    summary, records, _ = run.run_pass([job], SEEDS[0], env)
    assert summary["failed"] == 1
    assert records[0]["failure"]


def test_extra_column_does_not_break_a_check():
    job = _job("discrete_checks", "lerw_weight")
    text = "zeta,value,tail_bound,extra\n1-0,0.75,0,x\n2-1-0,0.5,0,y\n0,1.375,0,z\n"
    assert checks.check_output(job, text, SEEDS[0]) is None
    assert "rows" in checks.check_output(job, "\n".join(text.splitlines()[:3]) + "\n", 1)


# --- traced run ----------------------------------------------------------------

TRACED_JOBS = [
    ("grid_scan", "figure_9"),
    ("chamber_norms", "crossing_exponent"),
    ("discrete_checks", "lerw_weight"),
]


@pytest.mark.parametrize("workload,name", TRACED_JOBS)
def test_traced_output_is_byte_identical(tmp_path, workload, name):
    job = _job(workload, name)
    env = run.child_env()
    plain = run.run_child(run.job_argv(job), env)
    traced = run.run_child(run.job_argv(job, tmp_path / "spans.json", 0), env)
    assert plain["exit_code"] == traced["exit_code"] == 0
    assert plain["stdout"] == traced["stdout"]
    dump = json.loads((tmp_path / "spans.json").read_text())
    assert dump["absent"] == [] and dump["spans"]


def _traced_pass(workload, seed, tmp_path):
    jobs = workloads.jobs(workload, seed)
    work = tmp_path / f"{workload}-{seed}"
    work.mkdir()
    summary, records, dumps = run.run_pass(jobs, seed, run.child_env(), spans_dir=work)
    assert summary["failed"] == 0, [r["failure"] for r in records]
    metrics, absent = spans.layer_metrics(dumps)
    assert absent == []
    return len(jobs), [r["rows"] for r in records], metrics


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counts_equal_across_seeds(tmp_path, workload):
    (n_a, rows_a, a), (n_b, rows_b, b) = (_traced_pass(workload, s, tmp_path) for s in SEEDS)
    assert n_a == n_b and rows_a == rows_b
    exact = [k for k in a if k.endswith(".calls") or k == spans.SERIES_COUNTER]
    assert {k: a[k] for k in exact} == {k: b[k] for k in exact}
    for module in spans.LAYERS:
        assert f"{module}.calls" in a and f"{module}.self_s" in a


# --- reference speed -------------------------------------------------------------


def test_timings_are_scaled_by_the_calibration_around_each_item(monkeypatch):
    """A host at half the reference speed doubles raw times (and the
    calibration samples); the reported metrics stay at reference speed."""
    jobs = workloads.jobs("chamber_norms", SEEDS[0])[:2]
    clock = iter(range(10**6))
    monkeypatch.setattr(run.time, "perf_counter", lambda: float(next(clock)))
    monkeypatch.setattr(run, "calibrate", lambda env: 2 * run.CAL_REF_S)
    monkeypatch.setattr(run, "probe", lambda env: 2.0)
    raw = {jobs[0].name: 6.0, jobs[1].name: 10.0}

    def fake_job(job, seed, env):
        return {"job": job.name, "wall_s": raw[job.name], "cpu_s": raw[job.name] / 2,
                "max_rss_mb": 50.0, "failure": None}

    monkeypatch.setattr(run, "run_job", fake_job)
    metrics, unscaled, probes, records = run.measure(jobs, SEEDS[0], 40, None, 0.0)
    assert unscaled["wall_s"] == 16.0 and metrics["wall_s"] == 8.0
    assert metrics["cpu_s"] == 4.0 and metrics["setup_s"] == 1.0
    assert metrics["rows_per_s"] == sum(j.rows for j in jobs) / 8.0
    assert metrics["peak_rss_mb"] == 50.0
    assert len(probes) >= run.START_PROBES + 1 and {r["job"] for r in records} == set(raw)


# --- contract -------------------------------------------------------------------


def test_benchmark_json_lists_what_run_prints():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("records", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid_scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
