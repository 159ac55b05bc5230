"""Benchmark: run one workload of real ``lebp`` jobs and print its metrics.

    python3 bench/run.py --workload grid_scan --seed 1 --seconds 40 --trace 0

Each job is a fresh interpreter, so interpreter start, import and cold
caches count as users pay them.  Jobs run as a closed loop with one client:
one job at a time, with LEBP_THREADS unset, all on one CPU.  A round runs
every job of the workload once, preceded by an import-only probe (four more
run before the first round); rounds repeat until the next job would not fit
in ``--seconds``.  Every output is checked (checks.py); a job that exits
non-zero, times out or fails its check counts as failed.

The host's speed drifts by tens of percent within minutes, so a calibration
sample (calibrate.py, fixed work that never imports lebp) runs between any
two items, and timings are reported at a fixed reference speed: raw seconds
times CAL_REF_S over the median of the four samples nearest the item.  The raw
timings are printed and recorded as well.

``--trace 0`` prints the end-to-end metrics (per-job medians over rounds);
``--trace 1`` runs one untraced and one traced pass and prints the
per-layer metrics (spans.py).  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  A run record
with machine details and every job's argv, exit code, wall time, CPU time,
max-RSS and row count is written to bench/records/.  See bench/README.md.
"""

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import checks
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
JOB = BENCH / "job.py"
CALIBRATE = BENCH / "calibrate.py"
RECORDS = BENCH / "records"

JOB_TIMEOUT_S = 90.0
START_PROBES = 4  # import probes before the first round; one more precedes each round
PROBE = ("-c", "import lebp.cli")
# seconds one calibration sample takes at the reference speed; timings are
# reported as raw seconds * CAL_REF_S / (calibration seconds measured)
CAL_REF_S = 0.3
IMPORT_PACKAGES = ("lebp", "scipy", "numpy")
# one job at a time on at most one busy core: BLAS pools are pinned to one
# thread so a job's speed does not depend on what runs on the other cores
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def child_env():
    env = dict(os.environ)
    env.pop("LEBP_THREADS", None)
    env.update(BLAS_THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, env, timeout=JOB_TIMEOUT_S):
    """Run one child to completion; returns a dict with its exit code, wall
    and CPU seconds, max-RSS (MB), stdout and stderr.  Resource figures
    come from wait4, so they are this child's own."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    streams = {}

    def drain(name, pipe):
        streams[name] = pipe.read()

    readers = [
        threading.Thread(target=drain, args=("stdout", proc.stdout)),
        threading.Thread(target=drain, args=("stderr", proc.stderr)),
    ]
    for t in readers:
        t.start()
    pidfd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], timeout)
        timed_out = not ready
        if timed_out:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(pidfd)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    for t in readers:
        t.join()
    proc.stdout.close()
    proc.stderr.close()
    return {
        "exit_code": proc.returncode,
        "timed_out": timed_out,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "max_rss_mb": usage.ru_maxrss / 1024.0,
        "stdout": streams["stdout"].decode("utf-8", "replace"),
        "stderr": streams["stderr"].decode("utf-8", "replace"),
    }


def probe(env):
    """Seconds for interpreter start plus `import lebp.cli`; exits the
    benchmark when the import fails (no program to measure)."""
    res = run_child([sys.executable, *PROBE], env)
    if res["exit_code"] != 0:
        sys.stderr.write("import lebp.cli failed:\n" + res["stderr"])
        sys.exit(1)
    return res["wall_s"]


def calibrate(env):
    """Seconds one calibration sample takes on the host right now."""
    res = run_child([sys.executable, str(CALIBRATE)], env)
    if res["exit_code"] != 0:
        sys.stderr.write("calibration failed:\n" + res["stderr"])
        sys.exit(1)
    return res["wall_s"]


def import_times(env):
    """Self import time per top-level package, from -X importtime."""
    res = run_child([sys.executable, "-X", "importtime", *PROBE], env)
    totals = dict.fromkeys(IMPORT_PACKAGES, 0)
    for line in res["stderr"].splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        try:
            own = int(parts[0].split(":")[1])
        except ValueError:
            continue  # the column header line
        top = parts[2].strip().split(".")[0]
        if top in totals:
            totals[top] += own
    return {f"import.{name}_s": us / 1e6 for name, us in totals.items()}


def job_argv(job, spans_file=None, job_id=None):
    argv = [sys.executable, str(JOB)]
    if spans_file is not None:
        argv += ["--spans", str(spans_file), "--job-id", str(job_id)]
    return argv + [job.kind, *job.argv]


def evaluate(job, res, seed):
    """None when the job succeeded, else the reason it failed."""
    if res["timed_out"]:
        return f"timed out after {JOB_TIMEOUT_S:.0f} s"
    if res["exit_code"] != 0:
        return f"exit code {res['exit_code']}: {res['stderr'].strip()[-300:]}"
    return checks.check_output(job, res["stdout"], seed)


def run_job(job, seed, env, spans_file=None, job_id=None):
    """Run and check one job; returns its record."""
    res = run_child(job_argv(job, spans_file, job_id), env)
    failure = evaluate(job, res, seed)
    return {
        "job": job.name,
        "argv": job.command(),
        "exit_code": res["exit_code"],
        "wall_s": res["wall_s"],
        "cpu_s": res["cpu_s"],
        "max_rss_mb": res["max_rss_mb"],
        "rows": job.rows if failure is None else None,
        "failure": failure,
    }


def run_pass(jobs, seed, env, spans_dir=None):
    """Run every job once; returns the pass summary and per-job records."""
    records, dumps = [], []
    for i, job in enumerate(jobs):
        spans_file = None if spans_dir is None else spans_dir / f"{i}.json"
        records.append(run_job(job, seed, env, spans_file, i))
        if spans_file is not None and spans_file.exists():
            with open(spans_file, encoding="utf-8") as fh:
                dumps.append(json.load(fh))
            spans_file.unlink()
    wall = sum(r["wall_s"] for r in records)
    summary = {
        "wall_s": wall,
        "cpu_s": sum(r["cpu_s"] for r in records),
        "rows_per_s": sum(job.rows for job in jobs) / wall,
        "peak_rss_mb": max(r["max_rss_mb"] for r in records),
        "failed": sum(r["failure"] is not None for r in records),
    }
    return summary, records, dumps


def machine_record():
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = out.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "git_commit": commit,
        "LEBP_THREADS": child_env().get("LEBP_THREADS"),
        "blas_threads": BLAS_THREADS,
    }


def measure(jobs, seed, seconds, env, start):
    """Rounds over the jobs, each round after one import-only probe (four
    more probes come first), until the next item would not fit in `seconds`
    counted from `start`; the first round always runs whole.  A calibration
    sample precedes every item and follows the last, and each item's
    timings are scaled by the median of the four samples nearest to it,
    two before and two after (fewer at the ends of the run).

    Returns the metrics at the reference speed, the raw ones, and the probe
    and job records.  A timing metric sums the per-job medians over rounds,
    the time of one pass with every job at its typical speed."""
    probes, records, items, spent = [], [], [], {}
    cal = [calibrate(env)]

    def step(key, run_item):
        began = time.perf_counter()
        items.append(run_item())
        cal.append(calibrate(env))
        spent[key] = time.perf_counter() - began
        return items[-1]

    def fits(key):
        return time.perf_counter() - start + spent[key] <= seconds

    for _ in range(START_PROBES):
        probes.append(step("probe", lambda: {"wall_s": probe(env)}))
    rounds, stopped = 0, False
    while not stopped and (rounds == 0 or fits("probe")):
        probes.append(step("probe", lambda: {"wall_s": probe(env)}))
        for i, job in enumerate(jobs):
            if rounds and not fits(i):
                stopped = True
                break
            rec = step(i, lambda: run_job(job, seed, env))
            rec["round"] = rounds
            records.append(rec)
        rounds += 1
    # item k ran between samples k and k + 1
    for k, rec in enumerate(items):
        rec["calibration_s"] = cal[max(0, k - 1):k + 3]
        rec["scale"] = CAL_REF_S / statistics.median(rec["calibration_s"])

    def summarise(scale):
        per_job = [[r for r in records if r["job"] == job.name] for job in jobs]

        def total(key):
            return sum(statistics.median(r[key] * scale(r) for r in recs) for recs in per_job)

        wall = total("wall_s")
        return {
            "wall_s": wall,
            "cpu_s": total("cpu_s"),
            "setup_s": statistics.median(r["wall_s"] * scale(r) for r in probes),
            "rows_per_s": sum(job.rows for job in jobs) / wall,
            "peak_rss_mb": max(statistics.median(r["max_rss_mb"] for r in recs) for recs in per_job),
        }

    return summarise(lambda r: r["scale"]), summarise(lambda r: 1.0), probes, records


def traced(jobs, seed, env):
    """One untraced and one traced pass; per-layer metrics."""
    plain, plain_records, _ = run_pass(jobs, seed, env)
    work = RECORDS / f"spans-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        summary, records, dumps = run_pass(jobs, seed, env, spans_dir=work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics, absent = spans.layer_metrics(dumps)
    metrics.update(import_times(env))
    metrics["trace.overhead_frac"] = summary["wall_s"] / plain["wall_s"] - 1.0
    return metrics, absent, plain_records + records


def per_layer_units():
    units = dict(spans.metric_names())
    units.update({f"import.{p}_s": "s" for p in IMPORT_PACKAGES})
    units["trace.overhead_frac"] = "ratio"
    units["fail_frac"] = "ratio"
    return units


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)

    start = time.perf_counter()
    # children inherit this: calibration samples and jobs share one CPU
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = child_env()
    jobs = workloads.jobs(ns.workload, ns.seed)
    absent, raw, probes = [], None, []
    if ns.trace:
        probe(env)  # without lebp this exits before anything is printed
        metrics, absent, records = traced(jobs, ns.seed, env)
        units = per_layer_units()
    else:
        metrics, raw, probes, records = measure(jobs, ns.seed, ns.seconds, env, start)
        units = END_TO_END_UNITS
    attempted = len(records)
    failed = sum(r["failure"] is not None for r in records)
    fail_frac = failed / attempted
    if ns.trace:
        metrics["fail_frac"] = fail_frac

    for job in jobs:
        print(f"job {job.name}: {job.command()}")
    for r in records:
        if r["failure"] is not None:
            print(f"FAILED {r['job']}: {r['failure']}")
    for name in absent:
        print(f"absent {name}: reported as 0")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    if raw is not None:
        for name, unit in units.items():
            print(f"raw {name} {raw[name]:.6g} {unit} (at the host's speed, not scaled)")
    if not ns.trace:
        rounds = 1 + max(r["round"] for r in records)
        print(f"fail_frac {fail_frac:.6g} ratio ({failed}/{attempted} jobs, {rounds} rounds)")

    record = {
        "workload": ns.workload,
        "seed": ns.seed,
        "seconds": ns.seconds,
        "trace": ns.trace,
        "machine": machine_record(),
        "cal_ref_s": CAL_REF_S,
        "raw_metrics": raw,
        "probes": probes,
        "jobs": records,
        "absent": absent,
        "metrics": metrics,
    }
    path = RECORDS / f"{ns.workload}-seed{ns.seed}-trace{ns.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
