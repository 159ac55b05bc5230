"""The benchmark's traced job path: bench/job.py with --spans wraps every
listed layer function before the job runs.  A traced job must exit 0 and
print the bytes of the untraced one, and its span dump must record the
layer functions that the job calls."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import lebp

_SRC = pathlib.Path(lebp.__file__).resolve().parents[1]
_JOB = _SRC.parent / "bench" / "job.py"


def _job(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, str(_JOB)] + args, env=env, capture_output=True, text=True
    )


@pytest.mark.parametrize(
    "args, recorded",
    [
        (["cli", "figure", "--id", "10"], "rect_kernels._sine_series"),
        (["cli", "lattice-validate", "--levels", "15,31"], "lattice_validation.ordered_minor_sum"),
        (["cli", "fomin-check", "--size", "4", "--paths", "3", "--max-len", "12"],
         "graph_fomin.fomin_det"),
        (["lib", "lerw-weight"], "graph_fomin.lerw_weight"),
    ],
)
def test_traced_job_prints_the_untraced_bytes(tmp_path, args, recorded):
    dump = tmp_path / "spans.json"
    traced = _job(["--spans", str(dump), "--job-id", "0"] + args)
    plain = _job(args)
    assert traced.returncode == 0, traced.stderr
    assert plain.returncode == 0, plain.stderr
    assert traced.stdout == plain.stdout
    names = {span[0] for span in json.loads(dump.read_text())["spans"]}
    assert recorded in names
