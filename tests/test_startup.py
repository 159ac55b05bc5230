"""Start-up imports: the CLI and every subcommand, the lattice solves and
the validation quadrature included, load numpy and the standard library
only; scipy is a test oracle.  numpy's lazily imported numpy.ma stays
unloaded too.  Each check runs in a fresh interpreter, because the test
process itself may already hold scipy."""

import json
import os
import pathlib
import subprocess
import sys

import lebp

_SRC = str(pathlib.Path(lebp.__file__).resolve().parents[1])

_PROBE = """
import io, json, sys
from contextlib import redirect_stdout

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import lebp.cli
seen = {"import": scipy_modules()}
for args in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()):
        code = lebp.cli.main(args)
    seen[" ".join(args)] = {
        "code": code, "scipy": scipy_modules(), "numpy.ma": "numpy.ma" in sys.modules
    }
print(json.dumps(seen))
"""


def _probe(runs):
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(runs)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def test_cli_and_series_routes_import_no_scipy():
    seen = _probe(
        [
            ["kernel", "--domain", "strip", "--N", "3", "--x", "0.5", "--theta", "0.4:2.4:5",
             "--xp", "1.5", "--thetap", "1.1"],
            ["pdf", "--x", "0.8", "--theta", "0.5,1.6,2.5", "--phi", "0.35,1.55,2.7",
             "--L", "1.6"],
            ["pdf", "--x", "8", "--theta", "0.6,1.2,1.9,2.6", "--phi", "0.5,1.1,1.8,2.5"],
            ["crossing-exponent", "--paths", "3", "--lengths", "6,8"],
            ["fomin-check", "--size", "3", "--paths", "2", "--max-len", "10"],
            ["validate", "--suite", "fomin"],
            ["validate", "--suite", "crossing"],
        ]
    )
    assert seen.pop("import") == []
    for name, run in seen.items():
        assert run == {"code": 0, "scipy": [], "numpy.ma": False}, name


def test_lattice_and_quadrature_checks_import_no_scipy():
    seen = _probe(
        [
            ["lattice-validate", "--levels", "15"],
            ["validate", "--suite", "lattice"],
            ["validate", "--suite", "limits"],
        ]
    )
    assert seen.pop("import") == []
    assert len(seen) == 3
    for name, run in seen.items():
        assert run == {"code": 0, "scipy": [], "numpy.ma": False}, name


def test_every_public_name_resolves():
    # a name left in __all__ after its function went breaks `from lebp import *`
    assert [name for name in lebp.__all__ if not hasattr(lebp, name)] == []
    namespace = {}
    exec("from lebp import *", namespace)
    assert set(lebp.__all__) <= set(namespace)
