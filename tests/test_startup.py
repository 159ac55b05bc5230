"""Start-up imports: the CLI and every subcommand, the lattice solves and
the validation quadrature included, load numpy and the standard library
only; scipy is a test oracle.  numpy's lazily imported numpy.ma and
numpy.random stay unloaded too.  `import lebp` loads no submodule, and each
subcommand loads only the lebp modules it runs.  Each check runs in a fresh
interpreter, because the test process itself may already hold scipy and
every lebp module."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

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
        "code": code,
        "scipy": scipy_modules(),
        "numpy.ma": "numpy.ma" in sys.modules,
        "numpy.random": "numpy.random" in sys.modules,
    }
print(json.dumps(seen))
"""


# one run per interpreter; the probe itself imports no json, which only some
# runs may load
_MODULES_PROBE = """
import ast, io, sys
from contextlib import redirect_stdout

args, code = ast.literal_eval(sys.argv[1]), None
import lebp
if args is not None:
    import lebp.cli
if args:
    with redirect_stdout(io.StringIO()):
        try:
            code = lebp.cli.main(args)
        except SystemExit as exc:
            code = exc.code
loaded = sorted(m[len("lebp."):] for m in sys.modules if m.startswith("lebp."))
print(repr((code, loaded, "json" in sys.modules)))
"""


def _run(probe, arg):
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", probe, arg],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout


def _probe(runs):
    return json.loads(_run(_PROBE, json.dumps(runs)))


# what every run leaves loaded, cumulatively over the probe's runs
_CLEAN = {"code": 0, "scipy": [], "numpy.ma": False, "numpy.random": False}


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
        assert run == _CLEAN, name


def test_lattice_and_quadrature_checks_import_no_scipy():
    seen = _probe(
        [
            ["lattice-validate", "--levels", "15"],
            ["validate", "--suite", "all"],
        ]
    )
    assert seen.pop("import") == []
    assert len(seen) == 2
    for name, run in seen.items():
        assert run == _CLEAN, name


_CLI = ["cli", "errors"]
_ARC = sorted(_CLI + ["numerics", "rect_kernels", "correlation"])
_PASSAGE = sorted(_CLI + ["numerics", "rect_kernels", "passage_densities"])
_EVERY = sorted(_CLI + ["correlation", "graph_fomin", "lattice_validation", "numerics",
                        "passage_densities", "rect_kernels", "validation"])


@pytest.mark.parametrize(
    "args, modules",
    [
        (None, []),
        ([], _CLI),
        (["--version"], _CLI),
        (["kernel", "--help"], _CLI),
        (["kernel", "--domain", "strip", "--N", "3", "--x", "0.5", "--theta", "0.4:2.4:5",
          "--xp", "1.5", "--thetap", "1.1"], _ARC),
        (["kernel", "--domain", "semicircle", "--N", "3", "--r", "1.2", "--theta", "1.3",
          "--rp", "2", "--thetap", "0.2:3:5"], _ARC),
        (["two-point", "--N", "3", "--r", "1.5", "--theta", "0.2:2.9:3", "--rp", "3",
          "--thetap", "0.5"], _ARC),
        (["density", "--N", "3", "--r", "1.1:5:3", "--theta", "0.4:2.5:4"], _ARC),
        (["figure", "--id", "8"], _ARC),
        (["pdf", "--x", "0.8", "--theta", "0.5,1.6,2.5", "--phi", "0.35,1.55,2.7",
          "--L", "1.6"], _PASSAGE),
        (["joint-pdf", "--cuts", "0.5,1.2", "--theta", "0.3,1.3/0.7,1.5", "--phi", "0.7,1.4",
          "--L", "2"], _PASSAGE),
        (["crossing-exponent", "--paths", "2", "--lengths", "6,8"],
         sorted(_CLI + ["numerics", "rect_kernels"])),
        (["fomin-check", "--size", "3", "--paths", "2"],
         sorted(_CLI + ["graph_fomin", "numerics"])),
        (["lattice-validate", "--levels", "15"], sorted(_PASSAGE + ["lattice_validation"])),
        (["validate", "--suite", "fomin"], _EVERY),
    ],
)
def test_each_run_loads_only_the_modules_it_runs(args, modules):
    # None: `import lebp` alone; []: `import lebp.cli` alone.  Only validate
    # writes JSON, so every other run leaves json unloaded.
    code, loaded, json_loaded = ast.literal_eval(_run(_MODULES_PROBE, repr(args)))
    assert code in (None, 0)
    assert loaded == modules
    assert json_loaded == (args is not None and args[:1] == ["validate"])


def test_every_public_name_resolves():
    # the lazy namespace lists every public name before it is first used
    assert set(lebp.__all__) <= set(dir(lebp))
    # a name left in __all__ after its function went breaks `from lebp import *`
    assert [name for name in lebp.__all__ if not hasattr(lebp, name)] == []
    namespace = {}
    exec("from lebp import *", namespace)
    assert set(lebp.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="'no_such_name'"):
        lebp.no_such_name
    # test-only helpers live in tests/oracles.py, and fomin_det carries its bound
    for name in ("loop_erase", "walk_weight", "discrete_green", "basis_phi", "basis_phi_hat",
                 "fomin_det_bound"):
        assert not hasattr(lebp, name), name
    # the series truncation targets are fixed constants of rect_kernels; no
    # policy object is left to pass
    from lebp import numerics, rect_kernels

    for name in ("SeriesPolicy", "DEFAULT_POLICY"):
        with pytest.raises(AttributeError, match=repr(name)):
            getattr(lebp, name)
        assert not hasattr(numerics, name), name
    assert (rect_kernels.SERIES_TOL, rect_kernels.N_MAX, rect_kernels.MIN_GAP) == (
        1e-12, 100_000, 1e-3
    )
    from lebp import validation

    assert validation is sys.modules["lebp.validation"]
