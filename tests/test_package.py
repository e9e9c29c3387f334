import os
import subprocess
import sys
from pathlib import Path

import genbenford
from genbenford import digits, distributions, fitting, reference, sampling, sequences

MODULES = (digits, distributions, fitting, reference, sampling, sequences)


def test_package_exports_each_modules_public_names():
    expected = [name for module in MODULES for name in module.__all__]
    assert genbenford.__all__ == expected + ["__version__"]
    assert len(set(genbenford.__all__)) == len(genbenford.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(genbenford, name) is getattr(module, name)
    assert isinstance(genbenford.__version__, str)


def test_cli_runs_on_numpy_alone():
    # numpy is the one runtime dependency: a table row and a Monte Carlo
    # check must load none of the test-only packages
    src = str(Path(genbenford.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys\n"
            "from genbenford import cli\n"
            "assert cli.main(['tables', '--rows', 'mixing']) == 0\n"
            "assert cli.main(['verify', '--model', 'tspb', '--c', '2', '--n', '1000',"
            " '--seed', '1']) in (0, 1)\n"
            "print(sorted({name.split('.')[0] for name in sys.modules}"
            " & {'scipy', 'mpmath', 'hypothesis', 'pytest'}))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.splitlines()[-1] == "[]"
