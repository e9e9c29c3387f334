import inspect
import os
import subprocess
import sys
from pathlib import Path

import genbenford
from genbenford import cli, digits, distributions, fitting, reference, sampling, sequences

MODULES = (digits, distributions, fitting, reference, sampling, sequences)

# What the benchmark under bench/ calls through the package
# (bench/workloads.py) and wraps by module and name (bench/spans.py).
BENCH_CALLS = ("Benford", "TSPB", "PB", "SequenceSpec", "DigitHistogram", "pmf_vector",
               "pb_vector", "goodness_of_fit", "fit_pb", "fit_tspb", "adaptive_truncation",
               "verification_report", "digit_histogram_of", "load_survey")
BENCH_SPANS = {
    cli: ("main",),
    reference: ("load_survey",),
    fitting: ("fit_pb", "fit_tspb", "goodness_of_fit"),
    distributions: ("pb_vector", "tspb_vector", "adaptive_truncation"),
    sampling: ("verification_report",),
    digits: ("first_digit_int", "first_digit_real", "histogram"),
    sequences: sequences.SEQUENCE_KINDS,
}


def test_package_exports_each_modules_public_names():
    expected = [name for module in MODULES for name in module.__all__]
    assert genbenford.__all__ == expected + ["__version__"]
    assert len(set(genbenford.__all__)) == len(genbenford.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(genbenford, name) is getattr(module, name)
    assert isinstance(genbenford.__version__, str)


def test_every_name_the_benchmark_uses_resolves():
    for name in BENCH_CALLS:
        assert callable(getattr(genbenford, name)), name
    assert callable(genbenford.DigitHistogram.from_counts)
    for module, names in BENCH_SPANS.items():
        for name in names:
            assert callable(getattr(module, name)), f"{module.__name__}.{name}"
    # the spans read m as fit_pb's second and pb_vector's third argument,
    # or as the keyword m, with the default 1000
    for f, index in ((fitting.fit_pb, 1), (distributions.pb_vector, 2)):
        params = list(inspect.signature(f).parameters.values())
        assert (params[index].name, params[index].default) == ("m", 1000), f.__name__


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
