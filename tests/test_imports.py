"""What each command and each public name loads.  Every case runs in a fresh
interpreter, since this process has long loaded every module."""

import pytest

from child import run_python

# the public names, each resolved from its module on first use
NAMES = (
    "BitFormatError", "BitString", "BorelReport", "ConstantSource", "ConvergenceError",
    "DegenerateSourceError", "DistributionTable", "DriftParams", "DriftTrace",
    "DriftingSource", "IndependenceViolation", "MarkovExperiment", "MarkovResult",
    "MarkovSource", "PairwiseSource", "QaryString", "SourceSpec", "SweepRow",
    "TraceViolation", "ValidationError", "adversarial_trace", "alpha_max", "binom_tv",
    "borel_counts", "calibrate_alpha", "calibrate_delta", "check_independence",
    "crossing_index", "delete_symbol", "empirical_block_dist", "exact_source_dist",
    "linear_alpha_for_rho", "linear_bound", "naive_alpha_for_rho", "normalized_dist",
    "parity_normalize", "parse_bits", "peres_normalize", "random_markov_source",
    "reg_inc_beta", "run_markov_experiment", "sample", "sample_symbols", "serialize_bits",
    "sweep", "symbol_block_counts", "total_variation", "tv_bound_exact", "tv_bound_naive",
    "u_value", "uniform_dist", "validate_trace", "vn_encode", "vn_normalize", "vn_preimage",
    "worst_case_product_dist", "write_borel_csv", "write_markov_csv", "write_sweep_csv",
)


def _fresh(code: str) -> list:
    """The stdout lines of ``code`` run in a fresh interpreter on this tree."""
    done = run_python("-c", code)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def _loaded(*argvs) -> tuple:
    """``(debias modules, whether numpy is loaded)`` after ``cli.run`` of each argv."""
    *_, modules, numpy = _fresh(
        "import sys\n"
        "from debias import cli\n"
        f"for argv in {list(argvs)!r}:\n"
        "    assert cli.run(argv) == 0, argv\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'debias')))\n"
        "print('numpy' in sys.modules)\n")
    return set(modules.split()), numpy == "True"


@pytest.mark.parametrize("argv", [
    ["tv", "--m", "2", "--alpha", "0.2"],
    ["tv", "--m", "1000", "--alpha", "0.01", "--method", "linear"],
    ["calibrate", "--m", "1000000", "--rho", "0.01"],
    ["calibrate", "--m", "2", "--rho", "0.11", "--p0", "0.5", "--beta", "0.1"],
])
def test_bound_commands_load_no_numpy(argv):
    assert _loaded(argv) == (
        {"debias", "debias.cli", "debias.errors", "debias.params", "debias.bounds"}, False)


def test_generate_loads_no_analysis_module(tmp_path):
    modules, _ = _loaded(["generate", "--source", "drifting", "--p0", "0.55", "--beta", "0.05",
                          "--delta", "1e-4", "-n", "1000", "-o", str(tmp_path / "bits"),
                          "--trace-out", str(tmp_path / "trace")])
    assert "debias.sources" in modules
    assert not modules & {"debias.stats", "debias.markov", "debias.exactdist"}


def test_normalize_loads_no_source_or_analysis_module(tmp_path):
    (tmp_path / "bits").write_text("0110" * 64)
    modules, _ = _loaded(*(["normalize", "--method", method, "-i", str(tmp_path / "bits"),
                            "-o", str(tmp_path / method)] for method in ("vn", "peres", "parity")))
    assert "debias.normalize" in modules
    assert not modules & {"debias.sources", "debias.stats", "debias.markov"}


def test_every_public_name_resolves_on_first_use():
    out = _fresh(
        "import sys\n"
        "import debias\n"
        "print(sorted(m for m in sys.modules if m.startswith('debias.')))\n"
        "print(sorted(debias.__all__))\n"
        f"names = {NAMES!r}\n"
        "print(all(name in dir(debias) for name in names))\n"
        "for name in names:\n"
        "    exec(f'from debias import {name} as value')\n"
        "    assert value is getattr(debias, name), name\n"
        "print('ok')\n")
    assert out == ["[]", str(sorted(NAMES)), "True", "ok"]


def test_star_import_binds_every_name():
    out = _fresh(
        "import debias\n"
        "scope = {}\n"
        "exec('from debias import *', scope)\n"
        f"print(all(scope[name] is getattr(debias, name) for name in {NAMES!r}))\n")
    assert out == ["True"]


def test_unknown_name_raises_attribute_error():
    out = _fresh(
        "import debias\n"
        "try:\n"
        "    debias.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
        "print(hasattr(debias, 'numpy'), hasattr(debias, '_no_such_name'))\n")
    assert out == ["module 'debias' has no attribute 'no_such_name'", "False False"]
