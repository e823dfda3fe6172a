"""Von Neumann-style un-biasing of bit sources, with exact output
distributions, drift-bound calibration, and empirical stream analysis.

Each public name loads its module on first use (PEP 562), so a program
that uses only the bounds never imports numpy."""

import importlib

__version__ = "0.1.0"

# every public name, by the module that defines it
_EXPORTS = {
    "bits": ("BitString", "QaryString", "parse_bits", "serialize_bits"),
    "bounds": ("alpha_max", "binom_tv", "calibrate_alpha", "calibrate_delta",
               "crossing_index", "linear_alpha_for_rho", "linear_bound",
               "naive_alpha_for_rho", "reg_inc_beta", "tv_bound_exact", "tv_bound_naive",
               "u_value"),
    "errors": ("BitFormatError", "ConvergenceError", "DegenerateSourceError",
               "ValidationError"),
    "exactdist": ("DistributionTable", "IndependenceViolation", "check_independence",
                  "exact_source_dist", "normalized_dist", "total_variation", "uniform_dist",
                  "worst_case_product_dist"),
    "markov": ("MarkovExperiment", "MarkovResult", "random_markov_source",
               "run_markov_experiment", "write_markov_csv"),
    "normalize": ("delete_symbol", "parity_normalize", "peres_normalize", "vn_encode",
                  "vn_normalize", "vn_preimage"),
    "params": ("DriftParams",),
    "sources": ("ConstantSource", "DriftingSource", "DriftTrace", "MarkovSource",
                "PairwiseSource", "SourceSpec", "TraceViolation", "adversarial_trace",
                "sample", "sample_symbols", "validate_trace"),
    "stats": ("BorelReport", "SweepRow", "borel_counts", "empirical_block_dist", "sweep",
              "symbol_block_counts", "write_borel_csv", "write_sweep_csv"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_OWNER)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, as in "import debias; debias.stats"
        return importlib.import_module(f"{__name__}.{name}")
    try:
        module = _OWNER[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
