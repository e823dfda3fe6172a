"""Von Neumann-style un-biasing of bit sources, with exact output
distributions, drift-bound calibration, and empirical stream analysis."""

from .bits import BitString, QaryString, parse_bits, serialize_bits
from .bounds import (alpha_max, binom_tv, calibrate_alpha, calibrate_delta,
                     crossing_index, linear_alpha_for_rho, linear_bound,
                     naive_alpha_for_rho, reg_inc_beta, tv_bound_exact,
                     tv_bound_naive, u_value)
from .errors import (BitFormatError, ConvergenceError, DegenerateSourceError,
                     ValidationError)
from .exactdist import (DistributionTable, IndependenceViolation,
                        check_independence, exact_source_dist, normalized_dist,
                        total_variation, uniform_dist, worst_case_product_dist)
from .markov import (MarkovExperiment, MarkovResult, random_markov_source,
                     run_markov_experiment, write_markov_csv)
from .normalize import (delete_symbol, parity_normalize, peres_normalize,
                        vn_encode, vn_normalize, vn_preimage)
from .sources import (ConstantSource, DriftingSource, DriftParams, DriftTrace,
                      MarkovSource, PairwiseSource, SourceSpec, TraceViolation,
                      adversarial_trace, sample, sample_symbols, validate_trace)
from .stats import (BorelReport, SweepRow, borel_counts, empirical_block_dist,
                    sweep, symbol_block_counts, write_borel_csv, write_sweep_csv)

__version__ = "0.1.0"
