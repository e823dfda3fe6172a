"""Every argument outside its documented domain raises ValidationError: an
integer parameter given a float (NaN and integer-valued floats included),
and a real parameter given NaN."""

import math

import numpy as np
import pytest

from debias import (BitString, ConstantSource, DriftingSource, DriftParams, DriftTrace,
                    MarkovExperiment, MarkovSource, QaryString, ValidationError,
                    adversarial_trace, borel_counts, delete_symbol, normalized_dist,
                    parity_normalize, random_markov_source, sample, sample_symbols,
                    symbol_block_counts, uniform_dist, vn_preimage)

PARAMS = DriftParams(0.5, 0.1, 0.01)
BITS = BitString("0110")
TABLE = {"0": 0.5, "1": 0.5}

CASES = {
    "sample n float": lambda: sample(ConstantSource(0.7), 2.5, 1),
    "sample n integer-valued float": lambda: sample(ConstantSource(0.7), 4.0, 1),
    "sample_symbols n float": lambda: sample_symbols([0.5, 0.5], 2.5, 1),
    "borel_counts m float": lambda: borel_counts(BITS, 2.5),
    "symbol_block_counts m float": lambda: symbol_block_counts(QaryString([0, 1], 2), 1.5),
    "uniform_dist m float": lambda: uniform_dist(2.5),
    "normalized_dist n float": lambda: normalized_dist(ConstantSource(0.7), 22.5, 2),
    "normalized_dist m float": lambda: normalized_dist(ConstantSource(0.7), 8, 1.5),
    "vn_preimage n float": lambda: vn_preimage(BitString("01"), 4.5),
    "parity_normalize block float": lambda: parity_normalize(BITS, 2.5),
    "from_int length float": lambda: BitString.from_int(1, 2.5),
    "from_int value float": lambda: BitString.from_int(1.0, 2),
    "MarkovSource k float": lambda: MarkovSource(k=1.0, kappa=0.1, p0=0.5, table=TABLE),
    "adversarial_trace n float": lambda: adversarial_trace(PARAMS, 2.5),
    "MarkovExperiment k float": lambda: MarkovExperiment(k=1.5, kappa=0.1, m=2, n=8,
                                                         samples=10, seed=1),
    "MarkovExperiment m float": lambda: MarkovExperiment(k=1, kappa=0.1, m=2.5, n=8,
                                                         samples=10, seed=1),
    "MarkovExperiment samples float": lambda: MarkovExperiment(k=1, kappa=0.1, m=2, n=8,
                                                               samples=1.5, seed=1),
    "QaryString q float": lambda: QaryString([0, 1], 2.5),
    "QaryString symbol float": lambda: QaryString([0.5, 1.7], 3),
    "QaryString symbol nan": lambda: QaryString(np.array([0.0, math.nan]), 3),
    "delete_symbol symbol float": lambda: delete_symbol(QaryString([0, 1], 2), 0.5),
    "sine period nan": lambda: DriftingSource(PARAMS, trajectory="sine", period=math.nan),
    "fixed trace nan": lambda: DriftingSource(PARAMS, trajectory="fixed",
                                              trace=DriftTrace([0.0, math.nan])),
    "fixed trace nan, sampled": lambda: sample(
        DriftingSource(PARAMS, trajectory="fixed", trace=DriftTrace([math.nan] * 4)), 4, 1),
    "realized_trace n negative": lambda: DriftingSource(
        PARAMS, trajectory="fixed", trace=DriftTrace([0.0, 0.0])).realized_trace(-1),
    "random_markov_source k float": lambda: random_markov_source(1.5, 0.1, 0.5, 1),
    "random_markov_source k negative": lambda: random_markov_source(-1, 0.1, 0.5, 1),
    "sample seed negative": lambda: sample(ConstantSource(0.7), 4, -1),
    "sample_symbols seed negative": lambda: sample_symbols([0.5, 0.5], 4, -1),
    "MarkovExperiment seed negative": lambda: MarkovExperiment(k=1, kappa=0.1, m=2, n=8,
                                                               samples=10, seed=-1),
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_out_of_domain_argument_raises_validation_error(call):
    with pytest.raises(ValidationError):
        call()


def test_numpy_integers_are_accepted_and_returned_as_int():
    assert MarkovSource(k=np.int64(1), kappa=0.1, p0=0.5, table=TABLE).k == 1
    assert type(MarkovSource(k=np.uint8(1), kappa=0.1, p0=0.5, table=TABLE).k) is int
    assert BitString.from_int(np.int64(2), np.uint32(3)) == BitString("010")
    assert QaryString([0, 1], np.int32(2)) == QaryString([0, 1], 2)
    assert len(sample(ConstantSource(0.7), np.int64(5), 1)[0]) == 5
    assert len(parity_normalize(BITS, np.int16(2))) == 2
