"""Every argument outside its documented domain raises ValidationError: an
integer parameter given a float (NaN and integer-valued floats included),
a real parameter given NaN, and a 0/1 string key given anything else."""

import math

import numpy as np
import pytest

from debias import (BitString, ConstantSource, DriftingSource, DriftParams, DriftTrace,
                    MarkovExperiment, MarkovSource, PairwiseSource, QaryString,
                    ValidationError, adversarial_trace, borel_counts, delete_symbol,
                    exact_source_dist, normalized_dist, parity_normalize,
                    random_markov_source, sample, sample_symbols, symbol_block_counts,
                    uniform_dist, vn_preimage)
from debias.bits import format_bits
from debias.sources import PAIR_KEYS, load_markov_table

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
    "MarkovSource table list": lambda: MarkovSource(1, 0.1, 0.5, [0.5, 0.5]),
    "MarkovSource table number": lambda: MarkovSource(0, 0.1, 0.5, 0.5),
    "PairwiseSource dist list": lambda: PairwiseSource([[0.25] * 4]),
    "PairwiseSource dist string": lambda: PairwiseSource(["0.25 0.25 0.25 0.25"]),
    "unknown trajectory": lambda: DriftingSource(PARAMS, trajectory="zigzag"),
    "sine trajectory without a period": lambda: DriftingSource(PARAMS, trajectory="sine"),
    "sample_symbols one symbol": lambda: sample_symbols([1.0], 4, 1),
    "sample not a source spec": lambda: sample(PARAMS, 4, 1),
    "exact_source_dist not a source spec": lambda: exact_source_dist(PARAMS, 4),
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


# keys that are no k-bit string, each with the k it poses for; int(key, 2)
# takes the first four
BAD_KEYS = [("0_1", 3), (" 01", 3), ("+1", 2), ("\u0661\u0660", 2), ("011", 2), (0, 1)]


def _markov_with(key, k, weight=0.5):
    """A k-memory table with ``key`` in place of history 0...0."""
    table = {format_bits(h, k): 0.5 for h in range(1, 1 << k)}
    return MarkovSource(k, 0.1, 0.5, {**table, key: weight})


def _pairwise_with(key, weight=0.25):
    return PairwiseSource([{**{h: 0.25 for h in PAIR_KEYS[1:]}, key: weight}])


def _loaded(tmp_path, key, k):
    path = tmp_path / "table.txt"
    path.write_text(f"{key} 0.5\n")
    return load_markov_table(path, k)


KEY_USERS = {
    "prob": lambda tmp_path, key, k: uniform_dist(k).prob(key),
    "MarkovSource": lambda tmp_path, key, k: _markov_with(key, k),
    "PairwiseSource": lambda tmp_path, key, k: _pairwise_with(key),
    "load_markov_table": _loaded,
}


# an int is a rank to prob, and a table file holds only text
@pytest.mark.parametrize("user, key, k", [
    (user, key, k) for user in KEY_USERS for key, k in BAD_KEYS
    if isinstance(key, str) or user in ("MarkovSource", "PairwiseSource")])
def test_bad_bit_string_key_raises_validation_error(tmp_path, user, key, k):
    with pytest.raises(ValidationError):
        KEY_USERS[user](tmp_path, key, k)


@pytest.mark.parametrize("weight", [None, "0.5"])
def test_non_real_weight_raises_validation_error(weight):
    with pytest.raises(ValidationError, match=r"table\['0'\] = .* is not a real number"):
        _markov_with("0", 1, weight)
    with pytest.raises(ValidationError, match=r"pair_dists\[0\]\['00'\] = .* is not a real"):
        _pairwise_with("00", weight)


def test_table_errors_name_the_lowest_rank_entry():
    with pytest.raises(ValidationError, match=r"^P\(0\|0\) = 1.5 outside \[0,1\]$"):
        MarkovSource(1, 0.1, 0.5, {"1": 2.0, "0": 1.5})
    with pytest.raises(ValidationError, match=r"^P\(0\|0\) = 0.7 deviates from p0"):
        MarkovSource(1, 0.1, 0.5, {"1": 0.8, "0": 0.7})
    with pytest.raises(ValidationError, match=r"^table\['0'\] = 'x' is not a real number$"):
        MarkovSource(1, 0.1, 0.5, {"1": None, "0": "x"})
    with pytest.raises(ValidationError, match="^bad history key 'x'$"):
        MarkovSource(1, 0.1, 0.5, {"1": 0.5, "x": 0.5})
    with pytest.raises(ValidationError, match="^pair distribution 1 has a negative or NaN"):
        PairwiseSource([{"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25},
                        {"00": -0.5, "01": 0.5, "10": 0.5, "11": 0.5}])
    with pytest.raises(ValidationError, match="^pair distribution 0 sums to 0.75, expected 1$"):
        PairwiseSource([{"00": 0.0, "01": 0.25, "10": 0.25, "11": 0.25}])


def test_table_given_as_a_list_names_the_argument():
    with pytest.raises(ValidationError,
                       match="^table must map 0/1 strings to numbers, got a list$"):
        MarkovSource(1, 0.1, 0.5, [0.5, 0.5])
    with pytest.raises(ValidationError, match=r"^pair_dists\[1\] must map 0/1 strings to numbers, "
                                              "got a list$"):
        PairwiseSource([dict.fromkeys(PAIR_KEYS, 0.25), [0.25] * 4])
    # a sequence of key-value pairs is still a table
    assert MarkovSource(1, 0.1, 0.5, [("0", 0.5), ("1", 0.5)]).table == TABLE
