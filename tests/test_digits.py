import math
import random
import re
import shutil
import warnings
from dataclasses import fields
from itertools import islice

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genbenford import (
    DigitHistogram,
    SequenceSpec,
    data_dir,
    first_digit_int,
    first_digit_real,
    generate,
    histogram,
    histogram_from_percentages,
)
from genbenford.digits import (
    _BOUNDARY_EPS,
    _DIGIT_BOUNDS,
    _digits_from_log10_fractions,
    _first_digits,
    _settled_digit,
)
from genbenford.cli import main
from genbenford.sequences import _HISTOGRAM_CHUNK
from oracles import digits_by_search, fibonacci_list, leading_digit, sieve_primes

few = settings(max_examples=25, deadline=None, database=None)


class TestFirstDigitInt:
    @pytest.mark.parametrize("n,digit", [(7, 7), (97, 9), (1, 1), (10, 1),
                                         (999, 9), (10 ** 50, 1)])
    def test_examples(self, n, digit):
        assert first_digit_int(n) == digit

    def test_fibonacci_100(self):
        fib100 = fibonacci_list(100)[-1]
        assert fib100 == 354224848179261915075
        assert first_digit_int(fib100) == 3

    @pytest.mark.parametrize("n", [7, 97, 12345, 354224848179261915075])
    @pytest.mark.parametrize("k", [0, 1, 5, 12, 40])
    def test_scale_invariance_under_decimal_shift(self, n, k):
        assert first_digit_int(n * 10 ** k) == first_digit_int(n)

    @pytest.mark.parametrize("bad", [0, -1, -97])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            first_digit_int(bad)

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            first_digit_int(7.0)


class TestExactAtAnySize:
    @few
    @given(st.integers(0, 50_000))
    def test_next_to_digit_edges(self, k):
        values = [d * 10 ** k + delta for d in range(1, 10) for delta in (-1, 0, 1)]
        values = [n for n in values if n >= 1]
        assert [first_digit_int(n) for n in values] == [leading_digit(n) for n in values]

    @few
    @given(st.integers(1, 170_000), st.randoms(use_true_random=False))
    def test_random_ints(self, bits, rnd):
        n = rnd.getrandbits(bits) | 1 << (bits - 1)
        assert first_digit_int(n) == leading_digit(n)

    def test_mixed_list_matches_the_wrappers_in_order(self):
        values = [7, 2.5, 10 ** 5000 - 1, 0.007, True, 3 * 10 ** 4400 + 1,
                  1e300, 999, math.sqrt(50), math.nextafter(1000.0, 0.0),
                  np.int64(7), np.float64(0.5), 2 ** 53 + 1, 10 ** 309]
        want = [first_digit_int(v) if isinstance(v, int) else first_digit_real(v)
                for v in values]
        assert want == [7, 2, 9, 7, 1, 3, 1, 9, 7, 1, 7, 5, 9, 1]
        assert _first_digits(values).tolist() == want


def _ulps_from(x, n):
    for _ in range(abs(n)):
        x = math.nextafter(x, math.inf if n > 0 else 0.0)
    return x


# ints that the conversion to float64 rounds, or cannot convert: 10^309
# makes its whole list take math.log10 value by value
_ROUNDED_INTS = ([2 ** 53 + d for d in (-3, -2, -1, 1, 2, 3)]
                 + [10 ** k + d for k in range(15, 23) for d in (-1, 1)]
                 + [2 ** 63 - 1, 2 ** 63 + 1, 2 ** 64, 10 ** 308 - 1, 10 ** 308 + 1, 10 ** 309])

# values where a digit is hardest to read: d*10^k give or take a few units
# or ulps, reals just under a power of ten, ints the conversion rounds, and
# ints of up to 10^5 bits
_edge_values = st.one_of(
    st.sampled_from(_ROUNDED_INTS),
    st.builds(lambda d, k, delta: max(1, d * 10 ** k + delta),
              st.integers(1, 9), st.integers(0, 30_000), st.integers(-3, 3)),
    st.builds(lambda bits, seed: random.Random(seed).getrandbits(bits) | 1 << (bits - 1),
              st.integers(1, 100_000), st.integers(0, 2 ** 32)),
    st.builds(lambda d, k, n: _ulps_from(d * 10.0 ** k, n),
              st.integers(1, 9), st.integers(-300, 300), st.integers(-4, 4)),
    st.builds(lambda k, f: 10.0 ** k * (1.0 - f),
              st.integers(-300, 300), st.floats(0.0, 3e-12)),
)


@few
@given(st.lists(_edge_values, min_size=1, max_size=24))
@example(_ROUNDED_INTS[:-1])
@example([1, 2, 10 ** 309, 3, 99])
def test_a_digit_does_not_depend_on_its_chunk_neighbours(chunk):
    digits = _first_digits(chunk).tolist()
    assert digits == [_first_digits([v])[0] for v in chunk]


_CHUNK_FILLS = {
    "ints": list(range(1, 1025)),
    "reals": [math.sqrt(n) for n in range(1, 1025)],
    "huge ints": [10 ** 400 + n for n in range(1024)],  # math.log10 value by value
}


@pytest.mark.parametrize("fill", list(_CHUNK_FILLS))
@pytest.mark.parametrize("where", [0, 511, 1023], ids=["first", "middle", "last"])
@pytest.mark.parametrize("bad", [0, -3, math.nan, math.inf])
def test_a_bad_value_inside_a_chunk_is_named(bad, where, fill):
    chunk = list(_CHUNK_FILLS[fill])
    chunk[where] = bad
    message = f"expected positive integers or finite positive reals, got {bad}"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _first_digits(chunk)


@pytest.mark.parametrize("kind", ["squares", "square_roots"])
def test_few_values_are_settled_one_by_one(monkeypatch, kind):
    # a deterministic work counter: the values sent to the per-value
    # settlement, those that lie on a digit edge (18 squares: 10^2j, 4*10^2j
    # and 9*10^2j; 25 square roots: d*10^j), and no more than a few others.
    # digit_histogram_of counts these kinds at the digit edges, so their
    # values go through _first_digits in its chunks here
    settled = []

    def counted(v, x):
        settled.append(v)
        return _settled_digit(v, x)

    monkeypatch.setattr("genbenford.digits._settled_digit", counted)
    values = iter(generate(SequenceSpec(kind, 500_000)))
    for chunk in iter(lambda: list(islice(values, _HISTOGRAM_CHUNK)), []):
        _first_digits(chunk)
    assert 1 <= len(settled) <= 100


def _digit_rule_edges():
    """Fractions where a digit is hardest to read: each bound, the point
    1e-12 below it and 1 - 1e-12, each give or take one ulp, plus the ends
    of [0, 1] and NaN."""
    centres = list(_DIGIT_BOUNDS[1:]) + [b - 1e-12 for b in _DIGIT_BOUNDS[1:]]
    centres.append(1.0 - 1e-12)
    edges = [math.nextafter(c, d) for c in centres for d in (0.0, c, 1.0)]
    return edges + [0.0, -0.0, 5e-324, math.nextafter(1.0, 0.0), 1.0, math.nan]


# the rule's inputs: a draw's fraction as it is, and a real's fraction
# shifted by the guard, as _settled_digit passes it
@pytest.mark.parametrize("shift", [0.0, _BOUNDARY_EPS])
class TestDigitRule:
    """The cell table gives the digit a binary search over the bounds gives,
    with no guard of its own: a fraction one ulp below a bound reads the
    digit below, and 1.0 and NaN read 9."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=64))
    def test_matches_the_search_on_random_fractions(self, shift, fracs):
        frac = np.array(fracs) + shift
        np.testing.assert_array_equal(_digits_from_log10_fractions(frac),
                                      digits_by_search(frac))

    def test_matches_the_search_next_to_every_edge(self, shift):
        frac = np.array(_digit_rule_edges()) + shift
        digits = _digits_from_log10_fractions(frac)
        np.testing.assert_array_equal(digits, digits_by_search(frac))
        assert digits[-2:].tolist() == [9, 9]  # 1.0 and NaN

    def test_a_0d_fraction_gives_a_0d_digit(self, shift):
        # _settled_digit passes one fraction at a time, as a numpy scalar
        for x in _digit_rule_edges():
            for frac in (np.float64(x + shift), np.array(x + shift)):
                digit = _digits_from_log10_fractions(frac)
                assert np.shape(digit) == ()
                assert digit == digits_by_search(frac), x


class TestFirstDigitReal:
    def test_exact_power_of_ten(self):
        assert first_digit_real(1.0) == 1

    def test_sqrt_50(self):
        # decimal-expansion oracle at 30 digits
        expansion = mpmath.nstr(mpmath.mp.sqrt(50), 30)
        assert expansion.lstrip("0.")[0] == "7"
        assert first_digit_real(math.sqrt(50)) == 7

    def test_just_below_power_of_ten(self):
        assert first_digit_real(999.999) == 9

    @pytest.mark.parametrize("k", list(range(0, 60, 7)) + [100, 250, -3, -17])
    def test_all_powers_of_ten(self, k):
        assert first_digit_real(10.0 ** k) == 1

    def test_hair_below_power_of_ten_rounds_up(self):
        # the guard folds values within 1e-12 (log scale) of 10^k onto digit 1
        assert first_digit_real(math.nextafter(1000.0, 0.0)) == 1
        assert first_digit_real(999.9999999999) == 1  # 4.3e-14 below 3 in log10

    @pytest.mark.parametrize("x,digit", [(0.007, 7), (0.5, 5), (3.14159, 3),
                                         (9.99, 9), (2e300, 2), (7e-200, 7)])
    def test_values(self, x, digit):
        assert first_digit_real(x) == digit

    @pytest.mark.parametrize("bad", [0.0, -1.5, math.inf, -math.inf, math.nan])
    def test_rejects_nonpositive_or_nonfinite(self, bad):
        with pytest.raises(ValueError):
            first_digit_real(bad)


class TestHistogram:
    def test_primes_below_100(self):
        primes = sieve_primes(100)
        assert len(primes) == 25
        h = histogram(first_digit_int(p) for p in primes)
        assert h.counts == (4, 3, 3, 3, 3, 2, 4, 2, 1)
        assert h.sample_size == 25

    def test_empty_stream(self):
        h = histogram([])
        assert h.counts == (0,) * 9
        assert h.sample_size == 0

    def test_one_of_each(self):
        assert histogram(range(1, 10)).counts == (1,) * 9

    @pytest.mark.parametrize("bad", [0, 10, -3, 2.5, "3", 10 ** 30])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"digit out of range 1..9: {bad!r}")):
            histogram([1, 2, bad])

    @pytest.mark.parametrize("digits", [
        np.array([1, 9, 9, 3], dtype=np.int8),
        np.array([1.0, 9.0, 9.0, 3.0]),
        (d for d in [1, 9, 9, 3]),
    ], ids=["int8", "float", "generator"])
    def test_arrays_and_generators(self, digits):
        assert histogram(digits).counts == (1, 0, 1, 0, 0, 0, 0, 0, 2)

    def test_empty_array(self):
        assert histogram(np.array([], dtype=np.int8)).counts == (0,) * 9

    @staticmethod
    def _loop_tally(digits):
        """The reference: one value at a time, each through int()."""
        counts = [0] * 9
        for d in digits:
            di = int(d)
            if di != d or not 1 <= di <= 9:
                raise ValueError(f"digit out of range 1..9: {d!r}")
            counts[di - 1] += 1
        return tuple(counts)

    @pytest.mark.parametrize("digits", [
        [True, 2, 3.0, np.int64(4), np.float32(5.0), np.uint8(9), np.True_],
        [1, 2, np.False_], [True, False], np.array([True, True]), np.array([True, False]),
        [1, 2 ** 63], [1, -2 ** 63 - 1], [3, np.float64(2.5)], np.array([1, 2.5]),
        np.array([1, 10], dtype=np.uint64), [np.int8(-1)], [9.0, 9.5, 0],
        np.arange(1, 10, dtype=np.int16), np.arange(1.0, 10.0, dtype=np.float16),
    ], ids=lambda digits: repr(list(digits)))
    def test_matches_the_loop_tally(self, digits):
        # the same ints, bools, floats and numpy numbers accepted, and the
        # same first value named when one is rejected
        try:
            expected = self._loop_tally(digits)
        except ValueError as e:
            with pytest.raises(ValueError, match=re.escape(str(e))):
                histogram(digits)
        else:
            assert histogram(digits).counts == expected


class TestDigitHistogram:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            DigitHistogram.from_counts((1,) * 8)  # wrong length
        with pytest.raises(ValueError):
            DigitHistogram.from_counts((-1, 1, 0, 0, 0, 0, 0, 0, 0))  # negative

    def test_a_histogram_is_its_counts(self):
        assert [f.name for f in fields(DigitHistogram)] == ["counts"]

    def test_from_counts(self):
        h = DigitHistogram.from_counts([4, 3, 3, 3, 3, 2, 4, 2, 1])
        assert h.sample_size == 25

    def test_percentages(self):
        h = DigitHistogram.from_counts([21, 14, 12, 12, 9, 9, 8, 7, 8])
        assert h.percentages() == pytest.approx([21, 14, 12, 12, 9, 9, 8, 7, 8])

    def test_csv_round_trip(self):
        h = DigitHistogram.from_csv("175,90,71,61,47,48,50,41,35")
        assert h == DigitHistogram.from_counts([175, 90, 71, 61, 47, 48, 50, 41, 35])
        assert ",".join(map(str, h.counts)) == "175,90,71,61,47,48,50,41,35"

    def test_csv_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            DigitHistogram.from_csv("1,2,3")

    @pytest.mark.parametrize("line", ["1,,2,3,4,5,6,7,8,9", "1,2,3,4,5,6,7,8,9,",
                                      "1,,3,4,5,6,7,8,9"])
    def test_csv_rejects_an_empty_field(self, line):
        # every comma separates a field: an empty one is not skipped, which
        # would move each count after it to the wrong digit
        with pytest.raises(ValueError):
            DigitHistogram.from_csv(line)

    @pytest.mark.parametrize("make", [
        lambda: DigitHistogram.from_counts([1.5] * 9),
        lambda: DigitHistogram.from_counts((1,) * 8 + (1.7,)),
        lambda: DigitHistogram.from_counts([math.nan] + [0] * 8),
        lambda: DigitHistogram.from_counts([math.inf] + [0] * 8),
    ], ids=["from-counts", "count", "nan", "inf"])
    def test_rejects_non_integral_counts(self, make):
        # a count is never truncated to an integer
        with pytest.raises(ValueError, match="must be integers"):
            make()

    def test_accepts_numpy_and_integral_float_counts(self):
        h = DigitHistogram.from_counts(np.bincount([1, 1, 2, 9], minlength=10)[1:])
        assert h.counts == (2, 1, 0, 0, 0, 0, 0, 0, 1) and h.sample_size == 4
        assert all(type(c) is int for c in (*h.counts, h.sample_size))
        assert DigitHistogram.from_counts([3.0] * 9) == DigitHistogram.from_counts([3] * 9)


class TestHistogramFromPercentages:
    def test_mixing_row(self):
        pct = [28.3, 14.6, 11.5, 9.9, 7.6, 7.8, 8.1, 6.6, 5.7]
        h = histogram_from_percentages(pct, 618)
        assert h.counts == (175, 90, 71, 61, 47, 48, 50, 41, 35)

    def test_degenerate_row(self):
        h = histogram_from_percentages([100, 0, 0, 0, 0, 0, 0, 0, 0], 10)
        assert h.counts == (10, 0, 0, 0, 0, 0, 0, 0, 0)

    def test_square_row(self):
        pct = [21.0, 14.0, 12.0, 12.0, 9.0, 9.0, 8.0, 7.0, 8.0]
        h = histogram_from_percentages(pct, 100)
        assert h.counts == (21, 14, 12, 12, 9, 9, 8, 7, 8)

    @pytest.mark.parametrize("n", [7, 25, 94, 618, 9999])
    def test_always_sums_to_n(self, n):
        import numpy as np

        rng = np.random.default_rng(n)
        for _ in range(20):
            parts = rng.dirichlet([1.0] * 9) * 100.0
            h = histogram_from_percentages(parts, n)
            assert h.sample_size == n

    def test_tie_break_prefers_lower_digit(self):
        # all nine remainders tie; the single spare count goes to digit 1
        h = histogram_from_percentages([100.0 / 9] * 9, 10)
        assert h.counts == (2, 1, 1, 1, 1, 1, 1, 1, 1)

    def test_rejects_inconsistent_percentages(self):
        with pytest.raises(ValueError):
            histogram_from_percentages([50.0] * 9, 100)  # sums to 450

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            histogram_from_percentages([10.0] * 8, 100)
        with pytest.raises(ValueError):
            histogram_from_percentages([-1.0] + [12.625] * 8, 100)
        with pytest.raises(ValueError):
            histogram_from_percentages([100.0 / 9] * 9, 0)
        for n in (1000.7, "1000", math.nan, math.inf):
            with pytest.raises(ValueError, match="sample size must be an integer"):
                histogram_from_percentages([100.0 / 9] * 9, n)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_a_non_finite_percentage_by_name(self, bad):
        with pytest.raises(ValueError, match=rf"^percentages must be finite, got {bad}$"):
            histogram_from_percentages([bad] + [12.5] * 8, 100)

    @staticmethod
    def _tables_on_an_edited_mixing_row(tmp_path, monkeypatch, capsys, fields):
        """The output of `tables` on the mixing row of a survey copy whose
        n and first percentage ("618,28.3") are replaced by `fields`."""
        custom = tmp_path / "data"
        shutil.copytree(data_dir(), custom)
        survey = custom / "digit_survey.csv"
        survey.write_text(survey.read_text().replace(",618,28.3,", f",{fields},"))
        monkeypatch.setenv("BENFORD_DATA_DIR", str(custom))
        assert main(["tables", "--table", "digits", "--format", "csv", "--rows", "mixing"]) == 1
        return capsys.readouterr().out

    def test_a_survey_row_with_an_infinite_percentage_names_it(self, capsys, tmp_path,
                                                               monkeypatch):
        out = self._tables_on_an_edited_mixing_row(tmp_path, monkeypatch, capsys, "618,inf")
        assert "error: percentages must be finite, got inf" in out

    @pytest.mark.parametrize("pct, n", [([1e308] + [0.0] * 8, 1000), ([200.0] + [0.0] * 8, 1),
                                        ([100.5] + [0.0] * 8, 10**6)])
    def test_rejects_a_percentage_above_100_by_name(self, pct, n):
        message = f"percentages must be at most 100, got {pct[0]}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            histogram_from_percentages(pct, n)

    @pytest.mark.parametrize("n", [10**307, 10**400, 10**5000], ids=["1e307", "1e400", "1e5000"])
    def test_rejects_a_count_past_the_float_range(self, n):
        message = "n * p / 100 must be finite, got p = 100.0 and n above 1e306"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            histogram_from_percentages([100.0] + [0.0] * 8, n)

    @pytest.mark.parametrize("fields, message", [
        ("618,200.0", "percentages must be at most 100, got 200.0"),
        (f"{10**307},28.3", "n * p / 100 must be finite, got p = 28.3 and n above 1e306"),
    ], ids=["percentage", "count"])
    def test_a_survey_row_past_the_bounds_names_the_value(self, capsys, tmp_path, monkeypatch,
                                                          fields, message):
        out = self._tables_on_an_edited_mixing_row(tmp_path, monkeypatch, capsys, fields)
        assert f"error: {message}" in out

    def test_accepts_an_integral_float_or_numpy_sample_size(self):
        pct = [30.1, 17.6, 12.5, 9.7, 7.9, 6.7, 5.8, 5.1, 4.6]
        expected = histogram_from_percentages(pct, 1000)
        assert histogram_from_percentages(pct, 1000.0) == expected
        assert histogram_from_percentages(pct, np.int64(1000)) == expected
