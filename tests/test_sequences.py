import math
import tracemalloc
from collections.abc import Iterator

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import genbenford.digits
import genbenford.sequences as seq
from genbenford import (
    SEQUENCE_KINDS,
    SequenceSpec,
    bell,
    catalan,
    cubes,
    digit_histogram_of,
    fibonacci,
    first_digit_int,
    first_digit_real,
    format_values,
    generate,
    histogram,
    histogram_from_percentages,
    idoneal,
    keith,
    load_survey,
    lucky,
    parse_values,
    partition,
    pentagonal,
    primes_below,
    read_values,
    square_roots,
    squares,
    ulam,
)
from genbenford.digits import _first_digits
from oracles import (
    TERMS_BELOW,
    bell_binomial,
    fibonacci_list,
    is_keith,
    keith_numbers_below,
    leading_digit,
    lucky_by_mask,
    partitions_dp,
    prime_digit_counts,
    root_digit_counts,
    sieve_primes,
    sqrt_leading_digit,
    ulam_by_definition,
)


# every kind at a size where its values span several orders of magnitude;
# test_chunking_does_not_change_the_histogram crosses chunk boundaries
EVERY_KIND = [
    ("squares", 300), ("cubes", 300), ("square_roots", 300), ("primes_below", 3000),
    ("pentagonal", 300), ("fibonacci", 300), ("catalan", 300), ("bell", 300),
    ("partition", 300), ("lucky", 300), ("ulam", 300), ("keith", 71), ("idoneal", 65),
]


ULAM_400 = ulam_by_definition(400)


def survey_counts(key):
    row = next(r for r in load_survey() if r.key == key)
    return histogram_from_percentages(row.percentages, row.n).counts


class TestPrimes:
    def test_primes_below_100(self):
        p = primes_below(100)
        assert len(p) == 25
        assert p[-2:] == [89, 97]

    @pytest.mark.parametrize("bound,count", [(100, 25), (1000, 168), (10000, 1229)])
    def test_prime_counts(self, bound, count):
        assert len(primes_below(bound)) == count

    def test_against_simple_sieve(self):
        assert primes_below(5000) == sieve_primes(5000)

    def test_odd_sieve_matches_full_sieve_at_every_small_bound(self):
        for bound in range(1001):
            assert primes_below(bound) == sieve_primes(bound), bound

    @pytest.mark.parametrize("bound", [2 * 10 ** 6 - 1, 2 * 10 ** 6, 2 * 10 ** 6 + 1])
    def test_odd_sieve_matches_full_sieve_at_two_million(self, bound):
        assert primes_below(bound) == sieve_primes(bound)


class TestElementaryKinds:
    def test_fibonacci_10(self):
        assert list(fibonacci(10)) == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]

    def test_fibonacci_matches_oracle(self):
        assert list(fibonacci(100)) == fibonacci_list(100)

    def test_squares_and_cubes(self):
        assert list(squares(5)) == [1, 4, 9, 16, 25]
        assert list(cubes(5)) == [1, 8, 27, 64, 125]

    def test_pentagonal_10(self):
        assert list(pentagonal(10)) == [1, 5, 12, 22, 35, 51, 70, 92, 117, 145]

    @settings(max_examples=25, deadline=None, database=None)
    @given(st.integers(1, 3000))
    @example(1)  # the cubes' inner running sum is its initial 1 alone
    @example(2)  # ... and then its first difference
    def test_running_sums_match_the_closed_forms(self, count):
        ns = range(1, count + 1)
        for generator in (squares, cubes, pentagonal, square_roots):
            # lazy: a sequence is held only as digits
            assert isinstance(generator(count), Iterator)
        assert list(squares(count)) == [n * n for n in ns]
        assert list(cubes(count)) == [n ** 3 for n in ns]
        assert list(pentagonal(count)) == [n * (3 * n - 1) // 2 for n in ns]
        roots = list(square_roots(count))
        assert [r.hex() for r in roots] == [math.sqrt(n).hex() for n in ns]

    def test_catalan_prefix(self):
        assert list(catalan(10)) == [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]

    def test_catalan_against_binomial_formula(self):
        vals = list(catalan(30))
        for n, v in enumerate(vals):
            assert v == math.comb(2 * n, n) // (n + 1)

    def test_bell_prefix(self):
        assert list(bell(10)) == [1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]

    def test_bell_against_binomial_recurrence(self):
        # independent oracle: B(n+1) = sum_k binomial(n,k) B(k)
        oracle = bell_binomial(20)
        assert list(bell(20)) == oracle[1:]

    def test_partition_prefix(self):
        assert list(partition(10)) == [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]

    def test_partition_against_dp_oracle(self):
        oracle = partitions_dp(500)
        assert list(partition(500)) == oracle[1:]
        assert list(partition(1000))[-1] == 24061467864032622473692149727991


class TestSievedKinds:
    def test_lucky_prefix(self):
        assert lucky(10) == [1, 3, 7, 9, 13, 15, 21, 25, 31, 33]

    def test_lucky_45_reproduces_survey_row(self):
        got = [0] * 9
        for v in lucky(45):
            got[first_digit_int(v) - 1] += 1
        assert tuple(got) == survey_counts("lucky")

    @pytest.mark.parametrize("count", [1, 2, 3, 45, 1000, 5023])
    def test_lucky_matches_the_mask_oracle(self, count):
        assert lucky(count) == lucky_by_mask(count)

    def test_first_sieve_limit_holds_every_count(self):
        terms = lucky_by_mask(20_000)
        short = [count for count in range(1, 20_001)
                 if terms[count - 1] >= seq._lucky_limit(count)]
        assert short == []

    def test_a_short_first_limit_doubles_to_the_same_terms(self, monkeypatch):
        terms = lucky_by_mask(1000)
        monkeypatch.setattr(seq, "_lucky_limit", lambda count: 16)
        assert terms[-1] >= 16  # so the limit must double
        assert lucky(1000) == terms

    def test_ulam_prefix(self):
        assert ulam(11) == [1, 2, 3, 4, 6, 8, 11, 13, 16, 18, 26]

    def test_ulam_matches_the_definition(self):
        terms = ulam_by_definition(60)
        for count in range(1, 61):
            assert ulam(count) == terms[:count]

    def test_ulam_3000_matches_the_definition(self):
        terms = ulam(3000)
        assert terms == ulam_by_definition(3000)
        # a gap past 64 reads the next term from the whole bitsets
        assert max(b - a for a, b in zip(terms, terms[1:])) > 64

    @settings(max_examples=30, deadline=None, database=None)
    @given(st.integers(1, 400))
    def test_ulam_prefixes_match_the_definition(self, count):
        assert ulam(count) == ULAM_400[:count]

    def test_ulam_44_reproduces_survey_row(self):
        got = [0] * 9
        for v in ulam(44):
            got[first_digit_int(v) - 1] += 1
        assert tuple(got) == survey_counts("ulam")


class TestKeith:
    def test_every_bundled_number_has_the_digit_recurrence_property(self):
        values = keith(71)
        assert len(values) == 71
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(is_keith(v) for v in values)

    def test_bundle_is_complete_below_one_million(self):
        assert keith_numbers_below(10 ** 6) == [v for v in keith(71) if v < 10 ** 6]

    def test_histogram_matches_survey_row(self):
        got = [0] * 9
        for v in keith(71):
            got[first_digit_int(v) - 1] += 1
        assert tuple(got) == survey_counts("keith")

    def test_param_beyond_bundle_raises(self):
        with pytest.raises(ValueError, match="only 71"):
            keith(72)

    def test_spec_rejects_param_beyond_bundle(self):
        assert SequenceSpec("keith", 71).param == 71
        with pytest.raises(ValueError, match="only 71"):
            SequenceSpec("keith", 72)

    def test_search_fallback_is_bounded(self):
        # no search extends the bundle: the next Keith number lies past
        # 10^19, out of any search's reach
        with pytest.raises(ValueError, match="only 71"):
            keith(72)

    def test_is_keith_spot_values(self):
        assert is_keith(14) and is_keith(197) and is_keith(7909)
        assert not is_keith(15) and not is_keith(9) and not is_keith(100)


class TestIdoneal:
    def test_list_shape(self):
        values = idoneal()
        assert len(values) == 65
        assert values[0] == 1 and values[-1] == 1848
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_histogram_matches_survey_row(self):
        got = [0] * 9
        for v in idoneal():
            got[first_digit_int(v) - 1] += 1
        assert tuple(got) == survey_counts("idoneal")

    def test_spec_ignores_param(self):
        h = digit_histogram_of(SequenceSpec("idoneal"))
        assert h.sample_size == 65

    def test_param_is_zero_or_the_bundled_count(self):
        # 0 and 65 both name the 65 bundled numbers, and the spec says 65
        for param in (0, 65):
            spec = SequenceSpec("idoneal", param)
            assert spec.param == 65
            assert list(generate(spec)) == idoneal()
        for param in (-5, 1, 64, 66):
            with pytest.raises(ValueError, match="param must be 0 or 65 for idoneal"):
                SequenceSpec("idoneal", param)

    def test_count_is_checked_as_the_spec_checks_it(self):
        assert idoneal(0) == idoneal(65) == idoneal()
        with pytest.raises(ValueError, match="param must be 0 or 65 for idoneal"):
            idoneal(64)


class TestDigitHistogramOf:
    def test_squares_100_matches_survey_row_exactly(self):
        h = digit_histogram_of(SequenceSpec("squares", 100))
        assert h.counts == (21, 14, 12, 12, 9, 9, 8, 7, 8)
        assert h.counts == survey_counts("square")

    def test_cubes_1000_percentages(self):
        h = digit_histogram_of(SequenceSpec("cubes", 1000))
        printed = [22.6, 15.9, 12.4, 10.6, 9.4, 8.3, 7.4, 7.1, 6.3]
        assert [round(p, 1) for p in h.percentages()] == printed

    def test_primes_below_10000_sample_size(self):
        h = digit_histogram_of(SequenceSpec("primes_below", 10000))
        assert h.sample_size == 1229

    @pytest.mark.parametrize("key,kind,param", [
        ("fibonacci", "fibonacci", 100),
        ("catalan", "catalan", 100),
        ("partition", "partition", 94),
    ])
    def test_generated_rows_reproduce_survey_counts(self, key, kind, param):
        h = digit_histogram_of(SequenceSpec(kind, param))
        assert h.counts == survey_counts(key)

    def test_fibonacci_past_the_str_limit_matches_oracle(self):
        # F(20571) on has more than 4,300 digits, past Python's int->str limit
        counts = [0] * 9
        for v in fibonacci_list(21000):
            counts[leading_digit(v) - 1] += 1
        assert digit_histogram_of(SequenceSpec("fibonacci", 21000)).counts == tuple(counts)

    def test_bell_row_differs_from_true_bell_numbers(self):
        # the surveyed Bell percentages are not reproducible from any
        # contiguous window of true Bell numbers; the generator is the
        # oracle-checked truth and this pins the known disagreement
        h = digit_histogram_of(SequenceSpec("bell", 100))
        assert h.counts == (30, 15, 8, 14, 11, 8, 4, 7, 3)
        assert h.counts != survey_counts("bell")

    def test_every_kind_has_a_case(self):
        assert [kind for kind, _ in EVERY_KIND] == list(SEQUENCE_KINDS)

    @pytest.mark.parametrize("kind,param", EVERY_KIND)
    def test_matches_a_tally_of_each_value(self, kind, param):
        spec = SequenceSpec(kind, param)
        expected = histogram(first_digit_real(v) if isinstance(v, float) else
                             first_digit_int(v) for v in generate(spec))
        assert digit_histogram_of(spec).counts == expected.counts

    # the listing path at any chunk size, against digit_histogram_of (which
    # lists no term of the counted kinds)
    @pytest.mark.parametrize("kind,param", EVERY_KIND)
    def test_chunking_does_not_change_the_histogram(self, kind, param, monkeypatch):
        spec = SequenceSpec(kind, param)
        whole = digit_histogram_of(spec).counts
        for chunk in (1, 7):
            monkeypatch.setattr(seq, "_HISTOGRAM_CHUNK", chunk)
            assert seq._listed_histogram(spec).counts == whole

    def test_a_chunk_of_huge_ints_stays_small(self):
        # fibonacci(30000) ends in terms of 6,270 digits, and a chunk of the
        # listing path holds them whole: about 5.5 MB traced at 1024 values a
        # chunk, 19 MB at 4096 (digit_histogram_of lists no Fibonacci term)
        tracemalloc.start()
        try:
            seq._listed_histogram(SequenceSpec("fibonacci", 30000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_square_roots_digit_counts(self):
        # exact oracle: first digit of sqrt(n) is d iff d^2 <= n < (d+1)^2,
        # so counts below 100 are 2d+1
        h = digit_histogram_of(SequenceSpec("square_roots", 99))
        assert h.counts == (3, 5, 7, 9, 11, 13, 15, 17, 19)

    def test_values_strictly_positive_and_increasing(self):
        for kind, param in [("squares", 50), ("cubes", 50), ("pentagonal", 50),
                            ("fibonacci", 50), ("catalan", 20), ("bell", 20),
                            ("partition", 50), ("lucky", 30), ("ulam", 30),
                            ("keith", 30)]:
            values = list(generate(SequenceSpec(kind, param)))
            assert all(v > 0 for v in values)
            # fibonacci and catalan legitimately open with a repeated 1
            start = 1 if kind in ("fibonacci", "catalan") else 0
            rest = values[start:]
            assert all(b > a for a, b in zip(rest, rest[1:]))


EDGE_COUNTED = ("squares", "cubes", "pentagonal", "square_roots")


class TestEdgeCountedKinds:
    """squares, cubes, pentagonal and square_roots are counted at the digit
    edges by their term tests in seq._TERM_BELOW, listing no term."""

    def test_the_counted_kinds(self):
        assert tuple(seq._TERM_BELOW) == EDGE_COUNTED

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.sampled_from(EDGE_COUNTED), st.integers(1, 20_000))
    @example("squares", 1)
    @example("square_roots", 99)
    @example("cubes", 20_000)
    def test_matches_the_values_path(self, kind, count):
        spec = SequenceSpec(kind, count)
        expected = histogram(_first_digits(list(generate(spec))))
        assert digit_histogram_of(spec).counts == expected.counts

    @pytest.mark.parametrize("kind", EDGE_COUNTED)
    def test_counts_on_each_side_of_every_edge(self, kind):
        # the last n whose term is below d*10^k, for every edge up to 10^12,
        # and the counts one either side of it
        below = TERMS_BELOW[kind]
        lasts = {below(d * 10 ** k) for k in range(12) for d in range(1, 10)}
        lasts.add(below(10 ** 12))
        for count in sorted({n + step for n in lasts for step in (-1, 0, 1)} - {-1, 0}):
            got = digit_histogram_of(SequenceSpec(kind, count)).counts
            assert list(got) == root_digit_counts(kind, count), count

    @pytest.mark.parametrize("kind", EDGE_COUNTED)
    def test_term_test_matches_the_generator(self, kind):
        # term n is not below floor(term) but is below floor(term) + 1: that
        # pins an int term to the generator's, and sqrt(n) between the same
        # ints (math.sqrt's floor is exact this far)
        below = seq._TERM_BELOW[kind]
        for n, term in enumerate(generate(SequenceSpec(kind, 10 ** 4)), start=1):
            floor = math.floor(term)
            assert not below(n, floor) and below(n, floor + 1), n

    def test_cubes_past_any_listing_take_few_term_tests(self, monkeypatch):
        # a deterministic work counter: term tests made for 10^15 cubes
        count = 10 ** 15
        calls = []
        term_below = seq._TERM_BELOW["cubes"]

        def counted(n, edge):
            calls.append(n)
            return term_below(n, edge)

        monkeypatch.setitem(seq._TERM_BELOW, "cubes", counted)
        h = digit_histogram_of(SequenceSpec("cubes", count))
        digits = len(str(count ** 3))
        assert len(calls) <= 10 * (digits + 1) * (count.bit_length() + 1)
        assert list(h.counts) == root_digit_counts("cubes", count)

    @staticmethod
    def added_digit(n):
        """The digit whose count square_roots(n) adds to square_roots(n - 1)."""
        low, high = (digit_histogram_of(SequenceSpec("square_roots", c)).counts
                     for c in (n - 1, n))
        grown = [b - a for a, b in zip(low, high)]
        assert sorted(grown) == [0] * 8 + [1]
        return grown.index(1) + 1

    def test_square_roots_are_exact_at_a_trillion_terms(self):
        # sqrt(10^12 - 1) = 999999.9999995 starts with 9
        count = 10 ** 12
        assert self.added_digit(count - 1) == sqrt_leading_digit(count - 1) == 9
        assert self.added_digit(count) == sqrt_leading_digit(count) == 1
        h = digit_histogram_of(SequenceSpec("square_roots", count))
        assert list(h.counts) == root_digit_counts("square_roots", count)

    def test_square_roots_part_ways_with_the_guarded_real_digit(self):
        # sqrt(249,999,999,999) = 499999.999999 starts with 4, but lies within
        # the 1e-12 guard of log10(5 * 10^5), so first_digit_real reads 5
        n = 249_999_999_999
        assert self.added_digit(n) == sqrt_leading_digit(n) == 4
        assert first_digit_real(math.sqrt(n)) == 5
        assert self.added_digit(n - 1) == first_digit_real(math.sqrt(n - 1)) == 4


LOG_COUNTED = ("fibonacci", "catalan", "bell", "partition")
# the terms each log-counted kind lists before its logs take over
LISTED_HEAD = {"fibonacci": seq._LISTED_HEAD, "catalan": seq._LISTED_HEAD,
               "bell": seq._LISTED_HEAD, "partition": seq._LISTED_HEAD}


@pytest.fixture
def settled(monkeypatch):
    """The values sent to `_settled_digit`, in order."""
    values = []
    settle = genbenford.digits._settled_digit

    def counted(v, x):
        values.append(v)
        return settle(v, x)

    monkeypatch.setattr(genbenford.digits, "_settled_digit", counted)
    return values


def listing_path_counts(kind, count):
    return histogram(_first_digits(list(generate(SequenceSpec(kind, count))))).counts


class TestCountedKinds:
    """primes_below is counted from the odd sieve, fibonacci and catalan
    from float logs, and bell and partition from float logs after a listed
    head, with the near-edge terms computed exactly: each gives the
    histogram of the listing path."""

    def test_the_counted_kinds(self):
        assert set(seq._COUNTED) == {*EDGE_COUNTED, "primes_below", *LOG_COUNTED}

    @settings(max_examples=40, deadline=None, database=None)
    @given(st.sampled_from(("fibonacci", "catalan", "primes_below")), st.integers(1, 6000))
    @example("fibonacci", seq._LISTED_HEAD)
    @example("fibonacci", seq._LISTED_HEAD + 1)
    @example("catalan", seq._LISTED_HEAD)
    @example("catalan", seq._LISTED_HEAD + 1)
    @example("primes_below", 1)
    @example("primes_below", 2)
    @example("primes_below", 3)
    def test_matches_the_listing_path(self, kind, count):
        if kind == "primes_below":
            count *= 50  # bounds up to 300,000
        assert digit_histogram_of(SequenceSpec(kind, count)).counts == \
            listing_path_counts(kind, count)

    @settings(max_examples=20, deadline=None, database=None)
    @given(st.one_of(st.tuples(st.just("bell"), st.integers(1, 1200)),
                     st.tuples(st.just("partition"), st.integers(1, 6000))))
    @example(("bell", seq._LISTED_HEAD))
    @example(("bell", seq._LISTED_HEAD + 1))
    @example(("bell", 600))
    @example(("bell", 601))
    @example(("partition", seq._LISTED_HEAD))
    @example(("partition", seq._LISTED_HEAD + 1))
    @example(("partition", 600))
    @example(("partition", 601))
    def test_bell_and_partition_match_the_listing_path(self, kind_and_count):
        spec = SequenceSpec(*kind_and_count)
        assert digit_histogram_of(spec).counts == seq._listed_histogram(spec).counts

    @pytest.mark.parametrize("kind", LOG_COUNTED)
    def test_every_count_up_to_a_thousand(self, kind):
        # every count whose last term is the first past a digit edge d*10^k,
        # and every count either side of it, against prefix tallies
        digits = _first_digits(list(generate(SequenceSpec(kind, 1000))))
        counts = np.zeros(9, dtype=np.int64)
        for count, digit in enumerate(digits, start=1):
            counts[digit - 1] += 1
            assert digit_histogram_of(SequenceSpec(kind, count)).counts == tuple(counts)

    def test_primes_on_each_side_of_every_edge(self):
        # bounds d*10^k - 1, d*10^k and d*10^k + 1 up to 10^6 + 1, against
        # counts by bisection over an independent sieve
        primes = sieve_primes(10 ** 6 + 2)
        edges = [d * 10 ** k for k in range(6) for d in range(1, 10)] + [10 ** 6]
        for bound in sorted({edge + step for edge in edges for step in (-1, 0, 1)} - {0}):
            got = digit_histogram_of(SequenceSpec("primes_below", bound)).counts
            assert list(got) == prime_digit_counts(bound, primes), bound

    @pytest.mark.parametrize("kind,count", [("fibonacci", 400), ("catalan", 300),
                                            ("bell", 300), ("partition", 1200)])
    def test_settling_every_term_gives_the_same_histogram(self, kind, count, monkeypatch,
                                                          settled):
        # error bounds of at least 1 put every logged term within 2 of an edge
        monkeypatch.setattr(seq, "_FIBONACCI_ERROR", 1.0)
        monkeypatch.setattr(seq, "_CATALAN_ERROR", 1.0)
        monkeypatch.setattr(seq, "_BELL_ERROR", 1.0)
        monkeypatch.setattr(seq, "_PARTITION_ROUNDING", 1.0)
        got = digit_histogram_of(SequenceSpec(kind, count)).counts
        terms = list(generate(SequenceSpec(kind, count)))
        head = LISTED_HEAD[kind]
        assert settled[-(count - head):] == terms[head:]
        assert got == listing_path_counts(kind, count)

    @pytest.mark.parametrize("kind,count", [("fibonacci", 30000), ("catalan", 8000),
                                            ("bell", 606), ("partition", 6060)])
    def test_only_small_terms_are_settled(self, kind, count, settled):
        # a deterministic work counter: at the benchmark's largest sizes the
        # settled terms are those of the listed head that sit on an edge or
        # near one (1, 2 and 5 on it, and 3 and 7 among the partitions),
        # never a large term
        digit_histogram_of(SequenceSpec(kind, count))
        assert 1 <= len(settled) <= 10
        assert max(settled) < 10 ** 20

    def test_partition_lists_only_the_head(self, monkeypatch):
        # a deterministic work counter: at the benchmark's largest size the
        # partition numbers taken from the generator are the listed head alone
        taken = []

        def counted(count):
            for value in partition(count):
                taken.append(value)
                yield value

        monkeypatch.setattr(seq, "partition", counted)
        digit_histogram_of(SequenceSpec("partition", 6060))
        assert len(taken) == seq._LISTED_HEAD

    def test_lehmers_remainder_bounds_the_rademacher_series(self):
        # p(n) - T_1 - T_2 against Lehmer's bound on the terms past N = 2,
        # in the form _partition_histogram relies on, for every n to 2,000
        exact = [1, *partition(2000)]
        with mpmath.workdps(60):
            c = mpmath.pi * mpmath.sqrt(mpmath.mpf(2) / 3)

            def rademacher_term(n, k):
                lam = mpmath.sqrt(n - mpmath.mpf(1) / 24)
                mu = c * lam / k
                return (mpmath.sqrt(k) * c / (2 * k * lam ** 2 * mpmath.pi * mpmath.sqrt(2))
                        * (mpmath.cosh(mu) - mpmath.sinh(mu) / mu))

            for n in range(2, 2001):
                remainder = (44 * mpmath.pi ** 2 / (225 * mpmath.sqrt(6))
                             + mpmath.pi * mpmath.sqrt(2) / 75 * mpmath.sqrt(2 / mpmath.mpf(n - 1))
                             * mpmath.sinh(mpmath.pi / 2 * mpmath.sqrt(2 * mpmath.mpf(n) / 3)))
                series = rademacher_term(n, 1) + (-1) ** n * rademacher_term(n, 2)
                assert abs(exact[n] - series) < remainder, n

    @pytest.mark.parametrize("kind,count", [("fibonacci", 20000), ("catalan", 8000),
                                            ("bell", 600), ("partition", 6000)])
    def test_the_logs_lie_within_their_error_bounds(self, kind, count, monkeypatch):
        # the x_n and bounds each histogram passes on, against 40-digit logs:
        # n log10 phi - log10 sqrt 5 (F(n) differs from phi^n / sqrt 5 by
        # under 1e-26 in log10 past the head), the running sum of the exact
        # log10 C(k+1)/C(k), and the logs of the exact Bell and partition
        # numbers
        passed = []

        def digits_from_log10(x, error, term):
            passed.append((x, error))
            return np.ones(len(x), dtype=np.intp)

        monkeypatch.setattr(seq, "_digits_from_log10", digits_from_log10)
        digit_histogram_of(SequenceSpec(kind, count))
        [(x, error)] = passed
        with mpmath.workdps(40):
            if kind == "fibonacci":
                log_phi = mpmath.log10((1 + mpmath.sqrt(5)) / 2)
                log_sqrt5 = mpmath.log10(mpmath.sqrt(5))
                # the proof takes the constants to be the nearest floats
                assert (seq._LOG10_PHI, seq._LOG10_SQRT5) == (float(log_phi), float(log_sqrt5))
                exact = [n * log_phi - log_sqrt5 for n in range(seq._LISTED_HEAD + 1, count + 1)]
            elif kind == "catalan":
                running, exact = mpmath.mpf(0), []
                for k in range(count - 1):
                    running += mpmath.log10(mpmath.mpf(2 * (2 * k + 1)) / (k + 2))
                    if k + 1 >= seq._LISTED_HEAD:
                        exact.append(running)
            else:
                # the proofs take the constants to be the nearest floats
                assert (seq._LOG10_2, seq._LOG10_E) == (float(mpmath.log10(2)),
                                                        float(mpmath.log10(mpmath.e)))
                assert (seq._RADEMACHER_C, seq._RADEMACHER_K) == (
                    float(mpmath.pi * mpmath.sqrt(mpmath.mpf(2) / 3)),
                    float(mpmath.pi ** 2 / (6 * mpmath.sqrt(3))))
                terms = list(generate(SequenceSpec(kind, count)))[LISTED_HEAD[kind]:]
                exact = [mpmath.log10(term) for term in terms]
            assert len(exact) == len(x)
            excess = max(abs(mpmath.mpf(float(xn)) - e) / float(bound)
                         for xn, e, bound in zip(x, exact, error))
        assert excess <= 1


class TestSpecAndCustomFiles:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            SequenceSpec("hailstone", 10)

    def test_rejects_nonpositive_param(self):
        with pytest.raises(ValueError):
            SequenceSpec("squares", 0)

    @pytest.mark.parametrize("kind,param", [("squares", 2.5), ("keith", 2.5),
                                            ("idoneal", 65.5), ("squares", "10")])
    def test_rejects_non_integral_param(self, kind, param):
        # the spec, not the generator, rejects it, naming the field
        with pytest.raises(ValueError, match="param must be an integer"):
            SequenceSpec(kind, param)

    def test_stores_an_integral_float_param_as_an_int(self):
        spec = SequenceSpec("squares", 10.0)
        assert spec.param == 10 and type(spec.param) is int
        assert digit_histogram_of(spec).sample_size == 10

    def test_custom_file_is_an_unknown_kind(self):
        # a data file is values (read_values), not a sequence kind
        assert "custom_file" not in SEQUENCE_KINDS
        with pytest.raises(ValueError, match="unknown sequence kind 'custom_file'"):
            SequenceSpec("custom_file")

    def test_custom_file_round_trip(self, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text(
            "# a comment\n"
            "\n"
            "354224848179261915075\n"
            "7.0710678\n"
            "97\n"
        )
        values = read_values(path)
        assert values == [354224848179261915075, 7.0710678, 97]
        h = histogram(_first_digits(values))  # what fit --file tallies
        assert h.counts == (0, 0, 1, 0, 0, 0, 1, 0, 1)

    def test_integers_past_the_str_limit_round_trip(self):
        # every 20th term and the last keep the test short and still span
        # sizes from one digit to the 4,389 of F(21000), 22 of them past the
        # 4,300-digit limit
        fib = list(fibonacci(21000))
        values = fib[::20] + fib[-1:]
        assert parse_values(format_values(values)) == values
        assert format_values([10 ** 5000]) == "1" + "0" * 5000 + "\n"
        assert parse_values("7" + "0" * 4999) == [7 * 10 ** 4999]

    def test_custom_file_rejects_junk(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("12\nhello\n")
        with pytest.raises(ValueError, match="line 2"):
            read_values(path)

    def test_missing_custom_file(self, tmp_path):
        with pytest.raises(OSError):
            read_values(tmp_path / "nope")

    def test_square_roots_yield_floats(self):
        values = list(square_roots(5))
        assert values == pytest.approx([1.0, 2 ** 0.5, 3 ** 0.5, 2.0, 5 ** 0.5])


def test_generate_looks_generators_up_at_call_time(monkeypatch):
    monkeypatch.setattr(seq, "fibonacci", lambda count: [7] * count)
    assert list(generate(SequenceSpec("fibonacci", 5))) == [7, 7, 7, 7, 7]


def test_generate_calls_every_kind_with_its_param(monkeypatch):
    calls = []
    for kind in SEQUENCE_KINDS:
        monkeypatch.setattr(seq, kind, lambda *args, kind=kind: calls.append((kind, args)))
    specs = [SequenceSpec(kind, 0 if kind == "idoneal" else 3) for kind in SEQUENCE_KINDS]
    for spec in specs:
        generate(spec)
    assert calls == [(spec.kind, (spec.param,)) for spec in specs]
