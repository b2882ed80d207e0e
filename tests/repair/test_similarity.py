"""Tests for :mod:`repro.repair.similarity` (paper Eq. 7)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.db.columnar import ColumnStore
from repro.db.schema import Schema
from repro.repair import (
    SimilarityCache,
    levenshtein,
    levenshtein_many,
    similarity,
    similarity_many,
    token_jaccard,
)
from repro.repair.similarity import KERNEL_BUDGET, best_candidate

TEXT = st.text(alphabet="abcde ", max_size=12)
#: Full-unicode strings for the batched-kernel property tests.
UNITEXT = st.text(max_size=10)


class TestLevenshtein:
    @pytest.mark.parametrize(
        ("a", "b", "expected"),
        [
            ("", "", 0),
            ("a", "", 1),
            ("", "abc", 3),
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
            ("46360", "46391", 2),
            ("abc", "abc", 0),
        ],
    )
    def test_known_distances(self, a, b, expected):
        assert levenshtein(a, b) == expected

    @given(a=TEXT, b=TEXT)
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(a=TEXT)
    def test_identity(self, a):
        assert levenshtein(a, a) == 0

    @given(a=TEXT, b=TEXT)
    def test_bounds(self, a, b):
        d = levenshtein(a, b)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))

    @given(a=TEXT, b=TEXT, c=TEXT)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(a=TEXT, b=TEXT)
    def test_agrees_with_reference_dp(self, a, b):
        m, n = len(a), len(b)
        table = [[0] * (n + 1) for __ in range(m + 1)]
        for i in range(m + 1):
            table[i][0] = i
        for j in range(n + 1):
            table[0][j] = j
        for i in range(1, m + 1):
            for j in range(1, n + 1):
                cost = 0 if a[i - 1] == b[j - 1] else 1
                table[i][j] = min(
                    table[i - 1][j] + 1, table[i][j - 1] + 1, table[i - 1][j - 1] + cost
                )
        assert levenshtein(a, b) == table[m][n]


def _one_query(query, candidates):
    """The pairs kernel asked for one query against a candidate pool."""
    return levenshtein_many([query] * len(candidates), candidates).tolist()


#: Strings the pairs kernel must handle: ASCII, NUL (equal to the pad
#: codepoint), astral characters and lone surrogates, empty included.
KERNEL_TEXT = st.text(
    alphabet=st.sampled_from(["a", "b", "c", "\x00", "\U0001F600", "\ud800", "\udfff"]),
    max_size=9,
)


class TestLevenshteinMany:
    """The batched pairs kernel against the scalar reference."""

    @given(query=UNITEXT, candidates=st.lists(UNITEXT, max_size=8))
    def test_matches_scalar_reference(self, query, candidates):
        got = _one_query(query, candidates)
        assert got == [levenshtein(query, c) for c in candidates]

    @given(query=UNITEXT)
    def test_empty_candidate_list(self, query):
        assert _one_query(query, []) == []

    @given(candidates=st.lists(UNITEXT, min_size=1, max_size=8))
    def test_empty_query_gives_lengths(self, candidates):
        got = _one_query("", candidates)
        assert got == [len(c) for c in candidates]

    @given(query=UNITEXT, n=st.integers(min_value=1, max_value=5))
    def test_equal_strings_give_zero(self, query, n):
        assert _one_query(query, [query] * n) == [0] * n

    def test_empty_strings_in_batch(self):
        assert _one_query("abc", ["", "abc", "", "ab"]) == [3, 0, 3, 1]

    def test_mixed_lengths_padding_never_leaks(self):
        # a short candidate next to a long one: the DP must read each
        # result at the candidate's own length, never the pad columns
        assert _one_query("abcdef", ["a", "abcdefgh"]) == [5, 2]

    def test_surrogate_and_astral_codepoints(self):
        cands = ["\U0001F600", "a\U0001F600b", "\ud800"]
        assert _one_query("a\ud800", cands) == [levenshtein("a\ud800", c) for c in cands]

    @given(
        pairs=st.one_of(
            st.lists(st.tuples(KERNEL_TEXT, KERNEL_TEXT), max_size=12),
            st.lists(
                st.tuples(KERNEL_TEXT, KERNEL_TEXT),
                min_size=KERNEL_BUDGET - 2,
                max_size=KERNEL_BUDGET + 3,
            ),
        )
    )
    def test_pairs_match_scalar_across_lengths_and_chunks(self, pairs):
        """Rows of mixed query lengths (finished rows drop out of the
        DP), empty strings on both sides, non-BMP and lone-surrogate
        codepoints, and batches on both sides of the chunk budget."""
        queries = [q for q, __ in pairs]
        candidates = [c for __, c in pairs]
        got = levenshtein_many(queries, candidates).tolist()
        assert got == [levenshtein(q, c) for q, c in pairs]

    def test_chunk_boundary_keeps_pair_order(self):
        n = 2 * KERNEL_BUDGET + 5
        queries = ["x" * (i % 7) for i in range(n)]
        candidates = ["x" * (i % 5) + "y" * (i % 3) for i in range(n)]
        got = levenshtein_many(queries, candidates).tolist()
        assert got == [levenshtein(q, c) for q, c in zip(queries, candidates)]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            levenshtein_many(["a", "b"], ["a"])

    @given(original=UNITEXT, candidates=st.lists(UNITEXT, max_size=8))
    def test_similarity_many_matches_scalar(self, original, candidates):
        assert similarity_many(original, candidates) == [
            similarity(original, c) for c in candidates
        ]

    def test_similarity_many_equality_shortcut_for_mixed_types(self):
        # 1 == True and 1 == 1.0 but their strings differ: the batched
        # path must fire the equality shortcut before stringifying,
        # exactly like the scalar function
        candidates = [True, 1.0, 2, "1"]
        assert similarity_many(1, candidates) == [
            similarity(1, c) for c in candidates
        ]
        assert similarity_many(1, [True])[0] == 1.0


def _store(values):
    schema = Schema("r", ["a"])
    return ColumnStore(schema, [(i, [v]) for i, v in enumerate(values)])


class TestSimilarityCache:
    def test_callable_matches_similarity(self):
        cache = SimilarityCache()
        pairs = [("Westvile", "Westville"), ("46360", "46391"), (1, 1.0), ("", "")]
        for a, b in pairs:
            assert cache(a, b) == similarity(a, b)
        # second pass answers from the memo with identical values
        for a, b in pairs:
            assert cache(a, b) == similarity(a, b)
        assert cache.stats["hits"] > 0

    def test_scores_code_space_matches_scalar(self):
        values = ["Michigan City", "Westville", "Wstville", "Gary"]
        cache = SimilarityCache(_store(values))
        candidates = values + ["Fort Wayne"]  # last one out-of-vocabulary
        expected = [similarity("Westville", v) for v in candidates]
        assert cache.scores([(0, "Westville", candidates)]) == [expected]
        assert cache.scores([(0, "Westville", candidates)]) == [expected]  # memo hits
        assert cache.stats["hits"] > 0
        assert cache.stats["pair_entries"] > 0
        assert cache.stats["str_entries"] == 1

    def test_scores_without_columns_falls_back(self):
        cache = SimilarityCache()
        got = cache.scores([(0, "abc", ["abd", "xyz"])])
        assert got == [[similarity("abc", "abd"), similarity("abc", "xyz")]]

    def test_scores_out_of_vocabulary_current(self):
        cache = SimilarityCache(_store(["x", "y"]))
        got = cache.scores([(0, "never-stored", ["x", "y"])])
        assert got == [[similarity("never-stored", v) for v in ["x", "y"]]]

    def test_capacity_purges_and_counts_evictions(self):
        cache = SimilarityCache(_store(["aa", "ab", "ac", "ad"]), capacity=2)
        for current in ["aa", "ab", "ac"]:
            (got,) = cache.scores([(0, current, ["aa", "ab", "ac", "ad"])])
            assert got == [similarity(current, v) for v in ["aa", "ab", "ac", "ad"]]
        assert cache.stats["evictions"] > 0
        assert len(cache) <= 4  # one batch may overshoot; the next purges

    def test_duplicate_candidates_counted_once(self):
        cache = SimilarityCache(_store(["aa", "ab"]))
        cache.scores([(0, "aa", ["ab", "ab", "ab"])])
        assert cache.stats["pair_entries"] == 1

    def test_clear_keeps_counters(self):
        cache = SimilarityCache()
        cache("a", "b")
        hits, misses = cache.stats["hits"], cache.stats["misses"]
        cache.clear()
        assert len(cache) == 0
        assert cache.stats["misses"] == misses
        assert cache.stats["hits"] == hits


class TestSimilarity:
    def test_equal_values_score_one(self):
        assert similarity("x", "x") == 1.0
        assert similarity(42, 42) == 1.0

    def test_empty_strings(self):
        assert similarity("", "") == 1.0

    def test_range(self):
        assert 0.0 <= similarity("Westville", "Michigan City") <= 1.0

    def test_eq7_formula(self):
        # dist('46360', '46391') = 2, max length 5 -> 1 - 2/5
        assert similarity("46360", "46391") == pytest.approx(0.6)

    def test_non_string_values_stringified(self):
        assert similarity(46360, 46391) == pytest.approx(0.6)

    def test_paper_example_zero_similarity_is_valid(self):
        # 'Westville' -> 'Michigan City' is a genuine suggestion in the
        # paper despite an edit distance equal to the longer length.
        assert similarity("Westville", "Michigan City") == 0.0

    @given(a=TEXT, b=TEXT)
    def test_symmetric(self, a, b):
        assert similarity(a, b) == pytest.approx(similarity(b, a))

    @given(a=TEXT, b=TEXT)
    def test_bounded(self, a, b):
        assert 0.0 <= similarity(a, b) <= 1.0


class TestTokenJaccard:
    def test_identical(self):
        assert token_jaccard("fort wayne", "Fort Wayne") == 1.0

    def test_disjoint(self):
        assert token_jaccard("aaa", "bbb") == 0.0

    def test_partial_overlap(self):
        assert token_jaccard("fort wayne", "wayne county") == pytest.approx(1 / 3)

    def test_empty_both(self):
        assert token_jaccard("", "") == 1.0

    @given(a=TEXT, b=TEXT)
    def test_bounded(self, a, b):
        assert 0.0 <= token_jaccard(a, b) <= 1.0


class TestCandidateSelection:
    def test_best_candidate_picks_highest_similarity(self):
        value, score = best_candidate("Westvile", ["Westville", "Gary"])
        assert value == "Westville"
        assert score == similarity("Westvile", "Westville")

    def test_best_candidate_skips_current_excluded_and_none(self):
        value, __ = best_candidate(
            "Westville", ["Westville", None, "Gary", "Hammond"], excluded={"Gary"}
        )
        assert value == "Hammond"

    def test_best_candidate_tie_breaks_lexicographically(self):
        # equal scores: the lexicographically smaller string wins,
        # independent of candidate order
        a, __ = best_candidate("ab", ["xb", "yb"])
        b, __ = best_candidate("ab", ["yb", "xb"])
        assert a == b == "xb"

    def test_best_candidate_empty_pool(self):
        assert best_candidate("v", []) == (None, -1.0)

    def test_zero_similarity_still_admissible(self):
        value, score = best_candidate("Westville", ["Michigan City"])
        assert value == "Michigan City"
        assert score == 0.0
