"""Sign vector primitives: construction, flips, reorientation, sums."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from topecom import (
    Tope,
    distance,
    negative_part,
    positive_part,
    positive_tope,
    reorient,
    separation_set,
    tope_sum,
)

from conftest import tope

entries = st.sampled_from((-1, 1))
topes = st.integers(min_value=2, max_value=9).flatmap(
    lambda t: st.tuples(*([entries] * t)).map(Tope)
)


class TestTope:
    def test_from_string_roundtrip(self):
        assert str(tope("+-++-")) == "+-++-"
        assert tope("+-++-").entries == (1, -1, 1, 1, -1)

    @given(topes)
    def test_string_roundtrip(self, T):
        assert Tope.from_string(str(T)) == T

    def test_rejects_non_signs(self):
        with pytest.raises(ValueError):
            Tope((1, 0, 1))
        with pytest.raises(ValueError):
            Tope.from_string("+*-")
        with pytest.raises(ValueError):
            Tope.from_string("")

    @pytest.mark.parametrize("text", ["", "+*-", " +-", "+-\n", "0", "+-+1"])
    def test_from_string_names_the_bad_text(self, text):
        with pytest.raises(ValueError) as exc:
            Tope.from_string(text)
        assert str(exc.value) == f"not a tope string: {text!r}"

    @given(st.text(alphabet="+-", min_size=1, max_size=12))
    def test_from_string_builds_the_entries(self, text):
        T = Tope.from_string(text)
        assert type(T) is Tope
        assert T == Tope(1 if c == "+" else -1 for c in text)

    def test_sign_is_one_based(self):
        T = tope("+-+")
        assert T.sign(1) == 1
        assert T.sign(2) == -1
        assert T.sign(3) == 1
        with pytest.raises(ValueError):
            T.sign(0)
        with pytest.raises(ValueError):
            T.sign(4)

    @given(topes, st.data())
    def test_flip_is_an_involution(self, T, data):
        e = data.draw(st.integers(min_value=1, max_value=T.t))
        assert T.flip(e).flip(e) == T
        assert T.flip(e) != T

    @given(topes)
    def test_negation_is_an_involution(self, T):
        assert -(-T) == T
        assert (-T).entries == tuple(-v for v in T.entries)

    def test_positive_tope(self):
        assert positive_tope(3) == tope("+++")
        with pytest.raises(ValueError):
            positive_tope(1)

    def test_any_iterable_of_signs(self):
        want = Tope((1, -1))
        for T in (Tope([1, -1]), Tope(v for v in (1, -1))):
            assert T == want
            assert hash(T) == hash(want)
            assert sorted([T, -T]) == [-want, want]
            assert str(T) == "+-"

    @given(topes)
    def test_entries_is_a_plain_tuple(self, T):
        assert type(T.entries) is tuple
        assert Tope(T.entries) == T

    @given(topes)
    def test_no_concatenation_or_repetition(self, T):
        for combine in (
            lambda: T + T,
            lambda: T * 2,
            lambda: 2 * T,
            lambda: T.entries + T,
            lambda: sum([T, T]),
        ):
            with pytest.raises(TypeError):
                combine()


class TestReorient:
    def test_single_element(self):
        assert reorient(tope("-++++"), {1}) == positive_tope(5)

    @given(topes, st.data())
    def test_involution(self, T, data):
        A = data.draw(st.sets(st.integers(min_value=1, max_value=T.t)))
        assert reorient(reorient(T, A), A) == T

    @given(topes)
    def test_negative_part_reorientation_is_positive(self, T):
        assert reorient(T, negative_part(T)) == positive_tope(T.t)

    def test_rejects_bad_elements(self):
        with pytest.raises(ValueError):
            reorient(tope("++"), {0})
        with pytest.raises(ValueError):
            reorient(tope("++"), {3})


class TestParts:
    def test_example(self):
        T = tope("+-++-")
        assert negative_part(T) == frozenset({2, 5})
        assert positive_part(T) == frozenset({1, 3, 4})

    @given(topes)
    def test_parts_partition_the_ground_set(self, T):
        pos, neg = positive_part(T), negative_part(T)
        assert pos | neg == frozenset(range(1, T.t + 1))
        assert pos & neg == frozenset()


class TestSeparation:
    def test_examples(self):
        assert separation_set(positive_tope(5), tope("+++-+")) == frozenset({4})
        T = tope("+-++-")
        assert separation_set(T, T) == frozenset()
        assert separation_set(T, -T) == frozenset(range(1, 6))

    @given(topes, topes)
    def test_distance_is_separation_size(self, T1, T2):
        if T1.t != T2.t:
            with pytest.raises(ValueError):
                distance(T1, T2)
            return
        d = distance(T1, T2)
        assert d == len(separation_set(T1, T2))
        # quarter of the squared euclidean gap between +-1 vectors
        assert d == sum((a - b) ** 2 for a, b in zip(T1.entries, T2.entries)) // 4

    @given(topes)
    def test_separation_from_negation_is_everything(self, T):
        assert distance(T, -T) == T.t


class TestTopeSum:
    def test_three_member_sums(self):
        triple = [tope("+-+++"), tope("-+--+"), tope("-+++-")]
        assert tope_sum(triple) == (-1, 1, 1, 1, 1)
        triple = [tope("--+++"), tope("++--+"), tope("-+++-")]
        assert tope_sum(triple) == (-1, 1, 1, 1, 1)
        triple = [tope("--+++"), tope("++--+"), tope("++++-")]
        assert tope_sum(triple) == (1, 1, 1, 1, 1)

    def test_empty_sum_is_refused(self):
        with pytest.raises(ValueError):
            tope_sum([])

    @given(st.lists(st.tuples(*([entries] * 4)).map(Tope), min_size=1, max_size=6))
    def test_order_independent(self, ts):
        assert tope_sum(ts) == tope_sum(list(reversed(ts)))

    @given(topes)
    def test_antipodal_pair_cancels(self, T):
        assert tope_sum([T, -T]) == (0,) * T.t

    def test_rejects_mixed_lengths(self):
        with pytest.raises(ValueError):
            tope_sum([tope("++"), tope("+++")])
