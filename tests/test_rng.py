"""Generator and substream determinism."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sentinel.rng import MASK64, Xoshiro256StarStar, splitmix64, substream


def test_splitmix64_reference_values():
    # Published splitmix64 outputs for state 0 (Vigna's reference sequence).
    state = 0
    outs = []
    for _ in range(3):
        state, out = splitmix64(state)
        outs.append(out)
    assert outs == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_xoshiro256starstar_reference_values():
    # The reference C implementation's first outputs from state {1, 2, 3, 4}.
    expected = [11520, 0, 1509978240, 1215971899390074240]
    rng = Xoshiro256StarStar(0)
    rng._s = [1, 2, 3, 4]
    assert [rng.next_u64() for _ in range(4)] == expected
    rng._s = [1, 2, 3, 4]
    assert rng._below([2 ** 64] * 4) == expected   # one draw each, unreduced


def test_same_seed_same_stream():
    a = Xoshiro256StarStar(12345)
    b = Xoshiro256StarStar(12345)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_different_seeds_differ():
    a = Xoshiro256StarStar(1)
    b = Xoshiro256StarStar(2)
    assert [a.next_u64() for _ in range(10)] != [b.next_u64() for _ in range(10)]


def test_substream_tags_are_independent_and_stable():
    s1 = substream(7, "actor", "u001")
    s2 = substream(7, "actor", "u001")
    s3 = substream(7, "actor", "u002")
    first = [s1.next_u64() for _ in range(20)]
    assert first == [s2.next_u64() for _ in range(20)]
    assert first != [s3.next_u64() for _ in range(20)]


def test_substream_tag_boundaries_matter():
    # ("ab", "c") and ("a", "bc") must not collide.
    a = substream(1, "ab", "c").next_u64()
    b = substream(1, "a", "bc").next_u64()
    assert a != b


@given(st.integers(min_value=0, max_value=MASK64), st.integers(-50, 50),
       st.integers(0, 100))
@settings(max_examples=200, deadline=None)
def test_randint_in_range(seed, lo, span):
    rng = Xoshiro256StarStar(seed)
    hi = lo + span
    for _ in range(5):
        x = rng.randint(lo, hi)
        assert lo <= x <= hi


@given(st.integers(min_value=0, max_value=MASK64))
@settings(max_examples=100, deadline=None)
def test_random_unit_interval(seed):
    rng = Xoshiro256StarStar(seed)
    for _ in range(10):
        u = rng.random()
        assert 0.0 <= u < 1.0


def test_shuffle_is_a_permutation():
    rng = substream(3, "shuffle")
    items = list(range(50))
    shuffled = items[:]
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items  # astronomically unlikely to be identity


def test_poisson_mean_close():
    rng = substream(9, "poisson")
    lam = 0.6
    n = 20000
    mean = sum(rng.poisson(lam) for _ in range(n)) / n
    assert abs(mean - lam) < 0.02
    assert rng.poisson(0) == 0


def test_gauss_moments():
    rng = substream(11, "gauss")
    n = 20000
    xs = [rng.gauss() for _ in range(n)]
    mean = sum(xs) / n
    var = sum((x - mean) ** 2 for x in xs) / n
    assert abs(mean) < 0.03
    assert abs(var - 1.0) < 0.05
    assert all(math.isfinite(x) for x in xs)


def _randint_reference(rng, lo, hi):
    """Textbook rejection sampling over next_u64: words at or above the
    largest multiple of the span that is at most 2**64 are thrown away."""
    span = hi - lo + 1
    limit = 2 ** 64 - 2 ** 64 % span
    while True:
        x = rng.next_u64()
        if x < limit:
            return lo + x % span


# Spans just past 2**63 reject almost half of all words; a real sequence
# never reaches the rejection branch.
REJECTING = (2 ** 63 + 1, 3 * 2 ** 62 + 1)
SPANS = st.one_of(st.integers(1, 60), st.sampled_from(
    REJECTING + (2 ** 63, 2 ** 64 - 1, 2 ** 64)))
SEEDS = st.integers(min_value=0, max_value=MASK64)


@given(SEEDS, st.lists(SPANS, max_size=40))
@example(1, list(REJECTING) * 8)
@settings(max_examples=300, deadline=None)
def test_below_draws_what_one_at_a_time_randint_draws(seed, spans):
    bulk, single, reference = (Xoshiro256StarStar(seed) for _ in range(3))
    got = bulk._below(spans)
    assert got == [single.randint(0, n - 1) for n in spans]
    assert got == [_randint_reference(reference, 0, n - 1) for n in spans]
    assert bulk._s == single._s == reference._s


def test_rejecting_spans_consume_extra_words():
    rng, reference = Xoshiro256StarStar(1), Xoshiro256StarStar(1)
    spans = list(REJECTING) * 8
    assert rng._below(spans) == [_randint_reference(reference, 0, n - 1)
                                 for n in spans]
    probe = Xoshiro256StarStar(1)
    for words in range(1, 4 * len(spans)):
        probe.next_u64()
        if probe._s == rng._s:
            break
    assert probe._s == rng._s and words > len(spans)


@given(SEEDS, st.lists(st.integers(), min_size=1, max_size=30),
       st.integers(0, 50))
@settings(max_examples=200, deadline=None)
def test_choices_draws_what_one_at_a_time_choice_draws(seed, seq, k):
    bulk, single = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
    assert bulk.choices(seq, k) == [single.choice(seq) for _ in range(k)]
    assert bulk._s == single._s


@given(SEEDS, st.lists(st.integers(), max_size=80))
@settings(max_examples=200, deadline=None)
def test_shuffle_is_reference_fisher_yates(seed, items):
    bulk, single = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
    got = list(items)
    bulk.shuffle(got)
    want = list(items)
    for i in range(len(want) - 1, 0, -1):
        j = _randint_reference(single, 0, i)
        want[i], want[j] = want[j], want[i]
    assert got == want
    assert bulk._s == single._s


@pytest.mark.parametrize("lo, hi", [(0, 2 ** 64), (-1, 2 ** 64 - 1),
                                    (0, 2 ** 65 - 1), (1, 0)])
def test_randint_rejects_a_span_outside_1_to_2_to_the_64(lo, hi):
    rng = Xoshiro256StarStar(5)
    state = list(rng._s)
    with pytest.raises(ValueError):
        rng.randint(lo, hi)
    assert rng._s == state


@pytest.mark.parametrize("span", [0, -3, 2 ** 64 + 1, 2 ** 70])
def test_below_rejects_a_span_outside_1_to_2_to_the_64(span):
    rng, single = Xoshiro256StarStar(5), Xoshiro256StarStar(5)
    with pytest.raises(ValueError):
        rng._below([7, 9, span, 3])
    # the draws before the bad span are made, as one-at-a-time calls make them
    single.randint(0, 6)
    single.randint(0, 8)
    assert rng._s == single._s


def test_choices_from_an_empty_sequence():
    rng = Xoshiro256StarStar(5)
    state = list(rng._s)
    with pytest.raises(ValueError) as from_choice:
        rng.choice([])
    with pytest.raises(ValueError) as from_choices:
        rng.choices([], 1)
    assert str(from_choices.value) == str(from_choice.value)
    assert rng.choices([], 0) == [] and rng.choices("abc", 0) == []
    assert rng._s == state
