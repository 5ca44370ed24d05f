"""Unit tests for deterministic RNG helpers."""

from collections import Counter

import pytest

from repro.common.rng import ZipfSampler, make_rng, randbelow, weighted_choice


class TestMakeRng:
    def test_same_seed_same_stream(self):
        assert make_rng(1, "a").random() == make_rng(1, "a").random()

    def test_different_scope_different_stream(self):
        assert make_rng(1, "a").random() != make_rng(1, "b").random()

    def test_different_seed_different_stream(self):
        assert make_rng(1, "a").random() != make_rng(2, "a").random()

    def test_multi_part_scope(self):
        r1 = make_rng(5, "table", 3)
        r2 = make_rng(5, "table", 4)
        assert r1.random() != r2.random()


class TestRandbelow:
    """``randbelow(rng)`` leaves the stream where ``randrange`` would."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 25, 121, 1000, 2**40 + 3])
    def test_same_draws_as_randrange(self, n):
        a, b = make_rng(3, n), make_rng(3, n)
        below = randbelow(b)
        assert [a.randrange(n) for _ in range(200)] == [below(n) for _ in range(200)]
        assert a.random() == b.random()

    def test_randint_and_choice(self):
        a, b = make_rng(4), make_rng(4)
        below = randbelow(b)
        seq = ("O", "F", "P")
        for _ in range(200):
            assert a.randint(1, 121) == 1 + below(121)
            assert a.choice(seq) == seq[below(len(seq))]
            assert a.randrange(1, 10_000) == 1 + below(9_999)


class TestZipfSampler:
    def test_samples_in_range(self):
        sampler = ZipfSampler(100, 1.0, make_rng(0))
        for _ in range(500):
            assert 0 <= sampler.sample() < 100

    def test_skew_prefers_low_ranks(self):
        sampler = ZipfSampler(1000, 1.2, make_rng(1))
        counts = Counter(sampler.sample() for _ in range(5000))
        assert counts[0] > counts.get(500, 0)

    def test_uniformish_when_s_zero(self):
        sampler = ZipfSampler(10, 0.0, make_rng(2))
        counts = Counter(sampler.sample() for _ in range(10000))
        assert min(counts.values()) > 500

    def test_single_item(self):
        sampler = ZipfSampler(1, 2.0, make_rng(3))
        assert sampler.sample() == 0

    def test_rejects_empty_domain(self):
        import pytest

        with pytest.raises(ValueError):
            ZipfSampler(0, 1.0, make_rng(4))


class TestWeightedChoice:
    def test_respects_weights(self):
        rng = make_rng(9)
        counts = Counter(
            weighted_choice(rng, ["a", "b"], [9.0, 1.0]) for _ in range(2000)
        )
        assert counts["a"] > counts["b"] * 3

    def test_single_item(self):
        assert weighted_choice(make_rng(1), ["only"], [1.0]) == "only"
