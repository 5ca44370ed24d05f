"""Unit tests for the inverted index, dynamic index, and cloud service."""

import pytest

from repro.indices.cloudservice import CloudServiceIndex
from repro.indices.dynamic import DynamicComputedIndex, KeywordTopicClassifier
from repro.indices.inverted import InvertedIndex, tokenize


class TestTokenize:
    def test_lowercases(self):
        assert tokenize("Hello World") == ["hello", "world"]

    def test_strips_punctuation(self):
        assert tokenize("a,b;c!") == ["a", "b", "c"]

    def test_keeps_apostrophes_and_digits(self):
        assert tokenize("don't stop 42") == ["don't", "stop", "42"]

    def test_empty(self):
        assert tokenize("") == []


class TestInvertedIndex:
    @pytest.fixture
    def idx(self):
        return InvertedIndex("inv").load(
            [
                (1, "big data map reduce map"),
                (2, "map of the city"),
                (3, "reduce reuse recycle"),
            ]
        )

    def test_postings_ranked_by_tf(self, idx):
        postings = idx.lookup("map")
        assert postings[0] == (1, 2)  # doc 1 has tf=2
        assert (2, 1) in postings

    def test_missing_term(self, idx):
        assert idx.lookup("zebra") == []

    def test_case_insensitive_lookup(self, idx):
        assert idx.lookup("MAP") == idx.lookup("map")

    def test_document_frequency(self, idx):
        assert idx.document_frequency("map") == 2
        assert idx.document_frequency("city") == 1

    def test_counts(self, idx):
        assert idx.num_docs == 3
        assert idx.num_terms > 5

    def test_fingerprint_stable_under_lookups(self, idx):
        fp = idx.fingerprint()
        idx.lookup("map")
        assert idx.fingerprint() == fp


class TestDynamicComputedIndex:
    def test_wraps_function(self):
        idx = DynamicComputedIndex("sq", lambda k: [k * k])
        assert idx.lookup(7) == [49]

    def test_scalar_result_wrapped(self):
        idx = DynamicComputedIndex("sq", lambda k: k * k)
        assert idx.lookup(3) == [9]

    def test_infinite_key_space(self):
        idx = DynamicComputedIndex("echo", lambda k: [k])
        for key in ("anything", 123, ("tu", "ple")):
            assert idx.lookup(key) == [key]

    def test_idempotent(self):
        idx = DynamicComputedIndex("sq", lambda k: [k * k])
        assert idx.lookup(5) == idx.lookup(5)

    def test_tuple_result_is_a_sequence_of_values(self):
        # Regression: a tuple used to be wrapped as [tuple]; any
        # non-string sequence is a sequence of result values.
        idx = DynamicComputedIndex("pair", lambda k: (k, k + 1))
        assert idx.lookup(4) == [4, 5]

    def test_list_result_passthrough(self):
        idx = DynamicComputedIndex("two", lambda k: [k, -k])
        assert idx.lookup(2) == [2, -2]

    def test_string_result_is_scalar(self):
        idx = DynamicComputedIndex("label", lambda k: f"topic-{k}")
        assert idx.lookup("x") == ["topic-x"]

    def test_bytes_result_is_scalar(self):
        idx = DynamicComputedIndex("blob", lambda k: b"abc")
        assert idx.lookup(1) == [b"abc"]

    def test_range_result_materialised(self):
        idx = DynamicComputedIndex("rng", lambda k: range(k))
        assert idx.lookup(3) == [0, 1, 2]

    def test_costlier_default_service_time(self):
        assert DynamicComputedIndex("x", lambda k: [k]).service_time() > 1e-3

    def test_no_partition_scheme(self):
        assert DynamicComputedIndex("x", lambda k: [k]).partition_scheme is None


class TestKeywordTopicClassifier:
    @pytest.fixture
    def clf(self):
        return KeywordTopicClassifier()

    def test_seed_words_classify(self, clf):
        assert clf.classify("the team won the game") == "sports"
        assert clf.classify("storm and rain forecast") == "weather"
        assert clf.classify("stock market earnings") == "finance"

    def test_total_mapping(self, clf):
        topic = clf.classify("completely unrelated gibberish xyzzy")
        assert topic in clf.topics

    def test_deterministic(self, clf):
        assert clf.classify("random text 42") == clf.classify("random text 42")

    def test_as_index(self, clf):
        idx = clf.as_index()
        assert idx.lookup("album concert tour") == ["music"]

    def test_custom_topics(self):
        clf = KeywordTopicClassifier({"food": ("pizza", "soup")})
        assert clf.classify("I love pizza") == "food"


class TestCloudServiceIndex:
    def test_dict_backend(self):
        svc = CloudServiceIndex("geo", {"1.1.1.1": "EU"})
        assert svc.lookup("1.1.1.1") == ["EU"]
        assert svc.lookup("2.2.2.2") == []

    def test_callable_backend(self):
        svc = CloudServiceIndex("f", lambda k: f"r-{k}")
        assert svc.lookup("x") == ["r-x"]

    def test_list_result_passthrough(self):
        svc = CloudServiceIndex("f", lambda k: [1, 2])
        assert svc.lookup("x") == [1, 2]

    def test_base_delay(self):
        svc = CloudServiceIndex("f", {})
        assert svc.service_time() == pytest.approx(0.8e-3)

    def test_extra_delay_adds(self):
        svc = CloudServiceIndex("f", {}, extra_delay=0.005)
        assert svc.service_time() == pytest.approx(5.8e-3)

    def test_set_extra_delay(self):
        svc = CloudServiceIndex("f", {})
        svc.set_extra_delay(0.002)
        assert svc.service_time() == pytest.approx(2.8e-3)

    def test_pay_per_use_accounting(self):
        svc = CloudServiceIndex("f", {"a": 1}, price_per_lookup=0.25)
        svc.lookup("a")
        svc.lookup("b")
        assert svc.total_charged == pytest.approx(0.5)

    def test_single_remote_host_no_partitions(self):
        svc = CloudServiceIndex("f", {})
        assert svc.partition_scheme is None
        assert svc.hosts_for_key("anything") == []
