"""Unit tests for the wire-size estimator."""

import pytest

from repro.common.sizing import sizeof, sizeof_pair, sizeof_records


class TestScalars:
    def test_none_is_one_byte(self):
        assert sizeof(None) == 1

    def test_bool_is_one_byte(self):
        assert sizeof(True) == 1
        assert sizeof(False) == 1

    def test_int_is_eight_bytes(self):
        assert sizeof(0) == 8
        assert sizeof(2**62) == 8

    def test_float_is_eight_bytes(self):
        assert sizeof(3.14) == 8

    def test_ascii_string_is_its_length(self):
        assert sizeof("hello") == 5
        assert sizeof("") == 0

    def test_unicode_string_is_utf8_length(self):
        assert sizeof("héllo") == len("héllo".encode("utf-8"))

    def test_lone_surrogate_does_not_raise(self):
        # "unknown types degrade gracefully instead of raising mid-job":
        # strict UTF-8 refuses a lone surrogate; it sizes as 3 bytes.
        assert sizeof("\ud800") == 3
        assert sizeof(("a\udfffb", 1)) == 4 + 5 + 8
        assert sizeof_pair("\ud800", "é") == 3 + 2

    def test_bytes_is_its_length(self):
        assert sizeof(b"\x00\x01\x02") == 3
        assert sizeof(bytearray(10)) == 10


class TestContainers:
    def test_empty_tuple_has_header_only(self):
        assert sizeof(()) == 4

    def test_tuple_sums_elements(self):
        assert sizeof((1, "ab")) == 4 + 8 + 2

    def test_list_matches_tuple(self):
        assert sizeof([1, "ab"]) == sizeof((1, "ab"))

    def test_nested_containers(self):
        assert sizeof(((1,), (2,))) == 4 + (4 + 8) + (4 + 8)

    def test_dict_sums_keys_and_values(self):
        assert sizeof({"a": 1}) == 4 + 1 + 8

    def test_set(self):
        assert sizeof({1, 2}) == 4 + 16

    def test_custom_wire_size_hook(self):
        class Blob:
            def wire_size(self):
                return 123

        assert sizeof(Blob()) == 123

    def test_unknown_type_falls_back_to_repr(self):
        class Opaque:
            def __repr__(self):
                return "x" * 7

        assert sizeof(Opaque()) == 7


class TestPairHelpers:
    def test_sizeof_pair(self):
        assert sizeof_pair("k", 1) == 1 + 8

    def test_sizeof_records(self):
        records = [("a", 1), ("bb", 2)]
        assert sizeof_records(records) == (1 + 8) + (2 + 8)

    def test_sizeof_records_empty(self):
        assert sizeof_records([]) == 0

    def test_size_grows_with_content(self):
        small = sizeof(("key", "v" * 10))
        big = sizeof(("key", "v" * 1000))
        assert big - small == 990
