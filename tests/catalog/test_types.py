"""Tests for column types and their binary codecs."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.catalog.types import (
    FLOAT8,
    INT4,
    INT4_MAX,
    INT4_MIN,
    TEXT,
    type_by_name,
)
from repro.errors import SchemaError


class TestInt4:
    def test_roundtrip(self):
        data = INT4.encode(INT4.validate(42))
        value, consumed = INT4.decode(data, 0)
        assert value == 42
        assert consumed == 5

    def test_null_roundtrip(self):
        assert INT4.validate(None) is None
        assert INT4.decode(INT4.encode(None), 0) == (None, 5)

    def test_bounds(self):
        assert INT4.validate(INT4_MIN) == INT4_MIN
        assert INT4.validate(INT4_MAX) == INT4_MAX

    @pytest.mark.parametrize("bad", [INT4_MAX + 1, INT4_MIN - 1, 1.5, "x", True])
    def test_rejects(self, bad):
        with pytest.raises(SchemaError):
            INT4.validate(bad)

    @given(st.integers(min_value=INT4_MIN, max_value=INT4_MAX))
    def test_roundtrip_property(self, value):
        encoded = INT4.encode(value)
        assert len(encoded) == 5
        assert INT4.decode(encoded, 0) == (value, 5)


class TestFloat8:
    def test_roundtrip(self):
        data = FLOAT8.encode(FLOAT8.validate(3.5))
        assert FLOAT8.decode(data, 0) == (3.5, 9)

    def test_null_roundtrip(self):
        assert FLOAT8.decode(FLOAT8.encode(None), 0) == (None, 9)

    def test_int_coerced_to_float(self):
        assert FLOAT8.validate(2) == 2.0
        assert isinstance(FLOAT8.validate(2), float)

    @pytest.mark.parametrize("bad", ["x", True])
    def test_rejects(self, bad):
        with pytest.raises(SchemaError):
            FLOAT8.validate(bad)

    @given(st.floats(allow_nan=False))
    def test_roundtrip_property(self, value):
        encoded = FLOAT8.encode(value)
        assert FLOAT8.decode(encoded, 0) == (value, 9)


class TestText:
    def test_roundtrip(self):
        data = TEXT.encode("hello")
        assert TEXT.decode(data, 0) == ("hello", 9)

    def test_null_distinct_from_empty(self):
        null_data = TEXT.encode(None)
        empty_data = TEXT.encode("")
        assert null_data != empty_data
        assert TEXT.decode(null_data, 0) == (None, 4)
        assert TEXT.decode(empty_data, 0) == ("", 4)

    def test_encoded_size(self):
        assert len(TEXT.encode(None)) == 4
        assert len(TEXT.encode("abc")) == 7
        assert len(TEXT.encode("é")) == 4 + len("é".encode())

    def test_rejects_non_string(self):
        with pytest.raises(SchemaError):
            TEXT.validate(5)

    @given(st.one_of(st.none(), st.text(max_size=200)))
    def test_roundtrip_property(self, value):
        encoded = TEXT.encode(value)
        decoded, consumed = TEXT.decode(encoded, 0)
        assert decoded == value
        assert consumed == len(encoded)

    def test_decode_at_offset(self):
        blob = b"\xff\xff" + TEXT.encode("xyz")
        assert TEXT.decode(blob, 2) == ("xyz", 7)


class TestTypeLookup:
    @pytest.mark.parametrize("name", ["int4", "float8", "text"])
    def test_known_names(self, name):
        assert type_by_name(name).name == name

    def test_unknown_name(self):
        with pytest.raises(SchemaError):
            type_by_name("varchar")
