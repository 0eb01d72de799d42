"""Tests for Schema: structure, algebra and the row codec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.catalog import Schema
from repro.catalog.types import INT4, TEXT
from repro.errors import SchemaError, UnknownColumnError

R1 = Schema.of(("a", "int4"), ("b", "text"))


class TestStructure:
    def test_of_builds_columns(self):
        assert len(R1) == 2
        assert R1.names() == ("a", "b")
        assert R1["a"].type.name == "int4"
        assert R1[1].name == "b"

    def test_index_of(self):
        assert R1.index_of("b") == 1
        with pytest.raises(UnknownColumnError):
            R1.index_of("missing")

    def test_has_column(self):
        assert "a" in R1.names()
        assert "z" not in R1.names()

    def test_rejects_empty(self):
        with pytest.raises(SchemaError):
            Schema([])

    def test_rejects_duplicates(self):
        with pytest.raises(SchemaError):
            Schema.of(("a", "int4"), ("a", "text"))

    def test_equality_and_hash(self):
        other = Schema.of(("a", "int4"), ("b", "text"))
        assert R1 == other
        assert hash(R1) == hash(other)
        assert R1 != Schema.of(("a", "int4"))


class TestAlgebra:
    def test_concat_disjoint(self):
        s = R1.concat(Schema.of(("c", "float8")))
        assert s.names() == ("a", "b", "c")

    def test_concat_clash_needs_prefixes(self):
        with pytest.raises(SchemaError):
            R1.concat(R1)

    def test_concat_clash_with_prefixes(self):
        s = R1.concat(R1, prefixes=("l", "r"))
        assert s.names() == ("l_a", "l_b", "r_a", "r_b")

    def test_project(self):
        s = R1.project(["b"])
        assert s.names() == ("b",)
        assert s["b"].type.name == "text"

    def test_project_reorders(self):
        s = R1.project(["b", "a"])
        assert s.names() == ("b", "a")


class TestRowCodec:
    def test_validate_coerces(self):
        row = R1.validate_row([7, None])
        assert row == (7, None)

    def test_validate_rejects_wrong_arity(self):
        with pytest.raises(SchemaError):
            R1.validate_row([1])

    def test_validate_rejects_wrong_type(self):
        with pytest.raises(SchemaError):
            R1.validate_row(["x", "y"])

    def test_roundtrip(self):
        row = (123, "payload")
        assert R1.decode_row(R1.encode_row(row)) == row

    def test_encoded_size_matches(self):
        # A record is its columns' encodings back to back.
        row = (1, "abcd")
        assert len(R1.encode_row(row)) == len(INT4.encode(1)) + len(TEXT.encode("abcd"))

    @given(
        st.integers(min_value=-(2**31), max_value=2**31 - 1),
        st.one_of(st.none(), st.text(max_size=100)),
    )
    def test_roundtrip_property(self, a, b):
        row = R1.validate_row((a, b))
        encoded = R1.encode_row(row)
        assert R1.decode_row(encoded) == row
        assert len(encoded) == 5 + len(TEXT.encode(row[1]))

    def test_decode_at_offset(self):
        row = (5, "hi")
        blob = b"\x00" * 3 + R1.encode_row(row)
        assert R1.decode_row(blob, 3) == row
