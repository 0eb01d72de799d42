"""Relation schemas and row encoding.

A :class:`Schema` is an ordered list of named, typed columns.  Rows are
plain Python tuples positionally matching the schema; the schema knows
how to validate, encode and decode them for storage in slotted pages.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Iterable, Iterator, Sequence

from ..errors import SchemaError, UnknownColumnError
from .types import TEXT, TEXT_NULL_LENGTH, ColumnType, type_by_name

Row = tuple


@lru_cache(maxsize=64)
def _record_head(
    types: tuple[ColumnType, ...],
) -> tuple[struct.Struct, slice, slice, bool] | None:
    """What ``Schema.decode_records`` reads of a record with one unpack.

    For fixed-width columns, optionally followed by one text column,
    ``(struct, flags, values, text)``: the ``struct`` reads every null
    flag and fixed-width value (and the text's length prefix when
    ``text``), and the slices pick the flags and the values out of what
    it returns.  ``None`` for any other schema, and when a fixed-width
    type has no ``field_code``.  Compiled on first use and shared by
    equal schemas; join and projection schemas never decode, so never
    compile.
    """
    text = types[-1] == TEXT
    fixed = types[:-1] if text else types
    if not all(t.fixed_size and t.field_code for t in fixed):
        return None
    layout = "".join(t.field_code for t in types)
    n = 2 * len(fixed)
    return struct.Struct("<" + layout), slice(0, n, 2), slice(1, n, 2), text


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    type: ColumnType

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid column name: {self.name!r}")

    def __repr__(self) -> str:
        return f"{self.name}={self.type.name}"


class Schema:
    """An ordered collection of columns with row codec support.

    Supports construction either from :class:`Column` objects or from
    ``(name, type_name)`` pairs::

        Schema.of(("a", "int4"), ("b", "text"))
    """

    def __init__(self, columns: Sequence[Column]) -> None:
        if not columns:
            raise SchemaError("a schema needs at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in schema: {names}")
        self._columns = tuple(columns)
        self._index = {c.name: i for i, c in enumerate(columns)}

    @classmethod
    def of(cls, *specs: tuple[str, str]) -> "Schema":
        """Build a schema from ``(name, type_name)`` pairs."""
        return cls([Column(name, type_by_name(tname)) for name, tname in specs])

    # -- container protocol ---------------------------------------------------

    @property
    def columns(self) -> tuple[Column, ...]:
        return self._columns

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self._columns)

    def __getitem__(self, key: int | str) -> Column:
        if isinstance(key, str):
            return self._columns[self.index_of(key)]
        return self._columns[key]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._columns == other._columns

    def __hash__(self) -> int:
        return hash(self._columns)

    def __repr__(self) -> str:
        inner = ", ".join(repr(c) for c in self._columns)
        return f"Schema({inner})"

    def index_of(self, name: str) -> int:
        """Position of the column called ``name``.

        Raises:
            UnknownColumnError: if no such column exists.
        """
        try:
            return self._index[name]
        except KeyError:
            raise UnknownColumnError(name) from None

    def names(self) -> tuple[str, ...]:
        """The column names, in schema order."""
        return tuple(c.name for c in self._columns)

    # -- schema algebra (used by joins/projections) ---------------------------

    def concat(self, other: "Schema", *, prefixes: tuple[str, str] | None = None) -> "Schema":
        """Schema of the concatenation of rows from ``self`` and ``other``.

        Column-name clashes are resolved with ``prefixes`` (e.g. the two
        relation names); without prefixes a clash raises SchemaError.
        """
        left, right = list(self._columns), list(other._columns)
        clash = {c.name for c in left} & {c.name for c in right}
        if clash and prefixes is None:
            raise SchemaError(f"column name clash in join schema: {sorted(clash)}")
        if clash:
            lp, rp = prefixes  # type: ignore[misc]
            left = [
                Column(f"{lp}_{c.name}", c.type) if c.name in clash else c for c in left
            ]
            right = [
                Column(f"{rp}_{c.name}", c.type) if c.name in clash else c for c in right
            ]
        return Schema(left + right)

    def project(self, names: Iterable[str]) -> "Schema":
        """Schema restricted to the given column names, in the given order."""
        return Schema([self[self.index_of(n)] for n in names])

    # -- row codec -------------------------------------------------------------

    def validate_row(self, row: Sequence[Any]) -> Row:
        """Coerce a row to this schema, raising SchemaError on mismatch."""
        if len(row) != len(self._columns):
            raise SchemaError(
                f"row has {len(row)} values, schema has {len(self._columns)} columns"
            )
        return tuple(col.type.validate(v) for col, v in zip(self._columns, row))

    def encode_row(self, row: Sequence[Any]) -> bytes:
        """Encode a validated row to its storage representation."""
        parts = [col.type.encode(v) for col, v in zip(self._columns, row)]
        return b"".join(parts)

    def decode_row(self, data: bytes, offset: int = 0) -> Row:
        """Decode one row starting at ``offset``."""
        values = []
        for col in self._columns:
            value, consumed = col.type.decode(data, offset)
            values.append(value)
            offset += consumed
        return tuple(values)

    def encode_rows(
        self, rows: Sequence[Sequence[Any]]
    ) -> tuple[list[bytes], Exception | None]:
        """Validate and encode rows column by column.

        The records are ``[encode_row(validate_row(r)) for r in rows]``.
        Where that per-row loop would raise at some row, this returns the
        records of the rows before it together with the exception, so a
        caller that stores them and then raises leaves what the loop
        leaves.  Any failure of the column-wise pass re-runs the per-row
        loop, which finds the first bad row and its exact error.
        """
        try:
            if set(map(len, rows)) <= {len(self._columns)}:
                parts = [
                    col.type.encode_column(values)
                    for col, values in zip(self._columns, zip(*rows))
                ]
                return list(map(b"".join, zip(*parts))), None
        except Exception:  # the per-row loop below meets it at its row
            pass
        records: list[bytes] = []
        try:
            for row in rows:
                records.append(self.encode_row(self.validate_row(row)))
        except Exception as exc:  # raised by the caller, after storing
            return records, exc
        return records, None

    def decode_records(self, data: bytes, offsets: Iterable[int]) -> list[Row]:
        """Decode the records that start at ``offsets`` in ``data``.

        Equal to ``[decode_row(data, o) for o in offsets]``.  When the
        schema is a run of fixed-width columns, optionally followed by one
        text column, one precompiled ``struct`` reads a record's fixed
        values and text length at once; a record with a NULL fixed-width
        value, and every record of any other schema, goes through
        ``decode_row``.
        """
        compiled = _record_head(tuple(col.type for col in self._columns))
        if compiled is None:
            return [self.decode_row(data, offset) for offset in offsets]
        head, flags, values, text = compiled
        unpack, size = head.unpack_from, head.size
        rows: list[Row] = []
        append = rows.append
        for offset in offsets:
            fields = unpack(data, offset)
            if 0 in fields[flags]:
                append(self.decode_row(data, offset))
            elif not text:
                append(fields[values])
            elif (length := fields[-1]) == TEXT_NULL_LENGTH:
                append((*fields[values], None))
            else:
                start = offset + size
                append((*fields[values], data[start : start + length].decode("utf-8")))
        return rows
