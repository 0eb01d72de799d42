"""Column types for the reproduction's relational layer.

XPRS is built on Postgres; the paper's workload uses the schema
``r1(a = int4, b = text)`` where ``b`` is a variable-size string used to
control tuple sizes.  We implement the small type system those
experiments need: 4-byte integers, 8-byte floats and variable-length
text, each with a fixed-layout binary encoding so records can be stored
in slotted pages.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import repeat
from typing import Any, ClassVar, Sequence

from ..errors import SchemaError

_FLOAT8 = struct.Struct("<d")
_TEXT_TYPES = frozenset({str, type(None)})

#: Length prefix that marks a NULL text value.
TEXT_NULL_LENGTH = 0xFFFFFFFF

#: Range of a 4-byte signed integer.
INT4_MIN = -(2**31)
INT4_MAX = 2**31 - 1


@dataclass(frozen=True)
class ColumnType:
    """A column type with a binary encoding.

    Attributes:
        name: SQL-ish type name (``int4``, ``float8``, ``text``).
        fixed_size: encoded size in bytes for fixed-width types, or
            ``None`` for variable-width types.
    """

    name: str
    fixed_size: int | None
    #: ``struct`` code of the fields a value starts with, for decoders
    #: that read a run of columns with one unpack: a fixed-width type's
    #: null flag and payload (two fields), text's length prefix (one).
    #: ``None`` for a type no such decoder reads.
    field_code: ClassVar[str | None] = None

    def validate(self, value: Any) -> Any:
        """Return ``value`` coerced to this type, or raise SchemaError."""
        raise NotImplementedError

    def encode(self, value: Any) -> bytes:
        """Encode a validated value to bytes."""
        raise NotImplementedError

    def encode_column(self, values: Sequence[Any]) -> list[bytes]:
        """Validate and encode a column of values.

        Always ``[self.encode(self.validate(v)) for v in values]``, which
        is what it computes here; a type overrides it with a fast path
        for columns whose every value is already of the plain type, and
        falls back to this for any other column.
        """
        return [self.encode(self.validate(v)) for v in values]

    def decode(self, data: bytes, offset: int) -> tuple[Any, int]:
        """Decode a value at ``offset``; return (value, bytes consumed)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.name


class Int4Type(ColumnType):
    """4-byte signed integer, like Postgres ``int4``.

    Encoded as a null-flag byte followed by 4 payload bytes (zeroed for
    NULL), so every int4 costs 5 bytes on disk.
    """

    field_code = "Bi"

    def __init__(self) -> None:
        super().__init__(name="int4", fixed_size=5)

    def validate(self, value: Any) -> int | None:
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"int4 requires an int or None, got {value!r}")
        if not INT4_MIN <= value <= INT4_MAX:
            raise SchemaError(f"int4 out of range: {value}")
        return value

    def encode(self, value: int | None) -> bytes:
        if value is None:
            return _INT4_FIELD.pack(0, 0)
        return _INT4_FIELD.pack(1, value)

    def encode_column(self, values: Sequence[Any]) -> list[bytes]:
        if (
            set(map(type, values)) == {int}
            and INT4_MIN <= min(values)
            and max(values) <= INT4_MAX
        ):
            return list(map(_INT4_FIELD.pack, repeat(1), values))
        return super().encode_column(values)

    def decode(self, data: bytes, offset: int) -> tuple[int | None, int]:
        flag, value = _INT4_FIELD.unpack_from(data, offset)
        return (value if flag else None), 5


class Float8Type(ColumnType):
    """8-byte IEEE double, like Postgres ``float8``.

    Encoded as a null-flag byte followed by 8 payload bytes.
    """

    def __init__(self) -> None:
        super().__init__(name="float8", fixed_size=9)

    def validate(self, value: Any) -> float | None:
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"float8 requires a number or None, got {value!r}")
        return float(value)

    def encode(self, value: float | None) -> bytes:
        if value is None:
            return b"\x00" + b"\x00" * 8
        return b"\x01" + _FLOAT8.pack(value)

    def decode(self, data: bytes, offset: int) -> tuple[float | None, int]:
        if data[offset] == 0:
            return None, 9
        (value,) = _FLOAT8.unpack_from(data, offset + 1)
        return value, 9


class TextType(ColumnType):
    """Variable-length string, like Postgres ``text``.

    ``None`` is stored as a zero-length marker distinct from the empty
    string (length prefix ``0xFFFFFFFF``), because the paper's most
    CPU-bound relation sets ``b`` to NULL in every tuple.
    """

    field_code = "I"
    _NULL_MARKER = TEXT_NULL_LENGTH

    def __init__(self) -> None:
        super().__init__(name="text", fixed_size=None)

    def validate(self, value: Any) -> str | None:
        if value is None:
            return None
        if not isinstance(value, str):
            raise SchemaError(f"text requires a str or None, got {value!r}")
        return value

    def encode(self, value: str | None) -> bytes:
        if value is None:
            return _LEN.pack(self._NULL_MARKER)
        raw = value.encode("utf-8")
        if len(raw) >= self._NULL_MARKER:
            raise SchemaError("text value too large to encode")
        return _LEN.pack(len(raw)) + raw

    def encode_column(self, values: Sequence[Any]) -> list[bytes]:
        if set(map(type, values)) <= _TEXT_TYPES:
            # Plain values validate to themselves; encode each distinct
            # one once (a relation's padding repeats in every row).
            encoded = {value: self.encode(value) for value in set(values)}
            return list(map(encoded.__getitem__, values))
        return super().encode_column(values)

    def decode(self, data: bytes, offset: int) -> tuple[str | None, int]:
        (length,) = _LEN.unpack_from(data, offset)
        if length == self._NULL_MARKER:
            return None, 4
        start = offset + 4
        return data[start : start + length].decode("utf-8"), 4 + length


_INT4_FIELD = struct.Struct("<" + Int4Type.field_code)
_LEN = struct.Struct("<" + TextType.field_code)

#: Singleton instances — types are stateless, share them.
INT4 = Int4Type()
FLOAT8 = Float8Type()
TEXT = TextType()

_BY_NAME = {t.name: t for t in (INT4, FLOAT8, TEXT)}


def type_by_name(name: str) -> ColumnType:
    """Look up a column type by its SQL-ish name.

    Raises:
        SchemaError: if the name is not a known type.
    """
    try:
        return _BY_NAME[name]
    except KeyError:
        raise SchemaError(f"unknown column type: {name!r}") from None
