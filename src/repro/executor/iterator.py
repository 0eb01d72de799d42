"""The Volcano-style iterator protocol.

Every operator implements ``open() / next_row() / close()`` plus the
Python iterator protocol on top.  Operators track their lifecycle state
so misuse fails loudly, and count the rows they produce — the executor's
row counts feed the calibration benches.
"""

from __future__ import annotations

from enum import Enum, auto
from typing import Iterator

from ..catalog.schema import Row, Schema
from ..errors import OperatorStateError


class _State(Enum):
    CREATED = auto()
    OPEN = auto()
    CLOSED = auto()


class Operator:
    """Base class for all executor operators.

    Subclasses implement :meth:`_open`, :meth:`_next` and optionally
    :meth:`_close`, and set :attr:`schema` before ``open`` returns.
    """

    def __init__(self, children: tuple["Operator", ...] = ()) -> None:
        self.children = children
        self.schema: Schema | None = None
        self.rows_produced = 0
        self._state = _State.CREATED

    # -- lifecycle -------------------------------------------------------------

    def open(self) -> "Operator":
        """Prepare for iteration (opens children first). Idempotent reopen
        after close is allowed — operators are restartable, which the
        nest-loop join needs for its inner plan."""
        if self._state == _State.OPEN:
            raise OperatorStateError(f"{self!r} is already open")
        for child in self.children:
            child.open()
        self.rows_produced = 0
        self._open()
        if self.schema is None:
            raise OperatorStateError(f"{self!r} did not set its schema in _open")
        self._state = _State.OPEN
        return self

    def next_row(self) -> Row | None:
        """The next output row, or None when exhausted."""
        if self._state != _State.OPEN:
            raise OperatorStateError(f"{self!r} is not open")
        row = self._next()
        if row is not None:
            self.rows_produced += 1
        return row

    def close(self) -> None:
        """Release resources (closes children last)."""
        if self._state != _State.OPEN:
            raise OperatorStateError(f"{self!r} is not open")
        self._close()
        for child in self.children:
            child.close()
        self._state = _State.CLOSED

    def rewind(self) -> None:
        """Close and reopen — restart the stream from the beginning."""
        self.close()
        self.open()

    # -- subclass hooks ----------------------------------------------------------

    def _open(self) -> None:
        raise NotImplementedError

    def _next(self) -> Row | None:
        raise NotImplementedError

    def _close(self) -> None:
        """Default: nothing to release."""

    # -- conveniences --------------------------------------------------------------

    def __iter__(self) -> Iterator[Row]:
        while True:
            row = self.next_row()
            if row is None:
                return
            yield row

    def run(self) -> list[Row]:
        """Open, drain and close; returns all output rows."""
        self.open()
        try:
            return list(self)
        finally:
            self.close()

    def __repr__(self) -> str:
        return type(self).__name__
