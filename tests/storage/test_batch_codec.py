"""The batch row codec and the bulk page fill against per-row references.

``HeapFile.insert_many`` encodes a chunk of rows column by column
(``Schema.encode_rows``) and lays the records onto pages a page at a
time (``SlottedPage.fill``).  The reference is the per-row loop those
paths replace: ``validate_row``, ``ColumnType.encode`` per value and
``SlottedPage.insert`` per record, a new page on ``PageFullError``.  The
batch path must leave the same page images, rids and ``row_count``, and
a bad row must raise the same exception with the same message after
storing the same rows.  ``HeapFile.decode_page`` (the one page decoder,
behind scans and ANALYZE) must return ``decode_row`` of every record.
"""

import re
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catalog import INT4_MAX, INT4_MIN, Schema
from repro.config import MachineConfig, paper_machine
from repro.errors import PageFullError, RecordTooLargeError, SchemaError
from repro.storage import HEADER_SIZE, SLOT_SIZE, DiskArray, HeapFile, RecordId, SlottedPage
from repro.storage import heap as heap_module
from repro.workloads.tables import R1_SCHEMA, one_tuple_per_page_payload

#: 420 bytes past the header divide by 1..7, so k equal records of
#: ``420 / k - SLOT_SIZE`` bytes fill a page to its last byte.
SMALL_PAGE = HEADER_SIZE + 420
FIXED_SIZE = {"int4": 5, "float8": 9}


def per_row_reference(schema: Schema, rows, page_size: int):
    """Pages, rids and error of one ``insert`` per row, spelled out."""
    pages: list[SlottedPage] = []
    rids: list[RecordId] = []
    try:
        for row in rows:
            values = schema.validate_row(row)
            record = b"".join(col.type.encode(v) for col, v in zip(schema, values))
            if not pages:
                pages.append(SlottedPage(page_size))
            try:
                slot = pages[-1].insert(record)
            except PageFullError:
                pages.append(SlottedPage(page_size))
                slot = pages[-1].insert(record)
            rids.append(RecordId(len(pages) - 1, slot))
    except Exception as exc:  # compared with the batch path's
        return pages, rids, exc
    return pages, rids, None


def new_heap(schema: Schema, page_size: int) -> HeapFile:
    machine = MachineConfig(page_size=page_size) if page_size != 8192 else paper_machine()
    return HeapFile(schema, DiskArray(machine))


def assert_same_as_per_row(schema: Schema, rows, page_size: int = SMALL_PAGE):
    """Insert ``rows`` both ways and demand the same heap and error."""
    pages, ref_rids, ref_error = per_row_reference(schema, rows, page_size)
    heap = new_heap(schema, page_size)
    rids, error = None, None
    try:
        rids = heap.insert_many(rows)
    except Exception as exc:  # compared with the reference's
        error = exc
    assert type(error) is type(ref_error)
    assert str(error) == str(ref_error)
    if ref_error is None:
        assert rids == ref_rids
    assert heap.row_count == len(ref_rids)
    assert heap.page_count == len(pages)
    for page_no, page in enumerate(pages):
        assert heap.page(page_no).buffer == page.buffer
    return heap, ref_rids


def assert_decoder_matches(heap: HeapFile):
    """The page decoder, scans and ``fetch`` against ``decode_row``."""
    decode = heap.schema.decode_row
    scanned = []
    for page_no in range(heap.page_count):
        page = heap.page(page_no)
        records = list(page.records())
        slots, rows, size = heap.decode_page(page_no)
        assert list(slots) == [slot for slot, __ in records]
        assert rows == [decode(record) for __, record in records]
        assert size == sum(len(record) for __, record in records)
        for slot, record in records:
            assert heap.fetch(RecordId(page_no, slot)) == decode(record)
            scanned.append((RecordId(page_no, slot), decode(record)))
    assert list(heap.scan()) == scanned


# -- hypothesis: random schemas, NULLs, page-full boundaries -----------------


def _value(type_name: str):
    if type_name == "int4":
        return st.one_of(st.none(), st.integers(INT4_MIN, INT4_MAX))
    if type_name == "float8":
        return st.one_of(
            st.none(), st.floats(allow_nan=False), st.integers(-(2**53), 2**53)
        )
    return st.one_of(st.none(), st.text(max_size=12))


def _boundary_pad(types: list[str], rows_per_page: int) -> str | None:
    """A value for the first text column that makes ``rows_per_page``
    rows (other text columns NULL) fill a ``SMALL_PAGE`` exactly."""
    if "text" not in types:
        return None
    record = (SMALL_PAGE - HEADER_SIZE) // rows_per_page - SLOT_SIZE
    overhead = sum(FIXED_SIZE.get(t, 4) for t in types)
    return "p" * (record - overhead)


#: A bad row for the per-row path to reject, by column type.
BAD_VALUES = {
    "int4": [True, INT4_MAX + 1, INT4_MIN - 1, "7", 1.5],
    "float8": [False, "x"],
    "text": [5, b"bytes"],
}


@st.composite
def batches(draw, max_rows: int):
    types = draw(st.lists(st.sampled_from(["int4", "float8", "text"]), min_size=1, max_size=5))
    schema = Schema.of(*[(f"c{i}", t) for i, t in enumerate(types)])
    pad = _boundary_pad(types, draw(st.integers(1, 7)))
    first_text = types.index("text") if pad is not None else None

    def row():
        values = [draw(_value(t)) for t in types]
        if first_text is not None and draw(st.booleans()):
            values = [None if t == "text" else v for t, v in zip(types, values)]
            values[first_text] = pad
        return tuple(values)

    rows = [row() for __ in range(draw(st.integers(0, max_rows)))]
    if draw(st.booleans()):
        at = draw(st.integers(0, len(rows)))
        column = draw(st.integers(0, len(types) - 1))
        bad = list(rows[at] if at < len(rows) else row())
        choice = draw(st.sampled_from(BAD_VALUES[types[column]] + ["short", "huge"]))
        if choice == "huge" and first_text is not None:
            bad[first_text] = "h" * SMALL_PAGE  # RecordTooLargeError
        elif choice in ("short", "huge"):
            bad = bad[:-1]
        else:
            bad[column] = choice
        rows.insert(at, tuple(bad))
    chunk = draw(st.sampled_from([1, 2, 3, 7, heap_module._CHUNK_ROWS]))
    return schema, rows, chunk


def check_batch(schema, rows, chunk):
    with mock.patch.object(heap_module, "_CHUNK_ROWS", chunk):
        heap, __ = assert_same_as_per_row(schema, rows)
    assert_decoder_matches(heap)


@settings(max_examples=40, deadline=None)
@given(batches(max_rows=30))
def test_batch_path_matches_per_row_reference(batch):
    check_batch(*batch)


@pytest.mark.fuzz
@settings(
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(batches(max_rows=120))
def test_batch_path_matches_per_row_reference_fuzz(batch):
    check_batch(*batch)


# -- named cases -----------------------------------------------------------------


class TestNamedCases:
    def test_r_max_one_tuple_per_page(self):
        payload = "m" * one_tuple_per_page_payload(8192)
        heap, __ = assert_same_as_per_row(
            R1_SCHEMA, [(i, payload) for i in range(12)], page_size=8192
        )
        assert heap.page_count == 12
        assert_decoder_matches(heap)

    def test_generator_input_streams_in_bounded_chunks(self):
        rows = [(i, "g" * (i % 50)) for i in range(3 * heap_module._CHUNK_ROWS + 5)]
        heap = new_heap(R1_SCHEMA, 8192)

        def stream():
            for i, row in enumerate(rows):
                # Never more than one chunk ahead of what is stored.
                assert i - heap.row_count <= heap_module._CHUNK_ROWS
                yield row

        pages, ref_rids, __ = per_row_reference(R1_SCHEMA, rows, 8192)
        assert heap.insert_many(stream()) == ref_rids
        assert [heap.page(p).buffer for p in range(heap.page_count)] == [
            page.buffer for page in pages
        ]

    def test_empty_input(self):
        heap, rids = assert_same_as_per_row(R1_SCHEMA, [])
        assert rids == [] and heap.page_count == 0 and heap.row_count == 0
        assert heap.insert_many(iter(())) == []

    def test_float8_coerces_ints(self):
        schema = Schema.of(("x", "float8"), ("y", "float8"))
        rows = [(i, float(i) / 3) for i in range(40)] + [(2.5, 7)]
        heap, rids = assert_same_as_per_row(schema, rows)
        assert heap.fetch(rids[3]) == (3.0, 1.0)
        assert type(heap.fetch(rids[-1])[1]) is float

    def test_insert_is_insert_many_of_one_row(self):
        heap = new_heap(R1_SCHEMA, SMALL_PAGE)
        assert [heap.insert((i, "one" * i)) for i in range(30)] == (
            per_row_reference(R1_SCHEMA, [(i, "one" * i) for i in range(30)], SMALL_PAGE)[1]
        )


#: (bad row, expected exception) in an ``r1(a int4, b text)`` batch.
BAD_ROWS = [
    ((True, "bool"), SchemaError),
    ((INT4_MAX + 1, "big"), SchemaError),
    ((3, 17), SchemaError),
    ((4, "r" * SMALL_PAGE), RecordTooLargeError),
    ((5,), SchemaError),
]


@pytest.mark.parametrize("bad, exc_type", BAD_ROWS, ids=lambda v: getattr(v, "__name__", None))
@pytest.mark.parametrize("at", [0, 9, heap_module._CHUNK_ROWS + 6])
def test_bad_row_mid_batch(bad, exc_type, at):
    rows = [(i, "k" * (i % 23)) for i in range(heap_module._CHUNK_ROWS + 40)]
    rows.insert(at, bad)
    rows.insert(at + 7, (INT4_MIN - 1, "a second bad row"))
    __, __, ref_error = per_row_reference(R1_SCHEMA, rows, SMALL_PAGE)
    assert type(ref_error) is exc_type
    heap, __ = assert_same_as_per_row(R1_SCHEMA, rows)
    assert heap.row_count == at
    with pytest.raises(exc_type, match=re.escape(str(ref_error))):
        new_heap(R1_SCHEMA, SMALL_PAGE).insert(bad)
