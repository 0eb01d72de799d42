"""Tests for the slotted-page layout."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import InvalidSlotError, PageFullError, RecordTooLargeError
from repro.storage import SlottedPage


class TestBasics:
    def test_insert_and_read(self):
        page = SlottedPage(256)
        slot = page.insert(b"hello")
        assert page.read(slot) == b"hello"
        assert page.slot_count == 1

    def test_multiple_records_keep_slots(self):
        page = SlottedPage(256)
        slots = [page.insert(bytes([i]) * 5) for i in range(5)]
        for i, slot in enumerate(slots):
            assert page.read(slot) == bytes([i]) * 5

    def test_empty_record_rejected(self):
        with pytest.raises(ValueError):
            SlottedPage(256).insert(b"")

    def test_records_iterates_in_slot_order(self):
        page = SlottedPage(256)
        for i in range(3):
            page.insert(bytes([i + 1]))
        assert [r for __, r in page.records()] == [b"\x01", b"\x02", b"\x03"]


class TestCapacity:
    def test_page_full(self):
        page = SlottedPage(128)
        page.insert(b"x" * 100)
        with pytest.raises(PageFullError):
            page.insert(b"y" * 50)

    def test_record_too_large_even_for_empty_page(self):
        page = SlottedPage(128)
        with pytest.raises(RecordTooLargeError):
            page.insert(b"x" * 128)

    def test_max_record_size_fits_exactly(self):
        size = SlottedPage.max_record_size(128)
        page = SlottedPage(128)
        slot = page.insert(b"z" * size)
        assert page.read(slot) == b"z" * size
        assert page.free_space == 0

    def test_free_space_decreases(self):
        page = SlottedPage(256)
        before = page.free_space
        page.insert(b"1234")
        assert page.free_space == before - 4 - 4  # record + slot


class TestDelete:
    """No record is ever deleted: a slot past the directory reads nothing."""

    def test_invalid_slot(self):
        page = SlottedPage(256)
        with pytest.raises(InvalidSlotError):
            page.read(0)
        with pytest.raises(InvalidSlotError):
            page.read(-1)


class TestSerialization:
    def test_roundtrip_through_bytes(self):
        page = SlottedPage(256)
        page.insert(b"alpha")
        page.insert(b"beta")
        image = bytes(page.buffer)
        assert len(image) == 256
        restored = SlottedPage(256, data=image)
        assert [r for __, r in restored.records()] == [b"alpha", b"beta"]

    def test_restored_page_accepts_inserts(self):
        page = SlottedPage(256)
        page.insert(b"one")
        restored = SlottedPage(256, data=bytes(page.buffer))
        restored.insert(b"two")
        assert [record for __, record in restored.records()] == [b"one", b"two"]

    def test_wrong_image_size_rejected(self):
        with pytest.raises(ValueError):
            SlottedPage(256, data=b"\x00" * 100)


@given(st.lists(st.binary(min_size=1, max_size=40), max_size=30))
def test_insert_read_roundtrip_property(records):
    """Whatever fits on the page reads back verbatim, in order."""
    page = SlottedPage(2048)
    stored = []
    for record in records:
        try:
            slot = page.insert(record)
        except PageFullError:
            break
        stored.append((slot, record))
    for slot, record in stored:
        assert page.read(slot) == record
    # And the image survives a serialization roundtrip.
    restored = SlottedPage(2048, data=bytes(page.buffer))
    assert list(restored.records()) == [(s, r) for s, r in stored]
