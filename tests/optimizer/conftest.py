"""Fixtures for optimizer tests: a three-relation chain-join catalog."""

import pytest

from .corpus_tools import three_chain_catalog, three_chain_query


@pytest.fixture
def catalog():
    return three_chain_catalog()


@pytest.fixture
def chain_query():
    return three_chain_query()
