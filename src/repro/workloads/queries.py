"""Multi-join query workloads for the Section-4 optimizer experiments.

Builds chain- and star-join schemas with globally unique column names
(the optimizer's requirement), populated with controllable sizes and
join selectivities, plus the :class:`~repro.optimizer.query.Query`
objects over them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..catalog import Catalog, Schema
from ..errors import ConfigError
from ..optimizer import JoinPredicate, Query
from ..plans.costing import analyze_table
from ..storage import BTreeIndex, DiskArray, HeapFile

#: Join keys of a :func:`star_join` are drawn from ``[0, STAR_KEY_RANGE)``.
STAR_KEY_RANGE = 100


@dataclass(frozen=True)
class JoinSchema:
    """A populated multi-relation schema plus its canonical query."""

    catalog: Catalog
    array: DiskArray
    query: Query
    relation_names: tuple[str, ...]


def _populate(
    catalog: Catalog,
    array: DiskArray,
    name: str,
    int_columns: list[str],
    *,
    n_rows: int,
    key_range: int,
    payload: int,
    rng,
    index_column: str | None = None,
) -> None:
    schema = Schema.of(*[(c, "int4") for c in int_columns], (f"{name}_pad", "text"))
    heap = HeapFile(schema, array, name=name)
    # One draw for the whole relation, row-major: it yields and consumes
    # exactly what n_rows * k scalar draws would, so the relations built
    # after this one from the same ``rng`` see the same stream.
    keys = rng.integers(0, key_range, size=(n_rows, len(int_columns))).tolist()
    pad = "x" * payload
    rids = heap.insert_many((*row, pad) for row in keys)
    catalog.create_table(name, schema, heap)
    if index_column is not None:
        index = BTreeIndex()
        position = schema.index_of(index_column)
        for row, rid in zip(keys, rids):
            index.insert(row[position], rid)
        catalog.add_index(name, f"{name}_{index_column}_idx", index_column, index)
    analyze_table(catalog, name)


def chain_join(
    n_relations: int = 4,
    *,
    rows_per_relation: int = 400,
    key_range: int = 120,
    payload: int = 40,
    seed: int = 0,
) -> JoinSchema:
    """A chain query: s1 ⋈ s2 ⋈ ... ⋈ sk on adjacent link columns.

    Relation ``si`` has columns ``(si_l, si_r, si_pad)``; the chain
    joins ``si.si_r = s(i+1).s(i+1)_l``.
    """
    if n_relations < 2:
        raise ConfigError("a chain needs at least 2 relations")
    from ..config import paper_machine

    array = DiskArray(paper_machine())
    catalog = Catalog()
    rng = np.random.default_rng(seed)
    names = [f"s{i}" for i in range(1, n_relations + 1)]
    for i, name in enumerate(names):
        size = rows_per_relation * (1 + i % 3)  # varied sizes
        _populate(
            catalog,
            array,
            name,
            [f"{name}_l", f"{name}_r"],
            n_rows=size,
            key_range=key_range,
            payload=payload,
            rng=rng,
            index_column=f"{name}_l" if i == 0 else None,
        )
    joins = [
        JoinPredicate(names[i], f"{names[i]}_r", names[i + 1], f"{names[i + 1]}_l")
        for i in range(n_relations - 1)
    ]
    query = Query(relations=list(names), joins=joins)
    return JoinSchema(
        catalog=catalog, array=array, query=query, relation_names=tuple(names)
    )


def star_join(
    n_dimensions: int = 3,
    *,
    fact_rows: int = 1200,
    dimension_rows: int = 150,
    payload: int = 40,
    seed: int = 0,
) -> JoinSchema:
    """A star query: one fact table joined to k dimension tables.

    Every join key is drawn from ``[0, STAR_KEY_RANGE)``.
    """
    if n_dimensions < 1:
        raise ConfigError("a star needs at least 1 dimension")
    from ..config import paper_machine

    array = DiskArray(paper_machine())
    catalog = Catalog()
    rng = np.random.default_rng(seed)
    fact_columns = [f"fact_k{i}" for i in range(1, n_dimensions + 1)]
    _populate(
        catalog,
        array,
        "fact",
        fact_columns,
        n_rows=fact_rows,
        key_range=STAR_KEY_RANGE,
        payload=payload,
        rng=rng,
    )
    names = ["fact"]
    joins = []
    for i in range(1, n_dimensions + 1):
        name = f"dim{i}"
        _populate(
            catalog,
            array,
            name,
            [f"{name}_k", f"{name}_v"],
            n_rows=dimension_rows,
            key_range=STAR_KEY_RANGE,
            payload=payload,
            rng=rng,
        )
        names.append(name)
        joins.append(JoinPredicate("fact", f"fact_k{i}", name, f"{name}_k"))
    query = Query(relations=names, joins=joins)
    return JoinSchema(
        catalog=catalog, array=array, query=query, relation_names=tuple(names)
    )
