"""Generator and replay helpers for the frozen serve-digest corpus.

``tests/service/data/serve_corpus.json`` pins the full decision record
of small serving runs as ``float.hex``-exact digests (see
:meth:`repro.service.server.ServiceResult.digest`), in two blocks:

* ``cases`` — the original twelve: seeds 0–2 × FIFO/balance admission
  × shed/kill deadline enforcement over one Poisson stream and one
  4/4 gate with retry on, stored as the whole digest.
* ``cells`` — the gate configurations those twelve never reach:
  ``deadline_policy="off"``, retry off, a circuit breaker, on-off and
  mixed-tenant streams, a tight (2/2) and a roomy (6/5) gate, seeds
  3–4.  Stored as the sha256 of the digest plus per-status counts, one
  line per cell, so the file stays reviewable.

Both blocks were generated from the seed-era reference gate before it
was deleted, so they pin the surviving gate to that history: the
replay test checks it still produces these bytes, and any behavioural
drift fails loudly and points at the exact case.

Regenerate after an *intentional* behaviour change with::

    PYTHONPATH=src python tests/service/corpus_tools.py

and review the diff: every changed digest is a changed serving
decision, not a refactor.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from itertools import product
from pathlib import Path

from repro.core.ids import id_scope
from repro.core.schedulers import InterWithAdjPolicy
from repro.faults.breaker import CircuitBreaker
from repro.faults.retry import RetryPolicy
from repro.service.admission import admission_by_name
from repro.service.arrivals import (
    ArrivalConfig,
    mixed_tenant_config,
    onoff_stream,
    poisson_stream,
)
from repro.service.server import QueryService

CORPUS_PATH = Path(__file__).parent / "data" / "serve_corpus.json"

#: The original grid: every (seed, admission, deadline policy) cell.
SEEDS = (0, 1, 2)
ADMISSIONS = ("fifo", "balance")
DEADLINE_POLICIES = ("shed", "kill")

#: The extra grid (``cells``): what the original twelve leave out.
EXTRA_SEEDS = (3, 4)
EXTRA_DEADLINE_POLICIES = ("off", "shed", "kill")
STREAMS = ("poisson", "onoff", "mixed")
#: Gate sizes as (queue_capacity, max_inflight_fragments).
GATES = {"tight": (2, 2), "roomy": (6, 5)}
STATUSES = ("completed", "degraded", "deadline", "rejected")


def _stream(kind: str, seed: int):
    config = ArrivalConfig(n_submissions=40, slo_stretch=4.0)
    if kind == "onoff":
        return onoff_stream(rate=0.45, seed=seed, config=config)
    if kind == "mixed":
        config = mixed_tenant_config(40)
    return poisson_stream(rate=0.45, seed=seed, config=config)


def corpus_case(
    seed: int,
    admission: str,
    deadline_policy: str,
    *,
    stream: str = "poisson",
    gate: tuple[int, int] = (4, 4),
    retry: bool = True,
    breaker: bool = False,
) -> list:
    """Digest of one corpus cell, a pure function of its arguments.

    Small but not trivial: 40 SLO-tagged submissions over a tight gate
    (by default queue bound 4, fragment budget 4, retry backoff), so
    every gate mechanism — shed, retry, admission choice, deadline
    drop/kill/degrade, breaker trips — fires somewhere in the grid.
    """
    queue_capacity, max_inflight_fragments = gate
    with id_scope():
        service = QueryService(
            admission=admission_by_name(admission),
            scheduler=InterWithAdjPolicy(),
            queue_capacity=queue_capacity,
            max_inflight_fragments=max_inflight_fragments,
            retry=RetryPolicy(max_retries=2, base_delay=0.5, max_delay=4.0)
            if retry
            else None,
            breaker=CircuitBreaker(failure_threshold=3, cooldown=5.0)
            if breaker
            else None,
            deadline_policy=deadline_policy,
            deadline_grace=3.0 if deadline_policy == "shed" else 0.0,
        )
        return service.run(_stream(stream, seed)).digest()


def corpus_cells() -> list[tuple[int, str, str]]:
    """All original (seed, admission, deadline policy) cells, in order."""
    return [
        (seed, admission, deadline_policy)
        for seed in SEEDS
        for admission in ADMISSIONS
        for deadline_policy in DEADLINE_POLICIES
    ]


def extra_cells() -> dict[str, dict]:
    """The extra grid as ``label -> corpus_case keyword arguments``."""
    cells = {}
    for seed, admission, policy, stream, gate, retry, breaker in product(
        EXTRA_SEEDS,
        ADMISSIONS,
        EXTRA_DEADLINE_POLICIES,
        STREAMS,
        GATES,
        (True, False),
        (True, False),
    ):
        label = (
            f"{seed}-{admission}-{policy}-{stream}-{gate}"
            f"-retry{'+' if retry else '-'}-breaker{'+' if breaker else '-'}"
        )
        cells[label] = dict(
            seed=seed,
            admission=admission,
            deadline_policy=policy,
            stream=stream,
            gate=GATES[gate],
            retry=retry,
            breaker=breaker,
        )
    return cells


def summarize(digest: list) -> dict:
    """What a ``cells`` entry stores of a digest: its hash and counts."""
    counts = Counter(row[2] for row in digest if isinstance(row, list))
    return {
        "sha256": hashlib.sha256(json.dumps(digest).encode()).hexdigest(),
        "counts": {status: counts[status] for status in STATUSES},
    }


def generate_corpus() -> dict:
    """The corpus document, regenerated from the gate as it is now."""
    cases = []
    for seed, admission, deadline_policy in corpus_cells():
        cases.append(
            {
                "seed": seed,
                "admission": admission,
                "deadline_policy": deadline_policy,
                "digest": corpus_case(seed, admission, deadline_policy),
            }
        )
    return {
        "comment": (
            "Frozen serving digests (float.hex-exact); regenerate with "
            "tests/service/corpus_tools.py and review every change as a "
            "behaviour change"
        ),
        "cases": cases,
        "cells": [
            {"cell": label, **summarize(corpus_case(**kwargs))}
            for label, kwargs in extra_cells().items()
        ],
    }


def render(document: dict) -> str:
    """The corpus file: ``cases`` indented as ever, one line per cell."""
    head = json.dumps(
        {k: v for k, v in document.items() if k != "cells"}, indent=1
    )
    cells = ",\n".join("  " + json.dumps(c) for c in document["cells"])
    return f'{head[:-2]},\n "cells": [\n{cells}\n ]\n}}\n'


def main() -> None:
    CORPUS_PATH.parent.mkdir(parents=True, exist_ok=True)
    CORPUS_PATH.write_text(render(generate_corpus()))
    print(f"wrote {CORPUS_PATH}")


if __name__ == "__main__":
    main()
