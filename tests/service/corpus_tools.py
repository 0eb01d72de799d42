"""The serve corpus' gate configurations and cell builders.

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

A third block, ``records``, pins what the digest leaves out.  For every
label of the first two blocks it holds the sha256 of one run with a
live :class:`~repro.obs.Tracer` (the breaker gets it too): the digest
and ``decide_rounds``, every
:class:`~repro.service.metrics.TenantMetrics` field (response times as
``float.hex``), the breaker timeline, the metrics digest of
:meth:`~repro.service.metrics.ServiceMetrics.sections` (under the key
``registry``, which the frozen hashes include), every trace event of
the gate's categories (the ``tenant:*`` and ``breaker`` tracks and the
engine's shed instants), and the sorted cancel and shed records.  It was generated from the gate that
kept one outcome map per status, before the gate moved to one record
per submission.

The blocks and the commits that froze them are registered in
``tests/corpus.py``.  Regenerate after an *intentional* behaviour
change with ``PYTHONPATH=src python -m tests.corpus serve`` and review
the diff: every changed digest is a changed serving decision, not a
refactor.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import fields
from functools import partial
from itertools import product
from unittest import mock

from repro.core.ids import id_scope
from repro.core.schedulers import InterWithAdjPolicy
from repro.faults import breaker as breaker_module
from repro.faults.breaker import CircuitBreaker
from repro.faults.retry import RetryPolicy
from repro.obs import Tracer
from repro.service.admission import admission_by_name
from repro.service.arrivals import (
    ArrivalConfig,
    mixed_tenant_config,
    onoff_stream,
    poisson_stream,
)
from repro.service.server import QueryService

from tests.corpus import canon, sha

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
#: Trace categories a ``records`` entry keeps: every ``tenant:*`` and
#: ``breaker`` track event, plus the engine's instant for each shed task.
GATE_CATEGORIES = ("admission", "deadline", "fault")


def _stream(kind: str, seed: int):
    config = ArrivalConfig(n_submissions=40, slo_stretch=4.0)
    if kind == "onoff":
        return onoff_stream(rate=0.45, seed=seed, config=config)
    if kind == "mixed":
        config = mixed_tenant_config(40)
    return poisson_stream(rate=0.45, seed=seed, config=config)


def _serve(
    seed: int,
    admission: str,
    deadline_policy: str,
    *,
    stream: str = "poisson",
    gate: tuple[int, int] = (4, 4),
    retry: bool = True,
    breaker: bool = False,
    tracer=None,
):
    """One corpus cell's :class:`ServiceResult`.

    Small but not trivial: 40 SLO-tagged submissions over a tight gate
    (by default queue bound 4, fragment budget 4, retry backoff), so
    every gate mechanism — shed, retry, admission choice, deadline
    drop/kill/degrade, breaker trips — fires somewhere in the grid.
    """
    queue_capacity, max_inflight_fragments = gate
    grace = 3.0 if deadline_policy == "shed" else 0.0
    # A "kill" label predates that policy's removal: it was "shed" at zero grace.
    if deadline_policy == "kill":
        deadline_policy = "shed"
    # The corpus' breaker trips after three sheds and half-opens after 5 s.
    with id_scope(), mock.patch.multiple(
        breaker_module, FAILURE_THRESHOLD=3, COOLDOWN=5.0
    ):
        service = QueryService(
            admission=admission_by_name(admission),
            scheduler=InterWithAdjPolicy(),
            queue_capacity=queue_capacity,
            max_inflight_fragments=max_inflight_fragments,
            retry=RetryPolicy(max_retries=2, base_delay=0.5, max_delay=4.0)
            if retry
            else None,
            breaker=CircuitBreaker(tracer=tracer) if breaker else None,
            deadline_policy=deadline_policy,
            deadline_grace=grace,
            tracer=tracer,
        )
        return service.run(_stream(stream, seed))


def corpus_case(seed: int, admission: str, deadline_policy: str, **kwargs) -> list:
    """Digest of one corpus cell, a pure function of its arguments."""
    return _serve(seed, admission, deadline_policy, **kwargs).digest()


def corpus_record(**kwargs) -> dict:
    """Everything one traced, metered cell run produced.

    Covers what :meth:`ServiceResult.digest` does not: ``decide_rounds``,
    every tenant counter, the breaker timeline, the metrics digest,
    the gate's and the breaker's trace events, and the engine's cancel
    and shed records.
    """
    tracer = Tracer()
    result = _serve(**kwargs, tracer=tracer)
    schedule = result.schedule
    return {
        "digest": result.digest(),
        "decide_rounds": result.decide_rounds,
        "tenants": [
            [getattr(tm, f.name) for f in fields(tm)]
            for __, tm in sorted(result.metrics.tenants.items())
        ],
        "breaker": result.metrics.breaker_timeline,
        "registry": result.metrics.sections(),
        "events": [
            [e.kind, e.name, e.cat, e.track, e.start, e.dur, e.value, e.args]
            for e in tracer.events
            if e.cat in GATE_CATEGORIES
        ],
        "cancels": sorted(
            canon([c.task.name, c.cancelled_at, c.started_at, c.pages_done, c.reason])
            for c in schedule.cancel_records
        ),
        "sheds": sorted(
            canon([s.task.name, s.shed_at]) for s in schedule.shed_records
        ),
    }


#: label -> :func:`corpus_case` keyword arguments: the original
#: (seed, admission, deadline policy) grid, stored whole in ``cases``.
CASES = {
    f"{seed}-{admission}-{policy}": dict(
        seed=seed, admission=admission, deadline_policy=policy
    )
    for seed, admission, policy in product(SEEDS, ADMISSIONS, DEADLINE_POLICIES)
}


#: The same for the extra grid, stored hashed in ``cells``.
EXTRA = {
    f"{seed}-{admission}-{policy}-{stream}-{gate}"
    f"-retry{'+' if retry else '-'}-breaker{'+' if breaker else '-'}": dict(
        seed=seed,
        admission=admission,
        deadline_policy=policy,
        stream=stream,
        gate=GATES[gate],
        retry=retry,
        breaker=breaker,
    )
    for seed, admission, policy, stream, gate, retry, breaker in product(
        EXTRA_SEEDS,
        ADMISSIONS,
        EXTRA_DEADLINE_POLICIES,
        STREAMS,
        GATES,
        (True, False),
        (True, False),
    )
}


def _builders(run, grid: dict) -> dict:
    return {label: partial(run, **kwargs) for label, kwargs in grid.items()}


#: label -> zero-argument builder, one set per block.
case_cells = partial(_builders, corpus_case, CASES)
extra_cells = partial(_builders, corpus_case, EXTRA)
record_cells = partial(_builders, corpus_record, CASES | EXTRA)


def summarize(digest: list) -> dict:
    """What a ``cells`` entry stores of a digest: its hash and counts."""
    counts = Counter(row[2] for row in digest if isinstance(row, list))
    return {
        "sha256": sha(digest),
        "counts": {status: counts[status] for status in STATUSES},
    }
