"""Tests of the dynamic-graph update path (:mod:`repro.engine.deltas`).

Covers the four layers a delta crosses, bottom up:

* the typed delta objects themselves — hypothesis round-trips through
  ``to_dict`` / ``delta_from_dict`` (including a real JSON hop), the
  canonical-key/equality contract the wire-format suite pins for
  queries, and validation semantics (batch atomicity, sequencing),
* the engine — ``apply_delta`` takes the incremental path for
  probability-only deltas (decomposition index and compiled CSR
  survive) and the full path otherwise, with answers **bit-identical**
  to a fresh prepare of an identically mutated graph on both backends
  across all six query kinds,
* scoped invalidation — :meth:`ResultCache.invalidate_graph` and
  :meth:`SharedResultStore.invalidate_graph` drop exactly the stale
  fingerprint's entries,
* the service — ``catalog.update`` versioned fingerprints,
  ``ReliabilityService.update`` cache scoping and its read-only mode,
  and ``POST /update`` end to end over HTTP.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import load_dataset
from repro.engine import (
    ALL_DELTA_KINDS,
    AddEdge,
    EstimatorConfig,
    GraphDelta,
    ReliabilityEngine,
    RemoveEdge,
    SetEdgeProbability,
    as_graph_delta,
    delta_from_dict,
    results_checksum,
)
from repro.engine.queries import (
    ClusteringQuery,
    KTerminalQuery,
    ReliabilitySearchQuery,
    ReliableSubgraphQuery,
    ThresholdQuery,
    TopKReliableVerticesQuery,
)
from repro.exceptions import (
    ConfigurationError,
    DeltaError,
    EdgeNotFoundError,
    InvalidProbabilityError,
    UpdateRejectedError,
)
from repro.service import (
    GraphCatalog,
    ReliabilityService,
    ResultCache,
    ServiceClient,
    ServiceError,
    ServiceServer,
    SharedResultStore,
    graph_fingerprint,
)

# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------
# abs() folds -0.0 into 0.0 before the open-interval bound applies — the
# same pitfall guard the query wire-format suite uses: equal values must
# not produce different canonical keys over the two spellings.
probabilities = (
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, allow_nan=False)
    .map(abs)
)
edge_ids = st.integers(min_value=0, max_value=500)
vertices = st.integers(min_value=1, max_value=34)


@st.composite
def any_op(draw):
    kind = draw(st.sampled_from([k for k in ALL_DELTA_KINDS if k != "batch"]))
    if kind == "set-probability":
        return SetEdgeProbability(
            edge_id=draw(edge_ids), probability=draw(probabilities)
        )
    if kind == "add-edge":
        return AddEdge(
            u=draw(vertices),
            v=draw(vertices),
            probability=draw(probabilities),
            edge_id=draw(st.one_of(st.none(), edge_ids)),
        )
    assert kind == "remove-edge"
    return RemoveEdge(edge_id=draw(edge_ids))


batches = st.lists(any_op(), min_size=1, max_size=5).map(
    lambda ops: GraphDelta(tuple(ops))
)
any_delta = st.one_of(any_op(), batches)


# ----------------------------------------------------------------------
# Wire-format round-trips
# ----------------------------------------------------------------------
class TestDeltaRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(delta=any_delta)
    def test_delta_round_trips_through_dict(self, delta):
        assert delta_from_dict(delta.to_dict()) == delta

    @settings(max_examples=60, deadline=None)
    @given(delta=any_delta)
    def test_delta_round_trips_through_json(self, delta):
        payload = json.loads(json.dumps(delta.to_dict()))
        assert delta_from_dict(payload) == delta

    @settings(max_examples=60, deadline=None)
    @given(delta=any_delta)
    def test_canonical_key_survives_round_trip(self, delta):
        rebuilt = delta_from_dict(json.loads(json.dumps(delta.to_dict())))
        assert rebuilt.canonical_key() == delta.canonical_key()

    @settings(max_examples=60, deadline=None)
    @given(first=any_delta, second=any_delta)
    def test_canonical_key_equality_matches_delta_equality(self, first, second):
        if first == second:
            assert first.canonical_key() == second.canonical_key()
        else:
            assert first.canonical_key() != second.canonical_key()

    @settings(max_examples=60, deadline=None)
    @given(delta=any_delta)
    def test_probability_only_survives_round_trip(self, delta):
        rebuilt = delta_from_dict(delta.to_dict())
        assert rebuilt.probability_only == delta.probability_only


class TestDeltaValidationOfPayloads:
    def test_unknown_kind_lists_registered_kinds(self):
        with pytest.raises(DeltaError, match="batch"):
            delta_from_dict({"kind": "bogus"})

    def test_missing_kind_rejected(self):
        with pytest.raises(DeltaError):
            delta_from_dict({"edge_id": 3})

    def test_unknown_fields_rejected(self):
        with pytest.raises(DeltaError, match="unknown"):
            delta_from_dict(
                {"kind": "set-probability", "edge_id": 1, "probability": 0.5, "x": 1}
            )

    def test_kind_mismatch_on_classmethod_rejected(self):
        with pytest.raises(DeltaError, match="delta_from_dict"):
            SetEdgeProbability.from_dict({"kind": "remove-edge", "edge_id": 1})

    def test_empty_batch_rejected(self):
        with pytest.raises(DeltaError, match="at least one"):
            GraphDelta(operations=())

    def test_nested_batch_rejected(self):
        inner = GraphDelta((RemoveEdge(edge_id=1),))
        with pytest.raises(DeltaError, match="non-batch"):
            GraphDelta((inner,))

    def test_invalid_probability_rejected_at_construction(self):
        for bad in (0.0, -0.0, -0.5, 1.5, float("nan")):
            with pytest.raises(InvalidProbabilityError):
                SetEdgeProbability(edge_id=1, probability=bad)

    def test_as_graph_delta_coercions(self):
        op = SetEdgeProbability(edge_id=1, probability=0.5)
        assert as_graph_delta(op) == GraphDelta((op,))
        assert as_graph_delta(op.to_dict()) == GraphDelta((op,))
        batch = GraphDelta((op,))
        assert as_graph_delta(batch) is batch
        assert as_graph_delta(batch.to_dict()) == batch
        with pytest.raises(DeltaError):
            as_graph_delta("not a delta")


# ----------------------------------------------------------------------
# Validation against a graph (atomicity, sequencing)
# ----------------------------------------------------------------------
@pytest.fixture()
def karate():
    return load_dataset("karate")


class TestDeltaValidationOnGraph:
    def test_set_probability_on_missing_edge(self, karate):
        with pytest.raises(EdgeNotFoundError):
            SetEdgeProbability(edge_id=10_000, probability=0.5).validate(karate)

    def test_add_edge_with_taken_id(self, karate):
        taken = next(iter(karate.edge_ids()))
        with pytest.raises(DeltaError, match="already"):
            AddEdge(u=1, v=2, probability=0.5, edge_id=taken).validate(karate)

    def test_remove_then_readd_same_id_is_legal_sequencing(self, karate):
        edge_id = next(iter(karate.edge_ids()))
        GraphDelta(
            (RemoveEdge(edge_id), AddEdge(u=1, v=2, probability=0.5, edge_id=edge_id))
        ).validate(karate)

    def test_readd_before_remove_is_illegal_sequencing(self, karate):
        edge_id = next(iter(karate.edge_ids()))
        with pytest.raises(DeltaError, match="already"):
            GraphDelta(
                (AddEdge(u=1, v=2, probability=0.5, edge_id=edge_id), RemoveEdge(edge_id))
            ).validate(karate)

    def test_rejected_batch_leaves_graph_untouched(self, karate):
        before = graph_fingerprint(karate)
        good = SetEdgeProbability(next(iter(karate.edge_ids())), probability=0.123)
        bad = SetEdgeProbability(edge_id=10_000, probability=0.5)
        with pytest.raises(EdgeNotFoundError):
            GraphDelta((good, bad)).apply_to(karate)
        assert graph_fingerprint(karate) == before

    def test_rejected_topology_batch_leaves_graph_untouched(self, karate):
        before = graph_fingerprint(karate)
        with pytest.raises(EdgeNotFoundError):
            GraphDelta(
                (RemoveEdge(next(iter(karate.edge_ids()))), RemoveEdge(10_000))
            ).apply_to(karate)
        assert graph_fingerprint(karate) == before


# ----------------------------------------------------------------------
# Engine: incremental vs. full re-prepare, bit-identical both ways
# ----------------------------------------------------------------------
SIX_KINDS = [
    KTerminalQuery(terminals=(1, 34)),
    ThresholdQuery(terminals=(2, 30), threshold=0.4),
    ReliabilitySearchQuery(sources=(1,), threshold=0.5),
    TopKReliableVerticesQuery(sources=(5,), k=3),
    ReliableSubgraphQuery(query_vertices=(1, 3), threshold=0.9, max_size=5),
    ClusteringQuery(num_clusters=3),
]

PROB_DELTA = GraphDelta(
    (
        SetEdgeProbability(edge_id=0, probability=0.25),
        SetEdgeProbability(edge_id=7, probability=0.9),
    )
)

TOPO_DELTA = GraphDelta(
    (
        RemoveEdge(edge_id=3),
        AddEdge(u=1, v=30, probability=0.6),
    )
)


def first_query_checksum(engine, graph, queries):
    results = engine.query_many(queries, graph=graph, seed_indices=[0] * len(queries))
    return results_checksum(results)


class TestEngineApplyDelta:
    @pytest.mark.parametrize("backend", ["sampling", "s2bdd"])
    @pytest.mark.parametrize("delta,incremental", [
        (PROB_DELTA, True),
        (TOPO_DELTA, False),
    ])
    def test_update_matches_fresh_prepare_all_kinds(self, backend, delta, incremental):
        config = EstimatorConfig(backend=backend, samples=150, rng=7)
        live = load_dataset("karate")
        engine = ReliabilityEngine(config).prepare(live)
        first_query_checksum(engine, live, SIX_KINDS)  # warm pools pre-delta

        outcome = engine.apply_delta(delta, live)
        assert outcome.incremental is incremental

        reference = load_dataset("karate")
        delta.apply_to(reference)
        fresh = ReliabilityEngine(config).prepare(reference)
        assert first_query_checksum(engine, live, SIX_KINDS) == first_query_checksum(
            fresh, reference, SIX_KINDS
        )

    def test_incremental_path_keeps_decomposition(self, karate):
        engine = ReliabilityEngine(
            EstimatorConfig(backend="sampling", samples=100, rng=7)
        ).prepare(karate)
        engine.query(KTerminalQuery(terminals=(1, 34)))
        decompositions = engine.stats.decompositions_computed
        outcome = engine.apply_delta(PROB_DELTA, karate)
        assert outcome.incremental
        assert outcome.pools_invalidated >= 1
        assert engine.stats.decompositions_computed == decompositions
        assert engine.stats.deltas_applied == 1
        assert engine.stats.incremental_prepares == 1
        assert engine.stats.full_prepares == 0

    def test_topology_path_reprepares(self, karate):
        engine = ReliabilityEngine(
            EstimatorConfig(backend="sampling", samples=100, rng=7)
        ).prepare(karate)
        decompositions = engine.stats.decompositions_computed
        engine.apply_delta(TOPO_DELTA, karate)
        assert engine.stats.decompositions_computed == decompositions + 1
        assert engine.stats.full_prepares == 1
        assert engine.stats.incremental_prepares == 0

    def test_rejected_delta_counts_nothing(self, karate):
        engine = ReliabilityEngine(
            EstimatorConfig(backend="sampling", samples=100, rng=7)
        ).prepare(karate)
        with pytest.raises(EdgeNotFoundError):
            engine.apply_delta(SetEdgeProbability(edge_id=10_000, probability=0.5), karate)
        assert engine.stats.deltas_applied == 0


# ----------------------------------------------------------------------
# Constructed-diagram cache across deltas (the PR 8 contract)
# ----------------------------------------------------------------------
class TestDiagramCacheDeltas:
    def test_topology_delta_evicts_diagrams(self, karate):
        engine = ReliabilityEngine(
            EstimatorConfig(backend="s2bdd", samples=150, rng=7)
        ).prepare(karate)
        first_query_checksum(engine, karate, SIX_KINDS)
        assert len(engine.diagram_cache) > 0

        outcome = engine.apply_delta(TOPO_DELTA, karate)
        assert not outcome.incremental
        assert outcome.diagrams_evicted > 0
        assert engine.stats.s2bdd_cache_evictions == outcome.diagrams_evicted
        # Scoped: every diagram owned by the mutated graph is gone.  Entries
        # built against derived subgraphs (the subgraph query's induced
        # graphs) may survive — they are content-addressed, so they can
        # never serve a stale answer, and the LRU bound reclaims them.
        with engine.diagram_cache._lock:
            owners = {
                entry.owner for entry in engine.diagram_cache._entries.values()
            }
        assert id(karate) not in owners

        reference = load_dataset("karate")
        TOPO_DELTA.apply_to(reference)
        fresh = ReliabilityEngine(
            EstimatorConfig(backend="s2bdd", samples=150, rng=7)
        ).prepare(reference)
        assert first_query_checksum(engine, karate, SIX_KINDS) == (
            first_query_checksum(fresh, reference, SIX_KINDS)
        )

    def test_probability_delta_resweeps_without_rebuilding(self, karate):
        # max_width=12_000 keeps this workload's diagram exact with no
        # priority sort, i.e. replay-safe; edge 7 survives preprocessing
        # into the cached subproblem (edge 0 would be pruned away).
        from repro.experiments.workloads import (
            generate_searches,
            queries_from_searches,
        )

        config = EstimatorConfig(
            backend="s2bdd", samples=150, rng=7, max_width=12_000
        )
        engine = ReliabilityEngine(config).prepare(karate)
        searches = generate_searches(karate, "karate", 3, 1, seed=2019)
        queries = [
            query
            for kind in ("k-terminal", "threshold")
            for query in queries_from_searches(searches, kind, threshold=0.3)
        ]
        first_query_checksum(engine, karate, queries)
        built = engine.stats.s2bdds_built
        assert built > 0

        delta = GraphDelta((SetEdgeProbability(edge_id=7, probability=0.25),))
        outcome = engine.apply_delta(delta, karate)
        assert outcome.incremental
        assert outcome.diagrams_evicted == 0
        assert len(engine.diagram_cache) > 0

        updated = first_query_checksum(engine, karate, queries)
        assert engine.stats.s2bdd_resweeps > 0
        assert engine.stats.s2bdds_built == built

        reference = load_dataset("karate")
        delta.apply_to(reference)
        fresh = ReliabilityEngine(config).prepare(reference)
        assert updated == first_query_checksum(fresh, reference, queries)

    def test_forget_evicts_that_graphs_diagrams(self, karate):
        engine = ReliabilityEngine(
            EstimatorConfig(backend="s2bdd", samples=150, rng=7)
        ).prepare(karate)
        engine.query(KTerminalQuery(terminals=(1, 34)))
        assert len(engine.diagram_cache) > 0
        engine.forget(karate)
        assert len(engine.diagram_cache) == 0


# ----------------------------------------------------------------------
# Scoped invalidation: cache and shared store
# ----------------------------------------------------------------------
class TestScopedInvalidation:
    def test_cache_drops_exactly_the_fingerprint(self):
        cache = ResultCache(max_bytes=1 << 20)
        cache.put(("fp-a", "q1", "c"), {"x": 1})
        cache.put(("fp-a", "q2", "c"), {"x": 2})
        cache.put(("fp-b", "q1", "c"), {"x": 3})
        assert cache.invalidate_graph("fp-a") == 2
        assert cache.get(("fp-a", "q1", "c")) is None
        assert cache.get(("fp-b", "q1", "c")) == {"x": 3}
        stats = cache.stats()
        assert stats.invalidations == 2
        assert stats.bytes_invalidated > 0
        assert stats.entries == 1

    def test_cache_invalidate_all_counts(self):
        cache = ResultCache(max_bytes=1 << 20)
        cache.put(("fp-a", "q1", "c"), {"x": 1})
        cache.put(("fp-b", "q1", "c"), {"x": 2})
        assert cache.invalidate_all() == 2
        assert cache.stats().invalidations == 2
        assert cache.stats().entries == 0

    def test_store_drops_exactly_the_fingerprint(self, tmp_path):
        store = SharedResultStore(str(tmp_path / "results.sqlite"))
        store.put(("fp-a", "q1", "c"), {"x": 1})
        store.put(("fp-a", "q2", "c"), {"x": 2})
        store.put(("fp-b", "q1", "c"), {"x": 3})
        assert store.invalidate_graph("fp-a") == 2
        assert store.get(("fp-a", "q1", "c")) is None
        assert store.get(("fp-b", "q1", "c")) == {"x": 3}
        assert store.stats().invalidations == 2
        assert store.invalidate_all() == 1
        store.close()


# ----------------------------------------------------------------------
# Catalog: versioned fingerprints
# ----------------------------------------------------------------------
class TestCatalogUpdate:
    def test_versioned_fingerprint_advances(self, karate):
        catalog = GraphCatalog(EstimatorConfig(backend="sampling", samples=100, rng=7))
        entry = catalog.register("karate", karate)
        assert entry.version == 1
        assert entry.describe()["version"] == 1

        outcome = catalog.update("karate", PROB_DELTA)
        assert outcome.incremental
        assert outcome.version == 2
        assert outcome.old_fingerprint == entry.fingerprint
        assert outcome.fingerprint != entry.fingerprint
        updated = catalog.entry("karate")
        assert (updated.version, updated.fingerprint) == (2, outcome.fingerprint)
        assert updated.fingerprint == graph_fingerprint(updated.graph)

    def test_update_accepts_wire_form(self, karate):
        catalog = GraphCatalog(EstimatorConfig(backend="sampling", samples=100, rng=7))
        catalog.register("karate", karate)
        outcome = catalog.update("karate", PROB_DELTA.to_dict())
        assert outcome.version == 2 and outcome.incremental

    def test_update_unknown_name_is_actionable(self, karate):
        catalog = GraphCatalog(EstimatorConfig(backend="sampling", samples=100, rng=7))
        with pytest.raises(ConfigurationError, match="registered graphs"):
            catalog.update("nope", PROB_DELTA)

    def test_update_resyncs_prepared_engines(self, karate):
        catalog = GraphCatalog(EstimatorConfig(backend="sampling", samples=100, rng=7))
        catalog.register("karate", karate)
        engine = catalog.engine("karate")
        engine.query(KTerminalQuery(terminals=(1, 34)), graph=karate)
        catalog.update("karate", PROB_DELTA)
        assert engine.stats.deltas_applied == 1

        reference = load_dataset("karate")
        PROB_DELTA.apply_to(reference)
        fresh = ReliabilityEngine(catalog.config).prepare(reference)
        assert first_query_checksum(engine, karate, SIX_KINDS) == first_query_checksum(
            fresh, reference, SIX_KINDS
        )


# ----------------------------------------------------------------------
# Service: update + scoped invalidation + read-only mode
# ----------------------------------------------------------------------
class TestServiceUpdate:
    def test_update_invalidates_exactly_the_stale_results(self, tmp_path, karate):
        catalog = GraphCatalog(EstimatorConfig(backend="sampling", samples=100, rng=7))
        catalog.register("karate", karate)
        store = SharedResultStore(str(tmp_path / "results.sqlite"))
        service = ReliabilityService(catalog, store=store)
        query = KTerminalQuery(terminals=(1, 34))
        before = service.query("karate", query)
        assert service.query("karate", query)["cached"] is True

        payload = service.update("karate", PROB_DELTA)
        assert payload["incremental"] is True
        assert payload["version"] == 2
        assert payload["invalidated"]["cache_entries"] >= 1
        assert payload["invalidated"]["store_entries"] >= 1

        after = service.query("karate", query)
        assert after["cached"] is False
        assert after["checksum"] != before["checksum"]

        reference = load_dataset("karate")
        PROB_DELTA.apply_to(reference)
        fresh_catalog = GraphCatalog(catalog.config)
        fresh_catalog.register("karate", reference)
        with ReliabilityService(fresh_catalog) as fresh:
            assert after["checksum"] == fresh.query("karate", query)["checksum"]
        assert service.stats()["service"]["updates_applied"] == 1
        service.close()
        store.close()

    def test_public_invalidation_surface(self, karate):
        catalog = GraphCatalog(EstimatorConfig(backend="sampling", samples=100, rng=7))
        catalog.register("karate", karate)
        service = ReliabilityService(catalog)
        service.query("karate", KTerminalQuery(terminals=(1, 34)))
        fingerprint = catalog.entry("karate").fingerprint
        assert service.invalidate_graph(fingerprint)["cache_entries"] == 1
        service.query("karate", KTerminalQuery(terminals=(1, 34)))
        assert service.invalidate_all()["cache_entries"] == 1
        assert service.stats()["cache"]["invalidations"] == 2
        service.close()

    def test_read_only_service_rejects_updates(self, karate):
        catalog = GraphCatalog(EstimatorConfig(backend="sampling", samples=100, rng=7))
        catalog.register("karate", karate)
        service = ReliabilityService(catalog, allow_updates=False)
        assert service.allow_updates is False
        with pytest.raises(UpdateRejectedError, match="--allow-updates"):
            service.update("karate", PROB_DELTA)
        service.close()


# ----------------------------------------------------------------------
# HTTP end to end
# ----------------------------------------------------------------------
class TestHttpUpdate:
    def test_update_round_trip_and_post_update_parity(self):
        catalog = GraphCatalog(EstimatorConfig(backend="sampling", samples=100, rng=7))
        catalog.register("karate", load_dataset("karate"))
        service = ReliabilityService(catalog)
        server = ServiceServer(service, port=0).start_background()
        try:
            with ServiceClient("127.0.0.1", server.port) as client:
                query = KTerminalQuery(terminals=(1, 34))
                client.query("karate", query)

                payload = client.update("karate", PROB_DELTA)
                assert payload["incremental"] is True
                assert payload["version"] == 2
                assert payload["invalidated"]["cache_entries"] >= 1
                (described,) = client.graphs()
                assert described["version"] == 2
                assert described["fingerprint"] == payload["fingerprint"]

                answer = client.query("karate", query)
                assert answer.cached is False
                reference = load_dataset("karate")
                PROB_DELTA.apply_to(reference)
                fresh = ReliabilityEngine(catalog.config).prepare(reference)
                assert answer.checksum == results_checksum(
                    [fresh.query(query, seed_index=0)]
                )
        finally:
            server.close()
            service.close()

    def test_read_only_server_answers_403(self):
        catalog = GraphCatalog(EstimatorConfig(backend="sampling", samples=100, rng=7))
        catalog.register("karate", load_dataset("karate"))
        service = ReliabilityService(catalog, allow_updates=False)
        server = ServiceServer(service, port=0).start_background()
        try:
            with ServiceClient("127.0.0.1", server.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.update("karate", PROB_DELTA)
                assert excinfo.value.status == 403
        finally:
            server.close()
            service.close()

    def test_bad_delta_answers_400(self):
        catalog = GraphCatalog(EstimatorConfig(backend="sampling", samples=100, rng=7))
        catalog.register("karate", load_dataset("karate"))
        service = ReliabilityService(catalog)
        server = ServiceServer(service, port=0).start_background()
        try:
            with ServiceClient("127.0.0.1", server.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.update("karate", {"kind": "bogus"})
                assert excinfo.value.status == 400
        finally:
            server.close()
            service.close()
