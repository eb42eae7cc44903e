"""Tests for the heterogeneous graph substrate (schema + storage +
adjacency + similarity)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    GraphSchema,
    HeteroGraph,
    Relation,
    StructuralSimilarity,
    extended_medical_schema,
    jaccard_neighbors,
    medical_schema,
    neighbor_label_multiset,
    normalized_ged_similarity,
    star_edit_distance,
)


@pytest.fixture
def toy():
    """The Figure 1 toy graph."""
    g = HeteroGraph(medical_schema())
    g.aspirin = g.add_node("Drug", "aspirin")
    g.metformin = g.add_node("Drug", "metformin")
    g.nausea = g.add_node("AdverseEffect", "nausea")
    g.diarrhea = g.add_node("AdverseEffect", "diarrhea")
    g.headache = g.add_node("Symptom", "headache")
    g.fever = g.add_node("Finding", "fever")
    g.add_edge_by_name(g.aspirin, g.nausea, "CAUSE")
    g.add_edge_by_name(g.metformin, g.diarrhea, "CAUSE")
    g.add_edge_by_name(g.aspirin, g.headache, "TREAT")
    g.add_edge_by_name(g.diarrhea, g.fever, "HAS")
    return g


class TestSchema:
    def test_duplicate_node_types_rejected(self):
        with pytest.raises(ValueError):
            GraphSchema(["A", "A"], [])

    def test_unknown_type_in_relation_rejected(self):
        with pytest.raises(ValueError):
            GraphSchema(["A"], [Relation("R", "A", "B")])

    def test_duplicate_relation_rejected(self):
        with pytest.raises(ValueError):
            GraphSchema(["A"], [Relation("R", "A", "A"), Relation("R", "A", "A")])

    def test_same_name_different_signature_allowed(self):
        schema = GraphSchema(
            ["A", "B"], [Relation("R", "A", "B"), Relation("R", "B", "A")]
        )
        assert schema.num_relations == 2
        assert schema.relation_ids_by_name("R") == [0, 1]

    def test_partner_types(self):
        schema = medical_schema()
        partners = schema.partner_types("Drug")
        assert set(partners) == {"Symptom", "AdverseEffect"}

    def test_relations_touching(self):
        schema = medical_schema()
        touching = schema.relations_touching("Finding")
        names = {schema.relation(r).name for r in touching}
        assert names == {"INDICATE", "HAS"}

    def test_extended_schema_valid(self):
        schema = extended_medical_schema()
        assert schema.num_node_types == 7
        assert schema.num_relations == 12


class TestGraphConstruction:
    def test_counts(self, toy):
        assert toy.num_nodes == 6
        assert toy.num_edges == 4

    def test_node_accessors(self, toy):
        assert toy.node_name(toy.aspirin) == "aspirin"
        assert toy.node_type_name(toy.aspirin) == "Drug"
        assert toy.node_aliases(toy.aspirin) == ()

    def test_add_edge_validates_endpoints(self, toy):
        with pytest.raises(IndexError):
            toy.add_edge(0, 99, 0)
        with pytest.raises(IndexError):
            toy.add_edge(0, 1, 99)

    def test_add_edge_by_name_resolves_signature(self, toy):
        with pytest.raises(KeyError):
            toy.add_edge_by_name(toy.aspirin, toy.fever, "CAUSE")  # Drug->Finding not CAUSE

    def test_nodes_of_type(self, toy):
        drugs = toy.nodes_of_type("Drug")
        assert set(drugs.tolist()) == {toy.aspirin, toy.metformin}
        # The type array is cached, read-only, and rebuilt after a mutation.
        with pytest.raises(ValueError):
            toy.node_types[0] = 1
        new = toy.add_node("Drug", "newdrug")
        assert set(toy.nodes_of_type("Drug").tolist()) == {toy.aspirin, toy.metformin, new}
        offset = toy.splice(toy.copy())
        assert len(toy.nodes_of_type("Drug")) == 6 and offset + new in toy.nodes_of_type("Drug")

    def test_histograms(self, toy):
        hist = toy.type_histogram()
        assert hist["Drug"] == 2 and hist["Finding"] == 1
        rel_hist = toy.relation_histogram()
        assert sum(rel_hist.values()) == 4

    def test_features_validation(self, toy):
        with pytest.raises(ValueError):
            toy.set_features(np.zeros((2, 4)))
        toy.set_features(np.zeros((6, 4)))
        assert toy.features.shape == (6, 4)

    def test_copy_is_independent(self, toy):
        clone = toy.copy()
        clone.add_node("Drug", "newdrug")
        assert toy.num_nodes == 6
        assert clone.num_nodes == 7


class TestAdjacency:
    def test_out_in_neighbors(self, toy):
        assert set(toy.out_neighbors(toy.aspirin).tolist()) == {toy.nausea, toy.headache}
        assert toy.in_neighbors(toy.fever).tolist() == [toy.diarrhea]
        assert toy.out_neighbors(toy.fever).size == 0

    def test_neighbors_union(self, toy):
        assert set(toy.neighbors(toy.diarrhea).tolist()) == {toy.metformin, toy.fever}

    def test_degree(self, toy):
        assert toy.degree(toy.aspirin) == 2
        assert toy.degree(toy.fever) == 1

    def test_edge_between(self, toy):
        rel = toy.edge_between(toy.aspirin, toy.nausea)
        assert toy.schema.relation(rel).name == "CAUSE"
        assert toy.edge_between(toy.nausea, toy.aspirin) is None
        assert toy.has_edge(toy.diarrhea, toy.fever)

    def test_adjacency_invalidated_on_mutation(self, toy):
        _ = toy.neighbors(toy.aspirin)  # build caches
        new = toy.add_node("Finding", "rash")
        toy.add_edge_by_name(toy.nausea, new, "HAS")
        assert new in toy.out_neighbors(toy.nausea).tolist()
        assert toy.edge_between(toy.nausea, new) is not None

    def test_out_edges_returns_relations(self, toy):
        nbrs, rels = toy.out_edges(toy.aspirin)
        names = {toy.schema.relation(r).name for r in rels.tolist()}
        assert names == {"CAUSE", "TREAT"}


class TestViews:
    def test_bidirected_doubles_edges(self, toy):
        view = toy.to_bidirected()
        assert view.num_edges == 2 * toy.num_edges
        assert view.num_relations == 2 * toy.schema.num_relations
        # Inverse edges carry offset relation ids.
        assert set(view.etypes.tolist()) >= {0, toy.schema.num_relations}

    def test_self_loops_added(self, toy):
        view = toy.with_self_loops()
        assert view.num_edges == 2 * toy.num_edges + toy.num_nodes
        assert view.num_relations == 2 * toy.schema.num_relations + 1


class TestStructuralSimilarity:
    def test_identical_stars(self, toy):
        assert normalized_ged_similarity(toy, toy.aspirin, toy.aspirin) == pytest.approx(1.0)

    def test_isolated_nodes_are_identical(self, toy):
        a = toy.add_node("Drug", "x")
        b = toy.add_node("Drug", "y")
        assert normalized_ged_similarity(toy, a, b) == pytest.approx(1.0)

    def test_disjoint_stars(self, toy):
        sim = normalized_ged_similarity(toy, toy.aspirin, toy.fever)
        assert sim == pytest.approx(0.0)

    def test_shared_neighbors_raise_similarity(self, toy):
        # Give metformin the same CAUSE->nausea edge as aspirin.
        toy.add_edge_by_name(toy.metformin, toy.nausea, "CAUSE")
        sim_shared = normalized_ged_similarity(toy, toy.aspirin, toy.metformin)
        assert sim_shared > 0.0

    def test_cached_matches_direct(self, toy):
        cached = StructuralSimilarity(toy)
        direct = normalized_ged_similarity(toy, toy.aspirin, toy.metformin)
        assert cached.similarity(toy.aspirin, toy.metformin) == pytest.approx(direct)

    def test_star_edit_distance_symmetry(self, toy):
        sig_a = neighbor_label_multiset(toy, toy.aspirin)
        sig_b = neighbor_label_multiset(toy, toy.metformin)
        assert star_edit_distance(sig_a, sig_b) == star_edit_distance(sig_b, sig_a)

    def test_jaccard(self, toy):
        assert jaccard_neighbors(toy, toy.aspirin, toy.aspirin) == 1.0
        assert jaccard_neighbors(toy, toy.aspirin, toy.fever) == 0.0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16), n_edges=st.integers(0, 40))
def test_property_random_graph_invariants(seed, n_edges):
    """Random graphs keep basic invariants: degree sums, view sizes,
    similarity bounds and symmetry."""
    rng = np.random.default_rng(seed)
    schema = medical_schema()
    g = HeteroGraph(schema)
    for t in schema.node_types:
        for i in range(3):
            g.add_node(t, f"{t.lower()} {i}")
    for _ in range(n_edges):
        rel_id = int(rng.integers(0, schema.num_relations))
        rel = schema.relation(rel_id)
        src = int(rng.choice(g.nodes_of_type(rel.src_type)))
        dst = int(rng.choice(g.nodes_of_type(rel.dst_type)))
        g.add_edge(src, dst, rel_id)

    total_out = sum(len(g.out_neighbors(v)) for v in range(g.num_nodes))
    total_in = sum(len(g.in_neighbors(v)) for v in range(g.num_nodes))
    assert total_out == g.num_edges == total_in
    assert g.to_bidirected().num_edges == 2 * g.num_edges

    u, v = int(rng.integers(0, g.num_nodes)), int(rng.integers(0, g.num_nodes))
    s_uv = normalized_ged_similarity(g, u, v)
    s_vu = normalized_ged_similarity(g, v, u)
    assert 0.0 <= s_uv <= 1.0
    assert s_uv == pytest.approx(s_vu)
