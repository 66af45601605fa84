"""Tests for the synthetic dataset generators (SNAP / IMDB stand-ins)."""

import pytest

from repro.datasets.generators import (
    degree_sequence,
    erdos_renyi_edges,
    powerlaw_edges,
    preferential_attachment_edges,
    zipf_sampler,
)
from repro.datasets.imdb import ImdbSpec, imdb_cast, imdb_small
from repro.datasets.snap import (
    SNAP_DATASETS,
    dataset_specs,
    ego_facebook,
    ego_twitter,
    load_snap_standin,
    p2p_gnutella04,
    wiki_vote,
)
import random


class TestGenerators:
    def test_zipf_sampler_is_skewed(self):
        rng = random.Random(1)
        sample = zipf_sampler(50, 1.5, rng)
        draws = [sample() for _ in range(2000)]
        counts = {value: draws.count(value) for value in set(draws)}
        assert counts.get(0, 0) > counts.get(10, 0)

    def test_zipf_alpha_zero_is_roughly_uniform(self):
        rng = random.Random(2)
        sample = zipf_sampler(10, 0.0, rng)
        draws = [sample() for _ in range(5000)]
        counts = [draws.count(value) for value in range(10)]
        assert max(counts) < 2.5 * min(counts)

    def test_zipf_invalid_parameters(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            zipf_sampler(0, 1.0, rng)
        with pytest.raises(ValueError):
            zipf_sampler(10, -1.0, rng)

    def test_erdos_renyi_deterministic(self):
        assert erdos_renyi_edges(20, 0.2, seed=5) == erdos_renyi_edges(20, 0.2, seed=5)

    def test_erdos_renyi_no_self_loops(self):
        assert all(a != b for a, b in erdos_renyi_edges(15, 0.5, seed=1))

    def test_erdos_renyi_probability_extremes(self):
        assert erdos_renyi_edges(10, 0.0, seed=1) == []
        full = erdos_renyi_edges(10, 1.0, seed=1)
        assert len(full) == 45  # undirected complete graph

    def test_powerlaw_edges_deterministic_and_skewed(self):
        edges = powerlaw_edges(60, 250, source_alpha=1.2, seed=3)
        assert edges == powerlaw_edges(60, 250, source_alpha=1.2, seed=3)
        degrees = sorted(degree_sequence(edges), reverse=True)
        assert degrees[0] > 4 * degrees[len(degrees) // 2]

    def test_preferential_attachment_shape(self):
        edges = preferential_attachment_edges(50, edges_per_node=2, seed=1)
        assert all(a != b for a, b in edges)
        assert len(edges) >= 48

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            erdos_renyi_edges(1, 0.5)
        with pytest.raises(ValueError):
            powerlaw_edges(1, 10)
        with pytest.raises(ValueError):
            preferential_attachment_edges(3, edges_per_node=5)


class TestSnapStandins:
    def test_registry_contains_all_five(self):
        assert set(SNAP_DATASETS) == {
            "wiki-Vote", "p2p-Gnutella04", "ca-GrQc", "ego-Facebook", "ego-Twitter"
        }

    @pytest.mark.parametrize("name", sorted(SNAP_DATASETS))
    def test_every_standin_builds_an_edge_relation(self, name):
        database = load_snap_standin(name)
        relation = database.relation("E")
        assert relation.attributes == ("src", "dst")
        assert len(relation) > 50

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            load_snap_standin("does-not-exist")

    def test_determinism(self):
        assert wiki_vote().relation("E").tuples == wiki_vote().relation("E").tuples

    def test_scale_grows_the_graph(self):
        small = wiki_vote(scale=0.5)
        large = wiki_vote(scale=2.0)
        assert len(large.relation("E")) > len(small.relation("E"))

    def test_skewed_datasets_are_more_skewed_than_gnutella(self):
        twitter, gnutella = ego_twitter(), p2p_gnutella04()
        skew_twitter = twitter.statistics.attribute("E", "src").skew
        skew_gnutella = gnutella.statistics.attribute("E", "src").skew
        assert skew_twitter > skew_gnutella

    def test_facebook_denser_than_gnutella(self):
        facebook = ego_facebook()
        gnutella = p2p_gnutella04()
        facebook_nodes = {v for row in facebook.relation("E") for v in row}
        gnutella_nodes = {v for row in gnutella.relation("E") for v in row}
        facebook_density = len(facebook.relation("E")) / max(len(facebook_nodes), 1)
        gnutella_density = len(gnutella.relation("E")) / max(len(gnutella_nodes), 1)
        assert facebook_density > gnutella_density

    def test_specs_available(self):
        specs = dataset_specs()
        assert specs["ego-Twitter"].skewed
        assert not specs["p2p-Gnutella04"].skewed


class TestImdbStandin:
    def test_two_relations_with_expected_schema(self):
        database = imdb_cast()
        for name in ("male_cast", "female_cast"):
            assert database.relation(name).attributes == ("person_id", "movie_id")

    def test_person_ids_disjoint_between_relations(self):
        database = imdb_cast()
        male_people = {row[0] for row in database.relation("male_cast")}
        female_people = {row[0] for row in database.relation("female_cast")}
        assert not (male_people & female_people)

    def test_movie_ids_shared(self):
        database = imdb_cast()
        male_movies = {row[1] for row in database.relation("male_cast")}
        female_movies = {row[1] for row in database.relation("female_cast")}
        assert male_movies & female_movies

    def test_person_more_skewed_than_movie(self):
        """The property Figures 13-14 rely on."""
        database = imdb_cast()
        person_skew = database.statistics.attribute("male_cast", "person_id").skew
        movie_skew = database.statistics.attribute("male_cast", "movie_id").skew
        assert person_skew > movie_skew

    def test_determinism(self):
        assert imdb_cast().relation("male_cast").tuples == imdb_cast().relation("male_cast").tuples

    def test_spec_controls_size(self):
        small = imdb_cast(ImdbSpec(rows_per_relation=50))
        assert len(small.relation("male_cast")) <= 50

    def test_imdb_small_helper(self):
        database = imdb_small()
        assert len(database.relation("male_cast")) <= 120
