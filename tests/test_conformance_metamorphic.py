"""Metamorphic relation registry, run as pytest parametrizations."""

import pytest

from repro.conformance import METAMORPHIC_RELATIONS, run_relations
from repro.conformance.metamorphic import (
    relation_node_relabeling,
    relation_ps_weight_monotonicity,
    relation_seed_translation,
)
from repro.core.config import PaperConfig


class TestRegistry:
    def test_at_least_four_relations(self):
        assert len(METAMORPHIC_RELATIONS) >= 4

    def test_covers_st_fst_and_fault_layer(self):
        # seed_translation exercises ST and FST captures; fault_inactivity
        # exercises the fault layer across all three algorithms
        assert "seed_translation" in METAMORPHIC_RELATIONS
        assert "fault_inactivity" in METAMORPHIC_RELATIONS

    def test_unknown_relation_rejected(self):
        with pytest.raises(KeyError, match="unknown relation"):
            run_relations(PaperConfig(n_devices=8, seed=1), ("bogus",))


@pytest.mark.parametrize("name", sorted(METAMORPHIC_RELATIONS))
def test_relation_holds(name):
    """Every registered relation holds on the reference config."""
    div = METAMORPHIC_RELATIONS[name](PaperConfig(n_devices=16, seed=1))
    assert div is None, div.describe()


@pytest.mark.parametrize("seed", [2, 5])
def test_node_relabeling_across_seeds(seed):
    div = relation_node_relabeling(PaperConfig(n_devices=24, seed=seed))
    assert div is None, div.describe()


def test_seed_translation_on_sparse_backend():
    div = relation_seed_translation(
        PaperConfig(n_devices=24, seed=3)
    )
    assert div is None, div.describe()


def test_ps_weight_monotonicity_larger_network():
    div = relation_ps_weight_monotonicity(PaperConfig(n_devices=48, seed=4))
    assert div is None, div.describe()


def test_run_relations_reports_every_relation():
    outcomes = run_relations(PaperConfig(n_devices=12, seed=1))
    assert [name for name, _ in outcomes] == list(METAMORPHIC_RELATIONS)
    assert all(div is None for _, div in outcomes), [
        div.describe() for _, div in outcomes if div is not None
    ]
