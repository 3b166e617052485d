"""The block-enumerated, early-rejecting link evaluator vs the streamed path.

:class:`~repro.radio.linkeval.LinkEvaluator` must build the same bytes as
the path it replaced — candidate chunks, a full shadowing draw on every
in-range pair, a two-key lexsort — which lives on in
``tests/references.py``.  The early rejection must never drop a pair the
exact test keeps (a Hypothesis property over channels and distances).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PaperConfig
from repro.radio.chanhash import pair_code
from repro.radio.fading import HashedRayleighFading, NoFading
from repro.radio.linkeval import LinkEvaluator
from repro.radio.pathloss import (
    FreeSpacePathLoss,
    LogDistancePathLoss,
    PaperPathLoss,
    max_range_m,
)
from repro.radio.shadowing import HashedShadowing, NoShadowing
from repro.radio.sparse_link import SparseLinkBudget, csr_from_edges
from repro.shard.halo import cross_links, cross_radius_m
from repro.shard.tiling import CityConfig
from tests.references import (
    lexsort_csr,
    streamed_budget_csr,
    streamed_cross_links,
)

PATHLOSS = {
    "paper": PaperPathLoss(),
    "logdistance": LogDistancePathLoss(exponent=3.5, reference_loss_db=38.0),
    "freespace": FreeSpacePathLoss(),
}

SHADOWING = {
    "none": None,
    "s4c1": (4.0, 1.0),
    "s4c3": (4.0, 3.0),
    "s10c1": (10.0, 1.0),
    "s10c3": (10.0, 3.0),
}


def _layout(name: str) -> np.ndarray:
    rng = np.random.default_rng(sum(map(ord, name)))
    if name.startswith("n"):
        n = int(name[1:])
        return rng.uniform(0.0, 400.0, size=(n, 2))
    if name == "coincident":
        # a stack of coincident devices plus a scattered remainder
        stack = np.full((25, 2), 123.25)
        return np.concatenate((stack, rng.uniform(0.0, 400.0, size=(40, 2))))
    if name == "collinear":
        t = np.linspace(0.0, 1500.0, 120)
        return np.stack((t, 0.5 * t + 3.0), axis=1)
    raise ValueError(name)


LAYOUTS = ("n0", "n1", "n2", "n50", "n600", "coincident", "collinear")


def _budget(layout, shadowing, fading, pathloss, **kwargs) -> SparseLinkBudget:
    if shadowing is None:
        shadow = NoShadowing()
    else:
        sigma, clip = shadowing
        shadow = HashedShadowing(sigma, key=4242, clip_sigma=clip)
    return SparseLinkBudget(
        _layout(layout),
        PATHLOSS[pathloss],
        tx_power_dbm=23.0,
        threshold_dbm=-95.0,
        shadowing=shadow,
        fading=HashedRayleighFading(9) if fading else NoFading(),
        **kwargs,
    )


def _assert_same_bytes(budget: SparseLinkBudget) -> None:
    indptr, indices, power = streamed_budget_csr(budget)
    assert budget.indptr.tobytes() == indptr.tobytes()
    assert budget.indices.tobytes() == indices.tobytes()
    assert budget.power_dbm.tobytes() == power.tobytes()


class TestBudgetMatchesStreamedPath:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("pathloss", sorted(PATHLOSS))
    @pytest.mark.parametrize("fading", [False, True], ids=["nofade", "hashedfade"])
    @pytest.mark.parametrize("shadowing", sorted(SHADOWING))
    def test_csr_bytes(self, shadowing, fading, pathloss, layout):
        budget = _budget(layout, SHADOWING[shadowing], fading, pathloss)
        _assert_same_bytes(budget)
        if budget.n >= 50:
            assert budget.edge_count > 0  # the case exercises real links

    def test_tiny_slices(self):
        """A slice bound below one row still builds the same bytes."""
        budget = _budget("n600", (10.0, 3.0), True, "paper", max_chunk_pairs=7)
        _assert_same_bytes(budget)


class TestHaloMatchesStreamedPath:
    @pytest.mark.parametrize("sigma", [10.0, 0.0])
    @pytest.mark.parametrize("owner", [None, 0, 1, 2, 3])
    def test_cross_links_bytes(self, sigma, owner):
        base = PaperConfig(seed=5, shadowing_sigma_db=sigma).with_devices(
            900, keep_density=True
        )
        city = CityConfig(base, 2, 2)
        rng = np.random.default_rng(11)
        positions = rng.uniform(0.0, base.area_side_m, size=(900, 2))
        ids = rng.permutation(5000)[:900].astype(np.int64)
        tiles = city.tiling.tile_of(positions)
        radius = cross_radius_m(base)
        got = cross_links(city, positions, ids, tiles, radius, owner=owner)
        want = streamed_cross_links(city, positions, ids, tiles, radius, owner=owner)
        assert got[0] == want[0]
        # the last tile is never the smaller tile id of a pair
        assert (want[0] > 0) == (owner != 3)
        for a, b in zip(got[1:], want[1:]):
            assert a.tobytes() == b.tobytes()


# ----------------------------------------------------------------------
# the early rejection is exact
# ----------------------------------------------------------------------
def _evaluator(model, sigma, clip, key, tx, floor):
    shadow = HashedShadowing(sigma, key=key, clip_sigma=clip)
    radius = max_range_m(model, tx, floor - shadow.max_gain_db, hi=50_000.0)
    return LinkEvaluator(
        model,
        tx_power_dbm=tx,
        floor_dbm=floor,
        shadowing=shadow,
        radius_m=radius,
    )


@settings(deadline=None, max_examples=60)
@given(
    model=st.sampled_from(sorted(PATHLOSS)),
    sigma=st.floats(min_value=0.5, max_value=15.0),
    clip=st.floats(min_value=0.25, max_value=4.0),
    key=st.integers(min_value=0, max_value=2**63 - 1),
    tx=st.floats(min_value=0.0, max_value=30.0),
    floor=st.floats(min_value=-120.0, max_value=-70.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_bin_threshold_never_rejects_a_kept_pair(
    model, sigma, clip, key, tx, floor, seed
):
    """Place each pair exactly where its own draw just clears the floor
    (and at random distances): the early test must keep every pair the
    exact power test keeps."""
    pathloss = PATHLOSS[model]
    ev = _evaluator(pathloss, sigma, clip, key, tx, floor)
    if ev.radius_m <= 0:
        return
    rng = np.random.default_rng(seed)
    i = rng.integers(0, 2**20, size=400)
    j = i + 1 + rng.integers(0, 2**20, size=400)
    code = pair_code(i, j)
    shadow = ev.shadowing.link_db(i, j)
    # the largest distance at which each pair still reaches the floor
    lo = np.zeros(i.size)
    hi = np.full(i.size, ev.radius_m * 1.01)
    budget = tx - floor - shadow
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        ok = np.asarray(pathloss.loss_db(mid)) <= budget
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid)
    d = np.concatenate((lo, rng.uniform(0.0, ev.radius_m * 1.2, size=i.size)))
    code = np.concatenate((code, code))
    shadow = np.concatenate((shadow, shadow))
    d2 = d * d
    power = tx - np.asarray(pathloss.loss_db(np.sqrt(d2)), dtype=float) - shadow
    kept = (power >= floor) & (d2 <= ev.max_d2)
    early, _ = ev.may_reach(d2, code)
    assert not np.any(kept & ~early)


def test_early_rejection_rejects_most_far_pairs():
    """The test is not vacuous: beyond half the radius most pairs go."""
    ev = _evaluator(PaperPathLoss(), 10.0, 3.0, 1, 23.0, -95.0)
    rng = np.random.default_rng(0)
    i = rng.integers(0, 2**20, size=20_000)
    d2 = rng.uniform(0.25, 1.0, size=i.size) * ev.max_d2
    early, _ = ev.may_reach(d2, pair_code(i, i + 1))
    assert early.mean() < 0.5


# ----------------------------------------------------------------------
# CSR assembly
# ----------------------------------------------------------------------
def test_packed_sort_matches_lexsort_on_unique_edges():
    rng = np.random.default_rng(3)
    n = 300
    tx, rx = np.nonzero(rng.random((n, n)) < 0.05)
    perm = rng.permutation(tx.size)
    tx, rx = tx[perm], rx[perm]
    w = rng.normal(size=tx.size)
    got = csr_from_edges(n, tx, rx, w, np.arange(tx.size))
    want = lexsort_csr(n, tx, rx, w, np.arange(tx.size))
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    for a, b in zip(got[2], want[2]):
        assert a.tobytes() == b.tobytes()
