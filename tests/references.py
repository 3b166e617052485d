"""Test helper: independent matrix references for the CSR simulations.

Every simulation runs one execution path — the CSR link layout driven by
whole-array kernels.  The references here recompute pieces of a run from
a *twin* network's dense helper views (same config, so the same
positions, channel keys and random streams) with code that shares
nothing with the CSR kernels: the dense pulse-sync reception
(:class:`DensePulseSyncKernel`), the per-cohort beacon decode
(:class:`PerCohortBeaconDiscovery`), Kruskal's maximum spanning tree and
the node-level message-passing protocol.  Building a twin keeps the network
under test free of dense views, so the tests can also assert it never
densified.

The network build has its own reference: :func:`streamed_pair_chunks`
(the repeat/tile candidate generator the block enumerator replaced),
:func:`streamed_links` (candidate chunk → distance filter → ``loss_db``
→ full ``link_db`` draw → floor, no early rejection) and the two-key
``lexsort`` CSR assembly (:func:`lexsort_csr`) — together
:func:`streamed_budget_csr` and :func:`streamed_cross_links`.  The
halo's tile-pair partition has :func:`cross_pairs`, a whole-grid scan
with a same-tile/ownership mask.

CSR Borůvka's per-phase MWOE scan has one too:
:func:`presorted_boruvka_csr` sorts every edge once by ``(tx, weight
desc, neighbour id)`` and takes each node's first still-outgoing edge per
phase, where the program takes a segmented argmax over a shrinking edge
list.
"""

from __future__ import annotations

import numpy as np

from repro.core.beacon import SparseBeaconDiscovery
from repro.core.config import PaperConfig
from repro.core.network import D2DNetwork
from repro.core.pulsesync import PulseSyncResult, _PulseSyncBase
from repro.faults.plan import FaultPlan
from repro.oscillator.prc import LinearPRC
from repro.radio.sparse_link import gather_rows
from repro.radio.spatial import DEFAULT_CHUNK_PAIRS, pair_slices
from repro.spanningtree.boruvka import (
    BoruvkaResult,
    _default_max_phases,
    _drive_phases,
    _seed_fragments,
)
from repro.spanningtree.fragment import FragmentSet
from repro.spanningtree.messages import MessageCounter
from repro.spanningtree.mst import maximum_spanning_tree


class DensePulseSyncKernel(_PulseSyncBase):
    """Pulse-sync run loop with wave reception over dense matrices.

    Each wave takes ``(k, n)`` row slices of the mean-power matrix and
    the boolean coupling mask, adds the hashed fading on the same
    ``(k, n)`` grid, and resolves detection (and, under the ``"capture"``
    policy, the capture rule) with column reductions.  It shares the run
    loop with the CSR kernel but none of its reception code — it does not
    call :func:`~repro.radio.interference.capture` — so a bitwise match
    between the two is evidence for the CSR path and the shared capture
    rule.
    """

    def __init__(
        self, mean_rx_dbm: np.ndarray, adjacency: np.ndarray, prc: LinearPRC, **kwargs
    ) -> None:
        self.mean_rx = np.asarray(mean_rx_dbm, dtype=float)
        self.adjacency = np.asarray(adjacency, dtype=bool)
        super().__init__(self.mean_rx.shape[0], prc, **kwargs)
        self._node_ids = np.arange(self.n, dtype=np.int64)

    def _wave_reception(self, firers, event):
        n = self.n
        power = self.mean_rx[firers]
        if self._hashed_fading:
            power = power + self.fading.link_db(
                event, firers[:, None], self._node_ids[None, :]
            )
        det = (power >= self.threshold_dbm) & self.adjacency[firers]
        counts = det.sum(axis=0)
        any_heard = counts >= 1
        if self.collision_policy == "tolerant":
            return any_heard
        if self.collision_policy == "destructive":
            return counts == 1

        # capture: the strongest copy against the sum of the rest
        masked = np.where(det, power, -np.inf)
        strongest_row = np.argmax(masked, axis=0)
        strongest_pow = masked[strongest_row, np.arange(n)]
        linear = np.where(det, np.power(10.0, power / 10.0), 0.0)
        total = linear.sum(axis=0)
        signal = np.where(any_heard, np.power(10.0, strongest_pow / 10.0), 0.0)
        noise = np.maximum(total - signal, 1e-30)
        with np.errstate(divide="ignore", invalid="ignore"):
            sir_db = 10.0 * np.log10(np.maximum(signal, 1e-300) / noise)
        return any_heard & ((counts == 1) | (sir_db >= self.capture_margin_db))


class PerCohortBeaconDiscovery(SparseBeaconDiscovery):
    """Beacon run loop with every slot-cohort decoded on its own.

    Each cohort hashes its own fading draws (one ``link_db`` call per
    cohort) and races *every* receiver of its transmitters' edges —
    decoded or not — with its own ``(tx, −power, rx)`` lexsort and SIR
    arithmetic (not :func:`~repro.radio.interference.capture`) and its
    own half-duplex mask.  It shares the run loop with the kernel but
    none of its decode, so a match is evidence that the kernel's
    singleton pass, per-period subkeys, block races, open-work skip and
    shared capture rule change nothing on the edges a run must decode.
    It ignores ``open_``: its ``decoded`` is the full decode, of which
    the kernel's is a subset off the required edges.
    """

    def _process_period(
        self, order, chan, awake, receiving, event, decoded, open_, fstate,
        occ_hist,
    ) -> int:
        sorted_chan = chan[order]
        boundaries = np.nonzero(np.diff(sorted_chan))[0] + 1
        cohorts = np.split(order, boundaries)
        starts = np.concatenate(([0], boundaries))
        for offset, (cohort, start) in enumerate(zip(cohorts, starts)):
            slot = int(sorted_chan[start]) // self.preambles
            awake_row = awake[slot] if awake is not None else None
            if receiving is not None:
                awake_row = (
                    receiving if awake_row is None else awake_row & receiving
                )
            if occ_hist is not None:
                occ_hist.observe(cohort.size)
            self._decode_cohort(
                cohort, decoded, awake_row, event + offset, fstate
            )
        return len(cohorts)

    def _decode_cohort(self, cohort, decoded, awake, event, fstate) -> None:
        budget = self.budget
        if cohort.size == 1:
            tx = int(cohort[0])
            lo = budget.indptr[tx]
            hi = budget.indptr[tx + 1]
            rx = budget.indices[lo:hi]
            power = budget.power_dbm[lo:hi]
            if self._hashed_fading:
                power = power + self.fading.link_db(event, np.int64(tx), rx)
            det = power >= self.threshold_dbm
            if awake is not None:
                det &= awake[rx]
            pos = np.flatnonzero(det)
            if fstate is not None and pos.size:
                lost = fstate.lose_beacons(event, np.int64(tx), rx[pos])
                pos = pos[~lost]
            decoded[lo + pos] = True
            return
        epos, tx_e = gather_rows(budget.indptr, cohort)
        rx_e = budget.indices[epos]
        power_e = budget.power_dbm[epos]
        if self._hashed_fading:
            power_e = power_e + self.fading.link_db(event, tx_e, rx_e)
        det = power_e >= self.threshold_dbm
        epos = epos[det]
        tx_e = tx_e[det]
        rx_e = rx_e[det]
        power_e = power_e[det]
        if rx_e.size == 0:
            return
        order = np.lexsort((tx_e, -power_e, rx_e))
        rx_s = rx_e[order]
        pw_s = power_e[order]
        epos_s = epos[order]
        seg_starts = np.flatnonzero(
            np.concatenate(([True], rx_s[1:] != rx_s[:-1]))
        )
        seg_rx = rx_s[seg_starts]
        seg_counts = np.diff(np.concatenate((seg_starts, [rx_s.size])))
        signal = np.power(10.0, pw_s[seg_starts] / 10.0)
        total = np.add.reduceat(np.power(10.0, pw_s / 10.0), seg_starts)
        noise = np.maximum(total - signal, 1e-30)
        with np.errstate(divide="ignore", invalid="ignore"):
            sir_db = 10.0 * np.log10(np.maximum(signal, 1e-300) / noise)
        decodable = (seg_counts == 1) | (sir_db >= self.capture_margin_db)
        is_tx = np.zeros(self.n, dtype=bool)
        is_tx[cohort] = True
        decodable &= ~is_tx[seg_rx]
        if awake is not None:
            decodable &= awake[seg_rx]
        win = seg_starts[decodable]
        if fstate is not None and win.size:
            lost = fstate.lose_beacons(event, tx_e[order][win], rx_s[win])
            win = win[~lost]
        decoded[epos_s[win]] = True


def never_densified(net: D2DNetwork) -> bool:
    """True while the network's dense helper views were never built."""
    return net._link_budget is None


def dense_mesh_sync(
    config: PaperConfig, stream: str, *, collision_policy: str | None = None
) -> PulseSyncResult:
    """The mesh-wide sync run, replayed on :class:`DensePulseSyncKernel`.

    Same stream, same counter-hashed fading and fault plan as the CSR
    kernel run the simulations make, so the results must agree bitwise.
    """
    twin = D2DNetwork(config)
    lb = twin.link_budget
    kernel = DensePulseSyncKernel(
        lb.mean_rx_dbm,
        twin.adjacency,
        LinearPRC.from_dissipation(config.dissipation, config.epsilon),
        period_ms=config.period_ms,
        threshold_dbm=config.threshold_dbm,
        refractory_ms=config.refractory_ms,
        sync_window_ms=config.sync_window_ms,
        fading=lb.fading,
        collision_policy=collision_policy or config.collision_policy,
    )
    return kernel.run(
        twin.streams.stream(stream),
        max_time_ms=config.max_time_ms,
        faults=FaultPlan.from_config(config),
    )


def survivors_mst(
    config: PaperConfig, dead: np.ndarray | None = None
) -> list[tuple[int, int]]:
    """Kruskal maximum spanning tree over the survivors' dense views."""
    twin = D2DNetwork(config)
    adj = twin.adjacency.copy()
    if dead is not None and dead.any():
        adj[dead, :] = False
        adj[:, dead] = False
    return maximum_spanning_tree(twin.weights, adj)


# ----------------------------------------------------------------------
# the network build, streamed pair by pair
# ----------------------------------------------------------------------
_HALF_OFFSETS = ((0, 1), (1, -1), (1, 0), (1, 1))


def streamed_pair_chunks(
    positions: np.ndarray,
    radius_m: float,
    *,
    max_chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
):
    """Candidate pairs ``(i, j)``, ``i < j``, as repeat/tile index chunks.

    Cells of side ``radius_m``; each cell's in-cell triangle and its
    half-neighbourhood products, flushed every ``max_chunk_pairs``
    pairs.  Shares no code with :mod:`repro.radio.spatial`.
    """
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    if radius_m <= 0 or n < 2:
        return
    origin = positions.min(axis=0)
    cx = np.floor((positions[:, 0] - origin[0]) / radius_m).astype(np.int64)
    cy = np.floor((positions[:, 1] - origin[1]) / radius_m).astype(np.int64)
    members: dict[tuple[int, int], list[int]] = {}
    for node, key in enumerate(zip(cx.tolist(), cy.tolist())):
        members.setdefault(key, []).append(node)
    buf_i: list[np.ndarray] = []
    buf_j: list[np.ndarray] = []
    buffered = 0
    for (x, y) in sorted(members):
        own = np.asarray(members[x, y], dtype=np.int64)
        il, jl = np.triu_indices(own.size, k=1)
        blocks = [(own[il], own[jl])]
        for dx, dy in _HALF_OFFSETS:
            other = members.get((x + dx, y + dy))
            if other is not None:
                other = np.asarray(other, dtype=np.int64)
                a = np.repeat(own, other.size)
                b = np.tile(other, own.size)
                blocks.append((np.minimum(a, b), np.maximum(a, b)))
        for a, b in blocks:
            buf_i.append(a)
            buf_j.append(b)
            buffered += a.size
            if buffered >= max_chunk_pairs:
                yield np.concatenate(buf_i), np.concatenate(buf_j)
                buf_i, buf_j, buffered = [], [], 0
    if buffered:
        yield np.concatenate(buf_i), np.concatenate(buf_j)


def streamed_links(
    positions, pathloss, *, tx_power_dbm, floor_dbm, shadowing, radius_m,
    max_d2=None, ids=None, keep_pair=None,
):
    """Every candidate pair's full mean power, then the floor.

    ``keep_pair(i, j)`` filters candidate index pairs before distances
    are taken.  Returns ``(candidates, lo, hi, power)``, ``lo``/``hi``
    the ids in ``(lo, hi)`` order, ``candidates`` the pairs within
    ``max_d2`` (default ``radius_m²``).
    """
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    ids = np.arange(n, dtype=np.int64) if ids is None else np.asarray(ids)
    max_d2 = radius_m * radius_m if max_d2 is None else max_d2
    x, y = positions[:, 0], positions[:, 1]
    candidates = 0
    out = []
    for ci, cj in streamed_pair_chunks(positions, radius_m):
        if keep_pair is not None:
            keep = keep_pair(ci, cj)
            ci, cj = ci[keep], cj[keep]
        dx = x[ci] - x[cj]
        dy = y[ci] - y[cj]
        d2 = dx * dx + dy * dy
        near = d2 <= max_d2
        ci, cj = ci[near], cj[near]
        candidates += int(ci.size)
        a, b = ids[ci], ids[cj]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        loss = np.asarray(pathloss.loss_db(np.sqrt(d2[near])), dtype=float)
        power = tx_power_dbm - loss - shadowing.link_db(lo, hi)
        ok = power >= floor_dbm
        out.append((lo[ok], hi[ok], power[ok]))
    if not out:
        empty = np.empty(0, dtype=np.int64)
        return candidates, empty, empty.copy(), np.empty(0, dtype=float)
    lo, hi, power = (np.concatenate(col) for col in zip(*out))
    return candidates, lo, hi, power


def lexsort_csr(n: int, tx: np.ndarray, rx: np.ndarray, *arrays: np.ndarray):
    """CSR by a two-key ``lexsort`` on ``(tx, rx)`` — stable, so it also
    orders duplicate edges by input position."""
    tx = np.asarray(tx, dtype=np.int64)
    rx = np.asarray(rx, dtype=np.int64)
    order = np.lexsort((rx, tx))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tx, minlength=n), out=indptr[1:])
    return indptr, rx[order], tuple(a[order] for a in arrays)


def streamed_budget_csr(budget):
    """The radio-graph CSR of ``budget``, rebuilt by the streamed path
    from the budget's positions, channel models and candidate radius."""
    r = budget.r_max_m
    _, i, j, p = streamed_links(
        budget.positions,
        budget.pathloss,
        tx_power_dbm=budget.tx_power_dbm,
        floor_dbm=budget.threshold_dbm - budget.headroom_db,
        shadowing=budget.shadowing,
        radius_m=r,
        max_d2=r * r * (1.0 + 1e-12),
    )
    indptr, indices, (power,) = lexsort_csr(
        budget.n, np.concatenate((i, j)), np.concatenate((j, i)),
        np.concatenate((p, p)),
    )
    return indptr, indices, power


def streamed_cross_links(city, positions_city, ids, tile_ids, radius_m, *, owner=None):
    """:func:`repro.shard.halo.cross_links` by the streamed path."""
    from repro.core.network import _pathloss_for
    from repro.radio.shadowing import HashedShadowing, NoShadowing

    cfg = city.base
    tiles = np.asarray(tile_ids, dtype=np.int64)

    def keep_pair(ci, cj):
        keep = tiles[ci] != tiles[cj]
        if owner is not None:
            keep &= np.minimum(tiles[ci], tiles[cj]) == owner
        return keep

    shadowing = (
        HashedShadowing(
            cfg.shadowing_sigma_db, city.channel_key(),
            clip_sigma=cfg.shadow_clip_sigma,
        )
        if cfg.shadowing_sigma_db > 0
        else NoShadowing()
    )
    candidates, gi, gj, power = streamed_links(
        positions_city,
        _pathloss_for(cfg),
        tx_power_dbm=cfg.tx_power_dbm,
        floor_dbm=cfg.threshold_dbm,
        shadowing=shadowing,
        radius_m=radius_m,
        ids=np.asarray(ids, dtype=np.int64),
        keep_pair=keep_pair,
    )
    order = np.lexsort((gj, gi))
    return candidates, gi[order], gj[order], power[order]


def cross_pairs(
    positions_city, ids, tile_ids, radius_m, *, owner=None,
    max_chunk_pairs=DEFAULT_CHUNK_PAIRS,
):
    """All cross-tile pairs within ``radius_m`` (owned by ``owner``, the
    pair's smaller tile id, if set) as ``(gi, gj, dist)`` with
    ``gi < gj``, sorted by ``(gi, gj)``.

    The brute partition reference for :func:`repro.shard.halo.
    cross_links`: it scans every candidate pair of the whole input's
    cell grid (:func:`~repro.radio.spatial.pair_slices` without
    ``split``) and masks away same-tile and unowned pairs
    (:func:`_cross_mask`), where the program evaluates bipartite tile
    pairs.
    """
    positions = np.asarray(positions_city, dtype=float)
    ids = np.asarray(ids, dtype=np.int64)
    mask = _cross_mask(np.asarray(tile_ids, dtype=np.int64), owner)
    out_i, out_j, out_d = [], [], []
    r2 = radius_m * radius_m
    for rows, cols, d2, valid in pair_slices(
        positions, radius_m, max_chunk_pairs=max_chunk_pairs
    ):
        near = (d2 <= r2) & mask(rows, cols)
        if valid is not None:
            near &= valid
        r, c = np.nonzero(near)
        a, b = ids[rows[r]], ids[cols[c]]
        out_i.append(np.minimum(a, b))
        out_j.append(np.maximum(a, b))
        out_d.append(np.sqrt(d2[r, c]))
    if not out_i:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), np.empty(0, dtype=float)
    gi, gj, dist = (np.concatenate(col) for col in (out_i, out_j, out_d))
    order = np.argsort((gi << 32) | gj)
    return gi[order], gj[order], dist[order]


def _cross_mask(tiles, owner):
    """Block-slice mask of cross-tile pairs (owned by ``owner`` if set)."""

    def mask(rows, cols):
        tr = tiles[rows][:, None]
        tc = tiles[cols][None, :]
        keep = tr != tc
        if owner is not None:
            keep &= np.minimum(tr, tc) == owner
        return keep

    return mask


def lexsort_heavy_edge_forest(budget, node_mask=None) -> list[tuple[int, int]]:
    """Each node's heaviest link by a three-key ``lexsort`` (ties →
    lowest neighbour id), deduplicated: the forest FST starts from."""
    rows = budget.link_row_ids
    nbr = budget.link_indices
    w = budget.link_power_dbm
    if node_mask is not None:
        keep = node_mask[rows] & node_mask[nbr]
        rows, nbr, w = rows[keep], nbr[keep], w[keep]
    if rows.size == 0:
        return []
    order = np.lexsort((nbr, -w, rows))
    r_sorted = rows[order]
    first = np.concatenate(([True], r_sorted[1:] != r_sorted[:-1]))
    sel = order[first]
    us, vs = rows[sel], nbr[sel]
    return sorted({(int(min(u, v)), int(max(u, v))) for u, v in zip(us, vs)})


def presorted_boruvka_csr(
    n: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    edge_weight: np.ndarray,
    *,
    max_phases: int | None = None,
    initial_edges: list[tuple[int, int]] | None = None,
) -> BoruvkaResult:
    """CSR Borůvka whose per-node candidates come from one up-front
    ``lexsort`` (the scan the segmented argmax replaced); shares only the
    phase driver with :func:`~repro.spanningtree.boruvka.
    distributed_boruvka_csr`."""
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    edge_weight = np.asarray(edge_weight, dtype=float)
    if n <= 0:
        raise ValueError("graph must have at least one node")
    if max_phases is None:
        max_phases = _default_max_phases(n)
    tx = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))

    # sorted directed codes for the initial-edge membership check
    codes = (tx.astype(np.uint64) << np.uint64(32)) | indices.astype(np.uint64)

    def edge_exists(u: int, v: int) -> bool:
        code = (np.uint64(u) << np.uint64(32)) | np.uint64(v)
        pos = int(np.searchsorted(codes, code))
        return pos < codes.size and codes[pos] == code

    frags = FragmentSet(n)
    _seed_fragments(frags, initial_edges, edge_exists)
    counter = MessageCounter()

    # one up-front sort by (tx, weight desc, neighbour id asc): each
    # phase then just takes the first still-outgoing edge per node —
    # O(E) per phase instead of an O(E log E) lexsort per phase
    order0 = np.lexsort((indices, -edge_weight, tx))
    t_s = tx[order0]
    r_s = indices[order0]
    w_s = edge_weight[order0]

    def candidates(comp: np.ndarray):
        idx = np.flatnonzero(comp[t_s] != comp[r_s])
        if idx.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.empty(0, dtype=float)
        t = t_s[idx]
        # first surviving edge per node = its heaviest outgoing edge
        # (ties → lowest neighbour id, as in the dense argmax scan)
        first = np.concatenate(([True], t[1:] != t[:-1]))
        sel = idx[first]
        return t_s[sel], r_s[sel], w_s[sel]

    phases = _drive_phases(n, frags, counter, max_phases, candidates)
    return BoruvkaResult(
        edges=frags.all_tree_edges(),
        phases=phases,
        counter=counter,
        fragments=frags.fragments(),
    )
