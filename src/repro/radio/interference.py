"""Intra-codec interference within a slot: the capture rule.

When several devices transmit the *same* RACH codec in the same slot
(which is exactly what happens as a firefly group approaches synchrony),
a receiver sees a superposition.  To learn *who* transmitted, it must
decode the strongest copy against the sum of the rest — the classic
capture effect.  :func:`capture` applies that rule to every receiver of
one slot at once; beacon discovery and the pulse kernel's ``"capture"``
policy both call it.

The pulse kernel offers three detection policies (:data:`POLICIES`), so
the paper's claim that superposed pulses still synchronize ("as per
firefly algorithm property, this condition even hold[s]") can be tested:

* ``"tolerant"`` (paper's assumption): a receiver that detects at least
  one same-codec transmission counts it as one received pulse.
* ``"capture"``: the strongest transmission must exceed the sum of the
  rest by the capture margin.
* ``"destructive"``: any same-codec collision destroys all copies — the
  worst case, used for ablation.
"""

from __future__ import annotations

import numpy as np

#: Pulse-detection policies for superposed same-instant transmissions.
POLICIES = ("tolerant", "capture", "destructive")


def capture(
    rx: np.ndarray,
    tx: np.ndarray,
    power_dbm: np.ndarray,
    margin_db: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Resolve one slot's detected copies, receiver by receiver.

    Parameters
    ----------
    rx, tx, power_dbm:
        One entry per detected copy (already above threshold): its
        receiver, transmitter and received power.  ``rx`` may be any
        integer segment key (beacon discovery races a block of cohorts
        at once keyed by ``cohort · n + receiver``).
    margin_db:
        SIR the strongest copy needs when several copies land together;
        a lone copy always decodes.

    Returns
    -------
    order:
        Permutation sorting the copies by receiver, then power
        descending, then lowest transmitter (full ties keep input
        order) — so the first copy of each receiver's segment is its
        capture winner.
    starts, counts:
        Per receiver segment: its first position in ``order`` and its
        number of copies.  ``rx[order[starts]]`` are the receivers and
        ``tx[order[starts]]`` the winners.
    decodable:
        Per segment: the winner is alone or clears ``margin_db`` over
        the superposed rest.

    The sort is light: one stable argsort by receiver (cheap on input
    already grouped by receiver), after which a lone copy needs
    nothing, a two-copy segment swaps its pair when the second copy wins
    (its ``reduceat`` sum is bitwise unchanged, a two-term float sum
    being commutative), and only the copies of segments with three or
    more get the full ``(tx, −power, rx)`` lexsort.
    """
    rx = np.asarray(rx)
    tx = np.asarray(tx)
    power_dbm = np.asarray(power_dbm, dtype=float)
    if not rx.shape == tx.shape == power_dbm.shape:
        raise ValueError("rx, tx and power_dbm must have equal shape")
    order = np.argsort(rx, kind="stable")
    if order.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return order, empty, empty, np.zeros(0, dtype=bool)
    rx_s = rx[order]
    starts = np.flatnonzero(np.concatenate(([True], rx_s[1:] != rx_s[:-1])))
    counts = np.diff(np.concatenate((starts, [rx_s.size])))
    first = starts[counts == 2]
    if first.size:
        a, b = order[first], order[first + 1]
        pa, pb = power_dbm[a], power_dbm[b]
        swap = (pb > pa) | ((pb == pa) & (tx[b] < tx[a]))
        order[first[swap]] = b[swap]
        order[first[swap] + 1] = a[swap]
    big = counts >= 3
    if big.any():
        pos = np.flatnonzero(np.repeat(big, counts))
        sub = order[pos]
        order[pos] = sub[np.lexsort((tx[sub], -power_dbm[sub], rx[sub]))]
    pw_s = power_dbm[order]
    signal = np.power(10.0, pw_s[starts] / 10.0)
    total = np.add.reduceat(np.power(10.0, pw_s / 10.0), starts)
    noise = np.maximum(total - signal, 1e-30)
    with np.errstate(divide="ignore", invalid="ignore"):
        sir_db = 10.0 * np.log10(np.maximum(signal, 1e-300) / noise)
    decodable = (counts == 1) | (sir_db >= margin_db)
    return order, starts, counts, decodable
