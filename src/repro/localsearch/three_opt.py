"""3-opt local search (all reconnection types).

The paper's introduction frames LK as the answer to k-opt's cost
explosion ("for most applications k is limited to k <= 3"); this module
supplies that k=3 reference point.  For each triple of removed edges
``(a,b) (c,d) (e,f)`` (b = next(a) etc., positions ordered a < c < e)
the seven proper reconnections reduce, after symmetry, to four move
types on an array tour:

* type 1 — reverse segment b..c                      (a 2-opt move)
* type 2 — reverse segment d..e                      (a 2-opt move)
* type 3 — reverse both segments
* type 4 — exchange the segments without reversal    (the or-3opt /
  double-bridge-like pure reorder; the only one not expressible as
  2-opts without intermediate worsening)

Candidates come from the pluggable provider layer with gain-based
pruning, and the shared engine's don't-look queue keeps re-optimization
local — the same machinery as :mod:`repro.localsearch.two_opt`, one
level up.
"""

from __future__ import annotations

import numpy as np

from ..tsp.candidates import KNNCandidates, as_candidate_set
from ..tsp.tour import Tour
from ..utils.sanitize import check_tour, sanitize_enabled
from ..utils.work import WorkMeter
from .engine import (
    DistView,
    DontLookQueue,
    OpStats,
    register_operator,
    resolve_kernel,
)

__all__ = ["three_opt"]


def _apply_type4(tour: Tour, pa: int, rc: int, re: int) -> None:
    """Reconnect a-d..e-b..c-f: segment exchange without reversal.

    ``rc``/``re`` are the positions of c and e relative to a (so b..c is
    the relative range 1..rc and d..e is rc+1..re).  Rotates the array so
    b sits at index 0, then swaps the two blocks — O(n), like the
    double-bridge it generalizes.
    """
    n = tour.n
    order = np.roll(tour.order, -(pa + 1) % n)  # b at 0, a at n-1
    seg1 = order[0:rc].copy()        # b..c
    seg2 = order[rc:re].copy()       # d..e
    order[0:re] = np.concatenate([seg2, seg1])
    tour.order = order
    tour.position[order] = np.arange(n, dtype=np.intp)


def _two_opt_by_edges(tour: Tour, p: int, q: int, r: int, s: int) -> int:
    """Apply the unique feasible 2-opt removing tour edges {p,q}, {r,s}.

    Orientation-safe: reads successor relations fresh, so it is immune
    to direction flips caused by earlier shorter-side reversals.
    Returns the number of cities moved.
    """
    if tour.next(p) != q:
        p, q = q, p
    if tour.next(r) != s:
        r, s = s, r
    assert tour.next(p) == q and tour.next(r) == s, "edges not in tour"
    return tour.reverse_segment(tour.position[q], tour.position[r])


@register_operator("three_opt")
def three_opt(tour: Tour, neighbor_k: int = 6,
              meter: WorkMeter | None = None, *, candidates=None,
              stats: OpStats | None = None,
              view: DistView | None = None,
              kernel: str | None = None) -> int:
    """Optimize ``tour`` in place to 3-opt optimality over the candidates.

    First-improvement over the four move types; returns the total gain.
    O(n * k^2) per sweep — noticeably slower than LK for the same
    quality, which is precisely the comparison the bench draws.

    ``kernel`` is forwarded to the embedded 2-opt passes; 3-opt has no
    compiled loop, so both tiers run the row loops.
    """
    from .two_opt import two_opt

    kernel = resolve_kernel(kernel)
    inst = tour.instance
    n = tour.n
    if n < 6:
        return 0
    meter = meter if meter is not None else WorkMeter()
    stats = stats if stats is not None else OpStats()
    provider = (
        as_candidate_set(candidates) if candidates is not None
        else KNNCandidates(min(neighbor_k, n - 1))
    )
    neighbor_rows = provider.row_lists(inst)
    view = view if view is not None else DistView(inst)
    rows = view.rows
    d = view.dist

    # 3-opt subsumes 2-opt; reach the 2-opt fixpoint first so the triple
    # scan below only hunts for genuine 3-exchanges.
    total_2opt = two_opt(tour, meter=meter, candidates=provider,
                         stats=stats, view=view, kernel=kernel)

    queue = DontLookQueue(n)
    queue.fill(range(n))
    total = 0
    scanned = 0
    moves = 0
    swaps = 0

    def try_city(a: int) -> int:
        """Search one improving 3-opt move with first removed edge at
        ``(a, next(a))``; returns the (positive) gain or 0."""
        nonlocal scanned, swaps
        pa = int(tour.position[a])
        b = tour.next(a)
        da = rows[a]
        d_ab = da[b]
        for c in neighbor_rows[a]:
            meter.tick()
            scanned += 1
            if c == a or c == b:
                continue
            d_cd = d(c, tour.next(c))
            g1 = d_ab + d_cd
            d_ac = da[c]
            if d_ac >= g1:
                continue
            for e in neighbor_rows[b]:
                meter.tick()
                scanned += 1
                if e in (a, b, c):
                    continue
                f = tour.next(e)
                if f in (a, c):
                    continue
                # Order the three cut positions along the tour from a.
                pc = int(tour.position[c])
                pe = int(tour.position[e])
                rc = (pc - pa) % n
                re = (pe - pa) % n
                if not (0 < rc < re):
                    continue
                dd = tour.next(c)
                d_ef = d(e, f)
                removed = d_ab + d_cd + d_ef
                # The four reconnections.
                moves_considered = (
                    # type 1: a-c b-d, e-f kept -> plain 2-opt on (a,c)
                    (d_ac + d(b, dd) + d_ef, 1),
                    # type 2: c-e d-f, a-b kept -> 2-opt on (c,e)
                    (d_ab + d(c, e) + d(dd, f), 2),
                    # type 3: a-c b-e d-f (both reversals)
                    (d_ac + d(b, e) + d(dd, f), 3),
                    # type 4: a-d e-b c-f (segment exchange)
                    (d(a, dd) + d(e, b) + d(c, f), 4),
                )
                for added, move in moves_considered:
                    delta = added - removed
                    if delta < 0:
                        gain = -delta
                        if move == 1:
                            moved = tour.reverse_segment(
                                (pa + 1) % n, pc)
                        elif move == 2:
                            moved = tour.reverse_segment(
                                (pc + 1) % n, pe)
                        elif move == 3:
                            # First reversal may flip array direction
                            # (shorter-side trick), so the second
                            # exchange goes by edges, not positions.
                            moved = tour.reverse_segment((pa + 1) % n, pc)
                            moved += _two_opt_by_edges(tour, b, dd, e, f)
                        else:
                            _apply_type4(tour, pa, rc, re)
                            moved = re
                        meter.tick(moved + 1)
                        swaps += moved
                        tour.length += delta
                        for city in (a, b, c, dd, e, f):
                            queue.push(int(city))
                        return gain
        return 0

    while queue and not meter.exhausted():
        a = queue.pop()
        gain = try_city(a)
        if gain > 0:
            total += gain
            moves += 1
            queue.push(a)
            # Interleave: a 3-exchange may open plain 2-opt gains.
            total += two_opt(tour, meter=meter, candidates=provider,
                             stats=stats, view=view, kernel=kernel)
    stats.calls += 1
    stats.candidate_scans += scanned
    stats.moves += moves
    stats.segment_swaps += swaps
    stats.queue_wakeups += queue.wakeups
    stats.gain += total
    if sanitize_enabled():
        check_tour(tour, "three_opt")
    return total + total_2opt
