"""2-opt local search with neighbour lists and don't-look bits.

Kept separate from the LK engine both as a baseline for tests (anything LK
produces must be 2-opt-optimal w.r.t. the same candidate lists) and as a
cheap repair step for the multilevel baseline.  Built on the shared
engine layer: row-cached distances (:class:`~repro.localsearch.engine.DistView`),
the don't-look queue, per-call :class:`~repro.localsearch.engine.OpStats`,
and pluggable candidate sets.
"""

from __future__ import annotations

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

__all__ = ["two_opt"]


@register_operator("two_opt")
def two_opt(tour: Tour, neighbor_k: int = 8, meter: WorkMeter | None = None,
            *, candidates=None, stats: OpStats | None = None,
            view: DistView | None = None, kernel: str | None = None) -> int:
    """Optimize ``tour`` in place to 2-opt optimality over the candidates.

    Returns the total improvement (non-negative).  Interruptible: stops at
    a move boundary once ``meter`` is exhausted.  ``candidates`` is a
    :class:`~repro.tsp.candidates.CandidateSet`, registry name, or raw
    array; the default is plain k-NN of width ``neighbor_k``.  ``view``
    shares one :class:`~repro.localsearch.engine.DistView` across the
    operators of a pipeline.  ``kernel`` names the engine tier
    (``"row"``/``"compiled"``, default via
    :func:`~repro.localsearch.engine.resolve_kernel`); 2-opt has no
    compiled loop, so both run the row loops.
    """
    resolve_kernel(kernel)  # rejects unknown tiers
    inst = tour.instance
    n = tour.n
    meter = meter if meter is not None else WorkMeter()
    stats = stats if stats is not None else OpStats()
    provider = (
        as_candidate_set(candidates) if candidates is not None
        else KNNCandidates(min(neighbor_k, n - 1))
    )
    view = view if view is not None else DistView(inst)
    neighbor_rows = provider.row_lists(inst)
    rows = view.rows

    queue = DontLookQueue(n)
    queue.fill(range(n))
    total = 0
    scanned = 0
    moves = 0
    swaps = 0

    # reverse_segment mutates order/position in place, so the locals stay
    # aliases of the live arrays across moves.
    order, position = tour.order, tour.position
    pos_item, order_item = position.item, order.item
    push = queue.push

    while queue and not meter.exhausted():
        a = queue.pop()
        nbr_a = neighbor_rows[a]
        da = rows[a]
        improved_here = True
        while improved_here and not meter.exhausted():
            improved_here = False
            for b, forward in (
                (tour.next(a), True), (tour.prev(a), False)
            ):
                # One row per endpoint, successor lookup inlined, work
                # ticked in one batch per scan.
                d_ab = da[b]
                db = rows[b]
                cnt = 0
                for c in nbr_a:
                    cnt += 1
                    d_ac = da[c]
                    if d_ac >= d_ab:
                        break  # neighbours sorted by distance
                    if c == b:
                        continue
                    # Orient: the move removes (a,b) and (c,d) where d is
                    # c's neighbour on the b side of a.
                    if forward:
                        p = pos_item(c) + 1
                        d_city = order_item(p if p < n else 0)
                    else:
                        d_city = order_item(pos_item(c) - 1)
                    if d_city == a:
                        continue
                    delta = d_ac + db[d_city] - d_ab - rows[c][d_city]
                    if delta < 0:
                        if forward:
                            # remove (a->b), (c->d): reverse b..c
                            moved = tour.reverse_segment(
                                position[b], position[c]
                            )
                        else:
                            # remove (b->a), (d->c): reverse a..d
                            moved = tour.reverse_segment(
                                position[a], position[d_city]
                            )
                        meter.tick(moved if moved else 1)
                        swaps += moved
                        moves += 1
                        tour.length += delta
                        total -= delta
                        for city in (a, b, c, d_city):
                            push(int(city))
                        improved_here = True
                        break
                meter.tick(cnt)
                scanned += cnt
                if improved_here:
                    break
    stats.calls += 1
    stats.candidate_scans += scanned
    stats.moves += moves
    stats.segment_swaps += swaps
    stats.queue_wakeups += queue.wakeups
    stats.gain += total
    if sanitize_enabled():
        check_tour(tour, "two_opt")
    return total
