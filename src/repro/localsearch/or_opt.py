"""Or-opt local search: relocate short segments.

Moves segments of 1-3 consecutive cities to a better position between a
nearby city and its successor.  Complements 2-opt (which cannot perform
such relocations without two moves) and serves as the refinement step of
the multilevel baseline's cheaper configurations.  Built on the shared
engine layer (row-cached distances, don't-look queue, per-call stats,
pluggable candidates).
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

__all__ = ["or_opt"]


@register_operator("or_opt")
def or_opt(tour: Tour, neighbor_k: int = 8, max_seg: int = 3,
           meter: WorkMeter | None = None, *, candidates=None,
           stats: OpStats | None = None,
           view: DistView | None = None, kernel: str | None = None) -> int:
    """Optimize ``tour`` in place with Or-opt moves; returns improvement.

    First-improvement over segment lengths 1..max_seg, insertion points
    drawn from the candidate lists of the segment's first city
    (``candidates`` as in :func:`repro.localsearch.two_opt.two_opt`;
    default k-NN of width ``neighbor_k``).  ``kernel`` names the engine
    tier as in :func:`~repro.localsearch.two_opt.two_opt`.
    """
    resolve_kernel(kernel)  # rejects unknown tiers
    inst = tour.instance
    n = tour.n
    if max_seg >= n - 2:
        raise ValueError("segment length too large for instance size")
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

    while queue and not meter.exhausted():
        s0 = queue.pop()
        # A successful move always breaks back to the pop loop, so the
        # tour (and these locals) are stable across segment lengths.
        order, position = tour.order, tour.position
        pos_item, order_item = position.item, order.item
        p0 = pos_item(s0)
        nbr_s0 = neighbor_rows[s0]
        seg = [s0]
        moved = False
        for seg_len in range(1, max_seg + 1):
            if seg_len > 1:
                seg.append(order_item((p0 + seg_len - 1) % n))
            last = seg[-1]
            before = order_item(p0 - 1 if p0 else n - 1)
            after = order_item((p0 + seg_len) % n)
            if before in seg or after in seg:
                continue
            # Inlined successor lookup, orientation test unrolled, work
            # ticked in one batch per scan.
            removed = (
                rows[before][s0]
                + rows[last][after]
                - rows[before][after]
            )
            cnt = 0
            for c in nbr_s0:
                cnt += 1
                if c in seg or c == before:
                    continue
                p = pos_item(c) + 1
                cn = order_item(p if p < n else 0)
                if cn in seg:
                    continue
                dc = rows[c]
                d_cn = rows[cn]
                base = dc[cn] + removed
                # Insert the segment (possibly reversed) after c; forward
                # orientation is tried first.
                delta = dc[s0] + d_cn[last] - base
                if delta >= 0:
                    delta = dc[last] + d_cn[s0] - base
                    if delta >= 0:
                        continue
                    seg.reverse()
                _do_relocate(tour, seg, c)
                meter.tick(n // 4 + 1)
                swaps += len(seg)
                moves += 1
                tour.length += delta
                total -= delta
                for city in (before, after, c, cn, *seg):
                    queue.push(int(city))
                moved = True
                break
            meter.tick(cnt)
            scanned += cnt
            if moved:
                break
    stats.calls += 1
    stats.candidate_scans += scanned
    stats.moves += moves
    stats.segment_swaps += swaps
    stats.queue_wakeups += queue.wakeups
    stats.gain += total
    if sanitize_enabled():
        check_tour(tour, "or_opt")
    return total


def _do_relocate(tour: Tour, seg: list[int], after_city: int) -> None:
    """Reinsert ``seg`` (in the given orientation) right after
    ``after_city``, vectorized: drop the segment's slots, split the rest
    at the insertion point, concatenate."""
    position = tour.position
    keep = np.ones(tour.n, dtype=bool)
    seg_arr = np.asarray(seg, dtype=np.intp)
    keep[position[seg_arr]] = False
    rest = tour.order[keep]
    cut = int(np.nonzero(rest == after_city)[0][0]) + 1
    tour.order = np.concatenate([rest[:cut], seg_arr, rest[cut:]])
    position[tour.order] = tour._iota
