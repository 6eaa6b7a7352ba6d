"""Two-level hierarchical collectives decomposed via ``hardware.topology``.

The group is partitioned by node (through the endpoint's rank→PE→node
mapping, i.e. the same ``Machine`` topology the simulator routes over).
Each phase runs in a sub-context that remaps ranks and namespaces wire
tags, with a fixed intra/inter span kind for per-phase blame:

* **allreduce** — pipelined chain-reduce to each node leader over NVLink,
  the leaders run the *cheapest flat* allreduce across the NIC (picked by
  the same cost model, restricted to flat algorithms), then a pipelined
  ring bcast fans the result back out over NVLink;
* **bcast** — leaders first (binomial over the NIC, rooted at the true
  root's node), then intra-node ring;
* **reduce** — intra-node chain to the leaders, then the leaders' flat
  reduce to the root.

The predicted cost is assembled from the same three phases, so the
hierarchy competes in selection on equal terms with the flat algorithms
and wins exactly where the link model says it should (many ranks per node,
messages large enough that the NIC bandwidth term dominates).
"""

from __future__ import annotations

from typing import List

from repro.collectives.ops import ReduceOp
from repro.collectives.selection import (
    AlgorithmSpec,
    CollectiveCostModel,
    register,
    select,
)

# phase indices namespace the wire tags of each stage (CollContext shifts
# them above the step bits)
_PHASE_INTRA_IN = 1
_PHASE_INTER = 2
_PHASE_INTRA_OUT = 3


def _node_groups(ctx) -> List[List[int]]:
    """Ranks grouped by node, each group in rank order, groups ordered by
    their first member — identical on every rank by construction."""
    groups = {}
    for r in range(ctx.size):
        groups.setdefault(ctx.node_of(r), []).append(r)
    return [groups[n] for n in sorted(groups, key=lambda n: groups[n][0])]


def _my_group(groups: List[List[int]], rank: int) -> List[int]:
    for g in groups:
        if rank in g:
            return g
    raise AssertionError("rank missing from its own node grouping")


def _phase(collective: str, sub, nbytes: int):
    """Pick the cheapest flat algorithm for one phase — every rank of the
    sub-group derives the same choice from the same model."""
    return select(collective, sub.model, nbytes, hierarchical=False)


def run_hier_allreduce(ctx, buf, nbytes: int, op: ReduceOp):
    groups = _node_groups(ctx)
    mine = _my_group(groups, ctx.rank)
    leaders = [g[0] for g in groups]
    if len(mine) > 1:
        sub = ctx.sub(mine, _PHASE_INTRA_IN, "intra")
        yield from _phase("reduce", sub, nbytes).run(sub, buf, nbytes, op, 0)
    if ctx.rank == mine[0] and len(leaders) > 1:
        sub = ctx.sub(leaders, _PHASE_INTER, "inter")
        yield from _phase("allreduce", sub, nbytes).run(sub, buf, nbytes, op)
    if len(mine) > 1:
        sub = ctx.sub(mine, _PHASE_INTRA_OUT, "intra")
        yield from _phase("bcast", sub, nbytes).run(sub, buf, nbytes, 0)


def run_hier_bcast(ctx, buf, nbytes: int, root: int):
    groups = _node_groups(ctx)
    mine = _my_group(groups, ctx.rank)
    # the true root leads its node so the inter phase starts from the data
    leaders = [root if root in g else g[0] for g in groups]
    my_leader = leaders[groups.index(mine)]
    if ctx.rank == my_leader and len(leaders) > 1:
        sub = ctx.sub(leaders, _PHASE_INTER, "inter")
        yield from _phase("bcast", sub, nbytes).run(
            sub, buf, nbytes, leaders.index(root)
        )
    if len(mine) > 1:
        sub = ctx.sub(mine, _PHASE_INTRA_OUT, "intra")
        yield from _phase("bcast", sub, nbytes).run(
            sub, buf, nbytes, mine.index(my_leader)
        )


def run_hier_reduce(ctx, buf, nbytes: int, op: ReduceOp, root: int):
    groups = _node_groups(ctx)
    mine = _my_group(groups, ctx.rank)
    leaders = [root if root in g else g[0] for g in groups]
    my_leader = leaders[groups.index(mine)]
    if len(mine) > 1:
        sub = ctx.sub(mine, _PHASE_INTRA_IN, "intra")
        yield from _phase("reduce", sub, nbytes).run(
            sub, buf, nbytes, op, mine.index(my_leader)
        )
    if ctx.rank == my_leader and len(leaders) > 1:
        sub = ctx.sub(leaders, _PHASE_INTER, "inter")
        yield from _phase("reduce", sub, nbytes).run(
            sub, buf, nbytes, op, leaders.index(root)
        )


# -- costs (same three phases, same sub-models) -------------------------------------
def _flat_cost(collective: str, m: CollectiveCostModel, n: int) -> float:
    spec = select(collective, m, n, hierarchical=False)
    return spec.cost(m, n)


def cost_hier_allreduce(m: CollectiveCostModel, n: int) -> float:
    intra, inter = m.intra_model(), m.leaders_model()
    total = 0.0
    if intra.p > 1:
        total += _flat_cost("reduce", intra, n) + _flat_cost("bcast", intra, n)
    if inter.p > 1:
        total += _flat_cost("allreduce", inter, n)
    return total


def cost_hier_bcast(m: CollectiveCostModel, n: int) -> float:
    intra, inter = m.intra_model(), m.leaders_model()
    total = 0.0
    if inter.p > 1:
        total += _flat_cost("bcast", inter, n)
    if intra.p > 1:
        total += _flat_cost("bcast", intra, n)
    return total


def cost_hier_reduce(m: CollectiveCostModel, n: int) -> float:
    intra, inter = m.intra_model(), m.leaders_model()
    total = 0.0
    if intra.p > 1:
        total += _flat_cost("reduce", intra, n)
    if inter.p > 1:
        total += _flat_cost("reduce", inter, n)
    return total


def _spans_nodes(m: CollectiveCostModel, _n: int) -> bool:
    return m.n_nodes > 1


register(AlgorithmSpec("hierarchical", "allreduce", run_hier_allreduce,
                       cost_hier_allreduce, _spans_nodes, hierarchical=True))
register(AlgorithmSpec("hierarchical", "bcast", run_hier_bcast,
                       cost_hier_bcast, _spans_nodes, hierarchical=True))
register(AlgorithmSpec("hierarchical", "reduce", run_hier_reduce,
                       cost_hier_reduce, _spans_nodes, hierarchical=True))
