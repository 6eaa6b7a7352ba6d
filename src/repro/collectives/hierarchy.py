"""The two-level hierarchical allreduce, decomposed via ``hardware.topology``.

The group is partitioned by node (through the rank→PE→node mapping, i.e.
the same ``Machine`` topology the simulator routes over).  Each phase runs
in a sub-context that remaps ranks and namespaces wire tags, with a fixed
intra/inter span kind for per-phase blame:

1. a binomial reduce to each node leader (the node's lowest rank) over
   NVLink;
2. the leaders run the *cheapest flat* allreduce across the NIC (picked by
   the same cost model, with the hierarchy itself out of the running);
3. a binomial bcast fans the result back out over NVLink.

The predicted cost is assembled from the same three phases, so the
hierarchy competes in selection on equal terms with the flat algorithms
and wins exactly where the cost model says it should (many ranks per node,
messages large enough that the NIC bandwidth term dominates).
"""

from __future__ import annotations

from repro.collectives.algorithms import (
    binomial_bcast,
    binomial_reduce,
    cost_binomial_bcast,
    cost_binomial_reduce,
)
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


def run_hier_allreduce(ctx, buf, nbytes: int, op: ReduceOp):
    groups = ctx.model.node_groups()
    mine = next(g for g in groups if ctx.rank in g)
    if len(mine) > 1:
        sub = ctx.sub(mine, _PHASE_INTRA_IN, "intra")
        yield from binomial_reduce(sub, buf, nbytes, op)
    if ctx.rank == mine[0] and len(groups) > 1:
        sub = ctx.sub([g[0] for g in groups], _PHASE_INTER, "inter")
        spec = select(sub.model, nbytes, hierarchical=False)
        yield from spec.run(sub, buf, nbytes, op)
    if len(mine) > 1:
        sub = ctx.sub(mine, _PHASE_INTRA_OUT, "intra")
        yield from binomial_bcast(sub, buf, nbytes)


def cost_hier_allreduce(m: CollectiveCostModel, n: int) -> float:
    intra, inter = m.intra_model(), m.leaders_model()
    total = 0.0
    if intra.p > 1:
        total += cost_binomial_reduce(intra, n) + cost_binomial_bcast(intra, n)
    if inter.p > 1:
        total += inter.cost(select(inter, n, hierarchical=False), n)
    return total


def _spans_nodes(m: CollectiveCostModel, _n: int) -> bool:
    return m.n_nodes > 1


register(AlgorithmSpec("hierarchical", run_hier_allreduce,
                       cost_hier_allreduce, _spans_nodes, hierarchical=True))
