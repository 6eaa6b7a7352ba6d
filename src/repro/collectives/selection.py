"""Algorithm registry and selection priced by the transfer oracle.

Every device-allreduce algorithm is registered as an :class:`AlgorithmSpec`
whose ``cost(model, nbytes)`` predicts the modeled completion time over a
:class:`CollectiveCostModel`: each hop is the one-way time of the AMPI
device message between the actual rank pair (:func:`repro.cost.transfer_terms`,
the closed form the OSU ladder holds equal to the simulator), each combine
is the combine kernel's own time, and a round of concurrent hops costs its
slowest hop plus the serialisation of the other hops that share its
busiest link.  Crossover points between algorithms therefore *fall out of
the machine model*: there are no per-algorithm timing constants to tune,
and changing the machine config moves the crossovers with it.

``select()`` takes a per-call ``algorithm=`` override as given, and
otherwise the minimum-cost supported candidate (ties broken by name for
determinism).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.collectives.ops import ReduceOp, combine_kernel
from repro.cost import device_bulk_route, transfer_terms

__all__ = [
    "AlgorithmSpec",
    "CollectiveCostModel",
    "available_algorithms",
    "register",
    "select",
]


def ceil_log2(n: int) -> int:
    return (n - 1).bit_length() if n > 1 else 0


class CollectiveCostModel:
    """Costs of collective steps over one group of AMPI ranks (``members``,
    world ranks), priced for the actual rank pairs.  One model per group and
    job (:meth:`of`): every rank and phase that prices the group shares its
    hop and algorithm costs."""

    __slots__ = ("ampi", "members", "gpus", "nodes", "p", "n_nodes",
                 "_hops", "_costs")

    def __init__(self, ampi, members: Sequence[int]) -> None:
        self.ampi = ampi
        self.members = tuple(members)
        pes = [ampi.rank_pe(r) for r in self.members]
        self.gpus = tuple(ampi.charm.gpu_of_pe(pe) for pe in pes)
        self.nodes = tuple(ampi.charm.pe_object(pe).node for pe in pes)
        self.p = len(self.members)
        self.n_nodes = len(set(self.nodes))
        self._hops: Dict[tuple, tuple] = {}
        self._costs: Dict[tuple, float] = {}

    @classmethod
    def of(cls, ampi, members: Sequence[int]) -> "CollectiveCostModel":
        key = tuple(members)
        model = ampi.coll_models.get(key)
        if model is None:
            model = ampi.coll_models[key] = cls(ampi, key)
        return model

    def hop(self, a: int, b: int, nbytes: int) -> tuple:
        """``(seconds, links)`` of one uncontended device message from group
        rank ``a`` to ``b``: its closed form, priced once per job and route
        class (local GPUs, same node or not), and the links its bulk holds."""
        key = (a, b, nbytes)
        hop = self._hops.get(key)
        if hop is None:
            ampi, src, dst = self.ampi, self.gpus[a], self.gpus[b]
            machine = ampi.machine
            route_class = (machine.local_gpu(src), machine.local_gpu(dst),
                           self.nodes[a] == self.nodes[b], nbytes)
            seconds = ampi.coll_hop_seconds.get(route_class)
            if seconds is None:
                seconds = ampi.coll_hop_seconds[route_class] = sum(
                    t.seconds for t in transfer_terms("ampi", ampi, src, dst, nbytes))
            route = device_bulk_route(ampi.charm.layer.ucp, src, dst, nbytes)
            hop = self._hops[key] = (seconds, () if route is None else route.ordered)
        return hop

    def round(self, pairs: Sequence[Tuple[int, int]], nbytes: int) -> float:
        """Concurrent hops ``(src, dst)``: the slowest, each slowed by the
        other hops whose bulk shares its busiest link."""
        hops = [self.hop(a, b, nbytes) for a, b in pairs]
        load = Counter(link for _t, links in hops for link in links)
        return max(t + max(((load[l] - 1) * nbytes / l.bandwidth for l in links),
                           default=0.0)
                   for t, links in hops)

    def combine(self, nbytes: int) -> float:
        """The elementwise combine kernel on an idle GPU."""
        return self.ampi.charm.cuda.kernel_time(
            self.gpus[0], combine_kernel(None, None, nbytes, ReduceOp.SUM))

    def cost(self, spec: "AlgorithmSpec", nbytes: int) -> float:
        key = (spec.name, nbytes)
        cost = self._costs.get(key)
        if cost is None:
            cost = self._costs[key] = spec.cost(self, nbytes)
        return cost

    def node_groups(self) -> List[List[int]]:
        """Group ranks by node (the hierarchical decomposition), in rank
        order, groups ordered by their first member."""
        groups: Dict[int, List[int]] = {}
        for r, node in enumerate(self.nodes):
            groups.setdefault(node, []).append(r)
        return list(groups.values())

    def leaders_model(self) -> "CollectiveCostModel":
        """One rank per node (the inter-node phase of a hierarchy)."""
        return self.of(self.ampi, [self.members[g[0]] for g in self.node_groups()])

    def intra_model(self) -> "CollectiveCostModel":
        """The most populated node's group (the worst intra-node phase)."""
        group = max(self.node_groups(), key=len)
        return self.of(self.ampi, [self.members[r] for r in group])


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registered allreduce algorithm.

    ``run(ctx, buf, nbytes, op)`` is the generator implementing it over a
    :class:`~repro.collectives.engine.CollContext`; ``cost`` and
    ``supports`` drive selection.
    """

    name: str
    run: Callable = field(repr=False)
    cost: Callable = field(repr=False)
    supports: Callable = field(repr=False)
    hierarchical: bool = False


_REGISTRY: Dict[str, AlgorithmSpec] = {}


def register(spec: AlgorithmSpec) -> AlgorithmSpec:
    _REGISTRY[spec.name] = spec
    return spec


def available_algorithms() -> List[str]:
    return sorted(_REGISTRY)


def select(
    model: CollectiveCostModel,
    nbytes: int,
    algorithm: Optional[str] = None,
    hierarchical: bool = True,
) -> AlgorithmSpec:
    """Resolve the algorithm for one allreduce.

    A per-call ``algorithm`` is used as given; otherwise the minimum
    predicted cost among supported candidates wins.  With ``hierarchical``
    false the hierarchical variant does not compete (the
    ``hierarchical_enabled`` ablation, and the leader phase inside a
    hierarchy, which must not recurse).
    """
    if algorithm is not None:
        spec = _REGISTRY.get(algorithm)
        if spec is None:
            raise ValueError(
                f"unknown allreduce algorithm {algorithm!r} "
                f"(available: {available_algorithms()})"
            )
        if not spec.supports(model, nbytes):
            raise ValueError(
                f"allreduce algorithm {algorithm!r} does not support "
                f"{model.p} ranks x {nbytes} B on {model.n_nodes} node(s)"
            )
        return spec
    candidates = [
        s for s in _REGISTRY.values()
        if (hierarchical or not s.hierarchical) and s.supports(model, nbytes)
    ]
    return min(candidates, key=lambda s: (model.cost(s, nbytes), s.name))
