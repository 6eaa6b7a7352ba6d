"""Algorithm registry and link-model-derived selection.

Every device-allreduce algorithm is registered as an :class:`AlgorithmSpec`
whose ``cost(model, nbytes)`` predicts the modeled completion time from the
same :class:`~repro.config.TopologyConfig` numbers the simulator itself
charges (per-hop alpha/beta of NVLink, X-Bus and the NIC, the GPU memory
roofline of the combine kernel, and the per-message software overhead of
the calling MPI library).  Crossover points between algorithms therefore
*fall out of the link model*: there are no per-algorithm timing constants
to tune, and changing the machine config moves the crossovers with it.

``select()`` takes a per-call ``algorithm=`` override as given, and
otherwise the minimum-cost supported candidate (ties broken by name for
determinism).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.config import MachineConfig

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
    """Closed-form per-step costs for a group of ranks, derived from the
    machine config exactly as ``hardware.topology.Machine._build_route``
    composes links:

    * intra-node device-device hop: NVLink tx + NVLink rx (plus one X-Bus
      crossing when the group spans both sockets), bandwidth bounded by the
      slowest link on the path;
    * inter-node device-device hop: NVLink tx + NIC tx + NIC rx + NVLink rx;
      when ``concurrency`` ranks of one node cross at once they share the
      node's ``nic_rails`` rails and serialise in waves.

    ``overhead`` is the calling rank's per-message software cost (send +
    recv side): AMPI's envelope and callback costs.
    """

    __slots__ = (
        "cfg", "rank_nodes", "p", "n_nodes", "max_per_node", "overhead",
        "alpha_intra", "bw_intra", "alpha_inter", "bw_inter",
        "nic_rails", "kernel_launch", "gpu_mem_bw",
    )

    def __init__(
        self,
        cfg: MachineConfig,
        rank_nodes: Sequence[int],
        software_overhead: float,
    ) -> None:
        if not rank_nodes:
            raise ValueError("cost model needs at least one rank")
        topo = cfg.topology
        self.cfg = cfg
        self.rank_nodes = tuple(rank_nodes)
        self.p = len(self.rank_nodes)
        counts: Dict[int, int] = {}
        for n in self.rank_nodes:
            counts[n] = counts.get(n, 0) + 1
        self.n_nodes = len(counts)
        self.max_per_node = max(counts.values())
        self.overhead = software_overhead
        cross_socket = self.max_per_node > topo.gpus_per_socket
        self.alpha_intra = 2 * topo.nvlink.latency + (
            topo.xbus.latency if cross_socket else 0.0
        )
        self.bw_intra = (
            min(topo.nvlink.bandwidth, topo.xbus.bandwidth)
            if cross_socket else topo.nvlink.bandwidth
        )
        self.alpha_inter = 2 * topo.nvlink.latency + 2 * topo.nic.latency
        self.bw_inter = min(topo.nvlink.bandwidth, topo.nic.bandwidth)
        self.nic_rails = topo.nic_rails
        self.kernel_launch = cfg.cuda.kernel_launch_overhead
        self.gpu_mem_bw = topo.gpu_mem_bandwidth

    # -- per-step costs ----------------------------------------------------------
    @property
    def spans_nodes(self) -> bool:
        return self.n_nodes > 1

    def step_intra(self, nbytes: int) -> float:
        return self.overhead + self.alpha_intra + nbytes / self.bw_intra

    def step_inter(self, nbytes: int, concurrency: int = 1) -> float:
        waves = -(-concurrency // self.nic_rails)
        return self.overhead + self.alpha_inter + nbytes * waves / self.bw_inter

    def step(self, nbytes: int, concurrency: int = 1) -> float:
        """Worst-case hop for a flat algorithm over this group."""
        if self.spans_nodes:
            return self.step_inter(nbytes, concurrency)
        return self.step_intra(nbytes)

    def combine(self, nbytes: int) -> float:
        """Elementwise combine kernel: 2 reads + 1 write per element."""
        return self.kernel_launch + 3 * nbytes / self.gpu_mem_bw

    # -- shape helpers -----------------------------------------------------------
    def rounds(self) -> int:
        return ceil_log2(self.p)

    def round_split(self) -> tuple:
        """(inter, intra) round counts of a binomial tree under the block
        rank-to-node mapping: the top ``ceil(log2 n_nodes)`` rounds cross
        nodes, the rest stay inside one."""
        inter = min(self.rounds(), ceil_log2(self.n_nodes))
        return inter, self.rounds() - inter

    # -- derived groups (hierarchical decomposition) -----------------------------
    def leaders_model(self) -> "CollectiveCostModel":
        """One rank per node (the inter-node phase of a hierarchy)."""
        return CollectiveCostModel(
            self.cfg, sorted(set(self.rank_nodes)), self.overhead
        )

    def intra_model(self) -> "CollectiveCostModel":
        """The most populated node's local group (worst intra phase)."""
        return CollectiveCostModel(
            self.cfg, [0] * self.max_per_node, self.overhead
        )


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
    return min(candidates, key=lambda s: (s.cost(model, nbytes), s.name))
