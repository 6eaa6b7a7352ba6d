"""The closed form of an uncontended transfer (``repro.cost``) against the
simulator, and collective selection priced by it."""

import pytest

import repro.api as api
from repro.apps.osu.runner import (
    MODELS,
    OSU_SIZES,
    inter_node_pair,
    intra_node_pair,
    run_latency,
)
from repro.config import MachineConfig
from repro.cost import transfer_terms

CFG = MachineConfig.summit(nodes=2)


def transfer_time(*args):
    return sum(t.seconds for t in transfer_terms(*args))

PAIRS = {"intra": intra_node_pair(CFG), "inter": inter_node_pair(CFG)}

#: Ladder points the closed form does not match, each with the term it
#: lacks.  Empty: every point of the ladder is an exact sum.
MISSES = {}


@pytest.fixture(scope="module")
def libs():
    return {m: api.session(CFG).model(m).build().lib for m in MODELS}


def test_the_osu_latency_ladder_is_its_closed_form(libs):
    """4 models x intra/inter x H/D x 23 sizes, warm (``iters=2, skip=1``):
    the simulated one-way latency equals the sum of the terms."""
    missed = {}
    for model in MODELS:
        for placement, (a, b) in PAIRS.items():
            for device in (True, False):
                for size in OSU_SIZES:
                    sim = run_latency(model, size, placement, device,
                                      iters=2, skip=1)
                    form = transfer_time(model, libs[model], a, b, size, device)
                    if abs(form - sim) > 1e-12 * sim:
                        missed[model, placement, "D" if device else "H", size] = (
                            sim, form)
    assert set(missed) == set(MISSES), missed
    assert 4 * 2 * 2 * len(OSU_SIZES) - len(missed) >= 200


def _rows(terms, *layers):
    return [(t.name, t.seconds) for t in terms if t.layer in layers]


@pytest.mark.parametrize("placement,size", [("intra", 8), ("inter", 8),
                                            ("intra", 1 << 20), ("inter", 1 << 20)])
def test_one_machine_layer_serves_all_three_models(libs, placement, size):
    """For the same device message the UCX and link rows are identical for
    all four models and the machine-layer rows for Charm++, AMPI and
    Charm4py; every other row is the model's own."""
    tables = {m: transfer_terms(m, libs[m], *PAIRS[placement], size)
              for m in MODELS}
    ucx = {m: _rows(t, "ucx", "link") for m, t in tables.items()}
    assert ucx["openmpi"] and all(rows == ucx["openmpi"] for rows in ucx.values())
    machine = {m: _rows(tables[m], "machine") for m in ("charm", "ampi", "charm4py")}
    assert machine["charm"] == [("LrtsSendDevice", 0.5e-6), ("LrtsRecvDevice", 0.5e-6)]
    assert all(rows == machine["charm"] for rows in machine.values())
    assert not _rows(tables["openmpi"], "machine")
    for terms in tables.values():
        assert {t.layer for t in terms} <= {"model", "machine", "ucx", "link"}
    # the models differ, and only there
    assert len({tuple(_rows(t, "model")) for t in tables.values()}) == 4


def test_eight_byte_ampi_device_message_terms(libs):
    """§IV-B1's message: most of AMPI's time is outside UCX."""
    terms = transfer_terms("ampi", libs["ampi"], *PAIRS["intra"], 8)
    inside = sum(s for _n, s in _rows(terms, "ucx", "link"))
    total = sum(t.seconds for t in terms)
    assert total == pytest.approx(6.6705e-6, abs=1e-10)
    assert inside == pytest.approx(1.7064e-6, abs=1e-10)


# -- collective selection ------------------------------------------------------
@pytest.fixture(scope="module")
def model_64r():
    from repro.collectives import CollectiveCostModel

    cfg = MachineConfig.summit(nodes=11)
    ampi = api.session(cfg).model("ampi").ranks(64).build().lib
    return CollectiveCostModel.of(ampi, range(64))


def test_a_hop_is_the_ampi_device_message(model_64r):
    m = model_64r
    for a, b in ((0, 1), (0, 6), (5, 3)):
        assert m.hop(a, b, 1 << 20)[0] == transfer_time(
            "ampi", m.ampi, m.gpus[a], m.gpus[b], 1 << 20)
    assert m.hop(0, 1, 64)[0] < m.hop(0, 6, 64)[0]  # NVLink beats the NIC
    assert m.hop(0, 1, 64)[1] == ()  # an eager frame holds no link
    assert [link.name for link in m.hop(0, 6, 1 << 20)[1]] == [
        "n0.nic0.tx", "n1.nic0.rx"]  # the pipeline's bulk holds the NIC rails


def test_recdbl_fold_of_the_leaders_costs_two_inter_node_hops(model_64r):
    """The hierarchy's leader phase: 11 ranks, one per node, rem = 3, so the
    fold pairs (0,1), (2,3) and (4,5) sit on different nodes."""
    from repro.collectives import select
    from repro.collectives.algorithms import cost_recdbl_fold

    n = 1 << 20
    leaders = model_64r.leaders_model()
    assert leaders.p == 11 and leaders.n_nodes == 11
    assert all(leaders.nodes[2 * i] != leaders.nodes[2 * i + 1] for i in range(3))
    inter = leaders.hop(0, 1, n)[0]  # ranks 0 and 6: GPU 0 of nodes 0 and 1
    assert inter == model_64r.hop(0, 6, n)[0] > 4 * model_64r.hop(0, 1, n)[0]
    assert cost_recdbl_fold(leaders, n) == pytest.approx(
        2 * inter + leaders.combine(n), rel=1e-12)
    assert select(leaders, n, hierarchical=False).name == "recdbl"


def test_selection_of_the_pinned_allreduces(model_64r):
    """``coll_allreduce_ampi_64r_1M_{flat,hier}``: binomial when the
    hierarchy may not compete, the hierarchy when it may."""
    from repro.collectives import select

    n = 1 << 20
    assert select(model_64r, n, hierarchical=False).name == "binomial"
    assert select(model_64r, n).name == "hierarchical"
    assert model_64r.of(model_64r.ampi, range(64)) is model_64r


def test_selection_prices_each_route_class_once(monkeypatch):
    """A fresh 64-rank, 11-node job's first selection calls the closed form
    once per route class (local GPU on each side, same node or not, size),
    not once per rank pair; the shared seconds are exactly what the closed
    form gives every pair of the job, and the links are the pair's own."""
    import repro.collectives.selection as selection
    from repro.collectives import CollectiveCostModel, select

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2:])
        return transfer_terms(*args, **kwargs)

    monkeypatch.setattr(selection, "transfer_terms", counted)
    cfg = MachineConfig.summit(nodes=11)
    ampi = api.session(cfg).model("ampi").ranks(64).build().lib
    model = CollectiveCostModel.of(ampi, range(64))
    assert select(model, 1 << 20).name == "hierarchical"
    # 436 while each rank pair was priced on its own
    assert len(calls) == len(ampi.coll_hop_seconds) == 43
    for nbytes in {key[3] for key in ampi.coll_hop_seconds}:
        for a in range(64):
            for b in range(64):
                if a == b:
                    continue
                terms = transfer_terms("ampi", ampi, model.gpus[a],
                                       model.gpus[b], nbytes)
                bulk = [t.route.ordered for t in terms if t.route is not None]
                assert model.hop(a, b, nbytes) == (
                    sum(t.seconds for t in terms), bulk[0] if bulk else ())
    assert len(calls) == len(ampi.coll_hop_seconds)
