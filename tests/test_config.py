"""Tests for the configuration layer and public package surface."""

import json
from collections import Counter
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace
from typing import Union, get_origin, get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.config import (
    GB,
    KB,
    MB,
    LinkParams,
    MachineConfig,
    TagConfig,
    TopologyConfig,
    UcxConfig,
)
from repro.faults import FaultPlan


def _keys(cfg, prefix=""):
    """Every dotted key ``MachineConfig.override`` can address."""
    for f in fields(cfg):
        yield prefix + f.name
        if is_dataclass(getattr(cfg, f.name)):
            yield from _keys(getattr(cfg, f.name), f"{prefix}{f.name}.")


def _leaf_types(cls, prefix=""):
    """Declared type of every settable value, by dotted key: a ``*Config``
    section is recursed into, a ``LinkParams`` is one value."""
    for name, tp in get_type_hints(cls).items():
        if is_dataclass(tp) and tp.__name__.endswith("Config"):
            yield from _leaf_types(tp, f"{prefix}{name}.")
        else:
            yield prefix + name, tp


def _get(cfg, key):
    for name in key.split("."):
        cfg = getattr(cfg, name)
    return cfg


_ALL_KEYS = sorted(_keys(MachineConfig.summit()))


class TestPackage:
    def test_version(self):
        assert repro.__version__

    def test_top_level_exports(self):
        assert repro.__all__ == ["MachineConfig", "__version__", "api", "obs"]

    def test_api_facade_importable(self):
        assert repro.api.MODELS == ("charm", "ampi", "openmpi", "charm4py")
        assert callable(repro.api.session)

    def test_constructors_without_config_build_a_two_node_summit(self):
        from repro.charm import Charm
        from repro.charm4py import Charm4py
        from repro.openmpi import OpenMpi

        summit = MachineConfig.summit(nodes=2)
        assert repro.api.session().build().config == summit
        assert Charm().cfg == summit
        assert Charm().n_pes == summit.topology.total_gpus
        assert OpenMpi().cfg == summit
        assert Charm4py().charm.cfg == summit

    def test_deprecated_aliases_removed(self):
        # the free summit()/default_config() helpers completed their
        # deprecation cycle; MachineConfig classmethods are the API
        import repro.config

        assert not hasattr(repro, "summit")
        assert not hasattr(repro, "default_config")
        assert not hasattr(repro.config, "summit")
        assert not hasattr(repro.config, "default_config")


class TestLinkParams:
    def test_transfer_time(self):
        p = LinkParams(latency=2e-6, bandwidth=1 * GB)
        assert p.transfer_time(0) == 2e-6
        assert p.transfer_time(1 * GB) == pytest.approx(2e-6 + 1.0)


class TestTopology:
    def test_summit_shape(self):
        cfg = MachineConfig.summit(nodes=4)
        t = cfg.topology
        assert t.nodes == 4
        assert t.gpus_per_node == 6
        assert t.total_gpus == 24
        assert t.sockets_per_node == 2 and t.gpus_per_socket == 3

    def test_link_speed_ordering(self):
        t = TopologyConfig()
        # X-Bus > NVLink > host memcpy > NIC is the Summit hierarchy
        assert t.xbus.bandwidth > t.nvlink.bandwidth > t.nic.bandwidth
        assert t.device_mem.bandwidth > t.nvlink.bandwidth

    def test_configs_frozen(self):
        cfg = MachineConfig.summit()
        with pytest.raises(FrozenInstanceError):
            cfg.trace = True

    def test_with_nodes(self):
        cfg = MachineConfig.summit(nodes=2).override({"topology.nodes": 16})
        assert cfg.topology.nodes == 16

    def test_with_nodes_validates(self):
        with pytest.raises(ValueError):
            MachineConfig.summit().override({"topology.nodes": 0})
        with pytest.raises(ValueError):
            MachineConfig.summit().override({"topology.nodes": -2})
        with pytest.raises(ValueError):
            TopologyConfig(nodes=2.5)

    def test_without_gdrcopy(self):
        assert MachineConfig.summit().ucx.gdrcopy_enabled
        off = MachineConfig.summit().with_ucx(gdrcopy_enabled=False)
        assert not off.ucx.gdrcopy_enabled

    def test_with_trace(self):
        assert not MachineConfig.summit().trace
        on = MachineConfig.summit().override({"trace": True})
        assert on.trace and not on.override("trace=false").trace

    def test_summit_overrides(self):
        cfg = MachineConfig.summit(nodes=1).override({"trace": True, "seed": 7})
        assert cfg.trace and cfg.seed == 7

    def test_summit_rejects_unknown_overrides(self):
        with pytest.raises(ValueError, match="unknown MachineConfig override"):
            MachineConfig.summit(nodes=1).override({"tracing": True})

    def test_with_overrides_validates(self):
        assert MachineConfig.summit().override({"seed": 9}).seed == 9
        with pytest.raises(ValueError, match="valid fields"):
            MachineConfig.summit().override({"sede": 9})

    def test_with_ucx_and_runtime_validate(self):
        with pytest.raises(ValueError):
            MachineConfig.summit().with_ucx(gdrcopy=False)
        cfg = MachineConfig.summit().override({"runtime.ampi_send_overhead": 1e-6})
        assert cfg.runtime.ampi_send_overhead == 1e-6
        with pytest.raises(ValueError):
            MachineConfig.summit().override({"runtime.nope": 1.0})


class TestOverride:
    """``MachineConfig.override`` is the one derivation path: names checked
    against the dataclasses, strings converted by declared type, one
    ``replace`` (so one validation) per section."""

    @pytest.mark.parametrize("specs,where,expected", [
        (["ucx.max_endpoints=none"], "ucx.max_endpoints", None),
        (["ucx.max_endpoints=4"], "ucx.max_endpoints", 4),
        (["ucx.mapping_cost=1"], "ucx.mapping_cost", 1.0),
        (["trace=1"], "trace", True),
        (["memory.allocator=pool"], "memory.allocator", "pool"),
        (["topology.nvlink.latency=1e-6"], "topology.nvlink.latency", 1e-6),
        (["tags.msg_bits=8", "tags.cnt_bits=24"], "tags.msg_bits", 8),
        ([{"tags.msg_bits": 8, "tags.cnt_bits": 24}], "tags.cnt_bits", 24),
        ([{"ucx": UcxConfig(), "ucx.max_mappings": 7}], "ucx.max_mappings", 7),
    ])
    def test_accepts(self, specs, where, expected):
        got = _get(MachineConfig.summit().override(*specs), where)
        assert got == expected and type(got) is type(expected)

    @pytest.mark.parametrize("spec,message", [
        ("trace=yes", "trace expects true/false/1/0"),
        ("ucx.max_endpoints=few", "ucx.max_endpoints expects int"),
        ("topology.nodes=0", "nodes must be a positive int"),
        ("multirail.window=0", "window must be >= 1"),
        ("tags.msg_bits=8", "must sum to 64"),
        ("nope.x=1", "unknown config section 'nope'.*'memory'.*'multirail'"),
        ("ucx.nope=1", r"unknown UcxConfig override\(s\) \['nope'\]; valid fields"),
        ("nope=1", r"unknown MachineConfig override\(s\) \['nope'\]; valid fields"),
        ("ucx.max_endpoints", "not of the form key=value"),
        ("topology.nvlink=fast", "cannot be set from a string"),
    ])
    def test_rejects(self, spec, message):
        with pytest.raises(ValueError, match=message):
            MachineConfig.summit().override(spec)

    def test_faults_type_checked_on_every_path(self):
        with pytest.raises(TypeError, match="FaultPlan"):
            MachineConfig.summit().override({"faults": {"drop_p": 0.1}})
        with pytest.raises(TypeError, match="FaultPlan"):
            MachineConfig(faults="lossy")

    @settings(max_examples=100, deadline=None)
    @given(st.sets(st.sampled_from(_ALL_KEYS), min_size=1))
    def test_setting_fields_to_their_values_is_identity(self, keys):
        cfg = MachineConfig.summit()
        assert cfg.override({k: _get(cfg, k) for k in keys}) == cfg
        scalars = [k for k in keys if not is_dataclass(_get(cfg, k))]
        assert cfg.override(*(f"{k}={_get(cfg, k)}" for k in scalars)) == cfg

    def test_bool_field_count_is_pinned(self):
        # adding an on/off flag doubles the configurations to cover: make it
        # a visible diff here
        flags = [key for key in _ALL_KEYS
                 if isinstance(_get(MachineConfig.summit(), key), bool)]
        assert len(flags) == 8, flags

    def test_option_surface_is_pinned(self):
        # every settable value is an option to document and cover: a new
        # one (or a new with_* shorthand) has to edit these numbers
        by_type = Counter("Optional" if get_origin(tp) is Union else tp.__name__
                          for _, tp in _leaf_types(MachineConfig))
        assert by_type == {"float": 48, "int": 24, "bool": 8, "LinkParams": 5,
                           "Optional": 4, "str": 1}, by_type
        assert sum(by_type.values()) == 90
        assert sorted(n for n in dir(MachineConfig) if n.startswith("with_")) \
            == ["with_faults", "with_pool", "with_ucx", "with_virtual_payload"]

    _PLAN = {"seed": 7, "link_rules": [{"drop_p": 0.05}]}

    def test_faults_from_inline_json_path_and_none(self, tmp_path):
        want = FaultPlan.from_dict(self._PLAN)
        inline = MachineConfig.summit().override(f"faults={json.dumps(self._PLAN)}")
        assert inline.faults == want
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(self._PLAN))
        from_file = MachineConfig.summit().override(f"faults={path}")
        assert from_file.faults == want
        assert from_file.override("faults=none").faults is None


class TestTagConfigValidation:
    def test_default_is_paper_split(self):
        t = TagConfig()
        assert (t.msg_bits, t.pe_bits, t.cnt_bits) == (4, 32, 28)

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError):
            TagConfig(msg_bits=8, pe_bits=32, cnt_bits=28)


class TestUnits:
    def test_byte_units(self):
        assert KB == 1024 and MB == 1024**2 and GB == 1024**3


class TestUcxDefaults:
    def test_thresholds_sane(self):
        u = MachineConfig.summit().ucx
        assert 0 < u.device_eager_threshold < u.host_rndv_threshold
        assert u.pipeline_chunk >= 64 * KB

    def test_runtime_overheads_positive(self):
        rt = MachineConfig.summit().runtime
        for name in ("scheduler_pickup_overhead", "entry_dispatch_overhead",
                     "ampi_send_overhead", "py_call_overhead",
                     "charm_send_overhead", "ompi_send_overhead"):
            assert getattr(rt, name) > 0

    def test_ampi_overheads_exceed_openmpi(self):
        rt = MachineConfig.summit().runtime
        assert rt.ampi_send_overhead > rt.ompi_send_overhead
        assert rt.ampi_recv_overhead > rt.ompi_recv_overhead

    def test_replace_produces_new_config(self):
        cfg = MachineConfig.summit()
        cfg2 = replace(cfg, ucx=replace(cfg.ucx, gdrcopy_enabled=False))
        assert cfg.ucx.gdrcopy_enabled and not cfg2.ucx.gdrcopy_enabled
