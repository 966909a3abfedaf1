"""Tests for the repro.api facade, PipelineConfig, and the packer's
config-only constructor."""

from __future__ import annotations

import json
import warnings

import pytest

import repro
from repro import api
from repro.api import (
    CONFIG_VERSION,
    SERVER_CONFIG_VERSION,
    ObsConfig,
    PipelineConfig,
    ServerConfig,
)
from repro.hsd.config import HSDConfig
from repro.postlink.vacuum import VacuumPacker
from repro.regions import selected_origins
from repro.regions.config import RegionConfig
from repro.service.farm import shard_payload
from repro.workloads.suite import load_benchmark


@pytest.fixture(scope="module")
def mcf():
    return load_benchmark("181.mcf", "A", scale=0.2)


# ---------------------------------------------------------------------------
# config round-trips
# ---------------------------------------------------------------------------

class TestPipelineConfig:
    def test_to_dict_from_dict_round_trip(self):
        config = PipelineConfig(
            hsd=HSDConfig(counter_bits=8),
            region=RegionConfig(max_growth_blocks=3),
            classic=True,
            ordering="worst",
            strict=True,
            validate=False,
            obs=ObsConfig(trace=True, trace_format="jsonl"),
        )
        assert PipelineConfig.from_dict(config.to_dict()) == config

    def test_document_is_json_round_trippable(self):
        document = PipelineConfig().to_dict()
        assert document["version"] == CONFIG_VERSION
        assert PipelineConfig.from_dict(
            json.loads(json.dumps(document))
        ) == PipelineConfig()

    def test_partial_document_takes_defaults(self):
        config = PipelineConfig.from_dict(
            {"classic": True, "hsd": {"counter_bits": 7}}
        )
        assert config.classic is True
        assert config.hsd.counter_bits == 7
        assert config.region == RegionConfig()
        assert config.validate is True

    def test_unknown_top_level_key_raises(self):
        with pytest.raises(ValueError, match="unknown key"):
            PipelineConfig.from_dict({"clasic": True})

    def test_unknown_nested_key_raises(self):
        with pytest.raises(ValueError, match="hsd"):
            PipelineConfig.from_dict({"hsd": {"counter_bitz": 9}})

    def test_version_mismatch_raises(self):
        with pytest.raises(ValueError, match="version"):
            PipelineConfig.from_dict({"version": 99})

    def test_bad_ordering_rejected_at_construction(self):
        with pytest.raises(ValueError):
            PipelineConfig(ordering="bogus")

    def test_load_reads_config_file(self, tmp_path):
        path = tmp_path / "pipeline.json"
        path.write_text(json.dumps({"link": False}))
        assert PipelineConfig.load(str(path)).link is False

    def test_replace_returns_modified_copy(self):
        base = PipelineConfig()
        changed = base.replace(strict=True)
        assert changed.strict is True and base.strict is False


class TestServerConfig:
    def test_to_dict_from_dict_round_trip(self):
        config = ServerConfig(
            benchmark="099.go",
            input_name="A",
            host="0.0.0.0",
            port=9090,
            scale=0.2,
            jobs=4,
            pipeline=PipelineConfig(classic=True).to_dict(),
            tag="fleet",
            gc_max_bytes=1_000_000,
        )
        assert ServerConfig.from_dict(config.to_dict()) == config

    def test_document_is_json_round_trippable(self):
        config = ServerConfig(benchmark="181.mcf")
        document = config.to_dict()
        assert document["version"] == SERVER_CONFIG_VERSION
        assert ServerConfig.from_dict(
            json.loads(json.dumps(document))
        ) == config

    def test_partial_document_takes_defaults(self):
        config = ServerConfig.from_dict(
            {"benchmark": "130.li", "port": 8080}
        )
        assert config.benchmark == "130.li"
        assert config.port == 8080
        assert config.input_name == "A"
        assert config.pipeline is None
        assert config.default_tenant == "130.li/A"

    def test_partial_pipeline_section_normalizes(self):
        config = ServerConfig.from_dict(
            {"benchmark": "130.li", "pipeline": {"classic": True}}
        )
        assert config.pipeline == PipelineConfig(classic=True).to_dict()
        assert PipelineConfig.from_dict(config.pipeline).classic is True

    def test_benchmark_is_required(self):
        with pytest.raises(ValueError, match="benchmark"):
            ServerConfig.from_dict({"port": 8080})

    def test_unknown_top_level_key_raises(self):
        with pytest.raises(ValueError, match="unknown key"):
            ServerConfig.from_dict({"benchmark": "181.mcf", "prot": 1})

    def test_unknown_nested_pipeline_key_raises(self):
        with pytest.raises(ValueError, match="unknown key"):
            ServerConfig.from_dict(
                {"benchmark": "181.mcf", "pipeline": {"clasic": True}}
            )

    def test_version_mismatch_raises(self):
        with pytest.raises(ValueError, match="version"):
            ServerConfig.from_dict({"benchmark": "181.mcf", "version": 99})

    def test_load_reads_config_file(self, tmp_path):
        path = tmp_path / "server.json"
        path.write_text(json.dumps({"benchmark": "181.mcf", "jobs": 3}))
        config = ServerConfig.load(str(path))
        assert config.jobs == 3 and config.benchmark == "181.mcf"

    def test_replace_returns_modified_copy(self):
        base = ServerConfig(benchmark="181.mcf")
        changed = base.replace(port=7777)
        assert changed.port == 7777 and base.port == 0

    def test_frozen(self):
        with pytest.raises(Exception):
            ServerConfig(benchmark="181.mcf").port = 1


# ---------------------------------------------------------------------------
# facades
# ---------------------------------------------------------------------------

class TestFacades:
    def test_pack_matches_vacuum_packer(self, mcf):
        via_facade = repro.pack(mcf)
        direct = VacuumPacker(PipelineConfig()).pack(mcf)
        assert via_facade.expansion_row() == direct.expansion_row()

    def test_pack_accepts_benchmark_spec(self):
        result = repro.pack("181.mcf/A", scale=0.2)
        assert result.packages

    def test_profile_facade(self, mcf):
        profile = repro.profile(mcf)
        assert profile.records

    def test_lazy_exports_resolve(self):
        assert repro.PipelineConfig is PipelineConfig
        assert repro.ObsConfig is ObsConfig
        with pytest.raises(AttributeError):
            repro.does_not_exist


# ---------------------------------------------------------------------------
# the packer takes a PipelineConfig and nothing else
# ---------------------------------------------------------------------------

class TestLegacyShim:
    def test_config_path_never_warns(self, mcf):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            packer = VacuumPacker(PipelineConfig(validate=False))
            packer.pack(mcf)

    def test_wrong_config_type_raises(self):
        with pytest.raises(TypeError, match="PipelineConfig"):
            VacuumPacker(config="classic")
        with pytest.raises(TypeError, match="HSDConfig"):
            VacuumPacker(HSDConfig())


# ---------------------------------------------------------------------------
# one shared unique-selected-instruction count (satellite regression)
# ---------------------------------------------------------------------------

class TestUniqueSelected:
    def test_expansion_row_and_shard_payload_agree(self, mcf):
        result = repro.pack(mcf)
        expected = len(selected_origins(result.regions))
        assert result.unique_selected_instructions() == expected
        row = result.expansion_row()
        original = result.packed.original_static_size
        assert row["pct_selected"] == 100.0 * expected / original
        phases = sorted(
            {region.record.index for region in result.regions}
        )
        payload = shard_payload(result, phases)
        assert payload["unique_selected"] == expected
