"""GPUConfig / LatencyConfig / GDDRTimings validation and properties."""

import pytest

from repro.config import GDDRTimings, GPUConfig, LatencyConfig, WARP_SIZE


class TestDefaults:
    def test_table1_clusters(self):
        assert GPUConfig().num_clusters == 14

    def test_table1_cores_per_cluster(self):
        assert GPUConfig().cores_per_cluster == 1

    def test_table1_max_blocks(self):
        assert GPUConfig().max_blocks_per_sm == 8

    def test_table1_max_threads(self):
        assert GPUConfig().max_threads_per_sm == 1536

    def test_table1_registers(self):
        assert GPUConfig().registers_per_sm == 32768

    def test_table1_scratchpad(self):
        assert GPUConfig().scratchpad_per_sm == 16 * 1024

    def test_table1_schedulers(self):
        assert GPUConfig().num_schedulers == 2

    def test_table1_l1(self):
        assert GPUConfig().l1_size == 16 * 1024

    def test_table1_l2(self):
        assert GPUConfig().l2_size == 768 * 1024

    def test_table1_gddr_timings(self):
        t = GDDRTimings()
        assert (t.tRRD, t.tWR, t.tRCD, t.tRAS) == (6, 12, 12, 28)
        assert (t.tRP, t.tRC, t.tCL, t.tCDLR) == (12, 40, 12, 5)

    def test_num_sms(self):
        assert GPUConfig().num_sms == 14

    def test_max_warps_per_sm(self):
        assert GPUConfig().max_warps_per_sm == 1536 // WARP_SIZE == 48


class TestValidation:
    def test_zero_clusters_rejected(self):
        with pytest.raises(ValueError):
            GPUConfig(num_clusters=0)

    def test_nonwarp_threads_rejected(self):
        with pytest.raises(ValueError):
            GPUConfig(max_threads_per_sm=1000)

    def test_line_size_power_of_two(self):
        with pytest.raises(ValueError):
            GPUConfig(line_size=96)

    def test_l1_divisibility(self):
        with pytest.raises(ValueError):
            GPUConfig(l1_size=1000)

    def test_zero_partitions_rejected(self):
        with pytest.raises(ValueError):
            GPUConfig(num_mem_partitions=0)

    @pytest.mark.parametrize("cls", [GPUConfig, GDDRTimings, LatencyConfig])
    @pytest.mark.parametrize("bad", [0, -1, 2.0, "4", True, None, [8]])
    def test_every_count_is_an_int_of_at_least_one(self, cls, bad):
        for name in cls.__dataclass_fields__:
            if name in ("timings", "latency"):
                continue
            with pytest.raises(ValueError, match=name):
                cls(**{name: bad})

    @pytest.mark.parametrize("field", ["timings", "latency"])
    def test_nested_configs_must_be_instances(self, field):
        with pytest.raises(ValueError, match=field):
            GPUConfig(**{field: {}})


class TestScaled:
    def test_scaled_clusters(self):
        cfg = GPUConfig().scaled(num_clusters=4)
        assert cfg.num_clusters == 4
        assert cfg.num_sms == 4

    def test_scaled_preserves_per_sm_resources(self):
        cfg = GPUConfig().scaled(num_clusters=2)
        ref = GPUConfig()
        assert cfg.registers_per_sm == ref.registers_per_sm
        assert cfg.scratchpad_per_sm == ref.scratchpad_per_sm
        assert cfg.max_threads_per_sm == ref.max_threads_per_sm

    def test_scaled_blocks(self):
        cfg = GPUConfig().scaled(max_blocks_per_sm=4)
        assert cfg.max_blocks_per_sm == 4

    def test_scaled_noop(self):
        assert GPUConfig().scaled() == GPUConfig()

    def test_frozen(self):
        with pytest.raises(Exception):
            GPUConfig().num_clusters = 3  # type: ignore[misc]


class TestLatencyConfig:
    def test_defaults_positive(self):
        lat = LatencyConfig()
        assert lat.alu > 0 and lat.sfu > lat.alu
        assert lat.l2_hit > 0 and lat.interconnect > 0

    def test_sfu_longer_than_alu(self):
        lat = LatencyConfig()
        assert lat.sfu > lat.alu
