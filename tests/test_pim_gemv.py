"""Unit tests for GEMV descriptors and command-stream builders."""

import pytest

from repro.dram.commands import CommandType
from repro.dram.timing import HbmOrganization
from repro.pim.gemv import (
    GemvOp,
    command_count,
    composite_stream,
    fine_grained_stream,
)


@pytest.fixture
def org():
    return HbmOrganization()


class TestGemvOp:
    def test_waves_formula(self, org):
        op = GemvOp(rows=64, cols=1024)
        # 64 rows / 32 banks = 2 rounds; 1024 cols / 512 per page = 2.
        assert op.waves(org) == 4

    def test_waves_round_up(self, org):
        op = GemvOp(rows=33, cols=513)
        assert op.waves(org) == 2 * 2

    def test_gwrites_cover_vector(self, org):
        assert GemvOp(rows=32, cols=2048).gwrites(org) == 4

    def test_invalid_dims_raise(self):
        with pytest.raises(ValueError):
            GemvOp(rows=0, cols=1)


class TestFineGrainedStream:
    def test_structure(self, org):
        op = GemvOp(rows=32, cols=512, tag="t")
        stream = fine_grained_stream(op, org)
        types = [c.ctype for c in stream]
        assert types[0] is CommandType.PIM_GWRITE
        assert types[-1] is CommandType.PIM_RDRESULT
        assert CommandType.PIM_ACTIVATION in types
        assert CommandType.PIM_DOTPRODUCT in types

    def test_activation_groups_cover_all_banks(self, org):
        op = GemvOp(rows=32, cols=512)
        stream = fine_grained_stream(op, org)
        acts = [c for c in stream if c.ctype is CommandType.PIM_ACTIVATION]
        banks = {b for c in acts for b in c.banks}
        assert banks == set(range(org.banks_per_channel))

    def test_command_count_scales_with_waves(self, org):
        small = GemvOp(rows=32, cols=512)
        large = GemvOp(rows=320, cols=512)
        assert command_count(large, org, composite=False) > \
            5 * command_count(small, org, composite=False)

    def test_all_commands_tagged(self, org):
        op = GemvOp(rows=32, cols=512, tag="logit[3]")
        assert all(c.meta == "logit[3]"
                   for c in fine_grained_stream(op, org))


class TestCompositeStream:
    def test_structure(self, org):
        op = GemvOp(rows=320, cols=1024, tag="t")
        stream = composite_stream(op, org)
        types = [c.ctype for c in stream]
        assert types[0] is CommandType.PIM_HEADER
        assert types[-1] is CommandType.PIM_PRECHARGE
        assert types.count(CommandType.PIM_GEMV) == 1

    def test_header_carries_wave_count(self, org):
        op = GemvOp(rows=320, cols=1024)
        stream = list(composite_stream(op, org))
        header = stream[0]
        gemv = next(c for c in stream if c.ctype is CommandType.PIM_GEMV)
        assert header.k == gemv.k == op.waves(org)

    def test_command_count_constant_in_waves(self, org):
        """Figure 9's point: composite encoding decouples C/A traffic from
        the GEMV size."""
        small = GemvOp(rows=32, cols=512)
        large = GemvOp(rows=3200, cols=512)
        assert command_count(small, org, composite=True) == \
            command_count(large, org, composite=True)

    def test_composite_far_fewer_commands_than_fine_grained(self, org):
        op = GemvOp(rows=640, cols=4096)
        fine = command_count(op, org, composite=False)
        comp = command_count(op, org, composite=True)
        assert fine > 20 * comp

    def test_gwrites_scale_with_vector_width(self, org):
        narrow = composite_stream(GemvOp(rows=32, cols=512), org)
        wide = composite_stream(GemvOp(rows=32, cols=4096), org)
        def gwrites(stream):
            return sum(1 for c in stream
                       if c.ctype is CommandType.PIM_GWRITE)
        assert gwrites(wide) == 8 * gwrites(narrow)


class TestCommandCount:
    """``command_count`` is the descriptor's arithmetic length."""

    @pytest.mark.parametrize("composite", [False, True])
    @pytest.mark.parametrize("rows,cols,dtype_bytes", [
        (1, 1, 2), (32, 512, 2), (33, 513, 2), (320, 4096, 1),
        (1000, 3000, 4), (4096, 4096, 2)])
    def test_matches_expansion(self, org, composite, rows, cols,
                               dtype_bytes):
        op = GemvOp(rows=rows, cols=cols)
        builder = composite_stream if composite else fine_grained_stream
        count = command_count(op, org, composite, dtype_bytes)
        assert count == len(list(builder(op, org, dtype_bytes)))
        # HEADER, GEMV and PRECHARGE; or one ACT per bank group, DOTPRODUCT
        # and PRECHARGE per wave, then RDRESULT.
        body = (3 if composite
                else op.waves(org, dtype_bytes) * (org.bank_groups + 2) + 1)
        assert count == op.gwrites(org, dtype_bytes) + body
