"""Unit tests for the bank state machines (single vs dual row buffer)."""

import pytest

from repro.dram.bank import Bank, StructuralHazard, TimingViolation
from repro.dram.commands import BufferTarget
from repro.dram.timing import TimingParams


@pytest.fixture
def timing():
    return TimingParams()


def dual_bank(timing):
    return Bank(0, timing, dual_row_buffer=True)


def single_bank(timing):
    return Bank(0, timing, dual_row_buffer=False)


class TestActivation:
    def test_activate_opens_row(self, timing):
        bank = dual_bank(timing)
        bank.activate(BufferTarget.MEM, row=5, time=0.0)
        assert bank.open_row(BufferTarget.MEM) == 5

    def test_activate_open_buffer_raises(self, timing):
        bank = dual_bank(timing)
        bank.activate(BufferTarget.MEM, row=5, time=0.0)
        with pytest.raises(StructuralHazard):
            bank.activate(BufferTarget.MEM, row=6, time=100.0)

    def test_reactivation_requires_precharge_plus_trp(self, timing):
        bank = dual_bank(timing)
        bank.activate(BufferTarget.MEM, row=5, time=0.0)
        bank.precharge(BufferTarget.MEM, time=float(timing.tRAS))
        earliest = bank.earliest_activate(BufferTarget.MEM, 0.0)
        assert earliest == timing.tRAS + timing.tRP

    def test_early_activate_raises_timing_violation(self, timing):
        bank = dual_bank(timing)
        bank.activate(BufferTarget.MEM, row=5, time=0.0)
        bank.precharge(BufferTarget.MEM, time=float(timing.tRAS))
        with pytest.raises(TimingViolation):
            bank.activate(BufferTarget.MEM, row=6, time=timing.tRAS + 1)


class TestDualRowBuffer:
    def test_both_buffers_can_hold_different_rows(self, timing):
        bank = dual_bank(timing)
        bank.activate(BufferTarget.MEM, row=5, time=0.0)
        t = bank.earliest_activate(BufferTarget.PIM, 0.0)
        bank.activate(BufferTarget.PIM, row=9, time=t)
        assert bank.open_row(BufferTarget.MEM) == 5
        assert bank.open_row(BufferTarget.PIM) == 9

    def test_same_row_in_both_buffers_rejected(self, timing):
        """The paper's controller rule: multiple activations must not be
        issued over the same bank row."""
        bank = dual_bank(timing)
        bank.activate(BufferTarget.MEM, row=5, time=0.0)
        t = bank.earliest_activate(BufferTarget.PIM, 0.0)
        with pytest.raises(StructuralHazard):
            bank.activate(BufferTarget.PIM, row=5, time=t)

    def test_cross_buffer_activates_spaced_by_trrd(self, timing):
        bank = dual_bank(timing)
        bank.activate(BufferTarget.MEM, row=5, time=0.0)
        assert bank.earliest_activate(BufferTarget.PIM, 0.0) == timing.tRRD_L

    def test_single_buffer_bank_maps_pim_to_shared_buffer(self, timing):
        bank = single_bank(timing)
        bank.activate(BufferTarget.PIM, row=3, time=0.0)
        assert bank.open_row(BufferTarget.MEM) == 3


    @pytest.mark.parametrize("dual", [True, False])
    def test_no_buffer_target_raises(self, timing, dual):
        bank = Bank(0, timing, dual_row_buffer=dual)
        with pytest.raises(ValueError):
            bank.open_row(BufferTarget.NONE)


class TestBlockedMode:
    def test_pim_hold_blocks_mem_in_single_buffer(self, timing):
        bank = single_bank(timing)
        bank.begin_pim_hold(until=500.0)
        assert bank.is_blocked_for_mem(100.0)
        assert not bank.is_blocked_for_mem(600.0)

    def test_dual_buffer_never_blocked(self, timing):
        bank = dual_bank(timing)
        bank.begin_pim_hold(until=500.0)
        assert not bank.is_blocked_for_mem(100.0)

    def test_blocked_mode_delays_activate(self, timing):
        bank = single_bank(timing)
        bank.begin_pim_hold(until=500.0)
        assert bank.earliest_activate(BufferTarget.MEM, 0.0) >= 500.0


class TestColumnAccess:
    def test_column_requires_trcd_after_activate(self, timing):
        bank = dual_bank(timing)
        bank.activate(BufferTarget.MEM, row=5, time=0.0)
        assert bank.earliest_column(BufferTarget.MEM, 5, 0.0) == timing.tRCD

    def test_column_on_wrong_row_raises(self, timing):
        bank = dual_bank(timing)
        bank.activate(BufferTarget.MEM, row=5, time=0.0)
        with pytest.raises(StructuralHazard):
            bank.earliest_column(BufferTarget.MEM, 7, 100.0)

    def test_consecutive_columns_spaced_by_tccd(self, timing):
        bank = dual_bank(timing)
        bank.activate(BufferTarget.MEM, row=5, time=0.0)
        bank.column_access(BufferTarget.MEM, 5, float(timing.tRCD))
        earliest = bank.earliest_column(BufferTarget.MEM, 5, 0.0)
        assert earliest == timing.tRCD + timing.tCCD_L

    def test_early_column_raises(self, timing):
        bank = dual_bank(timing)
        bank.activate(BufferTarget.MEM, row=5, time=0.0)
        with pytest.raises(TimingViolation):
            bank.column_access(BufferTarget.MEM, 5, 1.0)

    def test_write_extends_precharge_point(self, timing):
        bank = dual_bank(timing)
        bank.activate(BufferTarget.MEM, row=5, time=0.0)
        end = bank.column_access(BufferTarget.MEM, 5, float(timing.tRCD),
                                 is_write=True)
        assert bank.earliest_precharge(BufferTarget.MEM, 0.0) == \
            end + timing.tWR


class TestPrechargeAndRefresh:
    def test_precharge_before_tras_raises(self, timing):
        bank = dual_bank(timing)
        bank.activate(BufferTarget.MEM, row=5, time=0.0)
        with pytest.raises(TimingViolation):
            bank.precharge(BufferTarget.MEM, time=1.0)

    def test_precharge_idle_bank_is_noop(self, timing):
        bank = dual_bank(timing)
        bank.precharge(BufferTarget.MEM, time=0.0)
        assert bank.open_row(BufferTarget.MEM) is None

    def test_refresh_closes_all_buffers(self, timing):
        bank = dual_bank(timing)
        bank.activate(BufferTarget.MEM, row=5, time=0.0)
        bank.refresh(time=100.0, trfc=timing.tRFC)
        assert bank.open_row(BufferTarget.MEM) is None
        assert bank.earliest_activate(BufferTarget.MEM, 0.0) >= \
            100.0 + timing.tRFC


class TestStateKey:
    """The replay digest holds exactly the state that can still matter."""

    @staticmethod
    def _keys(bank):
        before = bank.state_key(base=0.0, horizon=0.0)
        bank.pim_busy_until = 5_000.0
        return before, bank.state_key(base=0.0, horizon=0.0)

    def test_dual_key_ignores_pim_busy_until(self, timing):
        # Every reader of the field is guarded by blocked mode.
        before, after = self._keys(dual_bank(timing))
        assert before == after

    def test_single_key_includes_pim_busy_until(self, timing):
        before, after = self._keys(single_bank(timing))
        assert before != after

    def test_refresh_moves_only_the_single_buffer_key(self, timing):
        # A refresh sets pim_busy_until in both modes; past the refresh
        # window the dual key is back to its resting value.
        for bank, moved in ((dual_bank(timing), False),
                            (single_bank(timing), True)):
            horizon = 1_000.0 + timing.tRFC
            rest = bank.state_key(base=horizon, horizon=horizon)
            bank.refresh(time=1_000.0, trfc=timing.tRFC)
            assert (bank.state_key(base=horizon, horizon=horizon)
                    != rest) is moved
