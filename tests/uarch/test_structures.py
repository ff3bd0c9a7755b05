"""Unit tests for the Tomasulo bookkeeping structures."""

from repro.uarch import (
    LoadStoreQueue,
    ReorderBuffer,
    ReservationStations,
    RobEntry,
)


def _entry(seq, completion=0.0):
    return RobEntry(seq, pc=seq * 8, op=0, kind="alu",
                    completion=completion)


class TestReorderBuffer:
    def test_capacity_and_free_slots(self):
        rob = ReorderBuffer(3)
        assert rob.free_slots() == 3
        rob.append(_entry(0))
        rob.append(_entry(1))
        assert rob.free_slots() == 1
        assert not rob.full
        rob.append(_entry(2))
        assert rob.full
        assert rob.free_slots() == 0

    def test_commit_is_fifo(self):
        rob = ReorderBuffer(4)
        for seq in range(3):
            rob.append(_entry(seq))
        assert rob.head().seq == 0
        assert [rob.pop_head().seq for _ in range(3)] == [0, 1, 2]
        assert len(rob) == 0


class TestReservationStations:
    def test_acquire_stalls_until_an_entry_frees(self):
        rs = ReservationStations({"alu": 2})
        rs.issue("alu", 10.0)
        rs.issue("alu", 20.0)
        # Pool full at t=5: dispatch slips to the earliest completion.
        assert rs.acquire("alu", 5.0) == 10.0
        rs.issue("alu", 12.0)          # takes the freed slot: [20, 12]
        assert rs.acquire("alu", 11.0) == 12.0  # still full at t=11
        assert rs.acquire("alu", 13.0) == 13.0  # 12.0 completed by now

    def test_kinds_are_independent(self):
        rs = ReservationStations({"alu": 1, "mem": 1})
        rs.issue("alu", 10.0)
        assert rs.acquire("mem", 1.0) == 1.0


class TestLoadStoreQueue:
    def test_release_matches_the_head_seq(self):
        lsq = LoadStoreQueue(4)
        lsq.push(0, 5.0)
        lsq.push(1, 6.0)
        lsq.release(1)          # not the head: ignored
        assert len(lsq) == 2
        lsq.release(0)
        lsq.release(1)
        assert len(lsq) == 0

    def test_full(self):
        lsq = LoadStoreQueue(1)
        assert not lsq.full
        lsq.push(0, 1.0)
        assert lsq.full
