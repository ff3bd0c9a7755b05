"""Unit tests for the Tomasulo bookkeeping structures."""

from repro.uarch import (
    LoadStoreQueue,
    ReorderBuffer,
    ReservationStations,
)


def _entry(seq, completion=0.0):
    """A ROB entry: (seq, pc, unit, completion, writes)."""
    return (seq, seq * 8, "alu", completion, ())


class TestReorderBuffer:
    def test_capacity_and_free_slots(self):
        rob = ReorderBuffer(3)
        assert rob.free_slots() == 3
        rob.entries.append(_entry(0))
        rob.entries.append(_entry(1))
        assert rob.free_slots() == 1
        assert len(rob) == 2
        rob.entries.append(_entry(2))
        assert rob.free_slots() == 0

    def test_commit_is_fifo(self):
        rob = ReorderBuffer(4)
        for seq in range(3):
            rob.entries.append(_entry(seq))
        assert [rob.pop_head()[0] for _ in range(3)] == [0, 1, 2]
        assert len(rob) == 0


class TestReservationStations:
    def test_acquire_stalls_until_an_entry_frees(self):
        rs = ReservationStations({"alu": 2})
        rs.pools["alu"].extend((10.0, 20.0))
        # Pool full at t=5: dispatch slips to the earliest completion.
        assert rs.acquire("alu", 5.0) == 10.0
        rs.pools["alu"].append(12.0)   # takes the freed slot: [20, 12]
        assert rs.acquire("alu", 11.0) == 12.0  # still full at t=11
        assert rs.acquire("alu", 13.0) == 13.0  # 12.0 completed by now

    def test_kinds_are_independent(self):
        rs = ReservationStations({"alu": 1, "mem": 1})
        rs.pools["alu"].append(10.0)
        assert rs.acquire("mem", 1.0) == 1.0


class TestLoadStoreQueue:
    def test_release_matches_the_head_seq(self):
        lsq = LoadStoreQueue(4)
        lsq.entries.extend((0, 1))
        lsq.release(1)          # not the head: ignored
        assert len(lsq) == 2
        lsq.release(0)
        lsq.release(1)
        assert len(lsq) == 0

    def test_full(self):
        # the core stalls memory dispatch while len() reaches depth
        lsq = LoadStoreQueue(1)
        assert len(lsq) < lsq.depth
        lsq.entries.append(0)
        assert len(lsq) == lsq.depth
