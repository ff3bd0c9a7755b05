"""Tomasulo bookkeeping structures for the out-of-order core.

These are the textbook pieces — reorder buffer, reservation stations,
load/store queue — kept as small, separately-testable classes.
:class:`~repro.uarch.ooo.OooCore` drives them: the ROB orders commit
(and its free slots are the speculation window the shared wrong-path
walker runs in), the reservation stations and the LSQ model issue
back-pressure.

The functional register values live in the core's rename file
(``state.regs``) and their ready times in the core's ``_ready`` list;
the structures here carry the rest of the *schedule* — when results
complete, what is still in flight.  ``Pmu``-visible time falls out of
the commit stream.
"""

from collections import deque


class ReorderBuffer:
    """Program-ordered window of in-flight instructions.

    Entries enter at the tail at dispatch and leave at the head at
    commit — strictly in order.  An entry is one in-flight instruction,
    the plain tuple ``(seq, pc, unit, completion, writes)``: its
    sequence number, pc and issue unit (``"alu"``, ``"mem"``, ``"br"``
    or ``"nop"``), its result-ready time in cycles and the
    ``((register, value), ...)`` it writes back at commit.  Only the
    architectural path allocates entries: wrong-path instructions run
    in the free slots without occupying them.
    """

    def __init__(self, depth):
        self.depth = depth
        self.entries = deque()

    def __len__(self):
        return len(self.entries)

    def free_slots(self):
        """Unallocated entries — the transient-execution window."""
        return max(0, self.depth - len(self.entries))

    def pop_head(self):
        return self.entries.popleft()

    def clear(self):
        self.entries.clear()


class ReservationStations:
    """One bounded issue pool per functional-unit kind.

    Modelled as the completion times of the occupying instructions: an
    entry frees once its instruction's result is ready.  The core
    appends to ``pools[kind]`` when it issues and calls ``acquire`` when
    a pool is full; ``acquire`` returns the (possibly stalled) dispatch
    time — structural hazards push fetch, exactly like a full ROB does.
    """

    def __init__(self, capacities):
        self.pools = {kind: [] for kind in capacities}
        self.capacities = dict(capacities)

    def acquire(self, kind, now):
        pool = self.pools[kind]
        capacity = self.capacities[kind]
        if len(pool) >= capacity:
            pool[:] = [t for t in pool if t > now]
            while len(pool) >= capacity:
                now = min(pool)
                pool[:] = [t for t in pool if t > now]
        return now

    def clear(self):
        for pool in self.pools.values():
            pool.clear()


class LoadStoreQueue:
    """Bounded window of in-flight memory operations.

    Functional memory effects happen at dispatch (the rename file is
    eager), so the queue models *capacity*: a full LSQ stalls dispatch
    of the next memory op until the oldest in-flight one commits.
    Entries are the sequence numbers of in-flight memory ops; the core
    appends them at dispatch and releases them as they commit.
    """

    def __init__(self, depth):
        self.depth = depth
        self.entries = deque()

    def __len__(self):
        return len(self.entries)

    def release(self, seq):
        """Retire the queue entry for a committing instruction."""
        if self.entries and self.entries[0] == seq:
            self.entries.popleft()

    def clear(self):
        self.entries.clear()
