"""Naive linear-scan scheduler used as the reference for the engine's indexed
bank queues.

A bank here is two plain lists, `read_q` and `write_q`, in arrival order. A
host write is one command: it sits in `write_q` until it is serviced, and an
unprepared one also sits in `read_q`, where it stands for its pre-write read.
Picking it unprepared runs that read, which prepares it. Every decision scans
the lists whole, exactly as the engine once did: priority-classed FCFS
(Rewrite > HostRead > PreWriteRead > HostWrite | Writeback), prepared writes
draining ahead of pre-write reads while the write queue is over its
watermark, and a pre-write read held back while an older write to its line
is queued.
"""

from disturbsim.controller import HOST_READ, HOST_WRITE, REWRITE, WRITEBACK

WRITE_KINDS = (HOST_WRITE, WRITEBACK)


class RefBank:
    def __init__(self):
        self.read_q = []
        self.write_q = []
        self.draining = False

    def enqueue(self, cmd):
        if cmd.kind is not HOST_READ:
            self.write_q.append(cmd)
        if cmd.kind is HOST_READ or not cmd.prepared:
            self.read_q.append(cmd)

    def remove(self, cmd):
        """A picked read, or an unprepared write's pre-write read, leaves
        `read_q`; a picked write leaves `write_q`."""
        if cmd in self.read_q:  # commands compare by identity
            self.read_q.remove(cmd)
        else:
            self.write_q.remove(cmd)


def pwr_ready(bank, write):
    """A pre-write read must observe every older write to its line."""
    return not any(c.seq < write.seq and c.addr == write.addr
                   for c in bank.write_q)


def next_command(bank, queue_depth, drain_watermark):
    if len(bank.write_q) >= queue_depth:
        bank.draining = True
    if bank.draining and len(bank.write_q) <= drain_watermark:
        bank.draining = False

    rewrite = next((c for c in bank.write_q
                    if c.kind is REWRITE), None)
    if rewrite is not None:
        return rewrite
    host_read = next((c for c in bank.read_q
                      if c.kind is HOST_READ), None)
    if host_read is not None:
        return host_read
    ready_write = next((c for c in bank.write_q if c.prepared), None)
    if bank.draining and ready_write is not None:
        return ready_write
    pre = next((c for c in bank.read_q
                if not c.prepared and pwr_ready(bank, c)), None)
    if pre is not None:
        return pre
    return ready_write


def merge_target(bank, addr):
    """The queued write a fresh rewrite of `addr` merges into, or None when
    the rewrite must be enqueued. A merge into a host write or writeback
    upgrades it to a full write."""
    return next((c for c in bank.write_q if c.addr == addr), None)
