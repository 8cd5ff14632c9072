"""Naive per-cell pulse-ledger replay used as an independent ground truth.

Deliberately structured nothing like the simulator's media model: plain
per-cell loops over per-line lists, no bit masks beyond single-bit probes
and no numpy. Applies the write sequence of a trace in order (which is the
service order of an unmitigated run, since writes are FCFS within a bank and
reads do not mutate state).
"""

from disturbsim.core import LINE_BITS, Geometry, decompose_address


class NaiveLedger:
    def __init__(self, g: Geometry, limit: int, fill_bit: int):
        self.g = g
        self.limit = limit
        self.fill_bit = fill_bit
        self.value = {}   # addr -> list of 512 stored bits
        self.pulses = {}  # addr -> list of 512 accumulated RESET pulses
        self.wde_events = []

    def _cells(self, addr):
        if addr not in self.value:
            self.value[addr] = [self.fill_bit] * LINE_BITS
            self.pulses[addr] = [0] * LINE_BITS
        return self.value[addr], self.pulses[addr]

    def _bit(self, addr, k):
        return self.value[addr][k] if addr in self.value else self.fill_bit

    def write(self, addr, data, full=False):
        g = self.g
        neighbors = []
        if addr.row > 0:
            neighbors.append(type(addr)(addr.rank, addr.bank, addr.row - 1, addr.col))
        if addr.row < g.rows_per_bank - 1:
            neighbors.append(type(addr)(addr.rank, addr.bank, addr.row + 1, addr.col))
        nb_cells = [(nb,) + self._cells(nb) for nb in neighbors]

        hit_cells = []
        limit = self.limit
        value, pulses = self._cells(addr)
        # bit k of the new data, as one character; bits[~k] is bit k
        bits = format(data, f"0{LINE_BITS}b")
        for k in range(LINE_BITS):
            new_bit = 1 if bits[~k] == "1" else 0
            old_bit = value[k]
            programmed = full or new_bit != old_bit
            if not programmed:
                continue
            value[k] = new_bit
            pulses[k] = 0
            reset_pulse = new_bit == 0 if full else (old_bit == 1 and new_bit == 0)
            if reset_pulse:
                for nb, nb_value, nb_pulses in nb_cells:
                    p = nb_pulses[k] + 1
                    if p >= limit:
                        nb_pulses[k] = limit
                        hit_cells.append((nb, nb_value, nb_pulses, k))
                    else:
                        nb_pulses[k] = p
        for nb, nb_value, nb_pulses, k in hit_cells:
            if nb_value[k] == 0 and nb_pulses[k] >= limit:
                nb_value[k] = 1
                nb_pulses[k] = 0
                self.wde_events.append((nb, k))


def replay_trace_wde(trace, g: Geometry, limit: int, fill: str) -> int:
    """Total disturbance flip count of an unmitigated run of `trace`."""
    ledger = NaiveLedger(g, limit, 1 if fill == "ones" else 0)
    for rec in trace:
        if rec.op == "W":
            ledger.write(decompose_address(rec.byte_addr, g), rec.data)
    return len(ledger.wde_events)
