"""The engine's earlier main loop, used as the reference for `Engine.run`.

Each event takes up to three passes over the banks: one that services every
idle bank, a second at the same time after any service, whether or not it
could issue, and a third, once a pass issues nothing, that gathers the
candidate wake times. It relies on no invariant of the services, so the
one-pass loop must reproduce its runs exactly: the same reports, the same
random state and the same calls into the engine.
"""

from disturbsim.controller import Engine
from disturbsim.core import ConsistencyError


class TwoPassEngine(Engine):
    def run(self):
        records = self.trace
        n = len(records)
        banks = self.banks
        submit, next_command, service = (self.submit, self.next_command,
                                         self._service)
        i = 0
        now = 0
        due = records[0].time if n else 0  # the time of records[i], if i < n
        while True:
            while i < n and due <= now:
                if submit(records[i], i, now):
                    i += 1
                    if i < n:
                        due = records[i].time
                else:
                    break
            issued = False
            for bank in banks:
                if bank.busy_until <= now and (bank.read_q or bank.write_q):
                    cmd = next_command(bank, now)
                    if cmd is not None:
                        service(bank, cmd, now)
                        issued = True
            if issued:
                continue
            candidates = [due] if i < n and due > now else []
            for bank in banks:
                if (bank.read_q or bank.write_q) and bank.busy_until > now:
                    candidates.append(bank.busy_until)
            if not candidates:
                break
            now = min(candidates)

        if i < n or any(b.read_q or b.write_q for b in banks):
            raise ConsistencyError("engine stalled with unserviceable commands")

        return self._finalize()
