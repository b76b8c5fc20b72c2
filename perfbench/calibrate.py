"""How fast the host runs pure-Python code right now.

A shared host's speed drifts by tens of percent over minutes as other
tenants come and go, and the drift reaches every process alike: the
simulator, its pool workers and this kernel.  ``run.py`` times
:func:`kernel` on ``width`` concurrent processes (as many as the table's
pool has workers) next to every repetition and divides the drift out of
the repetition's times.

The kernel is fixed and never imports ``repro``: a change to the program
cannot move it.  It is written like the simulator's hot loop -- a
gshare-style predictor and a small reorder window over a deterministic
branch stream -- so that a slow host slows both alike.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List

#: Branches one kernel call simulates: about 0.1 s on a 2 GHz Xeon.
BRANCHES = 85_000
#: Predictor entries and branch addresses.
SLOTS = 1 << 12


class _Entry:
    __slots__ = ("pc", "taken", "ready")

    def __init__(self, pc: int, taken: bool, ready: int) -> None:
        self.pc = pc
        self.taken = taken
        self.ready = ready


def kernel(branches: int = BRANCHES) -> int:
    """A gshare predictor and target buffer over a pseudo-random branch
    stream; their checksum.  The state stays in the core's own caches: a
    kernel that spilled to the shared last-level cache slowed down more
    than the simulator did while neighbours were busy."""
    table = [2] * SLOTS
    targets: Dict[int, int] = {}
    stats = {"hit": 0, "miss": 0}
    window: List[_Entry] = []
    history = 0
    state = 12345
    cycle = 0
    for _ in range(branches):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        pc = (state >> 4) & (SLOTS - 1)
        taken = ((state >> 20) & 7) < (5 if pc & 1 else 2)
        index = (pc ^ history) & (SLOTS - 1)
        predicted = table[index] >= 2
        stats["hit" if predicted == taken else "miss"] += 1
        if taken:
            table[index] = min(3, table[index] + 1)
            targets[pc] = targets.get(pc, pc) ^ cycle
        else:
            table[index] = max(0, table[index] - 1)
        history = ((history << 1) | taken) & (SLOTS - 1)
        cycle += 1 if predicted == taken else 8
        window.append(_Entry(pc, taken, cycle + (pc & 3)))
        if len(window) > 32:
            window = [e for e in window if e.ready > cycle]
    return stats["hit"] * 31 + stats["miss"] + len(window) + len(targets)


def timed_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def measure(width: int, rounds: int) -> List[float]:
    """Each round's mean time over ``width`` concurrent processes.

    The workers are forked once and run the rounds in lockstep, so every
    round measures all of them busy at once, as a pool is.  Each has its
    own go pipe, so no worker can take another's turn.
    """
    if width <= 1:
        return [timed_kernel() for _ in range(rounds)]
    gos: List[int] = []
    results = []
    pids = []
    try:
        for _ in range(width):
            go_read, go_write = os.pipe()
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:  # worker: one timing per go byte, until EOF
                try:
                    for fd in [go_write, read] + gos:
                        os.close(fd)
                    for pipe in results:
                        pipe.close()
                    while os.read(go_read, 1):
                        os.write(write, f"{timed_kernel()!r}\n".encode())
                finally:
                    os._exit(0)
            pids.append(pid)
            os.close(go_read)
            os.close(write)
            gos.append(go_write)
            results.append(os.fdopen(read))
        times = []
        for _ in range(rounds):
            for go in gos:
                os.write(go, b"g")
            times.append(sum(float(p.readline()) for p in results) / width)
        return times
    finally:
        for go in gos:
            os.close(go)
        for pipe in results:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)
