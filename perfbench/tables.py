"""The benchmark's four workloads: what each table simulates, and its check.

Every workload is one table a user of ``repro`` would ask for, run cold
(fresh interpreter, empty cache) through the public ``repro.api`` /
``repro.serve`` surface:

``suite-live``
    Fig. 8-style base-vs-PUBS full simulations over the eleven D-BP
    programs, live front end, ``run_suite`` on the process pool.  Almost
    all of the time is the ``core.pipeline`` cycle loop.
``sweep-replay``
    Fig. 10/11-style design sweep: twelve PUBS configs (priority entries
    x confidence-counter bits) over two programs in replay mode, each
    with a long warm-up and a short timed window.  Exercises trace
    capture, warm-checkpoint train/restore and batched trace walks.
``table-adaptive``
    Adaptive, paired base-vs-PUBS table over mcf/sjeng/gcc/gobmk through
    the ``TableController`` (``RunRequest(sampling="adaptive")``).
    Dominated by per-region fixed cost; the only workload that drives
    ``sampling``.
``serve-mixed``
    A ``repro serve`` process whose result cache is pre-filled with part
    of a base-vs-PUBS table; two closed-loop clients submit overlapping
    sweeps.  The read side of the cache, serve dedup and the wire codec.

The seed never changes what is simulated -- each cell's digest is fixed
by the reference file -- only the order cells are submitted in (and, for
``serve-mixed``, which programs share each client's sweeps).  Each
repetition draws its own order from the seed, so a run's median averages
over scheduling orders instead of measuring one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

WORKLOADS = ("suite-live", "sweep-replay", "table-adaptive", "serve-mixed")

#: The paper's D-BP programs (Fig. 8), as the profiles classify them.
DBP = ("astar", "bzip2", "gcc", "gobmk", "h264ref", "mcf", "omnetpp",
       "perlbench", "sjeng", "soplex", "xalancbmk")

#: Full-simulation budget of ``suite-live`` and ``serve-mixed`` cells.
FULL_INSTRUCTIONS = 6_000
FULL_SKIP = 4_000

SWEEP_PROGRAMS = ("sjeng", "gobmk")
SWEEP_ENTRIES = (2, 4, 6, 8, 12, 16)
SWEEP_CONF_BITS = (4, 6)
#: Long functional warm-up, short timed window (the Fig. 10/11 shape).
SWEEP_INSTRUCTIONS = 1_000
SWEEP_SKIP = 192_000

ADAPTIVE_PROGRAMS = ("mcf", "sjeng", "gcc", "gobmk")
ADAPTIVE_SPAN = 32_768
ADAPTIVE_SKIP = 2_000
ADAPTIVE_CI_TARGET = 0.02

#: ``serve-mixed``: both configs of these two programs are pre-filled...
SERVE_PREFILLED = ("sjeng", "mcf")
#: ... and these are simulated on demand.
SERVE_SIMULATED = ("gcc", "gobmk", "bzip2", "astar", "h264ref", "perlbench")

#: The paper's Fig. 8 headline: PUBS GM speedup over the D-BP programs.
PAPER_DBP_GM_PERCENT = 7.8


@dataclass(frozen=True)
class Table:
    """One repetition's table: configs x programs, in submission order."""

    workload: str
    configs: Tuple[str, ...]
    programs: Tuple[str, ...]
    #: ``serve-mixed`` only: each client's sweeps, as program tuples.
    sweeps: Tuple[Tuple[Tuple[str, ...], ...], ...] = ()

    def cells(self) -> List[str]:
        return [cell_id(c, p) for c in self.configs for p in self.programs]


def cell_id(config: str, program: str) -> str:
    return f"{config}/{program}"


def _sweep_points() -> List[Tuple[int, int]]:
    return [(entries, bits) for bits in SWEEP_CONF_BITS
            for entries in SWEEP_ENTRIES]


def config_set_names(workload: str) -> Tuple[str, ...]:
    if workload == "sweep-replay":
        return tuple(f"pe{entries}-cb{bits}"
                     for entries, bits in _sweep_points())
    return ("base", "pubs")


def config_set(workload: str) -> Dict[str, object]:
    """The named ProcessorConfigs the workload's table compares."""
    from repro.api import ProcessorConfig
    from repro.pubs import PubsConfig
    base = ProcessorConfig.cortex_a72_like()
    if workload == "sweep-replay":
        return {name: base.with_pubs(PubsConfig(priority_entries=entries,
                                                conf_counter_bits=bits))
                for name, (entries, bits) in zip(config_set_names(workload),
                                                 _sweep_points())}
    return {"base": base, "pubs": base.with_pubs()}


def request_for(workload: str):
    """The ``RunRequest`` a user would submit for the workload's table.

    Where the work runs is the executor's (or the server's) business, so
    the request carries budgets and modes only.
    """
    from repro.api import RunRequest
    if workload == "sweep-replay":
        return RunRequest(instructions=SWEEP_INSTRUCTIONS, skip=SWEEP_SKIP,
                          frontend="replay")
    if workload == "table-adaptive":
        return RunRequest(instructions=ADAPTIVE_SPAN, skip=ADAPTIVE_SKIP,
                          sampling="adaptive", ci_target=ADAPTIVE_CI_TARGET)
    return RunRequest(instructions=FULL_INSTRUCTIONS, skip=FULL_SKIP,
                      frontend="live")


def programs_of(workload: str) -> Tuple[str, ...]:
    return {
        "suite-live": DBP,
        "sweep-replay": SWEEP_PROGRAMS,
        "table-adaptive": ADAPTIVE_PROGRAMS,
        "serve-mixed": SERVE_PREFILLED + SERVE_SIMULATED,
    }[workload]


def all_cells(workload: str) -> List[str]:
    return [cell_id(c, p) for c in config_set_names(workload)
            for p in programs_of(workload)]


def prefilled_cells() -> List[str]:
    return [cell_id(c, p) for c in ("base", "pubs") for p in SERVE_PREFILLED]


def table_for(workload: str, seed: int, rep: int) -> Table:
    """The repetition's submission order, drawn from ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}:{rep}")
    configs = list(config_set_names(workload))
    programs = list(programs_of(workload))
    rng.shuffle(programs)
    if workload == "table-adaptive":
        # The paired criterion compares every config against the first,
        # so base stays first; only the program order varies.
        return Table(workload, tuple(configs), tuple(programs))
    rng.shuffle(configs)
    if workload != "serve-mixed":
        return Table(workload, tuple(configs), tuple(programs))
    filled = list(SERVE_PREFILLED)
    fresh = list(SERVE_SIMULATED)
    rng.shuffle(filled)
    rng.shuffle(fresh)
    f0, f1 = filled
    n0, n1, n2, n3, n4, n5 = fresh
    # Every program is asked for by both clients, every first sweep
    # holds a pre-filled program (so the first cell is a cache read),
    # and each second sweep asks for what the other client's first one
    # computes: in flight (serve dedup) or done (shared task).
    sweeps = (((f0, n0, n1, n2), (n3, n4, n5, f1)),
              ((f1, n3, n4, n5), (n0, n1, n2, f0)))
    return Table(workload, tuple(configs), tuple(programs), sweeps)


# ----------------------------------------------------------------------
# Output digests
# ----------------------------------------------------------------------

def full_digest(result) -> str:
    """Digest of a full simulation cell: its ``SimStats``."""
    from repro.exec.serialize import fingerprint
    return fingerprint(result.stats)


def sampled_digest(run) -> str:
    """Digest of a sampled cell: the estimate, its plan and region stats."""
    from repro.exec.serialize import fingerprint
    return fingerprint({
        "cpi": run.cpi,
        "misspec_penalty": run.misspec_penalty,
        "plan": run.plan,
        "converged": getattr(run, "converged", None),
        "regions": [result.stats for result in run.results],
    })


def cell_digest(cell) -> str:
    """Digest of one table cell (full result or ``WorkloadRun``)."""
    sampled = getattr(cell, "sampled", None)
    if sampled is not None:
        return sampled_digest(sampled)
    full = getattr(cell, "full", None)
    return full_digest(full if full is not None else cell)


def cell_cycles(cell) -> int:
    """Simulated cycles the cell reports (measured windows only)."""
    sampled = getattr(cell, "sampled", None)
    if sampled is not None:
        return sum(result.stats.cycles for result in sampled.results)
    full = getattr(cell, "full", None)
    return (full if full is not None else cell).stats.cycles
