"""Window signatures and representative selection (the SimPoint half).

Systematic placement alone cannot hit the 3% accuracy gate on
phase-structured workloads: per-window CPI varies by 10-30% around the
span mean, so a handful of evenly spaced windows is at the mercy of
which phases the stride happens to land on.  SimPoint (Sherwood et al.,
ASPLOS 2002) fixes this by *clustering* the windows on a cheap
execution signature and simulating one representative per cluster,
weighting each representative by its cluster's population.

The signature here is a per-window sparse feature vector computed from
the recorded trace arrays alone -- no simulation:

* ``pc`` buckets (``pc >> 6``): the classic basic-block-vector stand-in,
  what code the window runs;
* ``mem`` buckets of effective addresses (``addr >> 10``): what data it
  touches, which separates cache-friendly from cache-hostile phases the
  code signature cannot see;
* per-branch-site outcomes (``(pc, taken)``) and the window's overall
  taken rate: data-dependent control behavior, which separates
  predictable from unpredictable phases of the *same* code.

Counts are normalized by the window length, so the L1 distance between
two signatures is a fraction-of-execution overlap measure.  Clustering
is k-medoids with deterministic farthest-point seeding: no randomness,
so a (trace, parameters) pair always yields the same plan -- and
therefore the same exec job keys, which is what makes sampled regions
cacheable.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..trace.format import FLAG_COND_BRANCH, FLAG_MEM, FLAG_TAKEN

#: Instruction-bucket granularity (64 B of code per feature).
PC_SHIFT = 6
#: Data-bucket granularity (1 KiB of address space per feature).
ADDR_SHIFT = 10

Signature = Dict[tuple, float]


def window_signature(trace, start: int, length: int) -> Signature:
    """The signature of ``trace`` records ``[start, start + length)``."""
    end = start + length
    pcs = np.frombuffer(trace.pcs, dtype=np.uint32)[start:end]
    flags = np.frombuffer(trace.flags, dtype=np.uint8)[start:end]
    addrs = np.frombuffer(trace.mem_addrs, dtype=np.uint64)[start:end]
    sig: Signature = {}
    buckets, counts = np.unique(pcs >> PC_SHIFT, return_counts=True)
    for bucket, count in zip(buckets.tolist(), counts.tolist()):
        sig[("pc", bucket)] = count / length
    is_mem = (flags & FLAG_MEM) != 0
    buckets, counts = np.unique(addrs[is_mem] >> np.uint64(ADDR_SHIFT),
                                return_counts=True)
    for bucket, count in zip(buckets.tolist(), counts.tolist()):
        sig[("mem", bucket)] = count / length
    is_branch = ~is_mem & ((flags & FLAG_COND_BRANCH) != 0)
    branch_pcs = pcs[is_branch]
    outcomes = (flags[is_branch] & FLAG_TAKEN) != 0
    if branch_pcs.size:
        pairs = np.stack([branch_pcs.astype(np.int64),
                          outcomes.astype(np.int64)], axis=1)
        uniq, counts = np.unique(pairs, axis=0, return_counts=True)
        for (pc, outcome), count in zip(uniq.tolist(), counts.tolist()):
            sig[("br", pc, bool(outcome))] = count / length
        sig[("taken-rate",)] = float(outcomes.mean())
    return sig


def signature_distance(a: Signature, b: Signature) -> float:
    """L1 distance; 0 for identical behavior, up to ~2+ for disjoint."""
    total = 0.0
    for key, value in a.items():
        total += abs(value - b.get(key, 0.0))
    for key, value in b.items():
        if key not in a:
            total += value
    return total


def cluster_windows(signatures: Sequence[Signature], k: int,
                    max_iterations: int = 32,
                    ) -> Tuple[List[int], List[int]]:
    """K-medoids over window signatures, fully deterministic.

    Returns ``(medoids, weights)``: the indices of the representative
    windows and how many windows each one stands for.  Seeding is
    farthest-point from window 0, refinement is classic alternating
    assignment / medoid update; ties break toward the lower index, so
    the same input always produces the same clustering.
    """
    n = len(signatures)
    if n == 0:
        raise ValueError("cannot cluster zero windows")
    k = min(k, n)
    # Farthest-point seeding: start at the first window, repeatedly add
    # the window farthest from every current medoid.
    medoids = [0]
    nearest = [signature_distance(signatures[i], signatures[0])
               for i in range(n)]
    while len(medoids) < k:
        far = max(range(n), key=lambda i: nearest[i])
        medoids.append(far)
        for i in range(n):
            d = signature_distance(signatures[i], signatures[far])
            if d < nearest[i]:
                nearest[i] = d
    for _ in range(max_iterations):
        assignment = assign_windows(signatures, medoids)
        updated = []
        for j in range(len(medoids)):
            members = [i for i, a in enumerate(assignment) if a == j]
            if not members:
                updated.append(medoids[j])
                continue
            updated.append(min(
                members,
                key=lambda i: (sum(signature_distance(signatures[i],
                                                      signatures[x])
                                   for x in members), i)))
        if updated == medoids:
            break
        medoids = updated
    assignment = assign_windows(signatures, medoids)
    weights = [0] * len(medoids)
    for a in assignment:
        weights[a] += 1
    return medoids, weights


def assign_windows(signatures: Sequence[Signature],
                   medoids: Sequence[int]) -> List[int]:
    """Index of each window's nearest medoid (ties toward the lower slot)."""
    return [min(range(len(medoids)),
                key=lambda j: (signature_distance(s, signatures[medoids[j]]),
                               j))
            for s in signatures]


__all__ = [
    "ADDR_SHIFT",
    "PC_SHIFT",
    "Signature",
    "assign_windows",
    "cluster_windows",
    "signature_distance",
    "window_signature",
]
