"""The repository's benchmark: four cold tables, timed and checked.

Run from the repository root::

    python3 perfbench/run.py --workload suite-live --seed 1 --seconds 15 \
        --trace 0 [--out ledger.jsonl]

Each repetition is a fresh interpreter (``perfbench/rep.py``) with every
``REPRO_*`` variable scrubbed from its environment and a fresh, empty
``REPRO_CACHE_DIR`` under ``.perfbench/`` (``serve-mixed`` gets its
pre-filled fixture and nothing else).  Repetitions run until
``--seconds`` is spent, at least :data:`MIN_REPS` of them; :data:`FOLD`
says how each metric folds them into one value.  Every simulated cell is
checked against ``perfbench/reference.json``; a mismatch fails the run (exit 1).
Untraced repetitions are bracketed by rounds of a fixed calibration
kernel (``perfbench/calibrate.py``) and their times are reported in
host-calibrated seconds, so that a shared host's slow spells cancel.

``--trace 0`` reports the end-to-end metrics of the untraced run, with
``nproc``-capped pool workers (at most two).  ``--trace 1`` alternates an
untraced and a traced repetition, both executing units in-process, and
reports the per-layer metrics of the traced one plus the tracing
overhead (traced over untraced ``table_s``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  ``--out`` appends the full result entry (provenance,
per-repetition values, fidelity numbers) to a JSON-lines ledger, which
``perfbench/layerdiff.py`` compares.

``--write-reference`` re-records ``reference.json`` (one traced
repetition per workload, cross-checked against an untraced pooled one);
do that only for a change that is meant to alter simulated results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import tables  # noqa: E402

REFERENCE = HERE / "reference.json"
#: Scratch root, inside the checkout, for per-repetition cache directories.
SCRATCH = ".perfbench"
#: Repetitions per run, whatever ``--seconds`` says.
MIN_REPS = 3
MIN_TRACED_REPS = 2
MAX_REPS = 40
#: A repetition that takes longer than this is killed and counts as failed.
REP_TIMEOUT = 150.0
#: Host-calibrated times are seconds on a host that runs the calibration
#: kernel in this long (about what a quiet 2 GHz Xeon vCPU takes).
CAL_REFERENCE_S = 0.1
#: Timed calibration rounds before and after every untraced repetition.
CAL_ROUNDS = 3

#: Units whose values are exact counts: equal on every traced repetition.
EXACT_UNITS = ("count", "B")
DISCLAIMER = ("(the model is checked against the paper's figures, "
              "not against hardware)")


def declared_metrics(root: Path) -> Dict[str, Dict[str, str]]:
    """Metric names and units, end-to-end and per-layer, from
    ``BENCHMARK.json``."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------

def provenance(root: Path) -> Dict[str, object]:
    """Where and on what the numbers were measured."""
    git_sha = None
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=root, capture_output=True, text=True,
                             timeout=10)
        lines = git.stdout.split()
        # A checkout that is not itself a repository may sit inside one.
        if git.returncode == 0 and len(lines) == 2 and \
                Path(lines[0]).resolve() == root.resolve():
            git_sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    from importlib.metadata import PackageNotFoundError, version
    try:
        numpy_version = version("numpy")
    except PackageNotFoundError:
        numpy_version = None
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cpus = os.cpu_count()
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "usable_cpus": cpus,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
    }


# ----------------------------------------------------------------------
# Repetitions
# ----------------------------------------------------------------------

def child_env(root: Path, cache_dir: Path) -> Dict[str, str]:
    """The parent's environment minus ``REPRO_*``, plus the run's cache."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(root: Path, scratch: Path, workload: str, seed: int, rep: int,
              mode: str, fixture: Optional[Path] = None,
              cache_dir: Optional[Path] = None,
              check: bool = True) -> Dict[str, object]:
    """One repetition in a fresh interpreter; its record, or an error."""
    own_cache = cache_dir is None
    if own_cache:
        cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=scratch))
        if fixture is not None:
            for entry in fixture.glob("*.pkl"):
                shutil.copy2(entry, cache_dir / entry.name)
    out = Path(tempfile.mkstemp(prefix="rep-", suffix=".json",
                                dir=scratch)[1])
    command = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
               "--seed", str(seed), "--rep", str(rep), "--mode", mode,
               "--out", str(out)]
    if check:
        command += ["--reference", str(REFERENCE)]
    if fixture is not None and mode != "fixture":
        command += ["--fixture", str(fixture)]
    t0 = time.monotonic()
    command += ["--t0", repr(t0)]
    proc = subprocess.Popen(command, cwd=root, env=child_env(root, cache_dir),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=REP_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"repetition timed out after {REP_TIMEOUT:.0f} s"}
    finally:
        if own_cache:
            shutil.rmtree(cache_dir, ignore_errors=True)
    try:
        if proc.returncode != 0:
            tail = "\n".join((stderr or stdout).strip().splitlines()[-5:])
            return {"error": f"repetition exited {proc.returncode}: {tail}"}
        record = json.loads(out.read_text())
        record["wall_s"] = time.monotonic() - t0
        return record
    finally:
        out.unlink(missing_ok=True)


def build_fixture(root: Path, scratch: Path) -> Path:
    """``serve-mixed``'s pre-filled results, simulated once per run."""
    fixture = Path(tempfile.mkdtemp(prefix="fixture-", dir=scratch))
    record = run_child(root, scratch, "serve-mixed", 0, 0, "fixture",
                       cache_dir=fixture, check=False)
    if "error" in record:
        raise RuntimeError("could not build the serve-mixed fixture: "
                           + record["error"])
    for namespace in ("traces", "warm", "queue"):
        shutil.rmtree(fixture / namespace, ignore_errors=True)
    expected = len(tables.prefilled_cells())
    found = len(list(fixture.glob("*.pkl")))
    if found != expected:
        raise RuntimeError(f"fixture holds {found} results, "
                           f"expected {expected}")
    return fixture


def pool_width() -> int:
    """Pool workers a pooled repetition runs: at most two, at most nproc."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cpus = os.cpu_count() or 1
    return max(1, min(2, cpus))


def host_seconds(width: int) -> List[float]:
    """Calibration kernel times on ``width`` processes, right now.

    The first round is dropped: a host that was idle runs it slow.
    """
    return calibrate.measure(width, CAL_ROUNDS + 1)[1:]


def run_reps(root: Path, scratch: Path, workload: str, seed: int,
             seconds: float, trace: bool) -> List[Dict[str, object]]:
    """Repetitions until ``seconds`` is spent (and the minimum is met).

    Untraced repetitions are bracketed by calibration rounds; each gets
    the median kernel time of the rounds just before and just after it
    as its ``calibration_s``.
    """
    fixture = build_fixture(root, scratch) \
        if workload == "serve-mixed" else None
    width = pool_width()
    start = time.monotonic()
    before = [] if trace else host_seconds(width)
    records: List[Dict[str, object]] = []
    spent: List[float] = []
    minimum = MIN_TRACED_REPS if trace else MIN_REPS
    while len(records) < MAX_REPS:
        began = time.monotonic()
        mode = ("inline", "traced")[len(records) % 2] if trace else "pooled"
        record = run_child(root, scratch, workload, seed, len(records), mode,
                           fixture)
        records.append(record)
        if "error" in record:
            break
        if not trace:
            after = host_seconds(width)
            record["calibration_s"] = statistics.median(before + after)
            before = after
        spent.append(time.monotonic() - began)
        if len(records) < minimum or trace and len(records) % 2:
            continue  # traced runs stop only after a whole pair
        following = statistics.median(spent)
        if time.monotonic() - start + following * (1 + trace) > seconds:
            break
    return records


# ----------------------------------------------------------------------
# Aggregation and printing
# ----------------------------------------------------------------------

def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


#: How each end-to-end metric folds a run's repetitions into one value.
#: Times are host-calibrated first (see :func:`end_to_end`), which leaves
#: no reason to prefer the fastest repetition over the median.  Which
#: pool worker ends up holding which trace varies with the schedule, so
#: one repetition's peak RSS is bimodal (sweep-replay: 55 or 62 MB); the
#: run's largest is not.
FOLD = {
    "table_s": ("median", statistics.median),
    "kcycles_per_s": ("median", statistics.median),
    "ttfc_s": ("median", statistics.median),
    "setup_s": ("median", statistics.median),
    "peak_rss_mb": ("largest", max), "pass_frac": ("worst", min),
}
#: Metrics in host-calibrated seconds (``kcycles_per_s`` divides by one).
CALIBRATED = ("table_s", "ttfc_s", "setup_s")


def calibrated(seconds: float, calibration_s: float) -> float:
    """Host seconds scaled to a host that runs the kernel in
    :data:`CAL_REFERENCE_S`: a host running everything 30% slower for a
    while reads 30% slower on the kernel too, and the ratio cancels."""
    return seconds * CAL_REFERENCE_S / calibration_s


def end_to_end(records, reference) -> Dict[str, List[float]]:
    """Every repetition's value of each end-to-end metric."""
    def scaled(r, name):
        return calibrated(r[name], r["calibration_s"])

    def kcycles(r):
        total = r["timed_cycles"] + reference["detail_cycles"]
        return total / scaled(r, "table_s") / 1000.0
    return {
        "table_s": [scaled(r, "table_s") for r in records],
        "kcycles_per_s": [kcycles(r) for r in records],
        "ttfc_s": [scaled(r, "ttfc_s") for r in records],
        "setup_s": [scaled(r, "setup_s") for r in records],
        "peak_rss_mb": [r["peak_rss_mb"] for r in records],
        "pass_frac": [1.0 - r["cells_failed"] / r["cells_attempted"]
                      for r in records],
    }


def layer_values(records, units: Dict[str, str]) -> Dict[str, float]:
    """Per-layer metrics: median times, counts from the first traced rep."""
    traced = [r for r in records if r.get("mode") == "traced"]
    inline = [r for r in records if r.get("mode") == "inline"]
    if not traced:
        return {}
    layers = {}
    for name, first in traced[0]["layers"].items():
        layers[name] = first if units.get(name) in EXACT_UNITS else median(
            [r["layers"][name] for r in traced])
    base = median([r["table_s"] for r in inline])
    layers["bench.trace_overhead"] = (
        median([r["table_s"] for r in traced]) / base if base else 0.0)
    return layers


def print_fidelity(workload: str, record) -> None:
    info = record.get("fidelity") or {}
    if "dbp_gm_speedup_percent" in info:
        print(f"fidelity: simulated PUBS GM speedup over the "
              f"{len(tables.DBP)} D-BP programs "
              f"({tables.FULL_INSTRUCTIONS} instructions after "
              f"{tables.FULL_SKIP} skipped): "
              f"{info['dbp_gm_speedup_percent']:+.2f}% vs the paper's "
              f"+{info['paper_dbp_gm_percent']}% (Fig. 8) {DISCLAIMER}")
    for program, pair in (info.get("paired_speedups") or {}).items():
        low, high = pair["ci95"]
        print(f"fidelity: {workload} {program} PUBS speedup "
              f"{pair['speedup']:.4f} (95% CI {low:.4f}..{high:.4f}, "
              f"{pair['ci_method']}) {DISCLAIMER}")


def main(argv: "Optional[List[str]]" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=tables.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="append the full result entry to this "
                             "JSON-lines ledger")
    parser.add_argument("--write-reference", action="store_true",
                        help="re-record reference.json and exit")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found; run from the repository "
              "root", file=sys.stderr)
        return 2
    if args.workload is None and not args.write_reference:
        parser.error("--workload is required")
    for required in (REFERENCE, root / "BENCHMARK.json"):
        if not required.is_file():
            print(f"perfbench: {required.name} is missing", file=sys.stderr)
            return 2
    (root / SCRATCH).mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=root / SCRATCH))
    try:
        if args.write_reference:
            return write_reference(root, scratch)
        return measure(root, scratch, args)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            (root / SCRATCH).rmdir()
        except OSError:
            pass  # another run still uses it


def measure(root: Path, scratch: Path, args) -> int:
    reference = json.loads(REFERENCE.read_text())["workloads"][args.workload]
    declared = declared_metrics(root)
    layer_units = declared["per_layer"]
    trace = bool(args.trace)
    records = run_reps(root, scratch, args.workload, args.seed,
                       args.seconds, trace)
    errors = [r["error"] for r in records if "error" in r]
    good = [r for r in records if "error" not in r]
    attempted = sum(r["cells_attempted"] for r in good)
    failed = sum(r["cells_failed"] for r in good)
    if errors:
        attempted += len(reference["cells"])
        failed += len(reference["cells"])
    problems = list(errors)
    for r in good:
        if r["mismatched"]:
            problems.append(f"rep {r['rep']} ({r['mode']}): digest mismatch "
                            f"in {', '.join(r['mismatched'])}")
        problems.extend(f"rep {r['rep']}: accounting law: {v}"
                        for v in r.get("law_violations", []))
    digest_sets = {json.dumps(r["digests"], sort_keys=True) for r in good}
    if len(digest_sets) > 1:
        problems.append("repetitions disagree on cell digests")
    traced = [r for r in good if r["mode"] == "traced"]
    for name, unit in layer_units.items():
        if unit in EXACT_UNITS and len(
                {r["layers"].get(name) for r in traced}) > 1:
            problems.append(f"count {name} differs between traced "
                            f"repetitions")
    correct = not problems and bool(good)

    print(f"perfbench {args.workload}: seed {args.seed}, "
          f"{len(records)} repetition(s), trace={args.trace}")
    if good:
        print_fidelity(args.workload, good[0])
    metrics: Dict[str, Dict[str, object]] = {}
    if good and not trace:
        samples = end_to_end(good, reference)
        kernel = median([r["calibration_s"] for r in good])
        print(f"calibration kernel: median {kernel:.4g} s on "
              f"{pool_width()} process(es), reference {CAL_REFERENCE_S} s")
        for name, unit in declared["end_to_end"].items():
            how, fold = FOLD[name]
            value = fold(samples[name])
            metrics[name] = {"value": value, "unit": unit}
            note = ""
            if name in CALIBRATED:
                raw = [r[name] for r in good]
                note = (f"; host-calibrated, raw median "
                        f"{median(raw):.6g}, fastest {min(raw):.6g}")
            print(f"{name}: {value:.6g} {unit} ({how} of {len(good)}"
                  f"{note})")
    elif good:
        layers = layer_values(good, layer_units)
        for name, unit in layer_units.items():
            metrics[name] = {"value": layers.get(name, 0.0), "unit": unit}
            print(f"{name}: {metrics[name]['value']:.6g} {unit}")
    print(f"fail_frac: {failed / attempted if attempted else 1.0:.6g} "
          f"({failed} of {attempted} cells)")
    for problem in problems:
        print(f"FAILED: {problem}")
    entry = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "provenance": dict(provenance(root),
                           cache_state=good[0]["cache_state"]
                           if good else None,
                           jobs=good[0]["jobs"] if good else None),
        "reps": [{k: r.get(k) for k in (
                    "mode", "setup_s", "table_s", "ttfc_s", "peak_rss_mb",
                    "calibration_s",
                    "timed_cycles", "cells_attempted", "cells_failed",
                    "serve", "layers", "error")}
                 for r in records],
        "fidelity": good[0]["fidelity"] if good else {},
        "metrics": metrics, "problems": problems,
    }
    if args.out is not None:
        with open(args.out, "a") as ledger:
            ledger.write(json.dumps(entry, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def write_reference(root: Path, scratch: Path) -> int:
    """Record every workload's cell digests and detail-window cycles."""
    out = {"format": 1, "workloads": {}}
    for workload in tables.WORKLOADS:
        fixture = build_fixture(root, scratch) \
            if workload == "serve-mixed" else None
        record = run_child(root, scratch, workload, 0, 0, "traced", fixture,
                           check=False)
        pooled = run_child(root, scratch, workload, 1, 1, "pooled", fixture,
                           check=False)
        for r in (record, pooled):
            if "error" in r:
                print(f"{workload}: {r['error']}", file=sys.stderr)
                return 1
        if pooled["digests"] != record["digests"]:
            print(f"{workload}: traced and pooled digests differ",
                  file=sys.stderr)
            return 1
        # Steps the results do not report: the detailed-warmup windows.
        # serve-mixed runs full simulations only, and its pre-filled cells
        # are never simulated in the run, so it has none to count.
        detail = 0 if workload == "serve-mixed" else \
            record["layers"]["core.cycles"] - record["timed_cycles"]
        out["workloads"][workload] = {"cells": record["digests"],
                                      "detail_cycles": detail}
        print(f"{workload}: {len(record['digests'])} cells, "
              f"{detail} detail-window cycles")
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
