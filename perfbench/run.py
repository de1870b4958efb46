#!/usr/bin/env python3
"""quadpair benchmark: time to a full result table, end to end and per layer.

    python3 perfbench/run.py --workload growth --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Every pass runs the workload's complete result set once in a
fresh single-threaded interpreter, so lazy tables and caches start cold as in
a CLI run, and passes repeat until ``--seconds`` have been measured (at least
MIN_PASSES).  One process runs at a time.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  The last line of stdout is one JSON object; the lines
before it summarise the run.  Full results go to .bench_build/perfbench/.

    python3 perfbench/run.py --record-reference --workload growth --seeds 0-24

records the output digests of the given seeds in perfbench/reference.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_build" / "perfbench"
REFERENCE = BENCH / "reference.json"
MIN_PASSES = 3
MIN_TRACE_PASSES = 4  # two untraced, two traced
SETUP_SAMPLES = 5
PASS_TIMEOUT_S = 120
# no pass starts after this much of a run, so every run ends within 180 s
RUN_CAP_S = 120
LADDER = (50, 75, 90, 95, 99, 99.5, 99.9)
# exact per-layer counts: two traced passes of one seed must agree on these
EXACT_COUNTERS = (
    "paircorr.pairs",
    "modcount.residues_tested",
    "modcount.moduli_profiled",
    "constructor.moduli_budgeted",
    "constructor.moduli_swept",
    "constructor.intervals",
)


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(extra: list[str]) -> dict:
    """Run one worker to completion; setup_s is the time from spawning it to
    its being ready for a first operation, in reference seconds."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT), *extra]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker exceeded {PASS_TIMEOUT_S} s: {' '.join(extra)}")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(extra)}")
    res = json.loads(out.strip().splitlines()[-1])
    res["raw_setup_s"] = res["ready"] - t0
    res["setup_s"] = res["raw_setup_s"] * res["ready_scale"]
    return res


def _pass_args(workload: str, seed: int, check: bool, spans: Path | None) -> list[str]:
    args = ["--mode", "pass", "--workload", workload, "--seed", str(seed)]
    if check:
        args.append("--check")
    if spans is not None:
        args += ["--trace", str(spans)]
    return args


def tail_percentile(ops_per_pass: int) -> float:
    """Highest ladder percentile with at least ten operations beyond it in
    MIN_PASSES passes; runs with more passes only sharpen the estimate."""
    n = ops_per_pass * MIN_PASSES
    return max((p for p in LADDER if n * (1 - p / 100) >= 10), default=LADDER[0])


def nearest_rank(sorted_values: list[float], p: float) -> float:
    n = len(sorted_values)
    return sorted_values[min(n - 1, max(0, math.ceil(p / 100 * n) - 1))]


def _commit() -> str:
    try:
        res = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _load_reference() -> dict:
    if REFERENCE.is_file():
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh)
    return {}


def score(passes: list[dict], reference: list[str] | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, notes).  A row fails when it raised, when an
    oracle disproves it, when its digest differs from the first pass of the
    run (determinism) or from the digest recorded for this seed."""
    base = [d for _, _, d in passes[0]["ops"]]
    disproved = {idx for idx, _ in passes[0]["oracle"]}
    notes = [f"oracle: {msg}" for _, msg in passes[0]["oracle"]]
    notes += [f"raised: {text}" for text in passes[0]["error_text"]]
    if reference is not None and reference != base:
        notes.append("output digests differ from the recorded reference")
    attempted = failed = 0
    for k, p in enumerate(passes):
        digests = [d for _, _, d in p["ops"]]
        if digests != base:
            notes.append(f"pass {k} outputs differ from pass 0")
        errors = set(p["errors"])
        for i in range(max(len(digests), len(base))):
            d = digests[i] if i < len(digests) else None
            bad = d is None or i >= len(base) or d != base[i] or i in errors or i in disproved
            if reference is not None:
                bad = bad or i >= len(reference) or d != reference[i]
            attempted += 1
            failed += bad
    return attempted, failed, notes


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    spawn(["--mode", "setup"])  # first interpreter of a checkout compiles bytecode
    setups = [spawn(["--mode", "setup"])["setup_s"] for _ in range(SETUP_SAMPLES)]
    passes: list[dict] = []
    min_passes = MIN_TRACE_PASSES if trace else MIN_PASSES
    t_begin = time.monotonic()
    while len(passes) < min_passes or time.monotonic() - t_begin < seconds:
        if time.monotonic() - t_begin > RUN_CAP_S:
            if len(passes) < min_passes:
                raise BenchError(f"{len(passes)} passes took over {RUN_CAP_S} s")
            break
        traced = trace and len(passes) % 2 == 1
        spans = OUT / f"spans-{workload}-seed{seed}-pass{len(passes)}.jsonl" if traced else None
        res = spawn(_pass_args(workload, seed, check=not passes, spans=spans))
        res["traced"] = traced
        passes.append(res)
        setups.append(res["setup_s"])
    reference = _load_reference().get(workload, {}).get(str(seed))
    attempted, failed, notes = score(passes, reference)
    return {
        "workload": workload,
        "seed": seed,
        "setups": setups,
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "reference": "recorded" if reference is not None else "not recorded for this seed",
    }


def end_to_end(run: dict) -> tuple[dict, dict]:
    plain = [p for p in run["passes"] if not p["traced"]]
    latencies = sorted(lat for p in plain for _, lat, _ in p["ops"])
    pct = tail_percentile(len(plain[0]["ops"]))
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": 1000 * nearest_rank(latencies, pct),
        "setup_s": statistics.median(run["setups"]),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
    }
    detail = {
        "op_tail_percentile": pct,
        "ops": len(latencies),
        "passes": len(plain),
        "failed_ratio": run["failed"] / run["attempted"],
    }
    return values, detail


def per_layer(run: dict, names) -> tuple[dict, list[str]]:
    plain = [p for p in run["passes"] if not p["traced"]]
    traced = [p["layers"] for p in run["passes"] if p["traced"]]
    issues = []
    for name in EXACT_COUNTERS:
        seen = {t.get(name, 0) for t in traced}
        if len(seen) > 1:
            issues.append(f"counter {name} differs between traced passes: {sorted(seen)}")
    # time metrics from the fastest traced pass, so its layer self times
    # still add up to its wall time
    fastest = min(traced, key=lambda t: t["trace.wall_s"])
    values = {name: fastest.get(name, 0) for name in names if name != "trace.overhead_s"}
    values["trace.overhead_s"] = fastest["trace.wall_s"] - min(p["wall_s"] for p in plain)
    return values, issues


def record_reference(workload: str, seeds: list[int]) -> int:
    ref = _load_reference()
    table = ref.setdefault(workload, {})
    for seed in seeds:
        res = spawn(_pass_args(workload, seed, check=True, spans=None))
        if res["oracle"] or res["errors"]:
            print(f"seed {seed}: not recorded: {res['oracle'] or res['error_text']}", file=sys.stderr)
            return 1
        table[str(seed)] = [d for _, _, d in res["ops"]]
        print(f"{workload} seed {seed}: {len(res['ops'])} rows recorded")
    with open(REFERENCE, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(ref, fh, sort_keys=True, indent=0)
        fh.write("\n")
    return 0


def _seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    ap.add_argument("--seeds", default="0", help="seeds to record, e.g. 0-24,1729")
    args = ap.parse_args()

    if not (ROOT / "src" / "quadpair" / "__init__.py").is_file():
        print(f"error: no quadpair sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.record_reference:
            return record_reference(args.workload, _seed_list(args.seeds))
        declared = _declared()
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": run["passes"][0]["numpy"],
        "commit": _commit(),
    }
    values, detail = end_to_end(run)
    issues = list(run["notes"])
    if args.trace:
        values, counter_issues = per_layer(run, declared["per_layer"])
        issues += counter_issues
        units = declared["per_layer"]
    else:
        units = declared["end_to_end"]
    missing = set(units) - set(values)
    if missing:
        print(f"error: metrics not computed: {sorted(missing)}", file=sys.stderr)
        return 2
    correct = run["failed"] == 0 and not issues

    walls = [round(p["wall_s"], 3) for p in run["passes"]]
    raw = [round(p["raw_wall_s"], 3) for p in run["passes"]]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(walls)} passes, "
          f"wall_s per pass {walls} (measured seconds {raw})")
    print(
        f"op_tail_ms is p{detail['op_tail_percentile']:g} over {detail['ops']} operations "
        f"of {detail['passes']} untraced passes; failed_ratio {detail['failed_ratio']:.6g} "
        f"({run['failed']}/{run['attempted']}); reference digests {run['reference']}"
    )
    for rec in run["passes"][0]["constructs"]:
        if rec["emptied_at"] is not None:
            print(
                f"expected red: construct {rec['interval']} q={rec['q_start']}..{rec['q_max']} "
                f"emptied at modulus {rec['emptied_at']} (checked against direct subtraction)"
            )
    for note in issues:
        print(f"FAILED: {note}")
    print("env: " + json.dumps(env, sort_keys=True))

    record = {
        "env": env,
        "inputs": run["passes"][0]["inputs"],
        "metrics": values,
        "detail": detail,
        "issues": issues,
        "setups": run["setups"],
        "constructs": run["passes"][0]["constructs"],
        "passes": [
            {k: p[k] for k in ("wall_s", "raw_wall_s", "rss_mb", "setup_s", "raw_setup_s", "traced")}
            | {"latencies": [lat for _, lat, _ in p["ops"]]}
            for p in run["passes"]
        ],
    }
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
