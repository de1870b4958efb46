"""One pass of one workload in a fresh interpreter.

    python3 perfbench/worker.py --root . --mode pass --workload growth --seed 0 [--check] [--trace SPANS]

Both modes print one JSON line.  ``--mode setup`` only imports the package
and reports when it was ready to issue a first operation (``time.monotonic``,
comparable with the parent's clock) and the host's speed just then.
``--mode pass`` also runs every operation of the workload once, from cold
caches, and reports each row's latency (in reference seconds, see
``workloads.calibrate``) and output digest, and the pass's peak RSS.
``--check`` adds the oracle spot checks after the timed region; ``--trace``
wraps the library's public functions during the timed region and writes the
spans to the given file.
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ap = argparse.ArgumentParser()
ap.add_argument("--root", required=True)
ap.add_argument("--mode", choices=("setup", "pass"), required=True)
ap.add_argument("--workload")
ap.add_argument("--seed", type=int)
ap.add_argument("--check", action="store_true")
ap.add_argument("--trace", metavar="SPANS")
args = ap.parse_args()

# what a CLI run imports before its first operation
import quadpair  # noqa: E402
import quadpair.cli  # noqa: E402,F401
import quadpair.expsum  # noqa: E402,F401

READY = time.monotonic()

src = (Path(args.root) / "src").resolve()
if src not in Path(quadpair.__file__).resolve().parents:
    sys.exit(f"quadpair was imported from {quadpair.__file__}, not from {src}")

import workloads  # noqa: E402

READY_SCALE = workloads.CALIBRATION_REF_S / statistics.median(workloads.calibrate() for _ in range(3))


def _recount_err0(certified) -> float:
    """Reference seconds of the certified windows recounted on err-0 copies."""
    from time import perf_counter

    from quadpair import paircorr

    total = 0.0
    copies = {}
    for seq, x, _ in certified:
        if id(seq) not in copies:
            copies[id(seq)] = paircorr.SequenceModOne(seq.nums, seq.den, seq.provenance)
            copies[id(seq)].sorted_nums()
        before = workloads.calibrate()
        t = perf_counter()
        paircorr.pair_correlation(copies[id(seq)], x)
        took = perf_counter() - t
        total += took * 2 * workloads.CALIBRATION_REF_S / (before + workloads.calibrate())
    return total


def _run_pass() -> dict:
    import hashlib
    import resource
    from time import perf_counter

    import numpy as np

    import oracles
    from tracer import Tracer

    plan = workloads.build(args.workload, args.seed)
    log = workloads.OpLog()
    tracer = Tracer(lambda: len(log.rows)) if args.trace else None
    if tracer:
        log.observer = tracer
        tracer.install()
    t0 = perf_counter()
    workloads.run_plan(plan, log)
    latencies = log.latencies()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = None
    if tracer:
        tracer.uninstall()
        err0 = _recount_err0(tracer.certified) if tracer.certified else None
        layers = tracer.metrics(sum(latencies), log.scale, err0)
        tracer.write(args.trace, t0)

    oracle = oracles.check(plan) if args.check else []
    return {
        "wall_s": sum(latencies),
        "raw_wall_s": sum(row[1] for row in log.rows),
        "raw_ops": [row[1] for row in log.rows],
        "speed": log.speed,
        "rss_mb": rss_mb,
        "ops": [
            [label, latency, hashlib.sha256(text.encode()).hexdigest()[:16]]
            for (label, _, text), latency in zip(log.rows, latencies)
        ],
        "errors": sorted(log.errors),
        "error_text": [log.rows[i][2] for i in sorted(log.errors)],
        "oracle": oracle,
        "layers": layers,
        "numpy": np.__version__,
        "inputs": plan.inputs,
        "constructs": [
            {
                "interval": "{}:{}".format(*rec["base"]),
                "q_start": rec["q_start"],
                "q_max": rec["q_max"],
                "strict": rec["strict"],
                "emptied_at": rec.get("emptied_at"),
                "final": str(rec["final"]) if "final" in rec else None,
            }
            for rec in plan.facts.get("constructs", [])
        ],
    }


result = {"ready": READY, "ready_scale": READY_SCALE}
if args.mode == "pass":
    result.update(_run_pass())
print(json.dumps(result, default=str))
