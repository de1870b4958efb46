"""Spans around the library's public functions, installed from outside.

``Tracer.install`` replaces each traced function by a wrapper at module
attribute level, in every loaded ``quadpair`` module that holds it (so names
re-bound by import, such as ``constructor.bad_set``, are traced too) and on
the class for methods.  A span is (name, start, end, parent, operation id);
spans stay in memory and are written out when the pass ends.  A span's self
time is its duration minus the durations of its direct children (and of the
benchmark's calibration runs inside it), so self times over all spans add up
to the time spent inside the library.  Times are reported in reference
seconds, each span scaled like the operation it belongs to.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from quadpair import exactreal

# (module, attribute path, per-layer metric fed by the span's self time)
TRACED = (
    ("exactreal", "AlphaSpec.value", "exactreal.eval_s"),
    ("exactreal", "eval_with_retry", None),
    ("paircorr", "quadratic_sequence", "paircorr.build_s"),
    ("paircorr", "SequenceModOne.sorted_nums", "paircorr.sort_s"),
    ("paircorr", "pair_correlation", "paircorr.count_s"),
    ("paircorr", "weighted_pair_correlation", "paircorr.weighted_s"),
    ("paircorr", "verify_integral_identities", "paircorr.identities_s"),
    ("modcount", "bad_set", "modcount.badset_s"),
    ("modcount", "delta_star_profile", "modcount.profile_s"),
    ("modcount", "count_A0", None),  # split by side of the outer/Kronecker switch
    ("modcount", "dispersion_report", "modcount.dispersion_s"),
    ("modcount", "hyperbola_ap_count", "modcount.hyperbola_s"),
    ("modcount", "divisor_sum_ap", "modcount.divisor_s"),
    ("constructor", "tail_budget", "constructor.budget_s"),
    ("constructor", "construct_alpha", "constructor.construct_s"),
    ("constructor", "enumerate_bad_intervals", "constructor.enumerate_s"),
    ("constructor", "verify_avoidance", "constructor.verify_s"),
    ("expsum", "quad_sum", "expsum.quad_sum_s"),
    ("expsum", "quad_sum_brute", "expsum.brute_s"),
    ("latcount", "near_multiple_count", "latcount.near_multiple_s"),
    ("latcount", "pair_lattice", None),
    ("latcount", "gauss_reduce", "latcount.reduce_s"),
    ("latcount", "lattice_square_count", "latcount.square_count_s"),
    ("latcount", "v_count", "latcount.vcount_s"),
    ("latcount", "v_star_count", "latcount.vcount_s"),
    ("latcount", "v1_count", "latcount.vcount_s"),
    ("latcount", "v2_count", "latcount.vcount_s"),
)
# count_A0 takes the Kronecker path once a modulus has more than this many
# distinct squares (modcount._circular_autocorr: nz * nz > 4_000_000)
KRONECKER_SQUARES = 2000


def _distinct_squares(q: int) -> int:
    k = np.arange(1, q + 1, dtype=np.int64)
    return int(np.count_nonzero(np.bincount((k * k) % q, minlength=q)))


def _resolve(module, path: str):
    owner = module
    *parents, leaf = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    def __init__(self, op_id: Callable[[], int]):
        self.op_id = op_id
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.extra: list[dict] = []  # per span: arguments the counters need
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._squares: dict[int, int] = {}
        self.certified: list[tuple[object, object, int]] = []
        self.excluded: list[tuple[int, float]] = []  # (open span, seconds)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "quadpair" or n.startswith("quadpair.")]
        for mod_name, path, _ in TRACED:
            owner, leaf = _resolve(sys.modules[f"quadpair.{mod_name}"], path)
            original = getattr(owner, leaf, None)
            if original is None:  # gone from the library: its metric reads 0
                continue
            wrapper = self._wrap(f"{mod_name}.{path}", original)
            if owner is not sys.modules[f"quadpair.{mod_name}"]:
                self._patch(owner, leaf, wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        tracer = self
        spans, stack, extra = self.spans, self._stack, self.extra

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = tracer._name(name, args)
            idx = len(spans)
            rec = [span_name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op_id()]
            spans.append(rec)
            extra.append({})
            stack.append(idx)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            tracer._note(name, idx, args, result)
            return result

        return traced

    def exclude(self, start: float, end: float) -> None:
        """Keep benchmark time (the calibration mix) out of the open span."""
        self.excluded.append((self._stack[-1] if self._stack else -1, end - start))

    def _name(self, name: str, args) -> str:
        if name != "modcount.count_A0":
            return name
        q = args[0]
        if q not in self._squares:
            self._squares[q] = _distinct_squares(q)
        return name + (".kron" if self._squares[q] > KRONECKER_SQUARES else ".outer")

    def _note(self, name: str, idx: int, args, result) -> None:
        ex = self.extra[idx]
        if name == "paircorr.pair_correlation":
            ex["pairs"] = result.pair_count
            if args[0].err:
                self.certified.append((args[0], args[1], idx))
        elif name in ("modcount.bad_set", "modcount.delta_star_profile"):
            ex["key"] = (args[0], args[1])
        elif name == "constructor.tail_budget":
            ex["moduli"] = args[1] - args[0] + 1
        elif name == "constructor.enumerate_bad_intervals":
            ex["moduli"] = args[1] - args[0] + 1
            ex["intervals"] = len(result)

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        for parent, seconds in self.excluded:
            if parent >= 0:
                own[parent] -= seconds
        return own

    def metrics(self, wall_s: float, scale: Callable[[int], float], err0_s: Optional[float]) -> dict:
        """Per-layer numbers of one traced pass, in reference seconds.
        ``wall_s`` is the pass's time, ``scale(op)`` converts measured
        seconds during operation ``op``, and ``err0_s`` is the time of the
        certified windows recounted on err-0 copies (None: no copies)."""
        own = [t * scale(span[4]) for t, span in zip(self.self_times(), self.spans)]
        out: dict[str, float] = defaultdict(float)
        metric_of = {f"{m}.{p}": metric for m, p, metric in TRACED if metric}
        for (name, *_), t in zip(self.spans, own):
            out[name.split(".")[0] + ".self_s"] += t
            if name.startswith("modcount.count_A0."):
                out[f"modcount.count_A0_{name.rsplit('.', 1)[1]}_s"] += t
            elif name in metric_of:
                out[metric_of[name]] += t
        certified_s = sum(own[idx] for _, _, idx in self.certified)
        out["paircorr.certify_s"] = certified_s - err0_s if err0_s is not None else 0.0
        out.update(self.counters())
        inside = sum(own)
        out["bench.self_s"] = wall_s - inside
        out["trace.covered_ratio"] = inside / wall_s
        out["trace.wall_s"] = wall_s
        return dict(out)

    def counters(self) -> dict:
        """Exact counts; two passes of one seed must agree on every one."""
        spans, extra = self.spans, self.extra
        badset_keys = {ex["key"] for (n, *_), ex in zip(spans, extra) if n == "modcount.bad_set" and ex}
        profiled = {ex["key"][0] for (n, *_), ex in zip(spans, extra) if n == "modcount.delta_star_profile" and ex}
        construct = {i for i, (n, *_) in enumerate(spans) if n == "constructor.construct_alpha"}
        budgeted = sum(ex.get("moduli", 0) for (n, *_), ex in zip(spans, extra) if n == "constructor.tail_budget")
        swept = sum(
            ex.get("moduli", 0)
            for (n, _, _, parent, _), ex in zip(spans, extra)
            if n == "constructor.enumerate_bad_intervals" and parent in construct
        )
        retry = {i for i, (n, *_) in enumerate(spans) if n == "exactreal.eval_with_retry"}
        attempts = sum(1 for n, _, _, parent, _ in spans if n == "exactreal.AlphaSpec.value" and parent in retry)
        return {
            "exactreal.attempts": attempts / len(retry) if retry else 0.0,
            "paircorr.pairs": sum(ex.get("pairs", 0) for ex in extra),
            "modcount.residues_tested": sum(exactreal.euler_phi(q) for q, _ in badset_keys),
            "modcount.moduli_profiled": len(profiled),
            "constructor.moduli_budgeted": budgeted,
            "constructor.moduli_swept": swept,
            "constructor.sweep_useful_ratio": swept / budgeted if budgeted else 0.0,
            "constructor.intervals": sum(ex.get("intervals", 0) for ex in extra),
        }

    def write(self, path, t0: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0, "parent": parent, "op": op}) + "\n")
