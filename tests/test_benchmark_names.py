"""The names the benchmark reaches into the library by.

``perfbench/tracer.py`` wraps the functions in its ``TRACED`` table and
silently skips one that is missing, so a rename would drop a per-layer
metric without failing anything; ``perfbench/worker.py`` rebuilds sequences
with the positional constructor.  The table is read as text, so nothing under
``perfbench/`` is imported or written.  The tracer also counts the moduli a
construction sweep budgets and sweeps from the positional (q_lo, q_hi) of its
``tail_budget`` and ``enumerate_bad_intervals`` calls, so those calls are
pinned here too.
"""

import ast
import contextlib
import importlib
from fractions import Fraction
from pathlib import Path

import pytest

from quadpair import constructor
from quadpair.errors import BudgetError, EmptyRefinementError
from quadpair.paircorr import SequenceModOne

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_table() -> tuple:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py has no TRACED table")


@pytest.mark.parametrize("module, path", [(m, p) for m, p, _ in _traced_table()])
def test_traced_name_resolves(module, path):
    owner = importlib.import_module(f"quadpair.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("den", [7, 1 << 62, (1 << 62) + 1, 1 << 64])
def test_sequence_rebuilds_positionally(den):
    # the worker's err-0 copy on both held forms, int64 numerators up to 2^62
    # and sorted limb rows past it, where the last two values share a key
    top = 4 * (den // 8)
    nums = [5, 1, 3, top + 1, top]
    seq = SequenceModOne(nums, den, "copy")
    if seq.key_shift:
        assert top + 1 >> seq.key_shift == top >> seq.key_shift
    assert seq.provenance == "copy"
    assert seq.sorted_nums() == sorted(nums)
    assert seq.nums == nums


@pytest.mark.parametrize(
    "q_start, q_max, strict, error, last_budgeted, last_swept",
    [
        (1000, 1005, True, None, 1005, 1005),
        (1000, 3000, True, BudgetError, 1011, 1010),
        (10, 40, False, None, 40, 40),
        (10, 3000, False, EmptyRefinementError, 47, 47),
    ],
)
def test_construction_sweep_budgets_and_sweeps_one_modulus_a_call(
    monkeypatch, q_start, q_max, strict, error, last_budgeted, last_swept
):
    # every modulus the sweep reaches is budgeted once, then swept once
    # unless its budget ends a strict sweep
    calls = {"tail_budget": [], "enumerate_bad_intervals": []}
    for name, seen in calls.items():
        def spy(*args, _real=getattr(constructor, name), _seen=seen, **kwargs):
            _seen.append(args[:2])
            return _real(*args, **kwargs)

        monkeypatch.setattr(constructor, name, spy)
    base = constructor.interval(Fraction(1, 3), Fraction(2, 5))
    with pytest.raises(error) if error else contextlib.nullcontext():
        constructor.construct_alpha(base, q_start, q_max, Fraction(1, 200), strict_budget=strict)
    assert calls["tail_budget"] == [(q, q) for q in range(q_start, last_budgeted + 1)]
    assert calls["enumerate_bad_intervals"] == [(q, q) for q in range(q_start, last_swept + 1)]
