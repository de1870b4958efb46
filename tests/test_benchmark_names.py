"""The names the benchmark reaches into the library by.

``perfbench/tracer.py`` wraps the functions in its ``TRACED`` table and
silently skips one that is missing, so a rename would drop a per-layer
metric without failing anything; ``perfbench/worker.py`` rebuilds sequences
with the positional constructor.  The table is read as text, so nothing under
``perfbench/`` is imported or written.
"""

import ast
import importlib
from pathlib import Path

import pytest

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
