"""Acceptance criteria fail when the kernel they check is wrong.

Each case patches the one library call that a criterion's failure branch
checks, with an error that branch alone should catch, and asserts that the
criterion returns False with that branch's message.  The patched names are
looked up at call time, so patching the module attribute reaches them.
"""

import pytest

from quadpair import acceptance, modcount, paircorr


def _patched(module, edit):
    # the circular autocorrelation, with edit applied to a copy of its result
    original = module.circular_autocorr

    def wrong(h, lags):
        c = original(h, lags).copy()
        edit(c)
        return c

    return wrong


def _extra_pair(c):
    c[0] += 2  # one more unordered pair at distance 0


def _extra_unit(c):
    c[0] += 1  # A0(q, 0) one too large: the complete sum is q^2 + 1


def _moved_unit(c):
    if len(c) > 2:  # A0(q, 1) one too small and A0(q, 2) one too large
        c[1] -= 1
        c[2] += 1


@pytest.mark.parametrize(
    "criterion, module, edit, message",
    [
        (acceptance.criterion_a1, paircorr, _extra_pair, "histogram/naive mismatch"),
        (acceptance.criterion_a3, modcount, _extra_unit, "complete sum != q^2"),
        (acceptance.criterion_a3, modcount, _moved_unit, "hyperbola mismatch"),
    ],
    ids=["a1-histogram", "a3-complete-sum", "a3-hyperbola"],
)
def test_a_wrong_autocorrelation_fails_its_criterion(monkeypatch, criterion, module, edit, message):
    monkeypatch.setattr(module, "circular_autocorr", _patched(module, edit))
    res = criterion("quick")
    assert not res.passed
    assert res.details.startswith(message), res.details


@pytest.mark.parametrize("criterion", [acceptance.criterion_a1, acceptance.criterion_a3], ids=["a1", "a3"])
def test_the_unpatched_criteria_pass(criterion):
    res = criterion("quick")
    assert res.passed, res.details
