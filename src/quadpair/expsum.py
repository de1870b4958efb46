"""Exponential sums over the quadric x1^2 + x2^2 - x3^2 - x4^2 = 0 mod q,
with closed forms at odd primes, a product rule over coprime factors, and a
brute-force enumeration oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CostGuardError
from .exactreal import factorize, is_prime

BRUTE_GUARD = 36


@dataclass
class ComplexValue:
    re: float
    im: float
    err: float
    method: str = ""

    def as_integer(self) -> int:
        """Round to the provably real integer value; errors if ambiguous."""
        if abs(self.im) > max(self.err, 1e-6):
            raise ValueError("value is not certifiably real")
        r = round(self.re)
        if abs(self.re - r) > max(self.err, 1e-6):
            raise ValueError("value is not certifiably integral")
        return int(r)


def _normalize_b(b, q: int) -> tuple[int, int, int, int]:
    b = tuple(int(v) % q for v in b)
    if len(b) != 4:
        raise ValueError("b must have four components")
    return b


def quad_sum_brute(b, q: int) -> ComplexValue:
    """Literal enumeration of all q^4 points; the definition as an oracle."""
    if q < 1:
        raise ValueError("modulus must be >= 1")
    if q > BRUTE_GUARD:
        raise CostGuardError(f"brute enumeration is capped at q <= {BRUTE_GUARD}")
    b = _normalize_b(b, q)
    x = np.arange(q, dtype=np.int64)
    sq = (x * x) % q
    # one x1 at a time, so a block holds q^3 points, not q^4; the blocks come
    # in C order, so the terms and their summation order are the same
    rest = sq[:, None, None] - sq[None, :, None] - sq[None, None, :]
    lin = b[1] * x[:, None, None] + b[2] * x[None, :, None] + b[3] * x[None, None, :]
    phases = []
    for x1 in range(q):
        mask = (sq[x1] + rest) % q == 0
        phases.append((b[0] * x1 + lin[mask]) % q)
    phase = np.concatenate(phases)
    n_terms = len(phase)
    if not any(b):
        return ComplexValue(float(n_terms), 0.0, 0.0, "brute")
    z = 2j * np.pi * phase
    z /= q
    np.exp(z, out=z)
    total = complex(z.sum())
    err = 8 * np.finfo(float).eps * n_terms
    return ComplexValue(total.real, total.imag, err, "brute")


def quad_sum_prime(b, p: int) -> int:
    """Closed form at an odd prime: three cases by divisibility."""
    if p == 2 or not is_prime(p):
        raise ValueError("quad_sum_prime needs an odd prime")
    b = _normalize_b(b, p)
    if not any(b):
        return p ** 3 + p * p - p
    if (b[0] * b[0] + b[1] * b[1] - b[2] * b[2] - b[3] * b[3]) % p == 0:
        return p * p - p
    return -p


def quad_sum(b, q: int) -> ComplexValue:
    """Product over coprime prime-power factors; closed form at odd primes,
    brute force for the 2-part and higher prime powers (no closed form is
    available there), with the enumeration guard applied per factor."""
    if q < 1:
        raise ValueError("modulus must be >= 1")
    re, im, err = 1.0, 0.0, 0.0
    exact = 1
    exact_only = True
    for p, e in sorted(factorize(q).items()):
        f = p ** e
        if p != 2 and e == 1:
            part = ComplexValue(float(quad_sum_prime(b, p)), 0.0, 0.0, "closed-form")
        else:
            part = quad_sum_brute(b, f)
        if part.err == 0 and part.im == 0 and exact_only:
            exact *= int(round(part.re))
        else:
            exact_only = False
        new_re = re * part.re - im * part.im
        new_im = re * part.im + im * part.re
        mag_old = math.hypot(re, im)
        mag_new = math.hypot(part.re, part.im)
        err = err * mag_new + part.err * mag_old + err * part.err
        re, im = new_re, new_im
    if exact_only:
        return ComplexValue(float(exact), 0.0, 0.0, "product")
    return ComplexValue(re, im, err, "product")
