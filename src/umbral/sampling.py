"""Deterministic random rational parameters, rejection-sampled against the
singularity guards (numerators and denominators bounded by 7)."""
from __future__ import annotations

import random
from fractions import Fraction

from .errors import SingularParams
from .families import JacobiParams, MultiTermParams, ShefferParams, WilsonParams
from .orthocore import Recurrence


def rng_for(seed: int) -> random.Random:
    return random.Random(seed)


def sample_fraction(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        v = Fraction(rng.randint(-7, 7), rng.randint(1, 7))
        if v != 0 or not nonzero:
            return v


def _guarded(make, nw: int):
    for _ in range(200):
        try:
            p = make()
            p.guard(nw)
            return p
        except SingularParams:
            continue
    raise SingularParams("sampler", "could not find guarded parameters")


def sample_sheffer(rng: random.Random, nw: int, nonzero_lam: bool = False) -> ShefferParams:
    return _guarded(
        lambda: ShefferParams(
            sample_fraction(rng, nonzero=nonzero_lam),
            sample_fraction(rng),
            sample_fraction(rng),
        ),
        nw,
    )


def sample_jacobi(rng: random.Random, nw: int) -> JacobiParams:
    def make():
        return JacobiParams(
            sample_fraction(rng, nonzero=True),
            sample_fraction(rng, nonzero=True),
            sample_fraction(rng),
        )

    return _guarded(make, nw)


def sample_wilson(rng: random.Random, nw: int, h=None) -> WilsonParams:
    def make():
        return WilsonParams(
            sample_fraction(rng, nonzero=True),
            sample_fraction(rng, nonzero=True),
            sample_fraction(rng),
            sample_fraction(rng),
            sample_fraction(rng) if h is None else Fraction(h),
        )

    return _guarded(make, nw)


def sample_multiterm(rng: random.Random, n: int, nw: int, extended: bool = False) -> MultiTermParams:
    def make():
        count = n + 1 if extended else n
        weights = [sample_fraction(rng, nonzero=True) for _ in range(count - 1)]
        weights.append(1 - sum(weights))
        if weights[-1] == 0:
            raise SingularParams("weights", "resample")
        return MultiTermParams(n, sample_fraction(rng, nonzero=True), sample_fraction(rng, nonzero=True), tuple(weights))

    return _guarded(make, nw)


def sample_recurrence(rng: random.Random, depth: int) -> Recurrence:
    return Recurrence(
        [sample_fraction(rng) for _ in range(depth + 1)],
        [sample_fraction(rng, nonzero=True) for _ in range(depth)],
    )


def sample_unit_series_coeffs(rng: random.Random, order: int) -> list:
    return [Fraction(1)] + [sample_fraction(rng) for _ in range(order)]
