"""Shared deterministic corpora for the property and acceptance suites."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest

# The suite tests the package that PYTHONPATH names; this checkout's src/ is
# appended, so it serves only when nothing earlier on the path provides one.
sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

from combicontracts import (  # noqa: E402
    Additive,
    ExplicitTable,
    GeneralInstance,
    Instance,
    VOracle,
    brute_force_critical_set,
    sample_instance,
)
from combicontracts.functions import lifted_values  # noqa: E402

try:
    from hypothesis import strategies as st
except ImportError:  # the property suites skip themselves
    st = None

GS_CLASSES = ("additive", "unit-demand", "matroid-rank")
NON_GS_CLASSES = ("budget-additive", "coverage", "table")


@dataclass(frozen=True)
class Doubled(Additive):
    """Twice an additive f: a class outside the closed list, which a solver
    reading f's class would solve as plain ``Additive``."""

    def value_mask(self, mask: int) -> Fraction:
        return 2 * super().value_mask(mask)


class RecordingOracle(VOracle):
    """A V oracle that keeps each counted int-pair query as (p, q, level)."""

    def __init__(self, inst):
        super().__init__(inst)
        self.asked = []

    def __call__(self, p, q):
        level = super().__call__(p, q)
        self.asked.append((p, q, level))
        return level


def uncapped_profile(inst):
    """(alphas, values) of the envelope on (0, infinity): every demand change,
    past 1 too.  It is the capped envelope of ``inst`` with every cost divided
    by M = c(A) * Df, alphas multiplied back by M.  A critical value dC/dF has
    dC <= c(A) and dF >= 1/Df (f's lift denominator), so after the division
    each lands in (0, 1]."""
    M = sum(inst.costs) * lifted_values(inst.f)[0]
    scaled = Instance(inst.f, tuple(c / M for c in inst.costs), scale=inst.scale)
    profile = brute_force_critical_set(scaled)
    return tuple(a * M for a in profile.alphas), profile.values


if st is not None:

    @st.composite
    def rationals(draw, dens, positive):
        """j/den for den drawn from ``dens`` and j in [0, den], or [1, den]."""
        den = draw(st.sampled_from(dens))
        return Fraction(draw(st.integers(1 if positive else 0, den)), den)


def make_gs_corpus(count: int = 210):
    """Seeded greedy-certified instances, n in 2..10, k in 4..8."""
    out = []
    for i in range(count):
        klass = GS_CLASSES[i % len(GS_CLASSES)]
        n = 2 + (i % 9)
        k = 4 + (i % 5)
        out.append(sample_instance(klass, n, k, seed=1000 + i))
    return out


def make_non_gs_corpus(count: int = 36):
    out = []
    for i in range(count):
        klass = NON_GS_CLASSES[i % len(NON_GS_CLASSES)]
        n = 2 + (i % 7)
        k = 4 + (i % 3)
        out.append(sample_instance(klass, n, k, seed=7000 + i))
    return out


def make_small_corpus(count: int = 50):
    """All six classes at n <= 6 (perturbation-scale instances)."""
    classes = GS_CLASSES + NON_GS_CLASSES
    out = []
    for i in range(count):
        klass = classes[i % len(classes)]
        n = 2 + (i % 5)
        k = 4 + (i % 4)
        out.append(sample_instance(klass, n, k, seed=3000 + i))
    return out


def make_general_corpus(count: int = 100):
    """Seeded multi-outcome instances (n <= 6, m <= 4), distribution form.

    Outcome probabilities are affine in a monotone base table g:
    outcome 1 pays 0 with probability 1 - g(S) * sum(b), outcome j >= 2 pays
    r_j with probability b_j * g(S); this keeps rows summing to one, R
    monotone, and R(empty) = 0.
    """
    import random

    out = []
    for i in range(count):
        rng = random.Random(f"general|{i}")
        n = 2 + (i % 5)
        m = 2 + (i % 3)
        base = sample_instance("table", n, 5, seed=4000 + i)
        g = [base.f.value_mask(mask) for mask in range(1 << n)]
        shares = [Fraction(rng.randint(1, 8), 32) for _ in range(m - 1)]
        total = sum(shares, Fraction(0))
        if total > 1:
            shares = [s / total for s in shares]
        rewards = [Fraction(0)] + sorted(
            Fraction(rng.randint(1, 16), 8) for _ in range(m - 1)
        )
        size = 1 << n
        tables = []
        probs_top = [[s * g[mask] for mask in range(size)] for s in shares]
        fail_row = [1 - sum(col, Fraction(0)) for col in zip(*probs_top)] if shares else [
            Fraction(1)
        ] * size
        tables.append(ExplicitTable(n, tuple(fail_row)))
        for row in probs_top:
            tables.append(ExplicitTable(n, tuple(row)))
        costs = tuple(
            Fraction(rng.randint(1, 16), 64) for _ in range(n)
        )
        out.append(
            GeneralInstance(
                costs=costs,
                rewards=tuple(rewards),
                distributions=tuple(tables),
            )
        )
    return out


@pytest.fixture(scope="session")
def gs_corpus():
    return make_gs_corpus()


@pytest.fixture(scope="session")
def non_gs_corpus():
    return make_non_gs_corpus()


@pytest.fixture(scope="session")
def small_corpus():
    return make_small_corpus()


@pytest.fixture(scope="session")
def general_corpus():
    return make_general_corpus()


@pytest.fixture(scope="session")
def example_three_action() -> Instance:
    """The worked 3-action submodular (non-GS) table used throughout."""
    f = ExplicitTable(
        3,
        (
            Fraction(0),
            Fraction(3, 10),
            Fraction(3, 10),
            Fraction(1, 2),
            Fraction(3, 5),
            Fraction(3, 5),
            Fraction(3, 5),
            Fraction(3, 5),
        ),
    )
    return Instance(f, (Fraction(1, 10), Fraction(1, 10), Fraction(3, 10)))


@pytest.fixture(scope="session")
def worked_additive() -> Instance:
    """Two additive actions: values (1/2, 2/5), costs (1/10, 1/5)."""
    from combicontracts import Additive

    return Instance(
        Additive((Fraction(1, 2), Fraction(2, 5))),
        (Fraction(1, 10), Fraction(1, 5)),
    )
