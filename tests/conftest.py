"""Shared fixtures: the two worked systems and integrator chains, the
search at the command line's defaults, and textbook reference versions of
the table-based derived system and Frobenius test."""

import pytest

from flatdec.decompose import run_decomposition
from flatdec.exterior import d, dt, scale, wedge, zero_form
from flatdec.linalg import ZeroCtx, nullspace
from flatdec.pfaffian import (
    PfaffianSystem, contraction_tables, vertical_annihilator,
)
from flatdec.symexpr import ZERO
from flatdec.sysdsl import parse_system

# the command line's --max-degree and --max-depth defaults
MAX_DEGREE, MAX_DEPTH = 2, 8

SIN_SYS = """
system sinex {
  states: x1, x2, x3;
  inputs: u1, u2;
  dot(x1) = u1;
  dot(x2) = u2;
  dot(x3) = sin(u1/u2);
}
"""

COUPLED_SYS = """
system coupled {
  states: x1, x2, x3, x4;
  inputs: u1, u2;
  dot(x1) = x2 + x3*u2;
  dot(x2) = x3 + x1*u2;
  dot(x3) = u1 + x2*u2;
  dot(x4) = u2;
}
"""


def same_span(a, b, zc) -> bool:
    """Two Pfaffian systems, or two distributions, span the same space."""
    return (all(a.contains(g, zc) for g in b.generators)
            and all(b.contains(g, zc) for g in a.generators))


def search(cs, max_depth=MAX_DEPTH):
    """run_decomposition with the command line's defaults: 20 samples,
    seed 0."""
    return run_decomposition(cs, ZeroCtx(20, 0), MAX_DEGREE, max_depth)


def tables(P, zc):
    """P's contraction tables over a basis of its vertical annihilator."""
    return contraction_tables(P, list(vertical_annihilator(P, zc).generators))


def wedge_derived_system(P, zc):
    """Reference derived system: the combinations p of P's generators with
    dp ^ Omega = 0, Omega the wedge of all generators."""
    if P.dim == 0:
        return P
    omega = P.top_form()
    weighted = [wedge(d(g), omega) for g in P.generators]
    keys = sorted({idx for w in weighted for idx in w.coeffs})
    rows = [[w.coeffs.get(idx, ZERO) for w in weighted] for idx in keys]
    combos = []
    for a in nullspace(rows, P.dim, zc):
        f = zero_form(P.chart, 1)
        for aj, g in zip(a, P.generators):
            f = f + scale(g, aj)
        combos.append(f)
    return PfaffianSystem(P.chart, combos, zc)


def wedge_integrable_with_dt(P, zc):
    """Reference Frobenius test of {P, dt}: dg ^ Omega ^ dt = 0 for every
    generator g."""
    if P.dim == 0:
        return True
    base = wedge(P.top_form(), dt(P.chart))
    return all(zc.zero(c) for g in P.generators
               for c in wedge(d(g), base).coeffs.values())


def chain_text(n: int) -> str:
    lines = [f"system chain{n} {{"]
    lines.append("  states: " + ", ".join(f"x{i}" for i in range(1, n + 1)) + ";")
    lines.append("  inputs: u;")
    for i in range(1, n):
        lines.append(f"  dot(x{i}) = x{i + 1};")
    lines.append(f"  dot(x{n}) = u;")
    lines.append("}")
    return "\n".join(lines)


@pytest.fixture
def sin_sys():
    return parse_system(SIN_SYS)


# session-scoped copies so expensive decomposition fixtures can share them

@pytest.fixture(scope="session")
def sin_sys_m():
    return parse_system(SIN_SYS)


@pytest.fixture(scope="session")
def coupled_sys_m():
    return parse_system(COUPLED_SYS)


@pytest.fixture(scope="session")
def chain_m():
    return parse_system(chain_text(2))


@pytest.fixture
def coupled_sys():
    return parse_system(COUPLED_SYS)


@pytest.fixture
def chain():
    return lambda n: parse_system(chain_text(n))


@pytest.fixture
def zc():
    return ZeroCtx(budget=20, seed=0)
