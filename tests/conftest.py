"""Shared fixtures: the two worked systems and integrator chains."""

import pytest

from flatdec.linalg import ZeroCtx
from flatdec.sysdsl import parse_system

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
