"""Pure-Python and compiled kernels must be interchangeable bit for bit."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from overq import _qkern_py as pure
from overq import kernels

compiled = pytest.importorskip(
    "overq._qkern", reason="compiled extension not built"
)

F = Fraction


def test_backend_is_reported():
    assert kernels.BACKEND in ("pure", "compiled")


def rand_coeffs(rng, width):
    return [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(width)]


def test_convolve_parity():
    rng = random.Random(7)
    for _ in range(60):
        a = rand_coeffs(rng, rng.randint(1, 10))
        b = rand_coeffs(rng, rng.randint(1, 10))
        n_out = rng.randint(1, len(a) + len(b) - 1)
        assert pure.convolve(a, b, n_out) == compiled.convolve(a, b, n_out)


def test_invert_unit_parity():
    rng = random.Random(8)
    for _ in range(40):
        c = rand_coeffs(rng, rng.randint(1, 10))
        c[0] = F(rng.choice([1, -1, 2, 3]), rng.choice([1, 2]))
        n_out = len(c)
        got_pure = pure.invert_unit(c, n_out)
        got_comp = compiled.invert_unit(c, n_out)
        assert got_pure == got_comp


def test_one_minus_factor_parity_and_roundtrip():
    rng = random.Random(9)
    for _ in range(60):
        c = rand_coeffs(rng, rng.randint(1, 12))
        g = rng.choice([1, -1, 2, -3, F(1, 2)])
        k = rng.randint(1, 4)
        m_pure = pure.mul_one_minus(c, g, k)
        assert m_pure == compiled.mul_one_minus(c, g, k)
        d_pure = pure.div_one_minus(c, g, k)
        assert d_pure == compiled.div_one_minus(c, g, k)
        assert pure.mul_one_minus(d_pure, g, k) == c


def test_box_walk_parity():
    for m in range(7):
        for n in range(7):
            assert pure.box_weighted_counts(m, n) == \
                compiled.box_weighted_counts(m, n), (m, n)
    assert pure.box_weighted_counts(12, 12) == compiled.box_weighted_counts(12, 12)


def test_total_walk_parity():
    assert pure.all_partition_weighted_counts(40) == \
        compiled.all_partition_weighted_counts(40)


def test_kernel_selection_env_var():
    code = "import overq.kernels as k; print(k.BACKEND)"
    env = dict(os.environ, OVERQ_KERNEL="pure")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "pure"
    env = dict(os.environ, OVERQ_KERNEL="bogus")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode != 0 and "OVERQ_KERNEL" in out.stderr
