import doctest
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import lejaflip
from lejaflip import binary_decompose, stable_abs_product


class TestBinaryDecompose:
    def test_single_power(self):
        assert binary_decompose(1) == [0]

    def test_six(self):
        assert binary_decompose(6) == [2, 1]

    def test_all_ones(self):
        assert binary_decompose(2**10 - 1) == list(range(9, -1, -1))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            binary_decompose(0)

    def test_reconstruction_exhaustive(self):
        for n in range(1, 100_001):
            exps = binary_decompose(n)
            assert sum(1 << p for p in exps) == n
            assert all(a > b for a, b in zip(exps, exps[1:]))
            assert exps[-1] >= 0

    @given(st.integers(min_value=1, max_value=10**6))
    def test_reconstruction_random(self, n):
        exps = binary_decompose(n)
        assert sum(1 << p for p in exps) == n
        assert all(a > b for a, b in zip(exps, exps[1:]))


class TestStableAbsProduct:
    def test_empty(self):
        assert stable_abs_product([], 0.3 + 0.1j) == (0.0, 0.0)

    def test_two_factors(self):
        logmag, phase = stable_abs_product([1.0, -1.0], 0.0)
        assert logmag == pytest.approx(0.0, abs=1e-15)
        assert phase == pytest.approx(math.pi, abs=1e-15)

    def test_zero_factor(self):
        roots = np.exp(2j * np.pi * np.arange(64) / 64)
        logmag, _ = stable_abs_product(roots, roots[17])
        assert logmag == float("-inf")

    def test_matches_naive_product(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            pts = rng.normal(size=n) + 1j * rng.normal(size=n)
            z = complex(rng.normal(), rng.normal())
            naive = np.prod(z - pts)
            if not 1e-300 < abs(naive) < 1e300:
                continue
            logmag, phase = stable_abs_product(pts, z)
            rebuilt = math.exp(logmag) * np.exp(1j * phase)
            assert abs(rebuilt - naive) <= 1e-10 * abs(naive)

    def test_phase_range(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            pts = rng.normal(size=10) + 1j * rng.normal(size=10)
            _, phase = stable_abs_product(pts, 0.5j)
            assert -math.pi < phase <= math.pi


def test_import_loads_only_the_standard_library_and_numpy():
    # the library stays numpy-only: mpmath, scipy and hypothesis are test extras
    src = str(Path(lejaflip.__file__).resolve().parents[1])
    code = "import sys; before = set(sys.modules); import lejaflip; print(*sorted(set(sys.modules) - before))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    loaded = {name.split(".")[0] for name in out.split()}
    assert {"lejaflip", "numpy"} <= loaded
    assert loaded - sys.stdlib_module_names - {"lejaflip", "numpy"} == set()


def test_docstring_examples_run():
    assert doctest.testmod(lejaflip.core) == (0, 1)  # (failed, attempted)
