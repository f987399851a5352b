"""The one number policy (`r13lab.inputs`, DECISIONS.md D26): counts, reals
and divisors, each rejected by name, and no second copy of the policy."""

import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from r13lab import inputs

SRC = Path(inputs.__file__).resolve().parent
ID = {"ids": lambda v: repr(v)[:24]}  # short ids for 10**400
POLICY = re.compile(r"numbers\.Integral|numbers\.Real|sys\.float_info")


class TestCount:
    @pytest.mark.parametrize("value,minimum", [(0, 0), (3, 1), (np.int64(5), 2), (2**80, 2)], **ID)
    def test_returns_an_integer_at_or_above_the_minimum(self, value, minimum):
        assert inputs.count(value, "n", minimum) is value

    @pytest.mark.parametrize("value", [True, False, np.True_, 2.0, 2.5, "2", None, -1, 0], **ID)
    def test_rejects_by_name(self, value):
        with pytest.raises(ValueError, match=r"^n must be an integer of at least 1, got "):
            inputs.count(value, "n", 1)


class TestReal:
    @pytest.mark.parametrize("raw,value", [
        (1, 1.0), (-0.5, -0.5), (np.float64(0.25), 0.25), ("1e-3", 0.001), ("5E-3", 0.005),
        ("1.0e300", 1e300), (" 2 ", 2.0), (sys.float_info.max, sys.float_info.max),
        (5e-324, 5e-324)], **ID)
    def test_reads_numbers_and_numeric_strings(self, raw, value):
        out = inputs.real(raw, "x")
        assert type(out) is float and out == value

    @pytest.mark.parametrize("raw", [
        True, False, None, "abc", "", "inf", "nan", "1e400", math.nan, -math.inf, 10**400,
        -10**400, 1j, [1.0]], **ID)
    def test_rejects_by_name(self, raw):
        # An int beyond the float range once raised OverflowError.
        with pytest.raises(ValueError, match=r"^x must be a finite number, got "):
            inputs.real(raw, "x")


class TestPositive:
    @pytest.mark.parametrize("value", [
        1, 0.1, np.float64(0.5), sys.float_info.min, sys.float_info.max], **ID)
    def test_returns_a_float_with_a_finite_reciprocal(self, value):
        out = inputs.positive(value, "Kn")
        assert type(out) is float and out == value and math.isfinite(1.0 / out)

    @pytest.mark.parametrize("value", [
        0, 0.0, -1.0, 1e-320, 5e-324, math.nan, math.inf, 10**400, True, False, "0.1", None,
        1j], **ID)
    def test_rejects_by_name(self, value):
        # A subnormal divisor makes the relaxation term or M/dt overflow.
        with pytest.raises(ValueError, match=r"^Kn must be positive and finite"):
            inputs.positive(value, "Kn")


def test_no_other_module_copies_the_policy():
    copies = sorted(path.name for path in SRC.rglob("*.py")
                    if path.name != "inputs.py" and POLICY.search(path.read_text(encoding="utf-8")))
    assert (SRC / "inputs.py").is_file() and POLICY.search((SRC / "inputs.py").read_text())
    assert copies == []
