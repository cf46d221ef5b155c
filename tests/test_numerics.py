"""Solver and linear-algebra helper tests."""

import dataclasses
import math

import numpy as np
import pytest

from xxchain.numerics import (
    BracketError,
    CriticalResult,
    bisect_root,
    maximize_unimodal,
)


class TestBisectRoot:
    def test_linear(self):
        root, _, _ = bisect_root(lambda x: x - 1.0, 0.0, 3.0)
        assert abs(root - 1.0) < 1e-9

    def test_exact_endpoint(self):
        assert bisect_root(lambda x: x, 0.0, 1.0) == (0.0, 0, 0.0)
        assert bisect_root(lambda x: x - 1.0, 0.0, 1.0) == (1.0, 0, 0.0)

    def test_no_sign_change_raises_with_values(self):
        # The message names both endpoint values; the error carries nothing else.
        with pytest.raises(BracketError) as info:
            bisect_root(lambda x: x * x + 1.0, -1.0, 2.0)
        message = "no sign change on [-1, 2]: fn(lo) = 2.000000e+00, fn(hi) = 5.000000e+00"
        assert info.value.args == (message,)
        assert vars(info.value) == {}

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            bisect_root(lambda x: x, 2.0, 1.0)

    def test_sinh_threshold_root(self):
        # Root of sinh(b) = 1, i.e. b = ln(1 + sqrt(2)).
        # frozen from a 50-digit mpmath evaluation of log(1 + sqrt(2))
        expected = 0.8813735870195430
        for hi in (2.0, 50.0):
            root, _, _ = bisect_root(lambda b: math.sinh(b) - 1.0, 1e-6, hi)
            assert abs(root - expected) < 1e-9
        # frozen from a 50-digit mpmath evaluation of 1 / log(1 + sqrt(2))
        assert abs(1.0 / root - 1.1345926571065110) < 1e-9

    def test_reports_iterations_and_width(self):
        root, iterations, width = bisect_root(lambda x: x - 1.0, 0.0, 3.0)
        assert iterations > 10
        assert width <= 1e-10
        assert abs(root - 1.0) < 1e-9


class TestMaximizeUnimodal:
    def test_parabola(self):
        argmax, value = maximize_unimodal(lambda x: -((x - 0.3) ** 2), -1.0, 1.0)
        assert abs(argmax - 0.3) < 1e-5
        assert value <= 0.0

    def test_cosh_valley(self):
        argmax, value = maximize_unimodal(lambda x: -math.cosh(x), -2.0, 3.0)
        assert abs(argmax) < 1e-5
        assert abs(value + 1.0) < 1e-9

    def test_mirror_symmetry(self):
        fn = lambda x: -((x - 0.7) ** 2)  # noqa: E731
        argmax, _ = maximize_unimodal(fn, -2.0, 2.0)
        mirrored, _ = maximize_unimodal(lambda x: fn(-x), -2.0, 2.0)
        assert abs(argmax + mirrored) < 1e-5

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            maximize_unimodal(lambda x: x, 1.0, 1.0)


def frozen_dataclass_twin(cls):
    """The frozen dataclass with the name, fields and defaults of a ``NamedTuple``."""
    defaults = cls._field_defaults
    return dataclasses.make_dataclass(
        cls.__name__,
        [
            (name, kind, defaults[name]) if name in defaults else (name, kind)
            for name, kind in cls.__annotations__.items()
        ],
        frozen=True,
    )


def assert_frozen_record(cls, samples):
    """``cls`` builds, prints and refuses assignment as its frozen dataclass twin did."""
    twin = frozen_dataclass_twin(cls)
    for kwargs in samples:
        result, reference = cls(**kwargs), twin(**kwargs)
        assert repr(result) == repr(reference)
        assert tuple(result) == dataclasses.astuple(reference)
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(result, name, getattr(result, name))
        with pytest.raises(AttributeError):
            result.extra = 1


class TestCriticalResult:
    def test_keyword_and_default_construction(self):
        result = CriticalResult(value=math.nan, exists=False)
        assert repr(result) == (
            "CriticalResult(value=nan, exists=False, iterations=0, residual=0.0, note='')"
        )
        full = CriticalResult(value=0.5, exists=True, iterations=3, residual=1e-11, note="n")
        assert full == CriticalResult(0.5, True, 3, 1e-11, "n")
        assert full.value == 0.5 and full.exists and full.note == "n"

    def test_prints_and_freezes_as_the_dataclass_did(self):
        assert_frozen_record(
            CriticalResult,
            [
                {"value": math.nan, "exists": False, "note": "boundary"},
                {"value": 0.1 + 0.2, "exists": True, "iterations": 33, "residual": 5e-324},
                {"value": -0.0, "exists": True, "note": "quote ' and \\ back"},
            ],
        )
