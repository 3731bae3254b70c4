"""Optimizer constructor signatures: keyword-only configuration.

Every optimizer takes ``(problem, *, config...)``. Positional
configuration was always fragile (inserting one parameter silently
reinterprets every call site after it), so it is a ``TypeError``.
"""

import inspect

import pytest

from repro import (
    GASPAD,
    WEIBO,
    DEOptimizer,
    MFBOptimizer,
    MOMFBOptimizer,
    RandomSearchOptimizer,
)
from repro.problems import ForresterProblem, ZDT1Problem

ALL_OPTIMIZERS = [
    MFBOptimizer,
    WEIBO,
    GASPAD,
    DEOptimizer,
    RandomSearchOptimizer,
    MOMFBOptimizer,
]


class TestKeywordOnlySignatures:
    @pytest.mark.parametrize("cls", ALL_OPTIMIZERS)
    def test_config_parameters_are_keyword_only(self, cls):
        params = list(inspect.signature(cls).parameters.values())
        assert params[0].name == "problem"
        for param in params[1:]:
            assert param.kind is inspect.Parameter.KEYWORD_ONLY, (
                f"{cls.__name__}.{param.name} should be keyword-only"
            )

    @pytest.mark.parametrize("cls", ALL_OPTIMIZERS)
    def test_shared_config_names(self, cls):
        """The knobs every optimizer exposes use the same names."""
        names = set(inspect.signature(cls).parameters)
        assert {"budget", "rng", "seed"} <= names

    @pytest.mark.parametrize("cls", ALL_OPTIMIZERS)
    def test_positional_config_raises_type_error(self, cls):
        problem = ZDT1Problem() if cls is MOMFBOptimizer else ForresterProblem()
        with pytest.raises(TypeError, match="positional"):
            cls(problem, 20)
