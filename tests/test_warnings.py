"""The suite's warning filter (``pyproject.toml``): every warning is an
error but one, the ``mypy_extensions.TypedDict`` deprecation that
hypothesis's failure report triggers.  As an error inside pytest's report
hook, that one stopped the whole run at the first failing generated test."""

import warnings

import pytest

from predlift import engine


def test_library_deprecation_warning_fails_a_test():
    with pytest.raises(DeprecationWarning, match="no longer used"):
        warnings.warn_explicit(
            "no longer used", DeprecationWarning, engine.__file__, 1, module=engine.__name__
        )


def test_only_the_typeddict_deprecation_is_let_through():
    warnings.warn("mypy_extensions.TypedDict is deprecated, use typing", DeprecationWarning)
    with pytest.raises(DeprecationWarning):
        warnings.warn("typing_extensions.TypedDict is deprecated", DeprecationWarning)
