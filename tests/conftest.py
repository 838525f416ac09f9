import numpy as np
import pytest

# hypothesis's pytest plugin imports libcst to write the patch of a failing
# example, and libcst 1.0.1 raises mypy_extensions' TypedDict deprecation on
# import.  Under -W error that warning ends the session with an INTERNALERROR
# before the falsifying example is shown.  Item marks outrank -W, so each test
# ignores that one third-party warning; every other warning stays an error.
LIBCST_IMPORT_WARNING = "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(pytest.mark.filterwarnings(LIBCST_IMPORT_WARNING))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
