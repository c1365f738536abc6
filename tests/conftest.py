"""Fixtures shared by the test modules."""

import numpy as np
import pytest
import scipy

# the numpy/scipy builds under which every pinned output (CSV bodies, design
# values, the fig4 body, demo stdout) was recorded; float results depend on
# the builds, so a pinned test skips on any other pair
PINNED_BUILD = ("2.4.6", "1.17.1")


@pytest.fixture
def pinned_build():
    """Skip the requesting test unless numpy and scipy are the pinned build."""
    if (np.__version__, scipy.__version__) != PINNED_BUILD:
        pytest.skip(f"pinned under numpy {PINNED_BUILD[0]} and scipy "
                    f"{PINNED_BUILD[1]}, running numpy {np.__version__} and "
                    f"scipy {scipy.__version__}")
