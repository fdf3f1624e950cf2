"""Shared fixtures."""

import numpy as np
import pytest


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Shapes of the arrays passed to ``np.linalg.eigvalsh`` during the test."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls
