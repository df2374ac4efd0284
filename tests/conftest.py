import sys

import pytest

from fibpart import fibcore


@pytest.fixture
def codec_calls(monkeypatch):
    """Record every argument the package passes to fibcore.zeckendorf:
    each fibpart module binding of the codec is swapped for a counting
    wrapper for the test's duration."""
    real = fibcore.zeckendorf
    calls = []

    def counted(n):
        calls.append(n)
        return real(n)

    for name, mod in list(sys.modules.items()):
        if name == "fibpart" or name.startswith("fibpart."):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, counted)
    return calls
