import sys

import pytest

from fibpart import enumeration, fibcore, orbits


def _record_calls(monkeypatch, real):
    """Swap every fibpart module binding of real for a wrapper that records
    its argument, for the test's duration; return the record."""
    calls = []

    def counted(arg):
        calls.append(arg)
        return real(arg)

    for name, mod in list(sys.modules.items()):
        if name == "fibpart" or name.startswith("fibpart."):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.fixture
def codec_calls(monkeypatch):
    """Record every argument the package passes to fibcore.zeckendorf."""
    return _record_calls(monkeypatch, fibcore.zeckendorf)


@pytest.fixture
def theta_calls(monkeypatch):
    """Record every word the package passes to orbits.theta."""
    return _record_calls(monkeypatch, orbits.theta)


@pytest.fixture
def lattice_calls(monkeypatch):
    """Record every k the package factors by enumeration._lattice."""
    return _record_calls(monkeypatch, enumeration._lattice)
