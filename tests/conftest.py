import pytest

from buckdens.generators import SetDescription


@pytest.fixture
def enumerated(monkeypatch):
    """The family of every description whose members are listed afresh (cache misses)."""
    calls = []
    enumerate_ = SetDescription._enumerate

    def counted(self, horizon):
        calls.append(self.family)
        return enumerate_(self, horizon)

    monkeypatch.setattr(SetDescription, "_enumerate", counted)
    return calls
