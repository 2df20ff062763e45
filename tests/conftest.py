import pytest

from buckdens.generators import SetDescription


@pytest.fixture
def enumerated(monkeypatch):
    """The family of every description whose members are built afresh (cache misses)."""
    calls = []
    build = SetDescription._build

    def counted(self, horizon):
        calls.append(self.family)
        return build(self, horizon)

    monkeypatch.setattr(SetDescription, "_build", counted)
    return calls
