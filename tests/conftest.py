import pytest

from buckdens import zmod
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


@pytest.fixture
def shifts(monkeypatch):
    """The full-width shifts made through ``zmod.add_bits``, as a one-item count."""
    made = [0]
    real = zmod.add_bits

    def counted(bits, offsets):
        offsets = list(offsets)
        made[0] += len(offsets)
        return real(bits, offsets)

    monkeypatch.setattr(zmod, "add_bits", counted)
    return made
