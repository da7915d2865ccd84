import pytest
from hypothesis import settings

from conseq import Rule

# law tables and exhaustive subset loops can blow the default 200ms deadline
# on a loaded machine; the suite bounds total runtime instead
settings.register_profile("conseq", deadline=None)
settings.load_profile("conseq")


@pytest.fixture
def built_rules(monkeypatch):
    """Every `Rule` built through its constructor from here on, in order."""
    built, init = [], Rule.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Rule, "__init__", counting)
    return built
