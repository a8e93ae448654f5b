"""Every exported name resolves, so a trimmed module cannot leave a stale
entry in ``__all__``."""

import pytest

import sectorsearch
import sectorsearch.constraints


@pytest.mark.parametrize("module", [sectorsearch, sectorsearch.constraints],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
