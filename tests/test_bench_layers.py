"""The benchmark's traced layers must name functions that exist.

``bench/layers.py`` patches library functions by module and attribute
name; a refactor that drops or renames one of them would only surface
when a traced benchmark run crashes. This test reads ``bench/`` and
changes nothing there.
"""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    return layers


def test_traced_names_resolve(layers):
    for name, owner, attr, _ in layers.COARSE + layers.LAYERS:
        assert callable(getattr(owner, attr, None)), (
            f"{name}: {owner.__name__}.{attr} is not a callable"
        )
