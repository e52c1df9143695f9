"""Package layout: each layer's public names are the ones `sedenion` exports."""

import importlib

import pytest

import sedenion


@pytest.mark.parametrize("layer", ["algebra", "zerodiv", "slices", "series"])
def test_layer_all_resolves_and_is_reexported(layer):
    module = importlib.import_module(f"sedenion.{layer}")
    missing = [name for name in module.__all__
               if getattr(sedenion, name, None) is not getattr(module, name)]
    assert missing == []
