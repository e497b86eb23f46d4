"""The package's public names resolve."""

import cusa
import cusa.losses


def test_exported_names_resolve():
    namespace = {}
    exec("from cusa import *", namespace)  # raises on a dangling name in cusa.__all__
    for module in (cusa, cusa.losses):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
