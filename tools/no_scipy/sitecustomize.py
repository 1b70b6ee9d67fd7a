"""Block SciPy in any interpreter started with this directory on PYTHONPATH.

Python imports ``sitecustomize`` at start-up, so putting this directory on
``PYTHONPATH`` blocks ``scipy`` and ``scipy.*`` in that interpreter and in
every process it spawns, since children inherit the environment::

    PYTHONPATH=tools/no_scipy:src python -m pytest tests/test_serving.py -q

Serving fits nothing, so the serving, gateway and sharding paths must run
without SciPy; only the fitted baselines (ARIMA, exponential smoothing)
import it, when they first fit.
"""

import sys


class BlockScipy:
    """A ``sys.meta_path`` finder that raises ImportError for SciPy."""

    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked by tools/no_scipy")
        return None


sys.meta_path.insert(0, BlockScipy())
