"""Time one cold set-up of a workload's serving stack in a fresh process.

Usage (from the repository root)::

    python3 e2ebench/setup_probe.py <workload>

The clock starts just before the first ``import repro`` and stops once the
stack is ready to serve: import, engine and gateway construction, shard
spawn, and one small warm-up request per worker (which is also the
readiness wait).  Closing the stack is not timed.  Prints one JSON line,
``{"setup_s": ...}``.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path.cwd() / "src"))

import stack  # noqa: E402  (imports no repro module at load time)
from workloads import WORKLOADS  # noqa: E402


async def _ready_and_close(gateway, started: float) -> float:
    try:
        await stack.warm_up(gateway)
        elapsed = time.perf_counter() - started
    finally:
        await gateway.close()
        gateway.engine.close()
    return elapsed


def main(argv: list[str]) -> int:
    info = WORKLOADS[argv[0]]
    started = time.perf_counter()
    import repro  # noqa: F401  (the import is part of what is timed)

    gateway = stack.build_gateway(info.sharded)
    elapsed = asyncio.run(_ready_and_close(gateway, started))
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
