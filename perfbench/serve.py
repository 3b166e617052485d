#!/usr/bin/env python3
"""The discovery service process driven by the ``service`` workload.

Usage::

    PYTHONPATH=src python3 perfbench/serve.py --seed 7

Builds a constant-density :class:`~repro.service.SteadyStateWorld` of
:data:`common.DEVICES` devices, serves it over HTTP on an OS-assigned
localhost port with the ops plane attached (as ``repro serve`` does by
default), and prints one JSON line ``{"port": ..., "build_s": ...}``
once it listens.  On SIGTERM it stops and prints a second JSON line:
every request in the order the app handled it, with its handler wall
time in seconds (for replay and the per-layer split).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import time

from common import DEVICES


def world_config(seed: int):
    """The served world: Table I density, churn scaled with the universe."""
    from repro.core.config import PaperConfig
    from repro.service import WorldConfig

    rate = max(2.0, DEVICES / 1000.0)
    return WorldConfig(
        base=PaperConfig(seed=seed).with_devices(DEVICES, keep_density=True),
        arrival_rate=rate,
        departure_rate=rate,
        min_population=max(2, DEVICES // 8),
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    from repro.obs import FlightRecorder
    from repro.obs.ops import OpsPlane
    from repro.service import DiscoveryApp, ServiceServer, SteadyStateWorld

    t0 = time.perf_counter()
    world = SteadyStateWorld(world_config(args.seed))
    build_s = time.perf_counter() - t0
    app = DiscoveryApp(world, ops=OpsPlane(flight=FlightRecorder()))

    order: list[list] = []
    handle = app.handle

    def recording_handle(request):
        t0 = time.perf_counter()
        response = handle(request)
        order.append(
            [request.method, request.path, request.query, request.body.decode(),
             time.perf_counter() - t0]
        )
        return response

    app.handle = recording_handle
    server = ServiceServer(app, "127.0.0.1", 0)

    async def serve() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        stopping: list[asyncio.Task] = []
        loop.add_signal_handler(
            signal.SIGTERM, lambda: stopping.append(loop.create_task(server.stop()))
        )
        print(json.dumps({"port": server.port, "build_s": build_s}), flush=True)
        await server.serve_forever()
        for task in stopping:
            await task

    asyncio.run(serve())
    print(json.dumps({"order": order}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
