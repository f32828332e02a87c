"""A fixed reference service that calibrates the served workload.

A Python service whose pool threads share the interpreter lock loses
time to lock hand-offs between CPUs, and how much depends on the host
at that moment, not only on its CPU speed.  This server reproduces that
shape with fixed benchmark-only work: each TCP request runs the speed
kernel ``KERNELS`` times on a two-thread pool and answers one line.
The served workload times a short round of requests against it between
its own rounds and reports served times relative to it (see
``workloads.ServedRouted``).

Run as a script it prints its port on stdout, then serves until killed.
"""

from __future__ import annotations

import asyncio
import os
import sys
from concurrent.futures import ThreadPoolExecutor

#: Kernel runs per request (about 40 ms of CPU at reference speed).
KERNELS = 20
#: Threads in the pool, as in the daemon's default engine.
WORKERS = 2


def _work() -> bytes:
    from perfbench.speed import _kernel

    for _ in range(KERNELS):
        _kernel()
    return b"ok\n"


async def _serve() -> None:
    pool = ThreadPoolExecutor(max_workers=WORKERS)
    loop = asyncio.get_running_loop()

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            await reader.readline()
            writer.write(await loop.run_in_executor(pool, _work))
            await writer.drain()
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    print(server.sockets[0].getsockname()[1], flush=True)
    async with server:
        await server.serve_forever()


async def request(port: int) -> None:
    """One reference request, as the benchmark's clients send it."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(b"work\n")
        await writer.drain()
        if await reader.readline() != b"ok\n":
            raise RuntimeError("the reference service answered wrongly")
    finally:
        writer.close()


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    asyncio.run(_serve())
