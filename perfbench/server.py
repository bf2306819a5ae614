"""serve_mixed server process: the program's HTTP tier in its own interpreter.

``run.py`` starts it as ``python3 perfbench/server.py '<json spec>'``
with ``src`` on ``PYTHONPATH``.  Set-up builds the layers and warms the
hot artifacts, then binds an ephemeral port and reports readiness by
writing one JSON line to stdout: ``{"event": "ready", "port": ...}``.
No store is attached, so no request reads or writes a warehouse.

Commands arrive on stdin, one per line:

* ``slice`` -- run one calibration slice on the event loop.  The
  generator sends it only while no request is in flight and the next is
  due well after the slice ends, so serving is never held up;
* ``stats`` -- answer with the server's CPU seconds so far
  (``time.process_time()``) and the wall and CPU times of the slices run
  since the last ``stats``;
* ``check <json list of names>`` -- answer with the SHA-256 of
  ``artifact_document()`` for each name, rendered afresh in this
  process, so the benchmark can compare served bodies against it;
* ``quit`` (or end of input) -- stop serving and exit.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time

from calib import Sampler, run_slice


async def serve(spec: dict, sampler: Sampler, emit) -> None:
    from repro.api import Study, StudyConfig
    from repro.serve import ArtifactService, artifact_document, start_server
    from repro.store import set_store
    from worker import document_digest, import_program

    import_program()
    set_store(None)  # never the environment's REPRO_STORE
    config = StudyConfig(parallel=False, **spec["config"])
    service = ArtifactService(config, store=None)
    service.warm(spec["warm"])
    server = await start_server(service, "127.0.0.1", 0, warm=False)
    # Slices stop here: nothing may interrupt the server while it serves.
    sampler.stop()
    emit({"event": "ready", "port": server.sockets[0].getsockname()[1], "slices": sampler.slices})

    loop = asyncio.get_running_loop()
    slices: list[float] = []
    slice_cpu = 0.0
    try:
        while True:
            line = await loop.run_in_executor(None, sys.stdin.readline)
            command, _, argument = line.strip().partition(" ")
            if command == "slice":
                wall, cpu = run_slice()
                slices.append(wall)
                slice_cpu += cpu
                continue
            if command == "stats":
                emit({
                    "event": "stats",
                    "cpu": time.process_time(),
                    "slices": slices,
                    "slice_cpu": slice_cpu,
                })
                slices, slice_cpu = [], 0.0
                continue
            if command != "check":
                break
            study = Study(config)
            digests = {
                name: document_digest(artifact_document(study, name))
                for name in json.loads(argument)
            }
            emit({"event": "check", "digests": digests})
    finally:
        server.close()
        await server.wait_closed()


def main() -> int:
    sampler = Sampler()
    sampler.start()
    spec = json.loads(sys.argv[1])
    out = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)

    def emit(event: dict) -> None:
        out.write(json.dumps(event) + "\n")
        out.flush()

    asyncio.run(serve(spec, sampler, emit))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
