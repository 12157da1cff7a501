"""Server process for the serve workloads: the repo's HTTP service, as deployed.

Run from the root of a checkout::

    python3 perfbench/launcher.py --store DIR [--trace-out FILE]

Builds the service through ``repro.store.server.build_server`` (a 2-worker
thread pool, the default engine pool of 8 and memory tier of 128 items, a
persistent store at ``DIR``) and serves through ``repro.store.server.run``,
which announces ``serving on http://HOST:PORT`` on stdout and drains on
SIGTERM. With ``--trace-out`` the layer entry points are patched to record
spans, written to ``FILE`` after the drain.

The launcher serves only while its stdin is open. The benchmark holds the
write end of that pipe and closes it only after the launcher has exited,
so end of file on stdin means the benchmark died, and the launcher exits
at once instead of serving on. (Started by hand, it serves until stdin is
closed, e.g. by Ctrl-D, or until SIGTERM.)
"""

from __future__ import annotations

import argparse
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

#: The server's worker-pool size: one per CPU of the 2-CPU reference machine.
SERVER_WORKERS = 2


def _exit_when_orphaned() -> None:
    sys.stdin.buffer.read()
    os._exit(1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    threading.Thread(target=_exit_when_orphaned, daemon=True).start()

    tracer = None
    if args.trace_out:
        from repro.obs.trace import current_request_id

        from perfbench.instrument import install
        from perfbench.tracing import Tracer

        tracer = Tracer("server", request_id=current_request_id)
        install(tracer)

    from repro.store.artifacts import ArtifactStore
    from repro.store.server import build_server, run

    server = build_server(
        port=0,
        store=ArtifactStore(args.store),
        workers=SERVER_WORKERS,
        backend="thread",
    )
    run(server)
    if tracer is not None:
        tracer.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
