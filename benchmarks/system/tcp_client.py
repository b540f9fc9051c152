"""A fleet member of ``fanin_grid``: one ``run_network_client`` process.

Started by ``workloads.TcpFleet`` with pipes on standard input and output.
It imports, writes ``ready``, and parks on standard input until it reads
the server's port; it then works until the server dismisses it and writes
the number of results it delivered.  An empty line or end of input (the
benchmark stood the fleet down, or died) ends it without connecting.
"""

from __future__ import annotations

import sys

from repro.distributed import run_network_client


def main() -> int:
    report, sys.stdout = sys.stdout, sys.stderr  # the pipe carries the protocol only
    print("ready", file=report, flush=True)
    port = sys.stdin.readline().strip()
    if not port:
        return 0
    done = run_network_client("127.0.0.1", int(port), heartbeat_interval=2.0)
    print(done, file=report, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
