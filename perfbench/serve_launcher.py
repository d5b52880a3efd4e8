"""Start ``hydra-c serve`` with the time inside the service recorded.

``python perfbench/serve_launcher.py LOG serve --socket PATH ...`` wraps
``AdmissionService.handle`` -- the call every query goes through when the
daemon answers in-process (its default, ``--jobs 1``) -- then runs the
program's own CLI with the remaining arguments.  When the daemon has
drained and returned, ``LOG`` receives one ``[id, op, seconds]`` entry per
answered request.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main() -> int:
    log, argv = Path(sys.argv[1]), sys.argv[2:]

    from repro.cli import main as cli_main
    from repro.serve import AdmissionService

    handled = []
    original = AdmissionService.handle

    def handle(self, request):
        start = time.perf_counter()
        try:
            return original(self, request)
        finally:
            handled.append((request.get("id"), request.get("op"), time.perf_counter() - start))

    AdmissionService.handle = handle
    code = cli_main(argv)
    log.write_text(json.dumps(handled))
    return code


if __name__ == "__main__":
    sys.exit(main())
