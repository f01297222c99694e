"""Run one ``neumann`` CLI command with tracing on; spans go to $PERFBENCH_TRACE_FILE.

Usage: python perfbench/cli_child.py <command> --config FILE [cli options]
(with the package's ``src`` directory on PYTHONPATH).
"""
import json
import os
import sys
import time

_t0 = time.perf_counter_ns()
import neumann.cli  # noqa: E402  (the import is what is timed)
_import_ns = time.perf_counter_ns() - _t0

import tracer as tr  # noqa: E402


def main() -> int:
    cli = neumann.cli
    tracer = tr.Tracer()
    tr.install(tracer)
    cli.COMMANDS.update({name: getattr(cli, fn.__name__) for name, fn in cli.COMMANDS.items()})
    tracer.job = "cli"

    class TimedPool(cli.ProcessPoolExecutor):
        """The locus process pool, timed from creation to shutdown."""

        def __init__(self, *args, **kwargs):
            self._span = tracer.open("cli.locus_pool")
            super().__init__(*args, **kwargs)

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.close(self._span)

    cli.ProcessPoolExecutor = TimedPool
    try:
        return cli.main(sys.argv[1:])
    finally:
        with open(os.environ["PERFBENCH_TRACE_FILE"], "w") as fh:
            json.dump({"import_ns": _import_ns, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    raise SystemExit(main())
