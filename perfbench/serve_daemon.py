"""Traced ``repro serve``: install the layer wrappers, then run the CLI.

``perfbench/serve_load.py`` starts this instead of ``python3 -m repro
serve`` for the traced phase of the ``serve-mixed`` workload::

    python3 perfbench/serve_daemon.py SPANS_NAME serve --port 0

so the process layout is the untraced one: a single daemon process
running ``repro.cli.main``.  Spans are written to the benchmark's
trace directory once ``main`` returns, i.e. after the SIGTERM drain.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # setup.import_s is measured from here

import sys  # noqa: E402

import tracing  # noqa: E402

LAYERS = ("ea", "fitness", "kernel", "huffman", "optimizer", "serve")


def main(argv: list[str]) -> int:
    name, cli_arguments = argv[0], argv[1:]
    import repro.cli

    # `repro serve` imports its modules lazily; import them now so the
    # wrappers can be installed before the first request arrives.
    import repro.serve.batching  # noqa: F401
    import repro.serve.daemon  # noqa: F401
    import repro.serve.service  # noqa: F401

    import_s = time.perf_counter() - _STARTED
    tracer = tracing.Tracer()
    tracing.install(tracer, LAYERS)
    try:
        return repro.cli.main(cli_arguments)
    finally:
        tracer.uninstall()
        tracing.write_spans(tracer, name, {"import_s": import_s})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
