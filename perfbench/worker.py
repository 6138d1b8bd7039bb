"""One benchmark call in a fresh interpreter.

    python3 worker.py SRC RESULT_JSON [--trace TRACE_JSON] [-- CLI ARGS...]

Times the import of ``radns.cli`` (the set-up a user pays on every command),
then, when CLI arguments follow ``--``, one ``command_dispatch`` call.  With
``--trace`` the layers are wrapped first and the spans are written to
TRACE_JSON after the call.  The result (times, exit code, peak RSS, layer
summary) goes to RESULT_JSON.
"""

import json
import resource
import sys
import time


def main(argv):
    src, result_path, rest = argv[0], argv[1], argv[2:]
    cli_args = rest[rest.index("--") + 1:] if "--" in rest else []
    trace_path = rest[rest.index("--trace") + 1] if "--trace" in rest else None

    sys.path.insert(0, src)
    start = time.perf_counter()
    import radns.cli
    result = {"setup_s": time.perf_counter() - start}

    if cli_args:
        tracer = None
        if trace_path is not None:
            from tracing import Tracer, probe_defaults
            tracer = Tracer().install()
        start = time.perf_counter()
        result["exit_code"] = radns.cli.command_dispatch(cli_args)
        result["run_s"] = time.perf_counter() - start
        if tracer is not None:
            tracer.write(trace_path)
            result["layers"] = tracer.summarise(*probe_defaults(sys.modules["radns.semigroup"]))
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
