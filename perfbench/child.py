"""One benchmark call in a fresh interpreter.

Usage: python3 child.py SRC RESULT_JSON SPANS_JSON|- [CLI ARGS...]

Imports ``igwvmp.cli`` from SRC, notes the monotonic clock once it is ready
(the parent noted it just before starting this process, so the difference
is the set-up time), then runs ``igwvmp.cli.main`` on the CLI arguments and
writes its exit code, wall time and peak RSS to RESULT_JSON. With no CLI
arguments it only measures set-up. With SPANS_JSON other than ``-`` the
call runs under the span tracer, which is installed after set-up.
"""

import json
import resource
import sys
import time


def main():
    src, result_path, spans_path, *cli_args = sys.argv[1:]
    sys.path.insert(0, src)
    import igwvmp.cli

    ready = time.monotonic()
    result = {"ready": ready}
    if cli_args:
        tracer = None
        if spans_path != "-":
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        start = time.monotonic()
        rc = igwvmp.cli.main(cli_args)
        result["run_s"] = time.monotonic() - start
        result["rc"] = rc
        if tracer is not None:
            tracer.dump(spans_path)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
