"""One benchmark operation in a fresh interpreter.

    python3 child.py MODE GRAPH OUT [SUBCOMMAND ARGS...]

MODE is "setup" (import and parse only), "run" (also call the CLI) or
"trace" (call the CLI with the layer tracer installed).  The CLI writes its
output to OUT; the last line of standard output is this process's own
measurements as JSON.  Only sys and time are imported before the set-up
clock starts, so setup_s holds the package's own import cost.
"""

import sys
import time


def main(argv):
    t0 = time.perf_counter()
    mode, graph_path, out_path, *cli_args = argv
    import gpcubes.cli

    t_import = time.perf_counter()
    with open(graph_path) as fh:
        gpcubes.cli.GraphProduct(gpcubes.cli.parse_graph(fh.read()))
    t_setup = time.perf_counter()
    result = {
        "setup_s": t_setup - t0,
        "import_s": t_import - t0,
        "package": gpcubes.cli.__file__,
    }
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        cli_argv = [cli_args[0], "--graph", graph_path, "--out", out_path]
        cli_argv += cli_args[1:]
        t1 = time.perf_counter()
        code = gpcubes.cli.main(cli_argv)
        result["verdict_s"] = time.perf_counter() - t1
        result["exit_code"] = code

        import resource

        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["layers"] = tracer.metrics()
            result["spans"] = tracer.span_count()

    import json

    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
