"""Run the ctrwpricer CLI in this interpreter, traced or under a memory cap.

    python3 perfbench/child.py [--trace FILE] [--memory-cap BYTES] -- <cli args>

``--memory-cap`` limits this process's address space before anything is
imported, so a simulation that would exhaust memory raises MemoryError
here, which exits with code 75 instead of taking the machine down.
``--trace`` installs the layer tracer around ``cli.main`` and writes its
counts and self times, with the import time of ``ctrwpricer.cli``, to FILE.
"""

import json
import sys
import time

REFUSED_EXIT = 75  # exit code for MemoryError under the memory cap


def main(argv) -> int:
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    trace_file = opts[opts.index("--trace") + 1] if "--trace" in opts else None
    if "--memory-cap" in opts:
        import resource

        cap = int(opts[opts.index("--memory-cap") + 1])
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    loaded = len(sys.modules)
    start = time.perf_counter()
    from ctrwpricer import cli

    import_s = time.perf_counter() - start
    modules_loaded = len(sys.modules) - loaded

    tracer = None
    if trace_file:
        from tracer import Tracer

        tracer = Tracer().install()
        tracer.op = 0
    try:
        code = cli.main(cli_args)
    except MemoryError:
        print("memory cap reached", file=sys.stderr)
        code = REFUSED_EXIT
    if tracer is not None:
        tracer.op = -1
        snap = tracer.snapshot()
        snap.update(import_s=import_s, modules_loaded=modules_loaded)
        with open(trace_file, "w") as fh:
            json.dump(snap, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
