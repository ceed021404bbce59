"""One mfbia CLI process, timed from the inside.

    python3 cli_child.py SRC RESULT_JSON [--probe] [--trace TRACE_JSON] -- ARGS

Times ``import mfbia.cli`` (setup_s) and ``mfbia.cli.main(ARGS)`` (run_s),
the same two steps the ``mfbia`` console script takes, and writes them to
RESULT_JSON.  ``--probe`` stops after the import.  ``--trace`` wraps the
layers with :mod:`layertrace` before ``main`` runs and writes the spans to
TRACE_JSON.  SRC is the source tree the import must come from; an
``mfbia`` found anywhere else is refused.
"""

import sys
import time


def main() -> int:
    start = time.perf_counter()
    modules_before = len(sys.modules)
    # parsed by hand: importing argparse here would take it out of setup_s
    args = sys.argv[1:]
    split = args.index("--")
    own, cli_args = args[:split], args[split + 1:]
    src, result_path, flags = own[0], own[1], own[2:]
    probe = "--probe" in flags
    trace_path = flags[flags.index("--trace") + 1] if "--trace" in flags \
        else None

    import mfbia.cli
    setup_s = time.perf_counter() - start
    modules_loaded = len(sys.modules) - modules_before

    import json
    from pathlib import Path

    origin = Path(mfbia.cli.__file__).resolve()
    if Path(src).resolve() not in origin.parents:
        print(f"error: mfbia was imported from {origin}, not from {src}",
              file=sys.stderr)
        return 3

    tracer = None
    if trace_path is not None:
        import layertrace
        tracer = layertrace.install(trace_path)

    code, run_s = 0, 0.0
    if not probe:
        started = time.perf_counter()
        code = mfbia.cli.main(cli_args)
        run_s = time.perf_counter() - started
    if tracer is not None:
        tracer.finish()
    Path(result_path).write_text(json.dumps({
        "exit_code": code, "setup_s": setup_s, "run_s": run_s,
        "modules_loaded": modules_loaded}))
    return code


if __name__ == "__main__":
    sys.exit(main())
