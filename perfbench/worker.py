"""One invocation of the schmidt CLI in a fresh process.

    python3 perfbench/worker.py TRACE_PATH|- -- CLI_ARGS...

Imports `schmidt.cli` from the checkout's `src/`, then calls
`schmidt.cli.main(CLI_ARGS)` with stdout and stderr captured. With a trace
path, the layers are wrapped first and the trace is written there at the
end. Prints one JSON object: CLOCK_MONOTONIC timestamps (comparable with
the parent's, which records the spawn time), the CPU seconds and peak RSS
of this process, the exit code and the captured output.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> None:
    # Only the interpreter and `schmidt.cli` load before `ready`, so the
    # parent's spawn-to-ready interval is the CLI's own set-up cost.
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import schmidt.cli

    ready = _clock()

    import contextlib
    import io
    import json
    import resource
    from pathlib import Path

    def cpu_seconds() -> float:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return usage.ru_utime + usage.ru_stime

    trace_path, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: worker.py TRACE_PATH|- -- CLI_ARGS...")
    src = Path(ROOT, "src").resolve()
    if not Path(schmidt.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported schmidt from {schmidt.cli.__file__}, not from {src}")

    tracer = None
    if trace_path != "-":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    out, err = io.StringIO(), io.StringIO()
    code = raised = None
    cpu_start = cpu_seconds()
    start = _clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = schmidt.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception as exc:  # reported to the parent, which counts it as a failed invocation
        raised = f"{type(exc).__name__}: {exc}"
    end = _clock()
    cpu = cpu_seconds() - cpu_start

    result = {
        "ready": ready,
        "start": start,
        "end": end,
        "cpu_s": cpu,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "code": code,
        "raised": raised,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }
    if tracer is not None:
        result["layers"] = tracer.totals()
        result["table_cap"] = tracing.table_cap()
        tracer.write(Path(trace_path), argv)
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
