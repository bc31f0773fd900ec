"""One measured process: import qtcat.cli, run one command, report.

Usage: python3 child.py --result FILE --spawned T [--trace SPANS] -- [ARGS...]

The parent starts this script with the built package on PYTHONPATH and the
command's standard output sent to a file.  ``--spawned`` is the parent's
CLOCK_MONOTONIC reading just before the process was started; ``setup_s`` is
the time from then until ``qtcat.cli`` is imported.  Without ARGS the process
stops there (a set-up probe).  With ``--trace`` the calls into qtcat's modules
are wrapped (see tracer.py) before the command runs, and the spans are written
to SPANS after it has finished.  The result file gets one JSON object.
"""

# Only sys and time come before qtcat.cli, so setup_s times qtcat's import.
import sys
import time


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv):
    opts = {}
    while argv and argv[0].startswith("--"):
        flag = argv.pop(0)
        if flag == "--":
            break
        opts[flag] = argv.pop(0)

    from qtcat import cli

    out = {"setup_s": now() - float(opts["--spawned"])}
    if argv:
        from qtcat import kernels

        out["backend"] = kernels.BACKEND
        recorder = None
        if "--trace" in opts:
            import tracer

            recorder = tracer.Recorder()
            tracer.install(recorder)
        t0 = now()
        out["exit"] = cli.main(argv)
        sys.stdout.flush()
        out["job_s"] = now() - t0
        if recorder is not None:
            recorder.save(opts["--trace"])
    import json
    import resource

    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(opts["--result"], "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
