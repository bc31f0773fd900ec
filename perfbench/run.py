"""qtcat benchmark: build the package, run fixed workloads, check, report.

Usage:
    python3 perfbench/run.py --workload NAME [--seconds 40] [--trace 0|1] [--seed N]

NAME is one of verify-17-12, basecase-20-15, strings-6-4-10, or ``all``.
The inputs are fixed; ``--seed`` is accepted and has no effect.

Each invocation copies the source tree to .perfbench/tree, builds it there
with its own ``setup.py build`` and byte-compiles the result (untimed), then
runs every job in a fresh ``child.py`` process that imports ``qtcat`` from
that build and calls ``qtcat.cli.main`` with ``--jobs 1``.  Every job's
output is checked (checks.py); a job that exits non-zero or fails a check
counts as failed.

``--trace 0`` runs whole rounds for about ``--seconds``: a round is a group
of PROBES_PER_GROUP set-up probes (processes that only import qtcat.cli)
and one job.  After MIN_JOBS rounds, a further round starts only if one as
long as the longest so far would end in time.  A last group of probes
follows the last job.
It reports the end-to-end metrics: the medians of setup_s, job_s and
peak_rss_mb, and paths_per_s from the median job_s.  ``--trace 1`` runs one plain job and one traced job
and reports the per-layer metrics from the traced job's spans (tracer.py).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
from regen_totals import DSTAR, M_MAX  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
TREE = os.path.join(OUT, "tree")
BUILD = os.path.join(OUT, "build")
JOBS = os.path.join(OUT, "jobs")

PROBES_PER_GROUP = 6
MIN_JOBS = 2
JOB_TIMEOUT_S = 170

WORKLOADS = {
    "verify-17-12": {
        "argv": ["--format", "json", "--jobs", "1", "verify", "--slope", "17/12"],
        "paths": lambda: checks.rational_catalan_count(17, 12),
        "check": lambda text: checks.check_verify(text, 17, 12),
    },
    "basecase-20-15": {
        "argv": ["--format", "json", "--jobs", "1", "basecase",
                 "--dstar", str(DSTAR), "--m-max", str(M_MAX)],
        "paths": checks.basecase_path_count,
        "check": checks.check_basecase,
    },
    "strings-6-4-10": {
        "argv": ["--jobs", "1", "strings", "--ellm", "6,4", "--d", "10"],
        # (6,4)-paths are the rational Dyck paths of slope 29/7
        "paths": lambda: checks.rational_catalan_count(29, 7),
        "check": lambda text: checks.check_strings(text, 6, 4, 10),
    },
}


class BenchError(Exception):
    pass


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _copy_ignore(directory, names):
    skip = {"__pycache__"}
    if os.path.abspath(directory) == ROOT:
        skip |= {".git", ".perfbench", "build", os.path.basename(HERE)}
    return [n for n in names if n in skip or n.endswith(".egg-info")]


def build():
    """Copy the tree, build it with its own setup.py, return the lib dir."""
    if not os.path.isfile(os.path.join(ROOT, "setup.py")):
        raise BenchError("no setup.py at %s" % ROOT)
    for path in (TREE, BUILD, JOBS):
        shutil.rmtree(path, ignore_errors=True)
    shutil.copytree(ROOT, TREE, ignore=_copy_ignore, symlinks=True)
    os.makedirs(JOBS)
    log = os.path.join(OUT, "build.log")
    with open(log, "wb") as fh:
        rc = subprocess.call(
            [sys.executable, "setup.py", "build", "--build-base", BUILD],
            cwd=TREE, stdout=fh, stderr=subprocess.STDOUT,
        )
    libs = [
        os.path.dirname(os.path.dirname(p))
        for p in glob.glob(os.path.join(BUILD, "lib*", "qtcat", "__init__.py"))
    ]
    if rc != 0 or len(libs) != 1:
        raise BenchError("build failed (exit %d), see %s" % (rc, log))
    rc = subprocess.call(
        [sys.executable, "-m", "compileall", "-q", libs[0]], stdout=subprocess.DEVNULL
    )
    if rc != 0:
        raise BenchError("compileall failed on %s" % libs[0])
    return libs[0]


def child_env(lib):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=lib, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    return env


def spawn(env, tag, argv=(), trace=None):
    """Run child.py once and return its result dict (plus output paths)."""
    base = os.path.join(JOBS, tag)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--result", base + ".json"]
    if trace:
        cmd += ["--trace", trace]
    with open(base + ".out", "wb") as out, open(base + ".err", "wb") as err:
        spawned = now()
        proc = subprocess.Popen(
            cmd + ["--spawned", repr(spawned), "--"] + list(argv),
            stdout=out, stderr=err, env=env, cwd=JOBS,
        )
        try:
            proc.wait(timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass  # killed below; counts as failed
        finally:  # also on SIGTERM or ^C of this process
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    result = {"ok": False, "out": base + ".out", "err": base + ".err"}
    if proc.returncode == 0 and os.path.exists(base + ".json"):
        with open(base + ".json") as fh:
            result.update(json.load(fh))
        result["ok"] = True
    return result


def run_job(env, workload, tag, trace=None):
    """One checked job; sets result['ok'] to False on any failure."""
    res = spawn(env, tag, WORKLOADS[workload]["argv"], trace)
    if not res["ok"]:
        with open(res["err"]) as fh:
            tail = fh.read()[-2000:]
        print("%s: process failed\n%s" % (tag, tail), file=sys.stderr)
        return res
    with open(res["out"]) as fh:
        text = fh.read()
    res["output_bytes"] = os.path.getsize(res["out"])
    problems = [] if res["exit"] == 0 else ["exit code %d" % res["exit"]]
    try:
        problems += WORKLOADS[workload]["check"](text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append("unreadable output: %r" % exc)
    if problems:
        res["ok"] = False
        print("%s: output check failed: %s" % (tag, "; ".join(problems[:5])), file=sys.stderr)
    print("  %s  job_s=%.4f  exit=%s  backend=%s  %s" % (
        tag, res["job_s"], res["exit"], res["backend"], "ok" if res["ok"] else "FAILED"))
    return res


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, env, seconds):
    spawn(env, "warmup")  # untimed: page cache and filesystem warm
    setups = []
    jobs = []
    failed = 0

    def probes():
        nonlocal failed
        for _ in range(PROBES_PER_GROUP):
            res = spawn(env, "setup-%03d" % len(setups))
            setups.append(res)
            failed += not res["ok"]

    # a round is a group of set-up probes and one job; probes are spread over
    # the run so that the set-up median covers all of it.  After MIN_JOBS
    # rounds, another starts only if a round as long as the longest so far
    # would still end within `seconds`.
    start = now()
    longest = 0.0
    while True:
        t0 = now()
        probes()
        res = run_job(env, workload, "job-%02d" % len(jobs))
        jobs.append(res)
        failed += not res["ok"]
        t = now()
        longest = max(longest, t - t0)
        if len(jobs) >= MIN_JOBS and t + longest - start > seconds:
            break
    probes()
    attempted = len(setups) + len(jobs)
    good = [r for r in jobs if r["ok"]]
    setup_s = [r["setup_s"] for r in setups + jobs if r["ok"]]
    metrics = {}
    if good:
        job_s = statistics.median(r["job_s"] for r in good)
        metrics = {
            "setup_s": metric(statistics.median(setup_s), "s"),
            "job_s": metric(job_s, "s"),
            "paths_per_s": metric(WORKLOADS[workload]["paths"]() / job_s, "paths/s"),
            "peak_rss_mb": metric(
                statistics.median(r["maxrss_kb"] for r in good) / 1024, "MB"),
        }
    backends = sorted({r["backend"] for r in good})
    return attempted, failed, metrics, backends


def per_layer(workload, env):
    plain = run_job(env, workload, "job-plain")
    spans = os.path.join(OUT, "trace-%s.spans" % workload)
    traced = run_job(env, workload, "job-traced", trace=spans)
    failed = (not plain["ok"]) + (not traced["ok"])
    if failed:
        return 2, failed, {}, []
    s = tracer.summarize(spans)
    per_name, counters = s["per_name"], s["header"]["counters"]
    metrics = {}

    def busy(name, calls=True):
        metrics[name + ".busy_s"] = metric(per_name[name]["busy_s"], "s")
        if calls:
            metrics[name + ".calls"] = metric(per_name[name]["calls"], "count")

    def ratio(num, den):
        return num / den if den else 0.0

    for name in ("kernels.rational_census", "kernels.ellm_census_bounded"):
        busy(name)
        metrics[name + ".paths_per_s"] = metric(
            ratio(counters.get(name + ".paths", 0), per_name[name]["busy_s"]), "paths/s")
    for name in ("kernels.ellm_maximal_bounded", "cycles.lowest_tuple",
                 "bijections.height_from_path"):
        busy(name)
    metrics["verify.self_s"] = metric(s["layer_self"]["verify"], "s")
    busy("qtpoly.add")
    metrics["qtpoly.sym.calls"] = metric(per_name["qtpoly.sym"]["calls"], "count")
    max_keys = sum(counters.get(k + ".max_keys", 0)
                   for k in ("kernels.rational_census", "kernels.ellm_census_bounded"))
    metrics["verify.assembly.useful_ratio"] = metric(
        ratio(max_keys, s["assembly_adds"]), "ratio")
    busy("paths.enumerate_positions", calls=False)
    items = counters["paths.enumerate_positions.items"]
    metrics["paths.enumerate_positions.items"] = metric(items, "count")
    metrics["paths.enumerate_positions.useful_ratio"] = metric(
        ratio(WORKLOADS[workload]["paths"](), items), "ratio")
    for name in ("paths.degr_alpha", "cycles.is_connected", "cycles.string_of"):
        busy(name)
    busy("bijections.f", calls=False)
    busy("bijections.g", calls=False)
    metrics["cli.self_s"] = metric(s["layer_self"]["cli"], "s")
    metrics["cli.output_bytes"] = metric(traced["output_bytes"], "bytes")
    metrics["trace.overhead_s"] = metric(traced["job_s"] - plain["job_s"], "s")
    print("  spans: %d written to %s" % (s["header"]["spans"], os.path.relpath(spans, ROOT)))
    return 2, 0, metrics, sorted({plain["backend"], traced["backend"]})


def run_workload(workload, seconds, trace):
    print("workload %s (%s)" % (workload, "traced" if trace else "untraced"))
    lib = build()
    env = child_env(lib)
    if trace:
        attempted, failed, metrics, backends = per_layer(workload, env)
    else:
        attempted, failed, metrics, backends = end_to_end(workload, env, seconds)
    print("  backend: %s" % ",".join(backends))
    for name, m in metrics.items():
        print("  %-44s %16.6f %s" % (name, m["value"], m["unit"]))
    return attempted, failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description="qtcat benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0, help="accepted; the inputs are fixed")
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like ^C, so the running job is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    os.makedirs(OUT, exist_ok=True)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            a, f, m = run_workload(name, args.seconds, args.trace)
            attempted += a
            failed += f
            if args.workload == "all":
                m = {name + "." + k: v for k, v in m.items()}
            metrics.update(m)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        for path in (TREE, BUILD):
            shutil.rmtree(path, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    with open(os.path.join(OUT, "result-%s-trace%d.json" % (args.workload, args.trace)), "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
