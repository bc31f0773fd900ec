"""Command-line front end.

Subcommands: enumerate, poly, verify, basecase, strings, projection, stats.
Exit codes: 0 = pass / output produced, 1 = verified failure (counterexample
emitted), 2 = usage error.  This module only parses text and checks what only
a command line has (formats, flags, --jobs, the --out file); every numeric
rule on an input is owned by the library, which raises kernels.InputError for
a broken one where the rule lives (the kernels and qtcat.verify), and that
exits 2 too.  Any other error is raised with its traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys

from qtcat import kernels, paths, verify
from qtcat.bijections import BoundedPartition


class UsageError(Exception):
    pass


def _parse_slope(text):
    try:
        n, s = text.split("/")
        n, s = int(n), int(s)
    except ValueError:
        raise UsageError("slope must look like 17/12")
    return n, s


def _parse_ellm(text):
    try:
        ell, m = (int(v) for v in text.split(","))
    except ValueError:
        raise UsageError("ellm must look like 4,3")
    return ell, m


def _csv_text(header, rows):
    """The header and each row, a list of fields, as CSV."""
    import csv  # only --format csv needs it, so it stays off the start-up path

    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _rows_to_text(rows, header, fmt):
    if fmt == "json":
        return json.dumps(rows, indent=None) + "\n"
    if fmt == "csv":
        return _csv_text(header, ([r[k] for k in header] for r in rows))
    lines = ["\t".join(header)]
    for r in rows:
        lines.append("\t".join(str(r[k]) for k in header))
    return "\n".join(lines) + "\n"


def _rational_rows(n, s):
    """(steps, area, degr, dinv, maximal) of every path of slope n/s."""
    for p in paths.enumerate_rational(n, s):
        st = paths.stats(p)
        yield p.steps, st.area, st.degr, st.dinv, paths.is_maximal(p)


def _ellm_rows(ell, m, bound):
    """(steps, area, degr, dinv, maximal) of the (ell, m)-paths of degree at
    most bound, in the generators' order, each from the (degr, positions)
    pair the walk lists: nothing is scored again."""
    M = paths.max_area(ell, m)
    for degr, a in kernels.ellm_paths_bounded(ell, m, bound):
        area = sum(a)
        yield paths.steps_of_positions(a, m), area, degr, M - area - degr, a[1] == 0


def cmd_enumerate(args):
    header = ["steps", "area", "degr", "dinv", "maximal"]
    if args.slope and args.ellm:
        raise UsageError("enumerate takes --slope or --ellm, not both")
    if args.slope:
        # the generator recurses and allocates once per level, like the
        # pure-Python kernels, so it is held to the kernels' limits
        n, s = _parse_slope(args.slope)
        kernels.check_slope(n, s)
        stream = _rational_rows(n, s)
    elif args.ellm:
        ell, m = _parse_ellm(args.ellm)
        # the degree-pruned walk; no path the kernels accept has degree
        # LIMIT or more, so that bound keeps all
        bound = kernels.LIMIT if args.max_degr is None else args.max_degr
        stream = _ellm_rows(ell, m, min(max(bound, 0), kernels.LIMIT))
    else:
        raise UsageError("enumerate needs --slope or --ellm")
    rows = [
        {
            "steps": ",".join(map(str, steps)),
            "area": area,
            "degr": degr,
            "dinv": dinv,
            "maximal": maximal,
        }
        for steps, area, degr, dinv, maximal in stream
        if args.max_degr is None or degr <= args.max_degr
    ]
    args.out.write(_rows_to_text(rows, header, args.format))
    return 0


def _poly_text(poly, fmt):
    if fmt == "json":
        return json.dumps(poly.to_obj()) + "\n"
    if fmt == "csv":
        return _csv_text(["q", "t", "c"], ([a, b, c] for (a, b), c in poly.terms()))
    return str(poly) + "\n"


def cmd_poly(args):
    n, s = _parse_slope(args.slope)
    if args.d is not None:
        poly = verify.catalan_slice(n, s, args.d)
    else:
        poly = verify.catalan_poly(n, s)
    args.out.write(_poly_text(poly, args.format))
    return 0


# one polynomial term as json.dumps(report.to_obj(), indent=2) lays it out
_TERM = '    {\n      "q": %d,\n      "t": %d,\n      "c": %d\n    }'


def _side_json(poly):
    if poly is None:
        return "null"
    terms = ",\n".join(_TERM % (a, b, c) for (a, b), c in poly.terms())
    return "[\n%s\n  ]" % terms if terms else "[]"


def _report_json(report):
    """json.dumps(report.to_obj(), indent=2) + "\n", byte for byte.

    indent turns json's C encoder off, and the pure-Python one is slow on the
    thousands of terms of lhs and rhs, so those are laid out from a template;
    every other field still goes through json.dumps, one level deeper by two
    more spaces after each newline (json escapes the newlines in strings)."""
    sides = {"lhs": _side_json(report.lhs), "rhs": _side_json(report.rhs)}
    obj = verify.VerificationReport(
        report.params, report.verdict, None, None, report.witness, report.counts
    ).to_obj()
    fields = ",\n".join(
        "  %s: %s" % (
            json.dumps(k),
            sides[k] if k in sides else json.dumps(v, indent=2).replace("\n", "\n  "),
        )
        for k, v in obj.items()
    )
    return "{\n%s\n}\n" % fields


def _report_exit(report, args):
    if args.format == "json":
        text = _report_json(report)
    else:
        lines = ["verdict: %s" % ("pass" if report.verdict else "fail")]
        lines.append("params: %s" % json.dumps(report.params))
        if report.counts:
            lines.append("counts: %s" % json.dumps(report.counts))
        if report.witness is not None:
            lines.append("witness: %s" % json.dumps(report.witness))
        text = "\n".join(lines) + "\n"
    args.out.write(text)
    return 0 if report.verdict else 1


def cmd_verify(args):
    n, s = _parse_slope(args.slope)
    return _report_exit(verify.check_conjecture(n, s), args)


def cmd_basecase(args):
    return _report_exit(verify.basecase(range(1, args.m_max + 1), args.dstar), args)


def _path_line(a, m, degr):
    return "  %s  area=%d, degr=%d" % (
        ",".join(map(str, paths.steps_of_positions(a, m))), sum(a), degr
    )


def cmd_strings(args):
    ell, m = _parse_ellm(args.ellm)
    if args.d is None:
        raise UsageError("strings needs --d")
    report = verify.verify_string_partition(ell, m, args.d)
    if args.format == "json":
        return _report_exit(report, args)

    def line(a):
        # a passing check prints only tuples the walk listed at degree d (the
        # strings are the connected ones); a failing one may print a string
        # element of another degree, so there each tuple is scored here
        if report.verdict:
            return _path_line(a, m, args.d)
        return _path_line(a, m, paths.degr_alpha(paths.PositionPath(m, a)))

    lines = []
    for lam, orbit in report.detail["strings"]:
        lines.append("string %s:" % (list(lam.parts),))
        lines.extend(map(line, orbit))
    leftovers = report.detail["disconnected"]
    lines.append("disconnected (%d):" % len(leftovers))
    lines.extend(map(line, leftovers))
    lines.append("verdict: %s" % ("pass" if report.verdict else "fail"))
    args.out.write("\n".join(lines) + "\n")
    return 0 if report.verdict else 1


def cmd_projection(args):
    try:
        parts = tuple(int(v) for v in args.partition.split(",")) if args.partition else ()
    except ValueError:
        raise UsageError("partition must be comma-separated parts, e.g. 4,2,1")
    if args.ell is None or args.m is None:
        raise UsageError("projection needs --ell and --m")
    try:
        lam = BoundedPartition(parts, args.ell - 1)
    except ValueError as e:
        raise UsageError(str(e))
    return _report_exit(verify.verify_projection(lam, args.m), args)


def cmd_stats(args):
    if args.slope and args.m is not None:
        raise UsageError("stats takes --slope or --m, not both")
    try:
        if args.slope:
            n, s = _parse_slope(args.slope)
            p = paths.parse_path_text(args.path, slope=(n, s))
        elif args.m is not None:
            p = paths.parse_path_text(args.path, m=args.m)
        else:
            raise UsageError("stats needs --slope or --m")
        if isinstance(p, paths.PositionPath):
            p = paths.positions_to_steps(p)
    except ValueError as e:
        raise UsageError(str(e))
    st = paths.stats(p)
    row = {
        "steps": ",".join(str(x) for x in p.steps),
        "area": st.area,
        "degr": st.degr,
        "dinv": st.dinv,
        "M": st.M,
        "maximal": paths.is_maximal(p),
    }
    if args.format == "json":
        args.out.write(json.dumps(row) + "\n")
    else:
        args.out.write("\n".join("%s: %s" % (k, v) for k, v in row.items()) + "\n")
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="qtcat",
        description="Rational q,t-Catalan paths, statistics, and conjecture checks",
    )
    ap.add_argument(
        "--format", choices=["plain", "json", "csv"], default="plain",
        help="csv applies to enumerate and poly only; the other commands "
        "print plain text under it",
    )
    ap.add_argument(
        "--jobs", type=int, default=1,
        help="must be >= 1; accepted, but the base case always runs in one process",
    )
    ap.add_argument("--out", default=None)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list paths with their statistics")
    p.add_argument("--slope")
    p.add_argument("--ellm")
    p.add_argument("--max-degr", type=int, default=None)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("poly", help="print the polynomial (or one degree slice)")
    p.add_argument("--slope", required=True)
    p.add_argument("--d", type=int, default=None)
    p.set_defaults(fn=cmd_poly)

    p = sub.add_parser("verify", help="check the conjecture for one slope")
    p.add_argument("--slope", required=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("basecase", help="base-case computations 1 and 2")
    p.add_argument("--dstar", type=int, default=20)
    p.add_argument("--m-max", type=int, default=20)
    p.set_defaults(fn=cmd_basecase)

    p = sub.add_parser("strings", help="string decomposition of one degree slice")
    p.add_argument("--ellm", required=True)
    p.add_argument("--d", type=int, default=None)
    p.set_defaults(fn=cmd_strings)

    p = sub.add_parser("projection", help="check the projection shift for a partition")
    p.add_argument("--partition", default="")
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.set_defaults(fn=cmd_projection)

    p = sub.add_parser("stats", help="statistics of a single path")
    p.add_argument("--path", required=True)
    p.add_argument("--slope")
    p.add_argument("--m", type=int, default=None)
    p.set_defaults(fn=cmd_stats)

    return ap


def _open_out(path):
    """Where the command writes: the --out file, opened before the command
    runs so that a path that cannot be written costs no walk, else stdout."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as e:
        raise UsageError(e)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.jobs < 1:
            raise UsageError("--jobs must be >= 1")
        with _open_out(args.out) as args.out:
            return args.fn(args)
    except (UsageError, kernels.InputError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
