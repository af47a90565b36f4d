"""Command-line driver.

Subcommands:
  gen        write a generated instance
  partition  run mc or derand on an instance file and print a run report
  verify     recheck a run report against its instance
  oracle     exhaustive optima / feasibility / max-cut bound checks
  bench      run a JSON suite and print the aggregate margin table

`main` parses with one parser, built on its first call and reused for the
life of the process.

Exit codes: 0 all constraints pass, 1 Monte-Carlo tries exhausted (or an
oracle check came out false), 2 input or contract error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import fields
from pathlib import Path

from .model import GraphFamily, edwards_bound
from .oracle import enumerate_best, max_cut
from .instances import GENERATOR_KINDS, generate, parse_instance, serialize_instance, write_text
from .report import RunOptions, parse_report, recheck, render_report
from .bench import execute_run, load_suite, run_bench

# input and contract errors: ValueError, TypeError (a family of the wrong
# kind in `settle`, a label that is no integer in `_label_array`), OSError (file I/O)
_USER_ERRORS = (ValueError, TypeError, OSError)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        write_text(path, text)


def _csv_floats(raw: str, what: str, want: int) -> list[float]:
    vals = [float(tok) if tok.strip() else math.nan for tok in raw.split(",")]
    if not all(map(math.isfinite, vals)):
        raise ValueError(f"{what} needs finite numbers, got {raw!r}")
    if len(vals) != want:
        raise ValueError(f"{what} needs {want} comma-separated values, got {len(vals)}")
    return vals


def _cmd_gen(args) -> int:
    family = generate(args.kind, n=args.n, m=args.m, ell=args.ell,
                      r=args.r, degree=args.degree, seed=args.seed)
    _write_text(args.out, serialize_instance(family))
    return 0


def _cmd_partition(args) -> int:
    family = parse_instance(_read_text(args.instance))
    # every RunOptions field is a flag of the same name; an omitted one takes its default
    given = {f.name: getattr(args, f.name) for f in fields(RunOptions)}
    opts = RunOptions(**{name: value for name, value in given.items() if value is not None})
    rr = execute_run(family, opts)
    _write_text(args.out, render_report(rr))
    for step in rr.descent.trace if args.trace and rr.descent else ():
        print(f"step v={step.vertex} class={step.chosen} keys={','.join(map(str, step.keys))}")
    return 0 if rr.passed else 1


def _cmd_verify(args) -> int:
    rr = parse_report(_read_text(args.report))
    family = parse_instance(_read_text(args.instance))
    problems = recheck(rr, family)
    if problems:
        for p in problems:
            print(f"mismatch: {p}", file=sys.stderr)
        return 2
    print(f"report verified: {len(rr.cut_report.constraints)} constraints consistent "
          f"with the instance")
    return 0


def _cmd_oracle(args) -> int:
    # a flag the objective does not read is refused; --thresholds makes
    # simultaneous a feasibility check, which reads no --centers
    reads = {"maxcut": ("k",), "edwards": (), "simultaneous": ("k", "centers", "thresholds")}
    for name in ("k", "centers", "thresholds"):
        if getattr(args, name) is not None and name not in reads[args.objective]:
            raise ValueError(f"{args.objective} does not read --{name}")
    if args.centers is not None and args.thresholds is not None:
        raise ValueError("a feasibility check (--thresholds) does not read --centers")
    k = 2 if args.k is None else args.k
    family = parse_instance(_read_text(args.instance))
    if not isinstance(family, GraphFamily):
        raise ValueError("oracle objectives operate on graph families")
    if args.objective == "edwards":
        # every graph's exact max cut against the m-edge lower bound
        all_ok = True
        for i, edges in enumerate(family.arrays):
            cut = max_cut(GraphFamily(n=family.n, graphs=(edges,)))
            bound = edwards_bound(family.m[i])
            ok = cut >= bound
            all_ok = all_ok and ok
            print(f"edwards graph={i} maxcut={cut} bound={bound!r} ok={'yes' if ok else 'no'}")
        return 0 if all_ok else 1
    if args.thresholds is not None:
        thresholds = _csv_floats(args.thresholds, "--thresholds", family.ell)
        witness, ok = enumerate_best(family, k, "feasible", thresholds=thresholds)
        head, code = f"feasible {'yes' if ok else 'no'}", 0 if ok else 1
    elif args.objective == "maxcut":
        witness, value = enumerate_best(family, k, "maxcut")
        head, code = f"max-cut {value}", 0
    else:
        centers = (None if args.centers is None
                   else _csv_floats(args.centers, "--centers", family.ell))
        witness, value = enumerate_best(family, k, "simultaneous", centers=centers)
        head, code = f"best-min-margin {value!r}", 0
    print(head)
    if witness is not None:
        print("assignment " + " ".join(map(str, witness.labels)))
    return code


def _cmd_bench(args) -> int:
    suite = load_suite(args.suite)
    echo = (lambda msg: print(msg, file=sys.stderr)) if args.verbose else None
    result = run_bench(suite, out_dir=args.out_dir, echo=echo)
    print(result.render())
    return 1 if result.exhausted else 0


# built on first use: argparse formatters and gettext make each build cost about 1 ms
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulcut",
        description="Vertex partitions with simultaneous cut guarantees "
                    "for several graphs or hypergraphs on one vertex set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance")
    g.add_argument("kind", choices=GENERATOR_KINDS)
    g.add_argument("--n", type=int, required=True, help="vertex count")
    g.add_argument("--m", type=int, help="edges per member (gnm, runiform)")
    g.add_argument("--ell", type=int, default=1, help="number of members")
    g.add_argument("--r", type=int, help="uniformity (runiform)")
    g.add_argument("--degree", type=int, help="max degree (bounded-degree, even)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", help="output file (default stdout)")
    g.set_defaults(func=_cmd_gen)

    p = sub.add_parser("partition", help="partition an instance with a guarantee")
    p.add_argument("instance", help="instance file ('-' for stdin)")
    p.add_argument("--method", choices=["mc", "derand"], default="derand")
    p.add_argument("--theorem", required=True, choices=["1", "2", "3", "hyp"],
                   help="which guarantee to enforce")
    p.add_argument("--k", type=int, help="class count (theorems 2 and 3)")
    p.add_argument("--epsilon", type=float, help="degree ratio bound (theorem 3)")
    p.add_argument("--balanced", action="store_true",
                   help="also require near-equal class sizes (mc only)")
    p.add_argument("--slack", type=float, help="allowed class-size deviation from n/k")
    p.add_argument("--seed", type=int, help="mc stream seed")
    p.add_argument("--max-tries", type=int)
    p.add_argument("--order", choices=["natural", "degree"],
                   help="derand vertex processing order")
    p.add_argument("--trace", action="store_true", help="print the descent steps")
    p.add_argument("--out", help="report file (default stdout)")
    p.set_defaults(func=_cmd_partition)

    v = sub.add_parser("verify", help="recheck a run report against its instance")
    v.add_argument("report")
    v.add_argument("--instance", required=True)
    v.set_defaults(func=_cmd_verify)

    o = sub.add_parser("oracle", help="exhaustive ground truth on small instances")
    o.add_argument("instance")
    o.add_argument("--objective", required=True,
                   choices=["maxcut", "simultaneous", "edwards"])
    o.add_argument("--k", type=int, help="class count (maxcut, simultaneous; default 2)")
    o.add_argument("--centers", help="comma-separated per-graph centers (simultaneous)")
    o.add_argument("--thresholds",
                   help="comma-separated per-graph cut thresholds; switches "
                        "simultaneous to a feasibility check")
    o.set_defaults(func=_cmd_oracle)

    b = sub.add_parser("bench", help="run a JSON suite and print the margin table")
    b.add_argument("suite")
    b.add_argument("--out-dir", help="write per-run reports here")
    b.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility and ignored: suites run serially")
    b.add_argument("--verbose", action="store_true")
    b.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory: the instance is too large for the memory available",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
