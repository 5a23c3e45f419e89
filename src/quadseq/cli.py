"""Command-line surface: verify, decode, encode, search, construct, catalog.

Exit codes: 0 = success / verified / nonempty result, 1 = verified-false or
empty result, 2 = usage or input error (including "could not check" outcomes
such as an exhausted node budget or an Unknown catalog status).  Identical
invocations produce byte-identical stdout; timings and progress go to stderr.
"""

import argparse
import json
import sys

from . import catalog, codec, construct
from .search import (
    BudgetExhausted,
    SearchSpec,
    enumerate_cases,
    load_checkpoint,
    search as run_search,
)
from .seqcore import (
    KIND_BASE,
    KIND_NEAR_NORMAL,
    KIND_NORMAL,
    QuadseqError,
    verify_quadruple,
    write_text_atomic,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_ERROR = 2


def _cmd_verify(args) -> int:
    if args.input:
        try:
            records = catalog.archive_load(args.input)
        except catalog.RecordFailsVerification as exc:  # a line that does not parse exits 2
            if args.format == "json":
                print(json.dumps({"pass": False, "failure": str(exc)}))
            else:
                print(f"fail: {exc}")
            return EXIT_FALSE
        if args.format == "json":
            print(json.dumps({"pass": True, "records": len(records)}))
        else:
            print(f"pass ({len(records)} records)")
        return EXIT_OK
    quad = codec.parse_record(args.record)
    report = verify_quadruple(quad)
    if args.format == "json":
        print(json.dumps({"pass": report.passed, "failure": report.failure,
                          "kind": quad.kind, "shape": list(quad.shape),
                          "sums": list(quad.sums())}))
    else:
        print("pass" if report.passed else f"fail: {report.failure}")
    return EXIT_OK if report.passed else EXIT_FALSE


def _cmd_decode(args) -> int:
    quad = codec.parse_record(args.record)
    if args.format == "json":
        print(json.dumps({"kind": quad.kind, "plaintext": quad.plaintext(),
                          "sums": list(quad.sums())}))
    else:
        print(quad.plaintext())
    return EXIT_OK


def _cmd_encode(args) -> int:
    quad = codec.parse_record(args.record)
    codec.encode_quadruple(quad)  # says why a quadruple without codes has none
    print(codec.format_record(quad))
    return EXIT_OK


def _cmd_search(args) -> int:
    spec = SearchSpec(
        kind=args.kind,
        order=args.order,
        mode=args.mode,
        cases=args.cases,
        node_limit=args.limit,
        representatives=args.representatives,
        allow_large=args.allow_large,
    )
    resume = load_checkpoint(args.resume) if args.resume else None
    try:
        result = run_search(spec, workers=args.workers, resume=resume,
                            checkpoint_path=args.checkpoint)
    except BudgetExhausted as exc:
        if args.checkpoint:
            print(f"budget exhausted at {exc.checkpoint.nodes} nodes; "
                  f"checkpoint written to {args.checkpoint}", file=sys.stderr)
        else:
            print("budget exhausted and no --checkpoint given", file=sys.stderr)
        return EXIT_ERROR
    stats = result.stats
    print(f"nodes {stats.nodes} prunes {stats.prunes} elapsed {stats.elapsed:.2f}s",
          file=sys.stderr)
    if args.format == "json":
        print(json.dumps({
            "kind": spec.kind, "order": spec.order, "mode": spec.mode,
            "count": result.count,
            "solutions": [q.plaintext() for q in result.solutions],
            "nodes": stats.nodes, "prunes": stats.prunes,
        }))
    elif spec.mode == "count":
        print(result.count)
    else:
        for quad in result.solutions:
            print(codec.format_record(quad))
    return EXIT_OK if result.count else EXIT_FALSE


def _cmd_construct(args) -> int:
    if args.target == "golay":
        pairs = construct.golay_search(args.length, allow_large=args.allow_large)
        for pair in pairs:
            print(pair.plaintext())
        return EXIT_OK if pairs else EXIT_FALSE
    if args.target == "ns":
        seeds = construct.load_golay_seeds(args.seeds) if args.seeds else None
        quad = construct.golay_to_ns(construct.golay_pair(args.length, seeds))
        print(codec.format_record(quad))
        return EXIT_OK

    tseq = construct.bs_to_ts(codec.parse_record(args.record))
    if args.target == "ts":
        print(codec.format_record(tseq))
        return EXIT_OK
    design = construct.ts_to_od(tseq)
    if args.target == "od":
        _write_out(args.out, construct.matrix_to_text(design))
        print(f"SSᵀ = ({'+'.join(f'{s}·x{k+1}²' for k, s in enumerate(design.signature))})·I: pass")
        return EXIT_OK
    h, report = construct.od_substitute(design, args.values, require_hadamard=True)
    _write_out(args.out, construct.pm_matrix_to_text(h))
    print(f"HHᵀ = {design.order}·I: {'pass' if report.passed else 'fail'}")
    return EXIT_OK if report.passed else EXIT_FALSE


def _write_out(path, text) -> None:
    if path:
        write_text_atomic(path, text)
    else:
        sys.stdout.write(text)


def _cmd_catalog(args) -> int:
    if args.action == "records":
        records = catalog.witness_records()
        if args.out:
            catalog.archive_save(records, args.out)
        else:
            for rec in records:
                print(codec.format_record(rec.quad))
        return EXIT_OK
    if args.action == "status":
        known = catalog.status(args.kind, args.order)
        if args.format == "json":
            print(json.dumps({"kind": known.kind, "order": known.order,
                              "status": known.status, "provenance": known.provenance}))
        else:
            print(f"{known.status} ({known.provenance})")
        return {catalog.NON_EMPTY: EXIT_OK, catalog.EMPTY: EXIT_FALSE}.get(
            known.status, EXIT_ERROR
        )
    if args.action == "yang":
        if args.max is not None:
            if args.max < 1:
                raise catalog.CatalogError(
                    f"Yang numbers are odd positive integers; --max {args.max} bounds none")
            for n in range(1, args.max + 1, 2):
                value = catalog.is_yang_number(n)
                print(f"{n} {'yes' if value else 'unknown' if value is None else 'no'}")
            return EXIT_OK
        value = catalog.is_yang_number(args.n)
        print("yes" if value else "unknown" if value is None else "no")
        return EXIT_OK if value else EXIT_ERROR if value is None else EXIT_FALSE
    for case in enumerate_cases(args.kind, args.order):
        note = f"  # {case.note}" if case.note else ""
        reps = " ".join(str(r) for r in case.sums_reps) or "(empty)"
        print(f"case {case.case_id}: {reps}{note}")
    return EXIT_OK


def _int_list(text: str) -> tuple[int, ...]:
    """argparse type of a comma-separated list of integers."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}")


def _shared(flag: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one option, for the subcommands that share it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(flag, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadseq",
        description="Complementary sequence quadruple workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    record_help = "record line: 'nn <n> <ab> <cd>' or '<kind> <A;B;C;D>'"
    fmt = _shared("--format", choices=("text", "json"), default="text")
    record = _shared("--record", required=True, help=record_help)
    from_record = _shared("--from-record", dest="record", required=True, help=record_help)
    out = _shared("--out", help="output file (stdout otherwise)")
    order = _shared("--order", type=int, required=True)

    p = sub.add_parser("verify", parents=[fmt], help="verify a quadruple or an archive file")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--record", help=record_help)
    source.add_argument("--input", help="archive file: verify every record")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("decode", parents=[record, fmt], help="print a record as plaintext")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("encode", parents=[record],
                       help="print the encoded record of a near-normal quadruple")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("search", parents=[order, fmt],
                       help="exhaustive search for ns/nn quadruples")
    p.add_argument("--kind", choices=(KIND_NORMAL, KIND_NEAR_NORMAL), required=True)
    p.add_argument("--mode", choices=("all", "first", "count"), default="all")
    p.add_argument("--cases", type=_int_list, help="comma-separated case ids, e.g. 3,7")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--limit", type=int, help="node budget")
    p.add_argument("--checkpoint", help="checkpoint file to write")
    p.add_argument("--resume", help="checkpoint file to resume from")
    p.add_argument("--representatives", action="store_true",
                   help="fix the boundary to '0'-form (class representatives only)")
    p.add_argument("--allow-large", action="store_true")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("construct", help="build T-sequences, designs, Hadamard matrices, pairs")
    p.set_defaults(func=_cmd_construct)
    targets = p.add_subparsers(dest="target", required=True)
    targets.add_parser("ts", parents=[from_record], help="T-sequences of a base quadruple")
    targets.add_parser("od", parents=[from_record, out], help="orthogonal design")
    p = targets.add_parser("hadamard", parents=[from_record, out], help="Hadamard matrix")
    p.add_argument("--values", type=_int_list, default="1,1,1,1",
                   help="substitution values, e.g. 1,-1,1,1")
    p = targets.add_parser("golay", help="every Golay pair of a length")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--allow-large", action="store_true")
    p = targets.add_parser("ns", help="normal quadruple from a Golay pair")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--seeds", help="Golay seed pair file")

    p = sub.add_parser("catalog", help="embedded records, statuses, case tables")
    p.set_defaults(func=_cmd_catalog)
    actions = p.add_subparsers(dest="action", required=True)
    actions.add_parser("records", parents=[out], help="the bundled witness records")
    p = actions.add_parser("status", parents=[order, fmt], help="existence status of a class")
    p.add_argument("--kind", choices=(KIND_BASE, KIND_NORMAL, KIND_NEAR_NORMAL),
                   default=KIND_NEAR_NORMAL)
    p = actions.add_parser("yang", help="Yang-number status of odd integers")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--n", type=int, help="one odd integer")
    which.add_argument("--max", type=int, help="every odd integer up to this bound")
    p = actions.add_parser("cases", parents=[order], help="the 12 search cases of an order")
    p.add_argument("--kind", choices=(KIND_NORMAL, KIND_NEAR_NORMAL), default=KIND_NEAR_NORMAL)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; preserve the code
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (QuadseqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
