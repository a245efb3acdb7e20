"""Command-line front end.

Subcommands: analyze (explore all paths, optionally writing one replayable
test case per path), replay (re-execute a recorded test case), compare
(differential check of the reduced engine against the full-interleaving
explorer), corpus (run the bundled expectations table).

Exit codes:
  0  clean
  1  usage, parse, validation or analysis error; replay divergence
  2  deadlock or assertion failure found (analyze), compare FAIL, corpus mismatch
  3  engine or explorer state bound exceeded (compare)
  4  internal error: one line `mpisym: internal error: <Type>: <message>`

`main` may be called many times in one process: the parser is built once,
the 64 most recent program texts keep their parsed programs, and a program
keeps its hash, findings and lowered form.  None of this is user-settable.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import corpus as corpus_mod
from . import engine, lang, ops, oracle, replay, report, solver
from .state import Verdict

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FOUND = 2
EXIT_BOUND = 3
EXIT_INTERNAL = 4


def _fail(message: str) -> int:
    print(f"mpisym: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _load_program(path_text: str):
    path = Path(path_text)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise lang.LangError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError:
        raise lang.LangError(f"{path} is not UTF-8 text") from None
    return lang.parse_program(source)


def _strategy(args) -> engine.SearchStrategy:
    return engine.SearchStrategy(order=args.strategy, max_states=args.max_states,
                                 max_depth=args.max_depth)


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("program", help="program source file")
    parser.add_argument("--nprocs", type=int, default=None,
                        help="process count (defaults to the program header)")
    parser.add_argument("--max-states", type=int, default=None)


def cmd_analyze(args) -> int:
    try:
        program = _load_program(args.program)
        nprocs = args.nprocs if args.nprocs is not None else program.nprocs_default
        result = engine.search(program, nprocs, _strategy(args))
    except engine.ValidationFailure as exc:
        sys.stderr.write(report.render_validation(exc.findings))
        return EXIT_USAGE
    except (lang.LangError, ValueError) as exc:
        return _fail(str(exc))

    sys.stdout.write(report.render(result, detail=args.verbose))

    if args.out is not None:
        out_dir = Path(args.out)
        stem = Path(args.program).stem
        written = 0
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            for rec in result.records:
                if rec.verdict is Verdict.ERROR:
                    print(f"mpisym: path {rec.index + 1} is an analysis error; "
                          "no test case written", file=sys.stderr)
                    continue
                target = out_dir / f"{stem}.path{rec.index + 1:03d}.testcase"
                replay.save_testcase(rec, program, nprocs, target)
                written += 1
        except OSError as exc:
            return _fail(f"cannot write test cases to {out_dir}: {exc.strerror}")
        print(f"wrote {written} test case(s) to {out_dir}")

    counts = result.counts
    if counts.get("deadlock", 0) or counts.get("assertfail", 0):
        return EXIT_FOUND
    if counts.get("error", 0):
        return _fail("some paths could not be analyzed (see report)")
    return EXIT_OK


def cmd_replay(args) -> int:
    try:
        program = _load_program(args.program)
        tc = replay.load_testcase(args.testcase)
        result = replay.replay_testcase(program, tc)
    except (lang.LangError, replay.ReplayError, OSError, ValueError) as exc:
        return _fail(str(exc))

    expected = tc.verdict.value
    if result.ok:
        print(f"{expected.capitalize()} reproduced; 0 divergences")
        return EXIT_OK
    observed = result.verdict.value if result.verdict is not None else "none"
    print(f"replay failed: expected {expected}, observed {observed}")
    for d in result.divergences:
        print(f"  divergence at {d}")
    return EXIT_USAGE


def _parse_set(pairs, program) -> dict:
    domains = ops.lower(program).domains
    model = {}
    for pair in pairs:
        if "=" not in pair:
            raise lang.LangError(f"--set needs NAME=VALUE, got {pair!r}")
        name, value_text = pair.split("=", 1)
        name = name.strip()
        if name not in domains:
            raise lang.LangError(f"--set names undeclared input {name!r}")
        if name in model:
            raise lang.LangError(f"--set binds {name!r} twice")
        try:
            value = int(value_text)
        except ValueError:
            raise lang.LangError(f"--set {name}: {value_text!r} is not an integer") from None
        lo, hi = domains[name]
        if not lo <= value <= hi:
            raise lang.LangError(f"--set {name}={value} outside its domain [{lo}, {hi}]")
        model[name] = value
    missing = [n for n in domains if n not in model]
    if missing:
        raise lang.LangError(f"--set must assign every input; missing {missing}")
    return model


def _candidate_models(program, result: engine.AnalysisReport, count: int):
    """Models to compare under: the witness model of each engine path (they
    cover every explored branch shape), topped up lexicographically."""
    models = {}
    for rec in result.records:
        models.setdefault(tuple(sorted(rec.model.items())), rec.model)
    if len(models) < count:
        for extra in solver.enumerate_models((), ops.lower(program).domains, count):
            models.setdefault(tuple(sorted(extra.items())), extra)
    return list(models.values())[:count]


def cmd_compare(args) -> int:
    try:
        program = _load_program(args.program)
        nprocs = args.nprocs if args.nprocs is not None else program.nprocs_default
        findings = lang.validate(program, nprocs)
        if findings:
            sys.stderr.write(report.render_validation(findings))
            return EXIT_USAGE
        for flag, value in (("--enumerate-models", args.enumerate_models),
                            ("--oracle-bound", args.oracle_bound)):
            if value < 1:
                raise ValueError(f"{flag} must be positive")
        strategy = engine.SearchStrategy(max_states=args.max_states)  # rejects < 1
        models = [_parse_set(args.set, program)] if args.set else None
        result = engine.search(program, nprocs, strategy)
        if result.truncated:
            raise oracle.BoundExceeded(f"engine state bound {args.max_states} exceeded")
        if models is None:
            models = _candidate_models(program, result, args.enumerate_models)
        all_hold = True
        for model in models:
            verdict = oracle.check_theorem(program, nprocs, model,
                                           state_bound=args.oracle_bound, report=result)
            sys.stdout.write(report.render_compare(verdict))
            all_hold = all_hold and verdict.holds
    except oracle.BoundExceeded as exc:
        print(f"mpisym: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except (lang.LangError, solver.SolverError, oracle.OracleError, ValueError) as exc:
        return _fail(str(exc))
    return EXIT_OK if all_hold else EXIT_FOUND


def cmd_corpus(args) -> int:
    directory = Path(args.dir) if args.dir is not None else None
    try:
        strategy = _strategy(args)
        entries = corpus_mod.load_corpus(directory)
    except (corpus_mod.CorpusError, ValueError) as exc:
        return _fail(str(exc))

    mismatches = 0
    for e in entries:
        result = engine.search(e.program(), e.nprocs, strategy)
        got_deadlock = bool(result.counts.get("deadlock", 0))
        got_assert = bool(result.counts.get("assertfail", 0))
        ok = (got_deadlock == e.deadlock_reachable
              and got_assert == e.assertfail_reachable)
        mismatches += 0 if ok else 1
        print(f"{e.name:24s} nprocs={e.nprocs} paths={len(result.records):3d} "
              f"deadlock={'yes' if got_deadlock else 'no':3s} "
              f"assertfail={'yes' if got_assert else 'no':3s} "
              f"[{'ok' if ok else 'MISMATCH'}]")
    if mismatches:
        print(f"{mismatches} corpus mismatch(es)")
        return EXIT_FOUND
    print(f"all {len(entries)} corpus entries match")
    return EXIT_OK


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; parsing never changes it (argparse copies an
    `append` default before extending it, and `count` starts from 0)."""
    parser = argparse.ArgumentParser(
        prog="mpisym",
        description="Symbolic execution and deadlock detection for a small "
                    "synchronous message-passing language.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="explore all paths of a program")
    _add_common(p_analyze)
    p_analyze.add_argument("-v", "--verbose", action="count", default=0)
    p_analyze.add_argument("--strategy", choices=("dfs", "bfs"), default="dfs")
    p_analyze.add_argument("--max-depth", type=int, default=None)
    p_analyze.add_argument("--out", default=None,
                           help="directory for one replayable test case per path")
    p_analyze.set_defaults(func=cmd_analyze)

    p_replay = sub.add_parser("replay", help="re-execute a recorded test case")
    p_replay.add_argument("program")
    p_replay.add_argument("testcase")
    p_replay.set_defaults(func=cmd_replay)

    p_compare = sub.add_parser(
        "compare", help="check the engine against the full-interleaving explorer")
    _add_common(p_compare)
    p_compare.add_argument("--set", action="append", default=[],
                           metavar="NAME=VALUE",
                           help="pin a symbolic input (repeatable)")
    p_compare.add_argument("--enumerate-models", type=int, default=4, metavar="K",
                           help="number of solver models to compare under")
    p_compare.add_argument("--oracle-bound", type=int, default=200_000)
    p_compare.set_defaults(func=cmd_compare)

    p_corpus = sub.add_parser("corpus", help="run the bundled expectation table")
    p_corpus.add_argument("--dir", default=None,
                          help="corpus directory (defaults to the bundled one)")
    p_corpus.add_argument("--max-states", type=int, default=None)
    p_corpus.add_argument("--max-depth", type=int, default=None)
    p_corpus.set_defaults(func=cmd_corpus, strategy="dfs")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; fold into the tool's contract
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except Exception as exc:  # RecursionError, EngineError, SolverError, ...
        message = " ".join(str(exc).splitlines())
        print(f"mpisym: internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
