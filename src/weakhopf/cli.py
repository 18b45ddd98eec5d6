"""Command-line front-end: the argument grammar, and the reading and writing of
documents and reports.  `check` runs here; every other command runs in the
module that it drives, so that a `whw` process compiles only its own command.

    whw validate-groupoid G.json
    whw build {kG,kG-dual,abelian-group} SPEC.json [--field Q|Fp:<p>] [-o OUT]
    whw check {weak-hopf,wb,identities,hopf,mc,pmc,ma,pma,lambda,groupoid-action} IN.json
    whw equiv IN.json
    whw dualize ACTION.json [-o OUT]
    whw globalize ACTION.json [--grouplike LABEL] [-o OUT]

Text reports print one PASS/FAIL line per axiom or identity; `--format json`
(before the command) emits the same verdicts as a canonical JSON document.
An option's value is the next word or follows `=`; `-h` prints this text.
Exit codes: 0 all selected checks pass, 2 a check failed, 3 unreadable or
malformed input, 4 a construction precondition was violated, 64 a usage error,
74 the output could not be written.
"""

from __future__ import annotations

import json
import os
import sys
from importlib import import_module
from types import SimpleNamespace

from .errors import MalformedInput, Refused, WorkbenchError, canonical_dumps

# Each command imports the modules it runs, so a `whw` process loads only those.

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_BAD_INPUT = 3
EXIT_PRECONDITION = 4
EXIT_USAGE = 64
EXIT_IOERR = 74


def _error(*lines: str) -> None:
    """Print the lines on stderr, or drop them if fd 2 was closed (print would use stdout)."""
    if sys.stderr:
        print(*lines, sep="\n", file=sys.stderr)


def _load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        _error(f"whw: cannot read {path}: {exc}")
        sys.exit(EXIT_BAD_INPUT)
    if not isinstance(doc, dict):
        raise MalformedInput(f"{path}: expected a JSON object")
    return doc


def _emit(doc: dict, out: str | None) -> None:
    text = canonical_dumps(doc)
    if not out:
        print(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise Refused(f"cannot write {out}: {exc.strerror or exc}", EXIT_IOERR) from None


def _cmd_check(args) -> tuple:
    from . import jsonio

    doc, kind = args.doc, args.kind
    if kind in ("weak-hopf", "wb", "identities", "hopf"):
        if kind == "identities":   # each family is compiled by its own commands only
            from .identities import check_identities as check
        elif kind == "hopf":
            from .hopf import is_hopf as check
        else:
            from .weak_axioms import check_weak_bialgebra, check_weak_hopf
            check = check_weak_hopf if kind == "weak-hopf" else lambda H: check_weak_bialgebra(H.wb)
        return [check(jsonio.weakhopf_from_json(doc))], None
    if kind in ("mc", "pmc", "ma", "pma"):
        from . import actions
        result = {"mc": actions.check_module_coalgebra, "ma": actions.check_module_algebra,
                  "pmc": actions.check_partial_module_coalgebra,
                  "pma": actions.check_partial_module_algebra}[kind](actions.action_from_json(doc))
        return [result.full_report() if kind.startswith("p") else result], None
    if kind == "lambda":
        from .partial_actions import lambda_reports
        return lambda_reports(doc), None
    if kind == "groupoid-action":
        from .groupoid_actions import gpa_from_json, validate_groupoid_partial_action
        return [validate_groupoid_partial_action(gpa_from_json(doc))], None
    raise AssertionError(kind)


# The grammar: each command's handler and arguments, and `_TOP`, the arguments
# before the command, in usage order, each (flags, default, allowed values or
# None); a positional's one flag is its name, an option's last flag its attribute.
# A handler other than `check`'s is named "module.function" in the module it
# drives, so that only its own command compiles it.  Each takes the arguments,
# with the document read as `doc`, and returns the reports to print (None: print
# the written document instead) and the document that `-o` receives.
_PATH, _OUTPUT = (("path",), None, None), (("-o", "--output"), None, None)
COMMANDS = {
    "validate-groupoid": ("groupoid.validate_command", [_PATH]),
    "build": ("groupoid.build_command", [(("kind",), None, ("kG", "kG-dual", "abelian-group")),
                                         (("spec",), None, None), (("--field",), "Q", None),
                                         _OUTPUT]),
    "check": (_cmd_check, [(("kind",), None, tuple("weak-hopf wb identities hopf mc pmc ma pma "
                                                   "lambda groupoid-action".split())), _PATH]),
    "equiv": ("groupoid_actions.equiv_command", [_PATH]),
    "dualize": ("dualization.dualize_command", [_PATH, _OUTPUT]),
    "globalize": ("globalization.globalize_command",
                  [_PATH, (("--grouplike",), None, None), _OUTPUT]),
}
_TOP = [(("--format",), "text", ("text", "json")), (("command",), None, tuple(COMMANDS))]


def _read(words: list, args: SimpleNamespace, prog: str, spec: list, rest=False) -> list:
    """Set on ``args`` what ``words`` give for the arguments ``spec``, options
    anywhere among the positionals; with ``rest``, stop after the last
    positional and return the words after it."""
    def shown(arg):
        flags, _, choices = arg
        text = "{" + ",".join(choices) + "}" if choices else flags[-1].lstrip("-").upper()
        return f"[{flags[0]} {text}]" if flags[0].startswith("-") else text

    def error(message):
        _error(" ".join(["usage:", prog, "[-h]", *map(shown, spec)]), f"whw: error: {message}")
        raise SystemExit(EXIT_USAGE)

    def put(arg, value):
        flags, _, choices = arg
        if choices and value not in choices:
            error(f"argument {'/'.join(flags)}: invalid choice: {value!r} "
                  f"(choose from {', '.join(map(repr, choices))})")
        setattr(args, flags[-1].lstrip("-"), value)

    vars(args).update({flags[-1].lstrip("-"): default for flags, default, _ in spec})
    options = {flag: arg for arg in spec for flag in arg[0] if flag.startswith("-")}
    wanted = [arg for arg in spec if not arg[0][0].startswith("-")]
    while words and (wanted or not rest):
        word = words.pop(0)
        flag, eq, value = word.partition("=")
        if word in ("-h", "--help"):
            print(__doc__, end="")
            raise SystemExit(0)
        if flag in options:
            if not (eq or words):
                error(f"argument {'/'.join(options[flag][0])}: expected one argument")
            put(options[flag], value if eq else words.pop(0))
        elif word.startswith("-") or not wanted:
            error(f"unrecognized arguments: {word}")
        else:
            put(wanted.pop(0), word)
    if wanted:
        error(f"the following arguments are required: {', '.join(a[0][0] for a in wanted)}")
    return words


def _run(handler, args) -> int:
    """Read the document, run the command's handler, then write and print what it returns."""
    if isinstance(handler, str):
        module, name = handler.split(".")
        handler = getattr(import_module(f"{__package__}.{module}"), name)
    args.doc = _load(args.spec if args.command == "build" else args.path)
    reports, written = handler(args)
    if written is not None and (args.output or reports is None):
        _emit(written, args.output)
    ok = reports is None or all(r.ok for r in reports)
    if args.format == "json" and reports is not None:
        # the dual that `dualize` writes is part of its JSON report
        print(canonical_dumps({"ok": ok, "dual": written, "report": reports[0].to_json()}
                              if args.command == "dualize" else
                              {"ok": ok, "reports": [r.to_json() for r in reports]}))
    else:
        for r in reports or ():
            print(r.format_text())
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    args = SimpleNamespace()
    words = _read(list(sys.argv[1:] if argv is None else argv), args, "whw", _TOP, rest=True)
    handler, spec = COMMANDS[args.command]
    _read(words, args, f"whw {args.command}", spec)
    try:
        return _run(handler, args)
    except MalformedInput as exc:
        _error(f"whw: malformed input: {type(exc).__name__}: {exc}")
        return EXIT_BAD_INPUT
    except Refused as exc:
        message, code = exc.args
        _error(f"whw: {message}")
        return code
    except WorkbenchError as exc:
        _error(f"whw: {type(exc).__name__}: {exc}")
        return EXIT_PRECONDITION


def run() -> None:
    """The `whw` program: `main` on the command line, then leave at once with its
    exit code, stdout and stderr flushed, skipping the interpreter's teardown.
    `_load` and `_emit` report the files they fail to read or write, so an
    OSError here is a failed write to stdout.  Under `python -i`, a tracer or a
    profiler the interpreter exits as usual, so that they can finish."""
    try:
        try:
            code = main()
        except SystemExit as exc:   # usage 64, `--help` 0, unreadable input 3
            code = exc.code
        if sys.stdout:   # None when whw was started with stdout closed
            sys.stdout.flush()
    except OSError as exc:
        _error(f"whw: cannot write stdout: {exc.strerror or exc}")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())   # drop what is left
        code = EXIT_IOERR
    if sys.stderr:   # likewise stderr
        sys.stderr.flush()
    if sys.flags.inspect or sys.gettrace() or sys.getprofile():
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
