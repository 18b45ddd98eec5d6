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
malformed input, 4 a construction precondition was violated, 64 a usage error.
"""

from __future__ import annotations

import json
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


def _load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        print(f"whw: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(EXIT_BAD_INPUT)
    if not isinstance(doc, dict):
        raise MalformedInput(f"{path}: expected a JSON object")
    return doc


def _emit(doc: dict, out: str | None) -> None:
    text = canonical_dumps(doc)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_check(args) -> tuple:
    from . import jsonio

    doc, kind = args.doc, args.kind
    if kind in ("weak-hopf", "wb", "identities", "hopf"):
        if kind == "identities":   # the catalogue is compiled by its own command only
            from .identities import check_identities as check
        else:
            from .weak_hopf import check_weak_bialgebra, check_weak_hopf, is_hopf
            check = {"weak-hopf": check_weak_hopf, "wb": lambda H: check_weak_bialgebra(H.wb),
                     "hopf": is_hopf}[kind]
        return [check(jsonio.weakhopf_from_json(doc))], None
    if kind in ("mc", "pmc", "ma", "pma"):
        from . import actions
        result = {"mc": actions.check_module_coalgebra, "ma": actions.check_module_algebra,
                  "pmc": actions.check_partial_module_coalgebra,
                  "pma": actions.check_partial_module_algebra}[kind](jsonio.action_from_json(doc))
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
        print("usage:", prog, "[-h]", *map(shown, spec), file=sys.stderr)
        print(f"whw: error: {message}", file=sys.stderr)
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
    except (KeyError, TypeError, ValueError) as exc:   # includes MalformedInput
        print(f"whw: malformed input: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Refused as exc:
        message, code = exc.args
        print(f"whw: {message}", file=sys.stderr)
        return code
    except WorkbenchError as exc:
        print(f"whw: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION

if __name__ == "__main__":
    sys.exit(main())
