"""Command-line front-end.

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
from types import SimpleNamespace

from .errors import InputNotPartialAction, MalformedInput, WorkbenchError

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


def canonical_dumps(obj) -> str:
    """The text of a document or report: sorted keys, no spaces, so that equal
    documents are written byte for byte alike."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def _emit(doc: dict, out: str | None) -> None:
    text = canonical_dumps(doc)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _print_reports(reports: list[Report], fmt: str) -> int:
    ok = all(r.ok for r in reports)
    if fmt == "json":
        print(canonical_dumps({
            "ok": ok,
            "reports": [r.to_json() for r in reports],
        }))
    else:
        for r in reports:
            print(r.format_text())
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_validate_groupoid(args) -> int:
    from .groupoid import groupoid_from_spec
    from .report import CheckResult, Report

    doc = _load(args.path)
    G = groupoid_from_spec(doc)
    rep = Report("groupoid axioms")
    rep.add(CheckResult("axioms", True,
                        f"{len(G.elements)} elements, {len(G.identities)} objects, "
                        f"{len(G.composable)} composable pairs"))
    return _print_reports([rep], args.format)


def _cmd_build(args) -> int:
    from .groupoid import (abelian_group_from_spec, abelian_group_weak_hopf,
                           dual_groupoid_algebra, groupoid_algebra, groupoid_from_spec)
    from .jsonwrite import weakhopf_to_json
    from .scalars import field_from_name

    field = field_from_name(args.field)
    doc = _load(args.spec)
    if args.kind == "kG":
        H = groupoid_algebra(groupoid_from_spec(doc), field)
    elif args.kind == "kG-dual":
        H = dual_groupoid_algebra(groupoid_from_spec(doc), field)
    else:
        H = abelian_group_weak_hopf(abelian_group_from_spec(doc), field)
    _emit(weakhopf_to_json(H), args.output)
    return EXIT_OK


def _cmd_check(args) -> int:
    from . import jsonio

    doc = _load(args.path)
    kind = args.kind
    if kind in ("weak-hopf", "wb", "identities", "hopf"):
        from .weak_hopf import check_identities, check_weak_bialgebra, check_weak_hopf, is_hopf
        check = {"weak-hopf": check_weak_hopf, "wb": lambda H: check_weak_bialgebra(H.wb),
                 "identities": check_identities, "hopf": is_hopf}[kind]
        return _print_reports([check(jsonio.weakhopf_from_json(doc))], args.format)
    if kind in ("mc", "pmc", "ma", "pma"):
        from .actions import (check_module_algebra, check_module_coalgebra,
                              check_partial_module_algebra, check_partial_module_coalgebra)
        act = jsonio.action_from_json(doc)
        if kind == "mc":
            return _print_reports([check_module_coalgebra(act)], args.format)
        if kind == "ma":
            return _print_reports([check_module_algebra(act)], args.format)
        if kind == "pmc":
            verdict = check_partial_module_coalgebra(act)
        else:
            verdict = check_partial_module_algebra(act)
        return _print_reports([verdict.full_report()], args.format)
    if kind == "lambda":
        from .partial_actions import (check_dual_k_partial_action_criterion,
                                      check_k_partial_action_group_criterion,
                                      check_lambda_global, check_lambda_partial,
                                      lambda_from_json)
        from .report import CheckResult, Report
        lf, G, hopf_kind, side = lambda_from_json(doc)
        verdict = check_lambda_partial(lf, side)
        reports = [verdict.report]
        glob = check_lambda_global(lf)
        extra = Report("λ summary")
        extra.add(CheckResult("partial [info]", True, f"holds={verdict.is_partial}"))
        extra.add(CheckResult("symmetric [info]", True, f"holds={verdict.is_symmetric}"))
        extra.add(CheckResult("global [info]", True, f"holds={glob.is_partial}"))
        reports.append(extra)
        if G is not None and hopf_kind == "kG":
            reports.append(check_k_partial_action_group_criterion(lf, G)
                           .report("V-group criterion"))
        elif G is not None and hopf_kind == "kG-dual":
            reports.append(check_dual_k_partial_action_criterion(lf, G)
                           .report("dual V-group criterion"))
        return _print_reports(reports, args.format)
    if kind == "groupoid-action":
        from .groupoid_actions import gpa_from_json, validate_groupoid_partial_action
        gpa = gpa_from_json(doc)
        return _print_reports([validate_groupoid_partial_action(gpa)], args.format)
    raise AssertionError(kind)


def _cmd_equiv(args) -> int:
    from .actions import check_partial_module_coalgebra
    from .groupoid_actions import (action_groupoid_from_json, from_kG_action, gpa_from_json,
                                   to_kG_action, validate_groupoid_partial_action)
    from .jsonio import action_from_json
    from .report import CheckResult, Report

    doc = _load(args.path)
    rep = Report("equivalence round-trip")
    if doc.get("schema") == "groupoid-action":
        gpa = gpa_from_json(doc)
        rep.extend(validate_groupoid_partial_action(gpa), prefix="input-")
        act = to_kG_action(gpa)
        verdict = check_partial_module_coalgebra(act)
        rep.add(CheckResult("to-kG-symmetric-PMC",
                            verdict.is_partial and verdict.is_symmetric))
        back = from_kG_action(act, gpa.groupoid)
        rep.add(CheckResult("from(to(θ,P)) == (θ,P)", gpa.same_maps(back)))
        act2 = to_kG_action(back)
        rep.add(CheckResult("to(from(action)) == action", act2.slices == act.slices))
    elif doc.get("schema") == "action":
        act = action_from_json(doc)
        G = action_groupoid_from_json(doc, act.hopf)
        if G is None:
            print("whw: action document needs a 'groupoid' entry for equiv",
                  file=sys.stderr)
            return EXIT_BAD_INPUT
        gpa = from_kG_action(act, G)
        rep.extend(validate_groupoid_partial_action(gpa), prefix="derived-")
        act2 = to_kG_action(gpa)
        same = act2.slices == act.slices
        rep.add(CheckResult("to(from(action)) == action", same))
        # from_kG_action reads only the slices, so equal slices give gpa back
        rep.add(CheckResult("from(to(θ,P)) == (θ,P)",
                            same or gpa.same_maps(from_kG_action(act2, G))))
    else:
        print("whw: expected a groupoid-action or action document", file=sys.stderr)
        return EXIT_BAD_INPUT
    return _print_reports([rep], args.format)


def _cmd_dualize(args) -> int:
    from .actions import check_partial_module_algebra, check_partial_module_coalgebra
    from .dualization import dualize_coalgebra_action, undualize_algebra_action
    from .jsonio import action_from_json
    from .jsonwrite import action_to_json
    from .report import CheckResult, Report

    doc = _load(args.path)
    act = action_from_json(doc)
    # a wrong-side action raises ShapeMismatch here, before the PMC verdict below
    dual = dualize_coalgebra_action(act, check=False)
    vc = check_partial_module_coalgebra(act)
    if not vc.is_partial:
        raise InputNotPartialAction("input does not satisfy PMC1-PMC3")
    rep = Report("dualization transfer")
    va = check_partial_module_algebra(dual)
    for (rc, ra) in zip(vc.report.results, va.report.results):
        rep.add(CheckResult(f"{rc.label}<->{ra.label}", rc.passed == ra.passed,
                            None if rc.passed == ra.passed else
                            f"{rc.label}={rc.passed} but {ra.label}={ra.passed}"))
    rep.add(CheckResult("symmetric transfers",
                        vc.symmetric.passed == va.symmetric.passed))
    back = undualize_algebra_action(dual, act.carrier, check=False)
    rep.add(CheckResult("undualize(dualize) == action", back.slices == act.slices))
    if args.output:
        _emit(action_to_json(dual), args.output)
    if args.format == "json":
        print(canonical_dumps({
            "ok": rep.ok,
            "dual": action_to_json(dual),
            "report": rep.to_json(),
        }))
        return EXIT_OK if rep.ok else EXIT_CHECK_FAILED
    return _print_reports([rep], args.format)


def _cmd_globalize(args) -> int:
    from .globalization import (dual_globalization_transfer, find_basis_grouplikes,
                                standard_globalization)
    from .jsonio import action_from_json
    from .jsonwrite import triple_to_json

    doc = _load(args.path)
    act = action_from_json(doc)
    wanted = args.grouplike
    found = [g for g in find_basis_grouplikes(act) if not wanted or g.label == wanted]
    if not found:
        print(f"whw: no absorbed grouplike labelled {wanted!r}" if wanted
              else "whw: no absorbed grouplike basis element found", file=sys.stderr)
        return EXIT_PRECONDITION
    gt = standard_globalization(act, found[0])
    transfer = dual_globalization_transfer(gt)
    if args.output:
        _emit(triple_to_json(gt), args.output)
    return _print_reports([transfer.coalgebra_report, transfer.algebra_report], args.format)


# The grammar: each command's handler and arguments, and `_TOP`, the arguments
# before the command, in usage order, each (flags, default, allowed values or
# None); a positional's one flag is its name, an option's last flag its attribute.
_PATH, _OUTPUT = (("path",), None, None), (("-o", "--output"), None, None)
COMMANDS = {
    "validate-groupoid": (_cmd_validate_groupoid, [_PATH]),
    "build": (_cmd_build, [(("kind",), None, ("kG", "kG-dual", "abelian-group")),
                           (("spec",), None, None), (("--field",), "Q", None), _OUTPUT]),
    "check": (_cmd_check, [(("kind",), None, tuple("weak-hopf wb identities hopf mc pmc ma pma "
                                                   "lambda groupoid-action".split())), _PATH]),
    "equiv": (_cmd_equiv, [_PATH]),
    "dualize": (_cmd_dualize, [_PATH, _OUTPUT]),
    "globalize": (_cmd_globalize, [_PATH, (("--grouplike",), None, None), _OUTPUT]),
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


def main(argv=None) -> int:
    args = SimpleNamespace()
    words = _read(list(sys.argv[1:] if argv is None else argv), args, "whw", _TOP, rest=True)
    args.fn, spec = COMMANDS[args.command]
    _read(words, args, f"whw {args.command}", spec)
    try:
        return args.fn(args)
    except (KeyError, TypeError, ValueError) as exc:   # includes MalformedInput
        print(f"whw: malformed input: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except WorkbenchError as exc:
        print(f"whw: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION

if __name__ == "__main__":
    sys.exit(main())
