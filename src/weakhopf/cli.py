"""Command-line front-end.

    whw validate-groupoid G.json
    whw build {kG,kG-dual,abelian-group} SPEC.json [--field Q|Fp:<p>] [-o OUT]
    whw check {weak-hopf,wb,identities,hopf,mc,pmc,ma,pma,lambda,groupoid-action} IN.json
    whw equiv IN.json
    whw dualize ACTION.json [-o OUT]
    whw globalize ACTION.json [--grouplike LABEL] [-o OUT]

Text reports print one PASS/FAIL line per axiom or identity; `--format json`
emits the same verdicts as a canonical JSON document.  Exit codes: 0 all
selected checks pass, 2 a check failed, 3 unreadable or malformed input,
4 a construction precondition was violated.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .errors import InputNotPartialAction, MalformedInput, WorkbenchError
from .report import CheckResult, Report

# Each command imports the modules it runs, so a `whw` process loads only those.

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_BAD_INPUT = 3
EXIT_PRECONDITION = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"whw: error: {message}", file=sys.stderr)
        sys.exit(64)


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
    from .jsonio import canonical_dumps

    text = canonical_dumps(doc)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _print_reports(reports: list[Report], fmt: str) -> int:
    ok = all(r.ok for r in reports)
    if fmt == "json":
        from .jsonio import canonical_dumps
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

    doc = _load(args.path)
    G = groupoid_from_spec(doc)
    rep = Report("groupoid axioms")
    rep.add(CheckResult("axioms", True,
                        f"{len(G.elements)} elements, {len(G.identities)} objects, "
                        f"{len(G.composable)} composable pairs"))
    return _print_reports([rep], args.format)


def _cmd_build(args) -> int:
    from . import jsonio
    from .groupoid import (abelian_group_weak_hopf, dual_groupoid_algebra,
                           groupoid_algebra, groupoid_from_spec)
    from .scalars import field_from_name

    field = field_from_name(args.field)
    doc = _load(args.spec)
    if args.kind == "kG":
        H = groupoid_algebra(groupoid_from_spec(doc), field)
    elif args.kind == "kG-dual":
        H = dual_groupoid_algebra(groupoid_from_spec(doc), field)
    else:
        H = abelian_group_weak_hopf(jsonio.abelian_group_from_spec(doc), field)
    _emit(jsonio.weakhopf_to_json(H), args.output)
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
                                      check_lambda_global, check_lambda_partial)
        lf, G, hopf_kind, side = jsonio.lambda_from_json(doc)
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
        from .partial_actions import validate_groupoid_partial_action
        gpa = jsonio.gpa_from_json(doc)
        return _print_reports([validate_groupoid_partial_action(gpa)], args.format)
    raise AssertionError(kind)


def _cmd_equiv(args) -> int:
    from . import jsonio
    from .actions import check_partial_module_coalgebra
    from .partial_actions import from_kG_action, to_kG_action, validate_groupoid_partial_action

    doc = _load(args.path)
    rep = Report("equivalence round-trip")
    if doc.get("schema") == "groupoid-action":
        gpa = jsonio.gpa_from_json(doc)
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
        act = jsonio.action_from_json(doc)
        G = jsonio.action_groupoid_from_json(doc, act.hopf)
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
    from . import jsonio
    from .actions import check_partial_module_algebra, check_partial_module_coalgebra
    from .dualization import dualize_coalgebra_action, undualize_algebra_action

    doc = _load(args.path)
    act = jsonio.action_from_json(doc)
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
        _emit(jsonio.action_to_json(dual), args.output)
    if args.format == "json":
        print(jsonio.canonical_dumps({
            "ok": rep.ok,
            "dual": jsonio.action_to_json(dual),
            "report": rep.to_json(),
        }))
        return EXIT_OK if rep.ok else EXIT_CHECK_FAILED
    return _print_reports([rep], args.format)


def _cmd_globalize(args) -> int:
    from . import jsonio
    from .globalization import (dual_globalization_transfer, find_basis_grouplikes,
                                standard_globalization)

    doc = _load(args.path)
    act = jsonio.action_from_json(doc)
    wanted = args.grouplike
    found = [g for g in find_basis_grouplikes(act) if not wanted or g.label == wanted]
    if not found:
        print(f"whw: no absorbed grouplike labelled {wanted!r}" if wanted
              else "whw: no absorbed grouplike basis element found", file=sys.stderr)
        return EXIT_PRECONDITION
    gt = standard_globalization(act, found[0])
    transfer = dual_globalization_transfer(gt)
    if args.output:
        _emit(jsonio.triple_to_json(gt), args.output)
    return _print_reports([transfer.coalgebra_report, transfer.algebra_report], args.format)


@cache
def _parser() -> _Parser:
    """The `whw` argument parser, built once per process."""
    parser = _Parser(prog="whw", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--format", choices=["text", "json"], default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate-groupoid")
    p.add_argument("path")
    p.set_defaults(fn=_cmd_validate_groupoid)

    p = sub.add_parser("build")
    p.add_argument("kind", choices=["kG", "kG-dual", "abelian-group"])
    p.add_argument("spec")
    p.add_argument("--field", default="Q")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("check")
    p.add_argument("kind", choices=["weak-hopf", "wb", "identities", "hopf",
                                    "mc", "pmc", "ma", "pma", "lambda",
                                    "groupoid-action"])
    p.add_argument("path")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("equiv")
    p.add_argument("path")
    p.set_defaults(fn=_cmd_equiv)

    p = sub.add_parser("dualize")
    p.add_argument("path")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_dualize)

    p = sub.add_parser("globalize")
    p.add_argument("path")
    p.add_argument("--grouplike")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_globalize)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
