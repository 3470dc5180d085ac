"""Command-line front end.

Verbs: analyze, powers, csr, check-dm, check-wiel, check-crit-rc,
generate, oracle.  Matrices travel in the bit-exact text format (first
line the dimension, then one row per line; '-inf' or '*' for missing
arcs).  Node indices on the command line are 0-based.

Exit codes: 0 success (also after --help), 1 usage or precondition
error (including a bad or missing argument) or running out of memory,
with one `error:` line on stderr, 2 a check verb returned a negative
verdict, 3 internal assertion failure (including a generated matrix that
fails its post-verification).

The argument parser is built on the first call to `main` and reused by
every later call in the process: each parse fills a fresh namespace, and
the verbs look up the library functions they call at call time.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path

from .bounds import dm_bound, wielandt_bound
from .csr import analyze, build_csr, csr_at
from .extremal import (
    generate_dm,
    generate_wielandt,
    twice_optimal_walk,
    verify_crit_rc_dm,
    verify_crit_rc_wielandt,
    verify_dm,
    verify_wielandt,
)
from .matrix import MaxPlusMatrix, _scalar_text, mat_power, parse_matrix, render_matrix


def _load(path: str) -> MaxPlusMatrix:
    """The matrix in the file at path, read as Path.read_text() reads it."""
    with open(path) as f:
        return parse_matrix(f.read())


def _parse_numbering(text: str | None) -> tuple[int, ...] | None:
    """The ints of the --numbering text; the verifiers check the permutation."""
    if text is None:
        return None
    try:
        return tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise ValueError(f"bad numbering {text!r}") from exc


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _verdict_payload(verdict) -> dict:
    payload = {
        "holds": verdict.holds,
        "numbering": list(verdict.numbering) if verdict.numbering is not None else None,
        "conditions": {
            key: {"passed": c.passed, "vacuous": c.vacuous, "detail": c.detail}
            for key, c in verdict.conditions.items()
        },
    }
    if hasattr(verdict, "case"):
        payload["case"] = verdict.case
    return payload


def _print_verdict(name: str, verdict, as_json: bool) -> None:
    if as_json:
        _emit_json({name: _verdict_payload(verdict)})
        return
    print(f"{name}: {'holds' if verdict.holds else 'does not hold'}")
    if verdict.numbering is not None:
        print(f"  numbering: {' '.join(map(str, verdict.numbering))}")
    if getattr(verdict, "case", None) is not None:
        print(f"  case: g = {verdict.case}")
    for key, check in verdict.conditions.items():
        status = "vacuous" if check.vacuous else ("ok" if check.passed else "FAIL")
        line = f"  {key}: {status}"
        if check.detail:
            line += f" ({check.detail})"
        print(line)


def _cmd_analyze(args) -> int:
    report = analyze(_load(args.file))
    if args.json:
        _emit_json(report.as_dict())
    else:
        sys.stdout.write(report.render())
    return 0


def _cmd_powers(args) -> int:
    if args.t < 1:
        raise ValueError("powers: t must be >= 1")
    sys.stdout.write(render_matrix(mat_power(_load(args.file), args.t)))
    return 0


def _cmd_csr(args) -> int:
    if args.t < 1:
        raise ValueError("csr: t must be >= 1")
    a = _load(args.file)
    sys.stdout.write(render_matrix(csr_at(build_csr(a), args.t)))
    return 0


def _cmd_check_dm(args) -> int:
    verdict = verify_dm(_load(args.file), numbering=_parse_numbering(args.numbering))
    _print_verdict("dm_attainment", verdict, args.json)
    return 0 if verdict.holds else 2


def _cmd_check_wiel(args) -> int:
    verdict = verify_wielandt(_load(args.file), numbering=_parse_numbering(args.numbering))
    _print_verdict("wielandt_attainment", verdict, args.json)
    return 0 if verdict.holds else 2


def _cmd_check_crit_rc(args) -> int:
    a = _load(args.file)
    dm_ok, wiel_ok = verify_crit_rc_dm(a), verify_crit_rc_wielandt(a)
    if args.json:
        _emit_json({"crit_rc_dm": dm_ok, "crit_rc_wielandt": wiel_ok})
    else:
        print(f"crit_rc_dm: {'holds' if dm_ok else 'does not hold'}")
        print(f"crit_rc_wielandt: {'holds' if wiel_ok else 'does not hold'}")
    return 0 if (dm_ok or wiel_ok) else 2


def _cmd_generate(args) -> int:
    if args.family == "dm":
        if args.g is None:
            raise ValueError("generate dm needs --g")
        matrix = generate_dm(args.n, args.g, args.seed)
        provenance = {"family": "dm", "n": args.n, "g": args.g, "seed": args.seed}
        bound = dm_bound(args.g, args.n)
    else:
        matrix = generate_wielandt(args.n, args.seed, case=args.case)
        provenance = {"family": "wielandt", "n": args.n, "case": args.case, "seed": args.seed}
        bound = wielandt_bound(args.n)
    provenance["numbering"] = list(range(args.n))
    # The generators return only candidates whose T1 they checked equals
    # this bound, at the two powers that decide it.
    provenance["verified_T1"] = bound
    text = render_matrix(matrix)
    if args.out:
        Path(args.out).write_text(text)
        Path(args.out + ".json").write_text(json.dumps(provenance, sort_keys=True) + "\n")
        print(f"wrote {args.out} and {args.out}.json")
    else:
        sys.stdout.write(text)
        print(json.dumps(provenance, sort_keys=True))
    return 0


def _cmd_oracle(args) -> int:
    a = _load(args.file)
    result = twice_optimal_walk(a, args.i, args.j, args.t)
    weight = None if result is None else _scalar_text(result.weight)  # may refuse, before any output
    if args.json:
        if result is None:
            _emit_json({"walk": None})
        else:
            _emit_json(
                {
                    "walk": {
                        "nodes": list(result.nodes),
                        "length": result.length,
                        "weight": weight,
                        "interesting": result.interesting,
                    }
                }
            )
        return 0
    if result is None:
        print("no walk with the requested residue passes through the critical cycle")
    else:
        print("walk: " + " ".join(map(str, result.nodes)))
        print(f"length: {result.length}")
        print(f"weight: {weight}")
        print(f"interesting: {result.interesting}")
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxplus",
        description="Exact max-plus matrix analysis: powers, CSR expansions, "
        "transient thresholds, and extremal-family checks. Node indices are 0-based.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("analyze", help="transient report for a matrix file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("powers", help="print A^t in matrix text form")
    p.add_argument("file")
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=_cmd_powers)

    p = sub.add_parser("csr", help="print C S^t R in matrix text form")
    p.add_argument("file")
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=_cmd_csr)

    p = sub.add_parser("check-dm", help="verify the DM attainment conditions")
    p.add_argument("file")
    p.add_argument("--numbering", help="explicit permutation, e.g. '0,2,1'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check_dm)

    p = sub.add_parser("check-wiel", help="verify the Wielandt attainment conditions")
    p.add_argument("file")
    p.add_argument("--numbering")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check_wiel)

    p = sub.add_parser("check-crit-rc", help="critical row/column attainment verdicts")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check_crit_rc)

    p = sub.add_parser("generate", help="emit a bound-attaining matrix")
    p.add_argument("family", choices=["dm", "wielandt"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--g", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--case", choices=["n-1", "n"], default="n-1")
    p.add_argument("--out", help="write matrix here and provenance to <out>.json")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("oracle", help="twice-optimal walk between two nodes")
    p.add_argument("file")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
