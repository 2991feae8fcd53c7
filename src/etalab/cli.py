"""Command line front end.

Exit codes: 0 success / all checks pass, 1 a verification sweep found a
violation (the counterexample is emitted), 2 usage error, 3 computation
error (bad group file, unreachable construction, internal failure).
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import catalog_index
from .charops import decompose
from .clifford import ALL_CHAINS_CAP, all_chains, build_chain, classify_chain
from .constructions import (
    cyclic,
    dihedral,
    extraspecial_exp_p,
    prop5_witness,
    quaternion,
    wreath_cp,
)
from .errors import EtalabError
from .groupfile import format_group, format_permutation, load_group, save_group
from .table import character_table
from . import verify as verify_mod

__all__ = ["run_cli", "main"]

VERIFY_CHECKS = {
    "theorem-a": verify_mod.verify_theorem_a,
    "theorem-b": verify_mod.verify_theorem_b,
    "corollary-a": verify_mod.verify_corollary_a,
    "ledger": verify_mod.verify_ledger,
    "prop5": verify_mod.verify_prop5,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etalab",
        description="Exact character tables and product-constituent counts for finite p-groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="print the character table of a group file")
    p_table.add_argument("file")
    p_table.add_argument("--json", metavar="OUT", default=None)
    p_table.add_argument("--cache-dir", default=".etalab-cache")

    p_eta = sub.add_parser("eta", help="count distinct constituents of a character product")
    p_eta.add_argument("file")
    p_eta.add_argument("--chi", type=int, required=True)
    p_eta.add_argument("--psi", type=int, default=None)

    p_chain = sub.add_parser("chain", help="print the descent chain ledger of a character")
    p_chain.add_argument("file")
    p_chain.add_argument("--chi", type=int, required=True)
    p_chain.add_argument("--all-chains", action="store_true")

    p_build = sub.add_parser("build", help="construct a named group and emit its group file")
    p_build.add_argument("kind")
    p_build.add_argument("args", nargs="*")
    p_build.add_argument("-o", "--output", default=None)

    p_verify = sub.add_parser("verify", help="run a verification sweep over the catalog")
    p_verify.add_argument("check", choices=sorted(VERIFY_CHECKS))
    p_verify.add_argument("--catalog", default="default")
    p_verify.add_argument("--max-order", type=int, default=None)
    p_verify.add_argument("--json", metavar="OUT", default=None)

    return parser


def _usage(msg: str) -> int:
    print(f"etalab: {msg}", file=sys.stderr)
    return 2


def _pick_char(table, index: int, what: str):
    if 0 <= index < len(table):
        return table[index], 0
    return None, _usage(f"{what} index {index} out of range (table has {len(table)} characters)")


def _cmd_table(args) -> int:
    G = load_group(args.file)
    table = character_table(G, cache_dir=args.cache_dir)
    info = G.p_group_info()
    print(f"group file: {args.file}")
    print(f"order {G.order}  p {info.p}  exponent {G.exponent()}  classes {len(table)}")
    print(f"cyclotomic conductor {table.e}  working prime {table.q}")
    print()
    print("classes (size, representative):")
    for k, rep in enumerate(table.classes.representatives):
        print(f"  C{k}: size {table.classes.sizes[k]}  {format_permutation(rep)}")
    print()
    print("irreducibles (rows, values on C0..):")
    for i, chi in enumerate(table):
        vals = "  ".join(str(v) for v in chi.values)
        print(f"  chi_{i} (degree {chi.degree}): {vals}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(table.to_json_dict(), fh, indent=2)
            fh.write("\n")
        print(f"\nwrote {args.json}")
    return 0


def _cmd_eta(args) -> int:
    G = load_group(args.file)
    table = character_table(G)
    chi, rc = _pick_char(table, args.chi, "--chi")
    if chi is None:
        return rc
    if args.psi is None:
        psi = chi.conjugate()
        label = f"eta(chi_{args.chi}, conj chi_{args.chi})"
    else:
        psi, rc = _pick_char(table, args.psi, "--psi")
        if psi is None:
            return rc
        label = f"eta(chi_{args.chi}, chi_{args.psi})"
    dec = decompose(chi * psi)
    print(f"{label} = {dec.eta}")
    print("constituents:")
    for c, m in dec.constituents:
        print(f"  chi_{table.index_of(c)} (degree {c.degree})  multiplicity {m}")
    return 0


def _cmd_chain(args) -> int:
    G = load_group(args.file)
    table = character_table(G)
    chi, rc = _pick_char(table, args.chi, "--chi")
    if chi is None:
        return rc
    if args.all_chains and G.order > ALL_CHAINS_CAP:
        return _usage(f"--all-chains is limited to groups of order at most {ALL_CHAINS_CAP}")
    chain = build_chain(G, chi)
    ledger = classify_chain(chain)
    print(f"canonical chain for chi_{args.chi} (degree {chi.degree}) in group of order {G.order}:")
    print("  i  |N_i|  nu_deg  stable  case       m  r  s  |stab|")
    for i, N in enumerate(chain.series):
        print(
            f"  {i}  {N.order:5d}  {chain.nus[i].degree:6d}  {str(ledger.stable[i]):6s}"
            f"  {ledger.case[i]:9s}  {ledger.m[i]}  {ledger.r[i]}  {ledger.s[i]}"
            f"  {ledger.stabilizer_orders[i]}"
        )
    print(f"totals: m_t = {ledger.m[-1]}, unstable indices {list(ledger.unstable_indices)}")
    if args.all_chains:
        chains = all_chains(G, chi)
        print(f"\nall valid chains: {len(chains)}")
        for k, ch in enumerate(chains):
            led = classify_chain(ch)
            cases = ",".join(led.case[1:])
            print(f"  chain {k}: cases [{cases}]  m_t = {led.m[-1]}")
    return 0


def _cmd_build(args) -> int:
    kind = args.kind
    params = args.args
    sidecar = None
    try:
        if kind == "cyclic":
            if len(params) != 1:
                return _usage("build cyclic takes one argument: <m>")
            G = cyclic(int(params[0]))
            desc = f"cyclic group of order {int(params[0])}"
        elif kind == "dihedral":
            if len(params) != 1:
                return _usage("build dihedral takes one argument: <m>")
            G = dihedral(int(params[0]))
            desc = f"dihedral group of order {2 * int(params[0])}"
        elif kind == "quaternion":
            if params:
                return _usage("build quaternion takes no arguments")
            G = quaternion()
            desc = "quaternion group of order 8"
        elif kind == "extraspecial":
            if len(params) != 1:
                return _usage("build extraspecial takes one argument: <p>")
            G = extraspecial_exp_p(int(params[0]))
            desc = f"extraspecial group of order {int(params[0]) ** 3}, exponent {params[0]}"
        elif kind == "wreath":
            if len(params) != 2:
                return _usage("build wreath takes two arguments: <file> <p>")
            A = load_group(params[0])
            G, _ = wreath_cp(A, int(params[1]))
            desc = f"wreath product of {params[0]} by a cycle of length {params[1]}"
        elif kind == "witness":
            if len(params) != 2:
                return _usage("build witness takes two arguments: <p> <n>")
            if args.output is None:
                return _usage("build witness requires -o (a sidecar JSON is written next to it)")
            p, n = int(params[0]), int(params[1])
            witness = prop5_witness(p, n)
            G = witness.group
            table = character_table(G)
            desc = f"product-count witness for p={p}, n={n}"
            sidecar = {
                "schema": 1,
                "p": p,
                "n": n,
                "order": G.order,
                "chi_index": table.index_of(witness.chi),
                "chi_degree": witness.chi.degree,
            }
        else:
            return _usage(f"unknown build kind: {kind}")
    except ValueError:
        return _usage(f"build {kind}: arguments must be integers")
    if args.output:
        save_group(G, args.output, comment=desc)
        print(f"wrote {args.output} ({desc}, order {G.order})")
        if sidecar is not None:
            path = args.output + ".json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(sidecar, fh, indent=2)
                fh.write("\n")
            print(f"wrote {path} (distinguished character chi_{sidecar['chi_index']})")
    else:
        sys.stdout.write(format_group(G, comment=desc))
    return 0


def _cmd_verify(args) -> int:
    if args.catalog != "default":
        return _usage(f"unknown catalog: {args.catalog}")
    fn = VERIFY_CHECKS[args.check]
    if args.max_order is None:
        report = fn()
    elif args.check == "prop5":
        return _usage("--max-order does not apply to prop5, whose witnesses are fixed")
    elif all(entry["order"] > args.max_order for entry in catalog_index()):
        return _usage(f"--max-order {args.max_order} selects no catalog group")
    else:
        report = fn(max_order=args.max_order)
    for res in report.results:
        mark = "PASS" if res["pass"] else "FAIL"
        print(f"[{mark}] {args.check} {res['group']} (order {res['order']}, p {res['p']}):"
              f" {len(res['records'])} records")
    print(f"overall: {'PASS' if report.passed else 'FAIL'} ({report.elapsed_ms} ms)")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"wrote {args.json}")
    if not report.passed:
        failing = [
            {"group": res["group"], "records": [r for r in res["records"] if not r["pass"]]}
            for res in report.results
            if not res["pass"]
        ]
        print("counterexamples:")
        print(json.dumps(failing, indent=2))
        return 1
    return 0


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        if args.command == "table":
            return _cmd_table(args)
        if args.command == "eta":
            return _cmd_eta(args)
        if args.command == "chain":
            return _cmd_chain(args)
        if args.command == "build":
            return _cmd_build(args)
        if args.command == "verify":
            return _cmd_verify(args)
    except (EtalabError, OSError) as exc:
        print(f"etalab: error: {exc}", file=sys.stderr)
        return 3
    return _usage(f"unknown command: {args.command}")


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
