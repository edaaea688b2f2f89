"""Batch command line front end.

Every output file starts with a manifest (command, parameters, seed, tool
version); identical manifests produce byte-identical outputs since all
enumerations are canonically ordered.  Exit codes: 0 pass, 1 check failure,
2 usage, schema or I/O error, 3 resource guard, 4 schedule error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import tempfile

from . import __version__
from .complexes import (
    EnumerationCap,
    build_complex,
    connectivity_bound,
    elementary_split_poset,
    split_class_poset,
    split_records,
)
from .groups import (
    Config,
    TreePair,
    canonical_form,
    compose,
    element_from_json,
    element_to_json,
    inverse,
    stabilizer_test,
    subnormal_depth,
)
from .homology import pi1_report, reduced_homology
from .posets import chain_count, order_complex
from .trading import (
    FiltrationSchedule,
    ScheduleError,
    euler_characteristic,
    run_staircase,
    sparsify,
    sum_inventories,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_SCHEDULE = 4

# verify-nu refuses nmax above these unless --guard says otherwise.  At q=2
# the next point, n=11, reduces a dense core of its fourth boundary for more
# than ten minutes; triv nmax 10 takes about 2 s.
GUARD_DEFAULTS = {2: 10, 3: 9}

# desclink refuses an order complex whose chains times objects exceed this:
# each chain is a mask as wide as its highest object.  (2, sym, 6) has
# 45,555 chains on 2,430 objects (1.1e8); (2, triv, 6) has 1,159,650 on
# 49,170 (5.7e10) and ran out of memory at 7.6 GB.
ORDER_COMPLEX_BITS = 4 * 10**9


def _manifest(command: str, params: dict, seed: int | None) -> dict:
    return {
        "command": command,
        "params": {k: params[k] for k in sorted(params)},
        "seed": seed,
        "version": __version__,
    }


def _write_atomic(path: str | None, text: str) -> None:
    """Write to path, or to stdout if there is none; SPHERO_OUT_DIR prefixes a relative path."""
    if path is None:
        sys.stdout.write(text)
        return
    base = os.environ.get("SPHERO_OUT_DIR")
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sphero-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(manifest: dict, payload: dict) -> str:
    doc = {"manifest": manifest}
    doc.update(payload)
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def _csv_text(manifest: dict, header: list[str], rows: list[list]) -> str:
    lines = ["# manifest: " + json.dumps(manifest, sort_keys=True)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def _config_from_args(args) -> Config:
    return Config.make(args.q, 1, args.subgroup)


# ---------------------------------------------------------------------------
# subcommands


def cmd_build_cn(args) -> int:
    config = _config_from_args(args)
    cx = build_complex(config, args.n)
    manifest = _manifest("build-cn", {
        "q": args.q, "subgroup": args.subgroup, "n": args.n,
        "format": args.format, "group_order": config.group_order,
    }, args.seed)
    if args.format == "json":
        text = _json_text(manifest, {"complex": cx.to_json()})
    else:
        rows = [[i, j] for i, j in cx.edges]
        text = _csv_text(manifest, ["vertex_i", "vertex_j"], rows)
    _write_atomic(args.out, text)
    if args.dump_matrices:
        cc = cx.chain_complex(args.max_dim)
        _write_atomic(args.dump_matrices, cc.dump_matrices())
    return EXIT_OK


def cmd_verify_nu(args) -> int:
    guard = args.guard if args.guard is not None else GUARD_DEFAULTS.get(args.q, 8)
    if args.nmax > guard:
        print(f"nmax={args.nmax} exceeds the resource guard {guard}", file=sys.stderr)
        return EXIT_RESOURCE
    config = _config_from_args(args)
    rows = []
    all_pass = True
    for n in range(2, args.nmax + 1):
        nu = connectivity_bound(config, n)
        cx = build_complex(config, n)
        nonempty = len(cx.vertices) > 0
        nonempty_ok = nonempty == (n >= config.q)
        through = max(nu + 1, 0)
        cc = cx.chain_complex(through + 1)
        pi1 = "n/a"
        if nonempty:
            # one reduction gives the CSV degrees 0..through and the H~1 of the pi1 report
            res = reduced_homology(cc, max(through, 1))
            betti = list(res.betti[:through + 1])
            torsion = ["+".join(map(str, t)) if t else "" for t in res.torsion[:through + 1]]
            acyclic_ok = nonempty_ok and res.is_trivial_through(nu)
            if args.pi1_budget and res.betti[0] == 0 and cc.dim >= 1:
                pi1 = pi1_report(cc, res, args.pi1_budget)["status"]
        else:
            betti, torsion = [], []
            acyclic_ok = nonempty_ok
        all_pass = all_pass and acyclic_ok
        rows.append([n, nu, " ".join(map(str, betti)), " ".join(torsion),
                     "pass" if acyclic_ok else "FAIL", pi1])
    manifest = _manifest("verify-nu", {
        "q": args.q, "subgroup": args.subgroup, "nmax": args.nmax,
        "pi1_budget": args.pi1_budget, "group_order": config.group_order,
    }, args.seed)
    text = _csv_text(manifest, ["n", "nu", "betti", "torsion", "verdict", "pi1"], rows)
    _write_atomic(args.out, text)
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def _poset_homology_rows(poset):
    """[dim, betti, torsion] of each reduced homology group of the order complex."""
    if not poset.objects:
        return []
    chains = chain_count(poset)
    if chains * len(poset.objects) > ORDER_COMPLEX_BITS:
        raise EnumerationCap(f"the order complex has {chains} chains on {len(poset.objects)} objects, "
                             f"over the guard of {ORDER_COMPLEX_BITS:,} chain-object bits")
    cc = order_complex(poset)  # split posets are honest: every arrow adds blocks
    res = reduced_homology(cc, max(cc.dim, 0))
    return [[d, res.betti[d], "+".join(map(str, res.torsion[d]))] for d in range(len(res.betti))]


def cmd_desclink(args) -> int:
    config = _config_from_args(args)
    want_full = args.full or not args.star
    want_star = args.star
    # splitting posets do not depend on r; the manifest keeps it at 1
    manifest = _manifest("desclink", {
        "q": args.q, "subgroup": args.subgroup, "r": 1, "n": args.n,
        "star": want_star, "full": want_full, "cap": args.cap,
        "group_order": config.group_order,
    }, args.seed)
    try:
        payload = {}
        rows = []
        records = split_records(config, args.n, cap=args.cap)
        if want_full:
            full = split_class_poset(records)
            payload["full_poset"] = full.to_json()
            frows = _poset_homology_rows(full)
            rows += [["full"] + r for r in frows]
            payload["full_components"] = len(full.components())
        if want_star:
            # the full poset, once built, holds the star poset as a full subcategory
            star = (full.full_subcategory(r.object_id() for r in records if r.is_very_elementary)
                    if want_full else elementary_split_poset(records))
            payload["star_poset"] = star.to_json()
            payload["inclusion"] = {o: o for o in star.objects}  # both posets name objects by record id
            srows = _poset_homology_rows(star)
            rows += [["star"] + r for r in srows]
            payload["star_components"] = len(star.components())
        if want_full and want_star:
            def nonzero(model_rows):
                return [r for r in model_rows if r[1] or r[2]]
            payload["homology_equal"] = nonzero(frows) == nonzero(srows)  # degree by degree
    except EnumerationCap as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_RESOURCE
    _write_atomic(args.out, _json_text(manifest, payload))
    if args.homology_csv:
        text = _csv_text(manifest, ["model", "dim", "betti", "torsion"], rows)
        _write_atomic(args.homology_csv, text)
    return EXIT_OK


def _load_element(path: str) -> TreePair:
    with open(path) as fh:
        return element_from_json(json.load(fh))


# Each group op: the element files it reads, in order, then its integer flags,
# both passed to its function in that order, and the key of the answer.
GROUP_OPS = {
    "compose": (("lhs", "rhs"), (), compose, "element"),
    "inverse": (("input",), (), inverse, "element"),
    "canon": (("input",), (), canonical_form, "element"),
    "stab": (("gamma", "phi"), (), stabilizer_test, "stabilizes"),
    "subnormal": (("phi",), ("k",), subnormal_depth, "kprime"),
}


def _element_sha256(g: TreePair) -> str:
    """SHA-256 of an element's canonical JSON: element_to_json, sorted keys, no spaces."""
    text = json.dumps(element_to_json(g), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def cmd_group(args) -> int:
    files, ints, fn, key = GROUP_OPS[args.op]
    elements = [_load_element(getattr(args, f)) for f in files]
    numbers = [getattr(args, i) for i in ints]
    answer = fn(*elements, *numbers)
    if key == "element":
        answer = element_to_json(answer)
    # the manifest records every input: the integer flags, and a digest per element file
    params = {"op": args.op, **dict(zip(ints, numbers)),
              **{f"{f}_sha256": _element_sha256(g) for f, g in zip(files, elements)}}
    manifest = _manifest(f"group-{args.op}", params, args.seed)
    _write_atomic(args.out, _json_text(manifest, {key: answer}))
    return EXIT_OK


def cmd_trade(args) -> int:
    with open(args.schedule) as fh:
        schedule = FiltrationSchedule.from_json(json.load(fh))
    try:
        sparsified, index_map = sparsify(schedule, require=args.prefix)
        final, log = run_staircase(sparsified, args.prefix)
    except ScheduleError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_SCHEDULE
    before = sum_inventories(sparsified.stages[:args.prefix])
    manifest = _manifest("trade", {"schedule": os.path.basename(args.schedule),
                                   "prefix": args.prefix}, args.seed)
    payload = {
        "index_map": index_map,
        "final_inventory": final.to_json(),
        "trade_log": log.to_json(),
        "chi_before": euler_characteristic(before),
        "chi_after": euler_characteristic(final),
    }
    _write_atomic(args.out, _json_text(manifest, payload))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _count(text: str) -> int:
    """A count or bound given on the command line: an integer, 0 or more."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if count < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, not {count}")
    return count


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sphero", description=__doc__)
    p.add_argument("--seed", type=int, default=0, help="seed recorded in manifests")
    sub = p.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)
    config = argparse.ArgumentParser(add_help=False, parents=[out])
    config.add_argument("--q", type=int, required=True)
    config.add_argument("--subgroup", default="sym", help='"sym", "triv", or comma-separated words like "21"')

    b = sub.add_parser("build-cn", parents=[config], help="build the decorated disjoint-support complex")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--format", choices=("json", "csv"), default="json")
    b.add_argument("--dump-matrices", default=None, dest="dump_matrices",
                   help="also write the boundary matrices to this file")
    b.add_argument("--max-dim", type=_count, default=2, dest="max_dim")
    b.set_defaults(cmd="cmd_build_cn")

    v = sub.add_parser("verify-nu", parents=[config], help="certify the connectivity bound grid")
    v.add_argument("--nmax", type=_count, required=True)
    v.add_argument("--pi1-budget", type=_count, default=0, dest="pi1_budget",
                   help="Tietze work units per pi1 search; 0 skips the search")
    v.add_argument("--guard", type=_count, default=None, help="override the nmax resource guard")
    v.set_defaults(cmd="cmd_verify_nu")

    d = sub.add_parser("desclink", parents=[config], help="enumerate splitting-class posets")
    d.add_argument("--n", type=_count, required=True)
    d.add_argument("--star", action="store_true")
    d.add_argument("--full", action="store_true")
    d.add_argument("--cap", type=_count, default=6)
    d.add_argument("--homology-csv", default=None, dest="homology_csv")
    d.set_defaults(cmd="cmd_desclink")

    g = sub.add_parser("group", help="tree pair arithmetic on JSON elements")
    gs = g.add_subparsers(dest="op", required=True)
    for op, (files, ints, _fn, _key) in GROUP_OPS.items():
        o = gs.add_parser(op, parents=[out])
        for flag in files:
            o.add_argument(f"--{flag}", required=True)
        for flag in ints:
            o.add_argument(f"--{flag}", type=int, required=True)
        o.set_defaults(cmd="cmd_group")

    t = sub.add_parser("trade", parents=[out], help="sparsify a schedule and run the staircase")
    t.add_argument("--schedule", required=True)
    t.add_argument("--prefix", type=int, required=True)
    t.set_defaults(cmd="cmd_trade")
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        # commands are looked up by name at call time, so a replaced cmd_* runs
        return globals()[args.cmd](args)
    except (ValueError, OSError) as exc:
        # the one input boundary: malformed input (JSONDecodeError too) or an unusable path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
