"""Command-line surface: reproducible experiments with machine-readable output.

Output is line-delimited JSON.  Every stochastic subcommand requires an
explicit seed.  Exit codes: 0 pass, 1 verification failure, 2 usage or input
error; an unreadable input or unwritable output path is an input error.
numpy and the modules built on it (``gaussian``, ``oracle``) are
imported only by the subcommands that use them, so ``enumerate`` and
``verify`` start without them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import chain
from typing import Iterator, Optional

from . import inequalities as ineq
from .phasespace import PhaseSpace, particles, subset_size, subsystem_orders
from .stabilizer import (
    CLASSICAL,
    ENUMERATION_GUARD,
    QUANTUM,
    EntropyVector,
    enumerate_isotropic,
    vector_from_orders,
)

OUTPUT_DIR_ENV = "ENTROKIT_OUTPUT_DIR"


def _fmt(x: float) -> float:
    return float(f"{x:.17g}")


def _resolve(path: Optional[str], default_name: str) -> str:
    if path:
        return path
    return os.path.join(os.environ.get(OUTPUT_DIR_ENV, "."), default_name)


def _vector_obj(vec: EntropyVector) -> dict:
    return {
        "kind": vec.kind,
        "entries": [
            {"mask": mask, "size": e.subset_size, "order": e.subgroup_order, "entropy_log_d": _fmt(e.value)}
            for mask, e in sorted(vec.entries.items())
        ],
    }


def cmd_enumerate(args) -> int:
    d, n = args.d, args.n
    if d**(2 * n) > ENUMERATION_GUARD:
        print(f"error: d^(2n) = {d ** (2 * n)} exceeds guard {ENUMERATION_GUARD}", file=sys.stderr)
        return 2
    out = _resolve(args.out, f"corpus_d{d}_n{n}.json")
    ps = PhaseSpace(n, d)
    blocks: dict[tuple[int, ...], tuple[str, ...]] = {}  # quantum orders -> both serialized blocks
    with open(out, "w") as fh:
        for idx, st in enumerate(enumerate_isotropic(ps)):
            orders = subsystem_orders(ps, st.M)  # the one kernel run per state
            key = tuple(orders[mask] for mask in range(1, 1 << n))
            if key not in blocks:
                blocks[key] = tuple(
                    json.dumps(_vector_obj(vector_from_orders(ps, orders, kind)), sort_keys=True)
                    for kind in (CLASSICAL, QUANTUM)
                )
            classical, quantum = blocks[key]
            gens = json.dumps(st.M.generators())
            # the record's keys in sorted order, as json.dumps(record, sort_keys=True) writes them
            fh.write(
                f'{{"classical": {classical}, "d": {d}, "generators": {gens}, "index": {idx},'
                f' "n": {n}, "quantum": {quantum}}}\n'
            )
    print(out)
    return 0


def _block_orders(rec: dict, kind: str, sizes: list[int]) -> dict[int, int]:
    """mask -> order of one block: masks 1..2^n - 1, integer masks, sizes and orders, size == popcount(mask)."""
    entries = rec[kind]["entries"]
    orders = {e["mask"]: e["order"] for e in entries}
    if len(entries) != len(sizes) - 1 or sorted(orders) != list(range(1, len(sizes))):
        raise ValueError(f"{kind} masks are not exactly 1..{len(sizes) - 1}")
    for e in entries:
        if not type(e["mask"]) is type(e["size"]) is type(e["order"]) is int or e["size"] != sizes[e["mask"]]:
            raise ValueError(f"{kind} entry {e}: needs integer mask, size and order, and size == popcount(mask)")
    return orders


def _corpus_vectors(path: str, kind: str) -> Iterator[EntropyVector]:
    """One entropy vector of ``kind`` per corpus record, read line by line.

    Each record is validated as it is read, and a bad one raises ValueError
    naming its 0-based index: one (d, n) within the enumeration guard across
    the file, both blocks well formed (see _block_orders), quantum orders that
    ``vector_from_orders`` accepts (each |M_I| a divisor of d^(2|I|) and at
    most d^|I|), and classical orders equal to the ones it derives,
    d^(2|I|) / |M_I|.  Both vectors are built once per distinct tuple of
    quantum orders, so records with the same orders share one vector object.
    """
    d = n = None
    idx = -1
    shared: dict[tuple[int, ...], dict[str, EntropyVector]] = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            idx += 1
            try:
                rec = json.loads(line, object_pairs_hook=ineq.unique_keys)
                if d is None:
                    d, n = rec["d"], rec["n"]
                    if not (type(d) is type(n) is int and d >= 2 and n >= 1):
                        raise ValueError(f"(d, n) = ({d!r}, {n!r}) is not a valid size")
                    if d ** (2 * n) > ENUMERATION_GUARD:
                        raise ValueError(f"d^(2n) = {d ** (2 * n)} exceeds guard {ENUMERATION_GUARD}")
                    sizes = [subset_size(mask) for mask in range(1 << n)]
                    ps = PhaseSpace(n, d)
                elif (rec["d"], rec["n"]) != (d, n):
                    raise ValueError(f"(d, n) = ({rec['d']}, {rec['n']}), not ({d}, {n})")
                quantum = _block_orders(rec, QUANTUM, sizes)
                classical = _block_orders(rec, CLASSICAL, sizes)
                key = tuple(quantum[mask] for mask in range(1, 1 << n))
                if key not in shared:
                    shared[key] = {k: vector_from_orders(ps, quantum, k) for k in (QUANTUM, CLASSICAL)}
                if shared[key][CLASSICAL].orders != tuple(classical[mask] for mask in range(1, 1 << n)):
                    raise ValueError("classical orders are not d^(2|I|) / quantum orders")
            except (KeyError, TypeError, ValueError) as exc:
                detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
                raise ValueError(f"record {idx}: {detail}") from None
            yield shared[key][kind]
    if d is None:
        raise ValueError("empty corpus")


def _inequality(k: int, line: str, n: int) -> ineq.Inequality:
    """The k-th (0-based) inequality of a file, validated against a corpus on n parties."""
    try:
        q = ineq.Inequality.from_json(line)
        if q.n != n:
            raise ValueError(f"n = {q.n} on a corpus with n = {n}")
    except ValueError as exc:
        raise ValueError(f"inequality {k}: {exc}") from None
    return q


def cmd_verify(args) -> int:
    out = _resolve(args.out, "report.json")
    if os.path.realpath(out) in {os.path.realpath(p) for p in (args.corpus, args.inequality) if p}:
        print(f"error: --out {out} is an input file", file=sys.stderr)
        return 2
    fh = open(out, "w")  # before the work, so that a bad --out fails at once
    try:
        with fh:
            vectors = _corpus_vectors(args.corpus, args.kind)
            first = next(vectors)
            if args.inequality:
                with open(args.inequality) as inp:
                    lines = [line for line in inp if line.strip()]
                ineqs = [_inequality(k, line, first.n) for k, line in enumerate(lines)]
            else:
                ineqs = ineq.instances(args.family, first.n)
            if args.balanced_only:
                ineqs = [q for q in ineqs if ineq.is_balanced(q)]
            if not ineqs:
                raise ValueError("no inequalities selected")
            report = ineq.verify_batch(ineqs, chain([first], vectors), args.family or "file")
            fh.writelines(report.chunks())
            fh.write("\n")
    except (OSError, ValueError) as exc:
        os.remove(out)  # no rc-2 path leaves a report
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(out)
    return 0 if report.passed else 1


def cmd_oracle_check(args) -> int:
    from . import oracle

    d, n = args.d, args.n
    if d**n > oracle.DENSE_GUARD:
        print(f"error: d^n = {d ** n} exceeds dense guard {oracle.DENSE_GUARD}", file=sys.stderr)
        return 2
    checks = {"states": 0, "entropy": 0.0, "projector": 0.0, "wigner": 0.0}
    tolerances = {"projector": oracle.ATOL_STRUCT, "entropy": oracle.ATOL_EIG, "wigner": oracle.ATOL_WIGNER}
    ok = True
    ps = PhaseSpace(n, d)
    out = _resolve(args.out, f"oracle_check_d{d}_n{n}.json")
    fh = open(out, "w")  # before the work, so that a bad --out fails at once
    try:
        with fh:
            for chunk in oracle.chunks(enumerate_isotropic(ps), ps):
                checks["states"] += len(chunk)
                for key, errs in oracle.cross_check(chunk).items():
                    checks[key] = max(checks[key], float(errs.max()))
                    ok &= bool((errs < tolerances[key]).all())
            report = {"d": d, "n": n, "passed": bool(ok)}
            report.update({k: (_fmt(v) if isinstance(v, float) else v) for k, v in checks.items()})
            fh.write(json.dumps(report, sort_keys=True) + "\n")
    except ValueError as exc:  # a state the oracle cannot validate fails the check
        os.remove(out)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(out)
    return 0 if ok else 1


def cmd_gaussian(args) -> int:
    import numpy as np

    from . import gaussian as gsn

    # every rc-2 check runs before --out is opened, so none leaves a file behind
    if args.gaussian_cmd == "mc":
        g, mask = _mc_fixture(args.fixture)
        if g is None:
            print(f"error: unknown fixture {args.fixture!r}", file=sys.stderr)
            return 2
        if args.samples < gsn.MC_MIN_SAMPLES:
            print("error: need at least 10^4 samples", file=sys.stderr)
            return 2
    if args.gaussian_cmd == "ingleton-search" and args.strategy not in gsn.STRATEGIES:
        print(f"error: unknown strategy {args.strategy!r}", file=sys.stderr)
        return 2
    out = _resolve(args.out, f"gaussian_{args.gaussian_cmd}.json")
    with open(out, "w") as fh:
        if args.gaussian_cmd == "verify":
            rng = np.random.default_rng(args.seed)
            n = args.n
            worst = 0.0
            for _ in range(args.trials):
                a = rng.standard_normal((2 * n, 2 * n + 2))
                g = gsn.GaussianState(n, np.zeros(2 * n), a @ a.T + np.eye(2 * n))
                for mask in range(1, 1 << n):
                    k = len(particles(mask))
                    s2 = gsn.renyi2_quantum(g, mask)
                    for alpha in (0.5, 2.0, 3.0):
                        via = gsn.renyi_alpha_classical(g, mask, alpha) - k * gsn.renyi_correction(alpha)
                        worst = max(worst, abs(via - s2))
            ok = worst < 1e-10
            line = json.dumps(
                {"passed": ok, "trials": args.trials, "n": n, "seed": args.seed, "max_error": _fmt(worst)},
                sort_keys=True,
            )
        elif args.gaussian_cmd == "mc":
            exact = gsn.renyi_alpha_classical(g, mask, 2.0)
            est, se = gsn.mc_renyi2(g, mask, args.samples, args.seed)
            ok = abs(est - exact) <= max(3 * se, 0.01 * abs(exact))
            line = json.dumps(
                {
                    "fixture": args.fixture,
                    "passed": ok,
                    "samples": args.samples,
                    "seed": args.seed,
                    "exact": _fmt(exact),
                    "estimate": _fmt(est),
                    "stderr": _fmt(se),
                },
                sort_keys=True,
            )
        else:  # ingleton-search; argparse admits no other subcommand
            res = gsn.ingleton_search(args.seed, args.iters, args.strategy)
            ok = res.found
            line = res.to_json()
        fh.write(line + "\n")
    print(out)
    return 0 if ok else 1


def _mc_fixture(name: str):
    import numpy as np

    from . import gaussian as gsn

    if name == "vacuum":
        return gsn.GaussianState.vacuum(1), 1
    if name == "thermal":
        return gsn.GaussianState(1, np.zeros(2), np.eye(2)), 1
    if name == "correlated":
        r = 0.6
        c, s = math.cosh(2 * r) / 2, math.sinh(2 * r) / 2
        sig = np.array([[c, 0, s, 0], [0, c, 0, -s], [s, 0, c, 0], [0, -s, 0, c]])
        return gsn.GaussianState(2, np.zeros(4), sig), 3
    return None, None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="entrokit")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("enumerate", help="enumerate isotropic subgroups with entropy vectors")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="verify inequalities against a corpus file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--family", choices=ineq.FAMILIES)
    p.add_argument("--inequality", help="JSON-lines file of inequalities")
    p.add_argument("--kind", choices=(QUANTUM, CLASSICAL), default=QUANTUM)
    p.add_argument("--balanced-only", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle-check", help="dense-oracle vs phase-space comparison")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("gaussian", help="Gaussian-state routines")
    gs = p.add_subparsers(dest="gaussian_cmd", required=True)
    g = gs.add_parser("verify")
    g.add_argument("--n", type=int, default=3)
    g.add_argument("--trials", type=int, default=100)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out")
    g.set_defaults(func=cmd_gaussian)
    g = gs.add_parser("mc")
    g.add_argument("--fixture", default="vacuum")
    g.add_argument("--samples", type=int, default=10**6)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out")
    g.set_defaults(func=cmd_gaussian)
    g = gs.add_parser("ingleton-search")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--iters", type=int, default=20000)
    g.add_argument("--strategy", default="random-wishart", help="a name in gaussian.STRATEGIES")
    g.add_argument("--out")
    g.set_defaults(func=cmd_gaussian)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    for attr in ("d", "n", "trials", "samples", "iters"):
        if getattr(args, attr, 1) is not None and getattr(args, attr, 1) < 1:
            print(f"error: --{attr} must be positive", file=sys.stderr)
            return 2
    if getattr(args, "seed", 0) < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    if getattr(args, "d", 2) < 2:
        print("error: --d must be >= 2", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except OSError as exc:  # an unreadable input or unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
