"""Command-line surface: reproducible experiments with machine-readable output.

Output is line-delimited JSON; every stochastic subcommand needs an explicit seed.
Exit codes: 0 pass, 1 verification failure, 2 usage or input error.  ``main`` alone
writes the output: the subcommand gets an open temporary file beside ``--out`` (or its
default name), which replaces the target only when the subcommand returns.  ``main``
alone prints errors: one ``error:`` line per input error (a bad argument, path, file
or size, library guards included), and per ``CheckFailed``, which exits 1.
numpy and the modules built on it (``gaussian``, ``oracle``) are
imported only by the subcommands that use them, so ``enumerate`` and
``verify`` start without them; nothing in the package imports
``dataclasses``, which would load ``inspect`` on every call.
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
from .phasespace import PhaseSpace, subset_size, subsystem_orders
from .stabilizer import (
    CLASSICAL,
    QUANTUM,
    EntropyVector,
    StabilizerState,
    check_guard,
    enumerate_isotropic,
    vector_from_orders,
)

OUTPUT_DIR_ENV = "ENTROKIT_OUTPUT_DIR"


class CheckFailed(Exception):
    """A check that could not run to its end: ``main`` prints it and exits 1."""


def _vector_obj(vec: EntropyVector) -> dict:
    return {
        "kind": vec.kind,
        "entries": [
            {"mask": mask, "size": subset_size(mask), "order": q, "entropy_log_d": vec.value(mask)}
            for mask, q in enumerate(vec.orders, 1)
        ],
    }


def cmd_enumerate(args, fh) -> int:
    d, n = args.d, args.n
    ps = PhaseSpace(n, d)
    blocks: dict[tuple[int, ...], tuple[str, str]] = {}  # quantum orders -> both block texts
    for idx, M in enumerate(enumerate_isotropic(ps)):
        orders = subsystem_orders(ps, M)  # the one kernel run per state
        if orders not in blocks:
            blocks[orders] = _blocks(ps, orders)[1]
        classical, quantum = blocks[orders]
        gens = json.dumps(M.generators())
        # the record's keys in sorted order, as json.dumps(record, sort_keys=True) writes them
        fh.write(
            f'{{"classical": {classical}, "d": {d}, "generators": {gens}, "index": {idx},'
            f' "n": {n}, "quantum": {quantum}}}\n'
        )
    return 0


def _blocks(ps: PhaseSpace, orders: tuple[int, ...]) -> tuple[tuple[EntropyVector, ...], tuple[str, ...]]:
    """The classical and quantum vectors of the quantum ``orders``, and their two
    block texts: the one serializer of a corpus block, which ``enumerate``
    writes and ``verify`` compares each record against."""
    vecs = (vector_from_orders(ps, orders, CLASSICAL), vector_from_orders(ps, orders, QUANTUM))
    return vecs, tuple(json.dumps(_vector_obj(v), sort_keys=True) for v in vecs)


def _is_size(d, n) -> bool:
    return type(d) is type(n) is int and d >= 2 and n >= 1


def _corpus_vectors(path: str, kind: str) -> Iterator[EntropyVector]:
    """One entropy vector of ``kind`` per corpus record, read line by line.

    Each record is validated as it is read, and a bad one raises ValueError
    naming its 0-based index.  A record read in full needs an int d >= 2 and
    n >= 1, one (d, n) within the enumeration guard across the file, quantum
    entries whose orders, in list order, pass ``vector_from_orders``, and two
    blocks that, serialized with sorted keys, are the texts ``_blocks`` gives
    for those orders: exactly what ``enumerate`` writes, in any layout.

    A record that passes keeps its canonical texts, ``{"classical": `` plus
    the first and the second plus ``}`` and a newline.  A record whose text
    before its first ``, "d": `` and after its last ``, "quantum": `` is a kept
    pair parses only the text between, which must hold exactly d, generators,
    index and n, with the file's (d, n); a canonical block holds no
    ``, "d": ``, so no cut falls inside one.  Others, a bad middle included,
    are read in full.  Each distinct orders tuple is serialized once.
    """
    d = n = None
    idx = -1
    kept: dict[tuple[str, str], EntropyVector] = {}  # canonical (head, tail) texts -> vector
    built: dict[tuple, tuple] = {}  # quantum orders -> their _blocks, for records read in full
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            idx += 1
            head, cut, rest = line.partition(', "d": ')
            mid, cut, tail = rest.rpartition(', "quantum": ') if cut else ("", "", "")
            if cut and (head, tail) in kept:
                try:
                    middle = ineq.strict_json.decode('{"d": ' + mid + "}")
                except ValueError:
                    middle = {}
                size = middle.get("d"), middle.get("n")
                if middle.keys() == {"d", "generators", "index", "n"} and _is_size(*size) and size == (d, n):
                    yield kept[head, tail]
                    continue
            try:
                rec = ineq.strict_json.decode(line)
                if not _is_size(rec["d"], rec["n"]):
                    raise ValueError(f"(d, n) = ({rec['d']!r}, {rec['n']!r}) is not a valid size")
                if d is None:
                    d, n = rec["d"], rec["n"]
                    ps = PhaseSpace(n, d)
                    check_guard(ps)
                elif (rec["d"], rec["n"]) != (d, n):
                    raise ValueError(f"(d, n) = ({rec['d']}, {rec['n']}), not ({d}, {n})")
                orders = tuple(e["order"] for e in rec[QUANTUM]["entries"])
                vecs, texts = built[orders] = built.get(orders) or _blocks(ps, orders)
                for block, text in zip((CLASSICAL, QUANTUM), texts):
                    if json.dumps(rec[block], sort_keys=True) != text:
                        raise ValueError(f"{block} block is not the one enumerate writes for its quantum orders")
            except (KeyError, TypeError, ValueError) as exc:
                detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
                raise ValueError(f"record {idx}: {detail}") from None
            yield kept.setdefault(('{"classical": ' + texts[0], texts[1] + "}\n"), vecs[kind == QUANTUM])
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


def cmd_verify(args, fh) -> int:
    if os.path.realpath(args.out) in {os.path.realpath(p) for p in (args.corpus, args.inequality) if p}:
        raise ValueError(f"--out {args.out} is an input file")
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
    return 0 if report.passed else 1


def cmd_oracle_check(args, fh) -> int:
    from . import oracle

    d, n = args.d, args.n
    ps = PhaseSpace(n, d)
    oracle.check_guard(ps)
    checks = {"states": 0, "entropy": 0.0, "projector": 0.0, "wigner": 0.0}
    tolerances = {"projector": oracle.ATOL_STRUCT, "entropy": oracle.ATOL_EIG, "wigner": oracle.ATOL_WIGNER}
    ok = True
    try:
        states = (StabilizerState(ps, M) for M in enumerate_isotropic(ps))  # each one checked
        for chunk in oracle.chunks(states, ps):
            checks["states"] += len(chunk)
            for key, errs in oracle.cross_check(chunk).items():
                checks[key] = float(errs.max(initial=checks[key]))  # keeps a NaN, as the builtin max would not
                ok &= bool((errs < tolerances[key]).all())
    except ValueError as exc:  # a state the oracle cannot validate fails the check
        raise CheckFailed(exc) from None
    report = {"d": d, "n": n, "passed": bool(ok)}
    report.update(checks)
    fh.write(json.dumps(report, sort_keys=True) + "\n")
    return 0 if ok else 1


def cmd_gaussian(args, fh) -> int:
    import numpy as np

    from . import gaussian as gsn

    if args.gaussian_cmd == "verify":
        rng = np.random.default_rng(args.seed)
        n = args.n
        worst = 0.0
        for _ in range(args.trials):
            a = rng.standard_normal((2 * n, 2 * n + 2))
            g = gsn.GaussianState(n, np.zeros(2 * n), a @ a.T + np.eye(2 * n))
            for mask in range(1, 1 << n):
                k = subset_size(mask)
                s2 = gsn.renyi2_quantum(g, mask)
                for alpha in (0.5, 2.0, 3.0):
                    via = gsn.renyi_alpha_classical(g, mask, alpha) - k * gsn.renyi_correction(alpha)
                    worst = max(worst, abs(via - s2))
        ok = worst < 1e-10
        line = json.dumps(
            {"passed": ok, "trials": args.trials, "n": n, "seed": args.seed, "max_error": worst},
            sort_keys=True,
        )
    elif args.gaussian_cmd == "mc":
        g, mask = _mc_fixture(args.fixture)
        if args.samples < gsn.MC_MIN_SAMPLES:
            raise ValueError("need at least 10^4 samples")
        exact = gsn.renyi_alpha_classical(g, mask, 2.0)
        est, se = gsn.mc_renyi2(g, mask, args.samples, args.seed)
        ok = abs(est - exact) <= max(3 * se, 0.01 * abs(exact))
        line = json.dumps(
            {
                "fixture": args.fixture,
                "passed": ok,
                "samples": args.samples,
                "seed": args.seed,
                "exact": exact,
                "estimate": est,
                "stderr": se,
            },
            sort_keys=True,
        )
    else:  # ingleton-search; argparse admits no other subcommand
        res = gsn.ingleton_search(args.seed, args.iters)
        ok = res.found
        line = res.to_json()
    fh.write(line + "\n")
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
    raise ValueError(f"unknown fixture {name!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="entrokit")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("enumerate", help="enumerate isotropic subgroups with entropy vectors")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_enumerate, out_name="corpus_d{d}_n{n}.json")

    p = sub.add_parser("verify", help="verify inequalities against a corpus file")
    p.add_argument("--corpus", required=True)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--family", choices=ineq.FAMILIES)
    which.add_argument("--inequality", help="JSON-lines file of inequalities")
    p.add_argument("--kind", choices=(QUANTUM, CLASSICAL), default=QUANTUM)
    p.add_argument("--balanced-only", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify, out_name="report.json")

    p = sub.add_parser("oracle-check", help="dense-oracle vs phase-space comparison")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle_check, out_name="oracle_check_d{d}_n{n}.json")

    p = sub.add_parser("gaussian", help="Gaussian-state routines")
    p.set_defaults(func=cmd_gaussian, out_name="gaussian_{gaussian_cmd}.json")
    gs = p.add_subparsers(dest="gaussian_cmd", required=True)
    g = gs.add_parser("verify")
    g.add_argument("--n", type=int, default=3)
    g.add_argument("--trials", type=int, default=100)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out")
    g = gs.add_parser("mc")
    g.add_argument("--fixture", default="vacuum")
    g.add_argument("--samples", type=int, default=10**6)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out")
    g = gs.add_parser("ingleton-search")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--iters", type=int, default=20000)
    g.add_argument("--out")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:  # the one place an error becomes an error: line, and an output file is written
        for attr in ("d", "n", "trials", "samples", "iters"):
            if getattr(args, attr, 1) is not None and getattr(args, attr, 1) < 1:
                raise ValueError(f"--{attr} must be positive")
        if getattr(args, "seed", 0) < 0:
            raise ValueError("--seed must be non-negative")
        if getattr(args, "d", 2) < 2:
            raise ValueError("--d must be >= 2")
        name = args.out_name.format(**vars(args))
        out = args.out = args.out or os.path.join(os.environ.get(OUTPUT_DIR_ENV, "."), name)
        target = os.path.realpath(out)  # a symlinked --out is written through
        if os.path.exists(target) and not os.path.isfile(target):
            raise ValueError(f"--out {out} is not a regular file")
        tmp = os.path.join(os.path.dirname(target), f".{os.path.basename(target)}.{os.getpid()}.tmp")
        try:  # before the work, so that a bad --out fails at once
            fh = open(tmp, "x")
        except OSError as exc:
            exc.filename = out  # name the path the user gave, not the temporary
            raise
        try:  # the target is replaced only by a finished output, and no temporary outlives the run
            with fh:
                rc = args.func(args, fh)
            os.replace(tmp, target)
        except BaseException:
            os.remove(tmp)
            raise
        print(out)
        return rc
    except (OSError, ValueError, CheckFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, CheckFailed) else 2


if __name__ == "__main__":
    sys.exit(main())
