"""Output checks that do not trust the package under test.

Nothing here imports entrokit.  Entropies are compared in exact integer
arithmetic from subgroup orders, Gaussian results are recertified with numpy
alone, and corpus files are read as plain JSON.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from gen import symplectic_form

# Closed-form counts of isotropic subgroups of Z_d^{2n}, keyed by (d, n).
SUBGROUP_COUNTS = {(2, 3): 514, (4, 2): 517, (6, 2): 2511, (3, 2): 81}

# SHA-256 of the sorted canonical corpus records (generators and exact
# orders, no index), so a correct enumerator may emit records in any order.
CORPUS_DIGESTS = {
    (2, 3): "a4e8909b45523dfd23593effaec284e88ed249a1ce8c57a92ef5521660e9b420",
    (4, 2): "4120569c431828dbe2b3fade72d3d915a86486b9c63fd0e20d059e21d88c8e62",
    (6, 2): "1610b61f468b1dda6d71daaa10a4327707c194a9cebebb38c207c99b9da31044",
}

ORACLE_TOL = {"projector": 1e-9, "entropy": 1e-8, "wigner": 1e-10}


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def holds_exact(nu: dict[int, int], orders: dict[int, int], d: int) -> bool:
    """sum_I nu_I S_I >= 0 for quantum entropies S_I = |I| - log_d o_I, that is
    d^(sum nu_I |I|) * prod_{nu<0} o^-nu >= prod_{nu>0} o^nu."""
    lhs = rhs = 1
    shift = 0
    for mask, c in nu.items():
        o = orders[mask]
        shift += c * popcount(mask)
        if c < 0:
            lhs *= o ** (-c)
        elif c > 0:
            rhs *= o**c
    if shift >= 0:
        lhs *= d**shift
    else:
        rhs *= d ** (-shift)
    return lhs >= rhs


def monotonicity_violations(orders: dict[int, int], n: int, d: int) -> int:
    """Violated instances of S_{I|J} >= S_I over nonempty I, J with J not inside I."""
    full = 1 << n
    count = 0
    for i in range(1, full):
        for j in range(1, full):
            u = i | j
            if u != i and d ** (popcount(u) - popcount(i)) * orders[i] < orders[u]:
                count += 1
    return count


def check_entropy_orders(orders: dict[int, int], n: int, d: int, group_order: int) -> list[str]:
    """Invariants every quantum order vector of an isotropic M must satisfy."""
    full = (1 << n) - 1
    if set(orders) != set(range(1, full + 1)):
        return ["entropy vector does not cover every nonempty subset"]
    errors = []
    for mask, o in orders.items():
        if not 1 <= o <= d ** popcount(mask) or d ** (2 * popcount(mask)) % o:
            errors.append(f"order {o} impossible on subset {mask}")
    if orders[full] != group_order:
        errors.append(f"|M_full| = {orders[full]} != |M| = {group_order}")
    if group_order == d**n:
        # pure state: S_I = S_complement exactly
        for mask in range(1, full):
            rest = full ^ mask
            if d ** popcount(mask) * orders[rest] != d ** popcount(rest) * orders[mask]:
                errors.append(f"pure state with S_{mask} != S_{rest}")
                break
    return errors


def _record_key(rec: dict) -> str:
    def rows(kind: str) -> list:
        return sorted([e["mask"], e["size"], e["order"]] for e in rec[kind]["entries"])

    return json.dumps([rec["generators"], rows("quantum"), rows("classical")], separators=(",", ":"))


def check_corpus(path: str, d: int, n: int) -> tuple[list[dict[int, int]], list[str]]:
    """Validate a corpus as written; return each record's quantum orders and errors."""
    errors: list[str] = []
    orders_all: list[dict[int, int]] = []
    keys = []
    log_d = math.log(d)
    masks = list(range(1, 1 << n))
    try:
        with open(path) as fh:
            records = [json.loads(line) for line in fh if line.strip()]
    except (OSError, ValueError) as exc:
        return [], [f"{path}: unreadable corpus ({exc})"]
    for idx, rec in enumerate(records):
        try:
            if (rec["index"], rec["d"], rec["n"]) != (idx, d, n):
                errors.append(f"record {idx}: bad index or shape")
            gens = rec["generators"]
            for x in range(len(gens)):
                if len(gens[x]) != 2 * n:
                    errors.append(f"record {idx}: generator of wrong length")
                    break
                if any(symplectic_form(gens[x], gens[y], d) for y in range(x, len(gens))):
                    errors.append(f"record {idx}: generators do not commute")
                    break
            q = {e["mask"]: e["order"] for e in rec["quantum"]["entries"]}
            c = {e["mask"]: e["order"] for e in rec["classical"]["entries"]}
            if sorted(q) != masks or sorted(c) != masks:
                errors.append(f"record {idx}: missing subsets")
                continue
            for mask in masks:
                if q[mask] * c[mask] != d ** (2 * popcount(mask)):
                    errors.append(f"record {idx}: order identity fails on subset {mask}")
                    break
            for e in rec["quantum"]["entries"]:
                exact = popcount(e["mask"]) - math.log(e["order"]) / log_d
                if e["size"] != popcount(e["mask"]) or abs(e["entropy_log_d"] - exact) > 1e-9:
                    errors.append(f"record {idx}: entropy value disagrees with its order")
                    break
            errors += [f"record {idx}: {e}" for e in check_entropy_orders(q, n, d, q[masks[-1]])]
            orders_all.append(q)
            keys.append(_record_key(rec))
        except (KeyError, TypeError) as exc:
            errors.append(f"record {idx}: malformed ({exc!r})")
    expected = SUBGROUP_COUNTS[(d, n)]
    if len(records) != expected:
        errors.append(f"{len(records)} subgroups at d={d}, n={n}, expected {expected}")
    if len(set(keys)) != len(keys):
        errors.append("duplicate subgroups in corpus")
    digest = hashlib.sha256("\n".join(sorted(keys)).encode()).hexdigest()
    if (d, n) in CORPUS_DIGESTS and digest != CORPUS_DIGESTS[(d, n)]:
        errors.append(f"corpus digest {digest} differs from the reference")
    return orders_all, errors


def check_report(path: str, states: int, violations: int) -> list[str]:
    """A verify report must cover every state and list exactly ``violations``."""
    try:
        with open(path) as fh:
            rep = json.loads(fh.read())
    except (OSError, ValueError) as exc:
        return [f"{path}: unreadable report ({exc})"]
    errors = []
    if rep.get("states_checked") != states:
        errors.append(f"report covers {rep.get('states_checked')} states, expected {states}")
    listed = rep.get("violations", [])
    if len(listed) != violations:
        errors.append(f"report lists {len(listed)} violations, recount gives {violations}")
    if rep.get("passed") != (violations == 0):
        errors.append("report verdict disagrees with the recount")
    if any(not 0 <= v.get("state", -1) < states for v in listed):
        errors.append("violation names a state outside the corpus")
    return errors


def check_oracle_report(path: str, d: int, n: int) -> list[str]:
    try:
        with open(path) as fh:
            rep = json.loads(fh.read())
    except (OSError, ValueError) as exc:
        return [f"{path}: unreadable report ({exc})"]
    errors = []
    if rep.get("states") != SUBGROUP_COUNTS[(d, n)]:
        errors.append(f"oracle-check covered {rep.get('states')} states at d={d}, n={n}")
    for key, tol in ORACLE_TOL.items():
        err = rep.get(key)
        if not isinstance(err, (int, float)) or not 0 <= err < tol:
            errors.append(f"oracle-check {key} error {err} not below {tol}")
    if rep.get("passed") is not True:
        errors.append("oracle-check did not pass")
    return errors


# --- Gaussian ---------------------------------------------------------------

SIGMA_VAC = 0.5


def omega(n: int) -> np.ndarray:
    out = np.zeros((2 * n, 2 * n))
    for i in range(n):
        out[2 * i, 2 * i + 1], out[2 * i + 1, 2 * i] = 1.0, -1.0
    return out


def _renyi2(sigma: np.ndarray, modes: list[int]) -> float:
    idx = [c for i in modes for c in (2 * i, 2 * i + 1)]
    sign, logdet = np.linalg.slogdet(sigma[np.ix_(idx, idx)] / SIGMA_VAC)
    if sign <= 0:
        return math.nan
    return 0.5 * logdet


def ingleton_certificate(sigma: np.ndarray) -> tuple[float, float]:
    """(Ingleton value, physicality margin) of a 4-mode covariance matrix.

    Ingleton: I(A:B|C) + I(A:B|D) + I(C:D) - I(A:B) on Renyi-2 entropies with
    A, B, C, D the modes 0..3; margin: min eigenvalue of Sigma + i/2 Omega.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (8, 8) or not np.allclose(sigma, sigma.T, rtol=0, atol=1e-12):
        return math.nan, math.nan
    def S(*modes: int) -> float:
        return _renyi2(sigma, list(modes))

    a, b, c, d = 0, 1, 2, 3
    value = (
        (S(a, c) + S(b, c) - S(c) - S(a, b, c))
        + (S(a, d) + S(b, d) - S(d) - S(a, b, d))
        + (S(c) + S(d) - S(c, d))
        - (S(a) + S(b) - S(a, b))
    )
    margin = float(np.linalg.eigvalsh(sigma + 1j * SIGMA_VAC * omega(4)).min())
    return float(value), margin


def renyi2_classical_closed_form(sigma: np.ndarray) -> float:
    """H_2 of a Gaussian Wigner marginal: (1/2) log det Sigma + k log(4 pi), nats."""
    sign, logdet = np.linalg.slogdet(sigma)
    return 0.5 * logdet + sigma.shape[0] // 2 * math.log(4 * math.pi)


def mc_within_bounds(est: float, se: float, exact: float) -> bool:
    return abs(est - exact) <= max(3 * se, 0.01 * abs(exact))
