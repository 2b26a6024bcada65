"""Per-layer figures from the cProfile output of a traced pass.

A layer is one module of the package.  Its self time is the ``tottime`` of
the functions defined in it, plus the ``tottime`` of functions outside the
package (numpy, json, builtins) that it calls, charged through the pstats
caller records: a direct call from the package by the caller's share of the
callee's time, a call through further outside code by the callers' share of
cumulative time.  Time reaching no package function is ``other``.
"""

from __future__ import annotations

import os
import pstats

MODULES = ("zmod", "phasespace", "stabilizer", "inequalities", "oracle", "gaussian", "cli")
OTHER = "other"
TOTTIME, CUMTIME = 2, 3  # indices into a pstats caller record (nc, cc, tt, ct)


class Profile:
    def __init__(self, paths: list[str], pkg_dir: str):
        self.stats = pstats.Stats(*paths).stats
        self.pkg_dir = os.path.realpath(pkg_dir)
        self._module = {f: self._module_of(f) for f in self.stats}
        self._memo: dict = {}

    def _module_of(self, func) -> str | None:
        path = func[0]
        if os.path.dirname(os.path.realpath(path)) != self.pkg_dir:
            return None
        name = os.path.basename(path)[: -len(".py")]
        return name if name in MODULES else None

    def _spread(self, func, index: int, active: set) -> dict[str, float]:
        """Shares of ``func``'s time owed by each layer, through its callers."""
        callers = self.stats[func][4]
        if not callers:
            return {OTHER: 1.0}
        weights = {c: rec[index] for c, rec in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {c: rec[0] for c, rec in callers.items()}  # call counts
            total = sum(weights.values()) or 1
        dist: dict[str, float] = {}
        for c, w in weights.items():
            for m, f in self._owner(c, active).items():
                dist[m] = dist.get(m, 0.0) + f * w / total
        return dist

    def _owner(self, func, active: set) -> dict[str, float]:
        module = self._module.get(func)
        if module:
            return {module: 1.0}
        if func in self._memo:
            return self._memo[func]
        if func in active or func not in self.stats:
            return {OTHER: 1.0}  # recursion outside the package
        active.add(func)
        dist = self._spread(func, CUMTIME, active)
        active.discard(func)
        self._memo[func] = dist
        return dist

    def self_times(self) -> dict[str, float]:
        out = {m: 0.0 for m in MODULES + (OTHER,)}
        for func, (_, _, tt, _, _) in self.stats.items():
            module = self._module[func]
            if module:
                out[module] += tt
            else:
                for m, f in self._spread(func, TOTTIME, set()).items():
                    out[m] += tt * f
        return out

    def calls(self, module: str, name: str) -> tuple[int, float]:
        """(calls, cumulative seconds) of package function ``name`` in ``module``."""
        nc = ct = 0
        for func, (_, n, _, c, _) in self.stats.items():
            if func[2] == name and self._module[func] == module:
                nc, ct = nc + n, ct + c
        return nc, ct

    def outside_calls(self, path_part: str, name: str) -> int:
        return sum(
            s[1] for f, s in self.stats.items() if f[2] == name and path_part in f[0] and not self._module[f]
        )


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def per_layer(prof: Profile, traced_s: float, extra: dict) -> dict[str, float]:
    """Every per-layer metric; ``extra`` holds figures measured outside the profile."""
    selfs = prof.self_times()
    # the package import each CLI call pays, timed outside the profile
    selfs["cli"] += extra.get("cli.import_s", 0.0)
    hnf, hnf_t = prof.calls("zmod", "_hermite_rows")
    subgroups, _ = prof.calls("stabilizer", "__init__")
    extends, _ = prof.calls("zmod", "extend")
    ev, ev_t = prof.calls("stabilizer", "entropy_vector")
    restrict, restrict_t = prof.calls("phasespace", "restrict")
    project, project_t = prof.calls("phasespace", "project_phase")
    pairs, pairs_t = prof.calls("inequalities", "evaluate_exact")
    proj, proj_t = prof.calls("oracle", "projector")
    wig, wig_t = prof.calls("oracle", "wigner")
    spec, spec_t = prof.calls("oracle", "spectral_entropy")
    iv, iv_t = prof.calls("gaussian", "ingleton_value")
    mc, mc_t = prof.calls("gaussian", "mc_renyi2")
    candidates = extra.get("candidates", iv)
    out = {
        "zmod.self_s": selfs["zmod"],
        "zmod.hnf.calls": hnf,
        "zmod.hnf.us_per_call": _per(hnf_t, hnf, 1e6),
        "zmod.hnf.per_subgroup": _per(hnf, subgroups),
        "zmod.contains.calls": prof.calls("zmod", "contains")[0],
        # cProfile counts each resumption of a generator as a call
        "zmod.elements.yielded": prof.calls("zmod", "elements")[0],
        "stabilizer.self_s": selfs["stabilizer"],
        "stabilizer.subgroups": subgroups,
        "stabilizer.extend.attempts": extends,
        "stabilizer.extend.yield": _per(subgroups, extends),
        "stabilizer.entropy_vector.us_per_call": _per(ev_t, ev, 1e6),
        "phasespace.self_s": selfs["phasespace"],
        "phasespace.restrict.calls": restrict,
        "phasespace.restrict.us_per_call": _per(restrict_t, restrict, 1e6),
        "phasespace.project.calls": project,
        "phasespace.project.us_per_call": _per(project_t, project, 1e6),
        "phasespace.complement.calls": prof.calls("phasespace", "symplectic_complement")[0],
        "inequalities.self_s": selfs["inequalities"],
        "inequalities.pairs": pairs,
        "inequalities.evaluate_exact.us_per_call": _per(pairs_t, pairs, 1e6),
        "inequalities.evaluate_float_s": prof.calls("inequalities", "evaluate_float")[1],
        "inequalities.violations": extra.get("violations", 0),
        "oracle.self_s": selfs["oracle"],
        "oracle.projector.ms_per_call": _per(proj_t, proj, 1e3),
        "oracle.wigner.ms_per_call": _per(wig_t, wig, 1e3),
        "oracle.reduced_state.calls": prof.calls("oracle", "reduced_state")[0],
        "oracle.spectral_entropy.us_per_call": _per(spec_t, spec, 1e6),
        "oracle.weyl.calls": prof.calls("oracle", "weyl")[0] + prof.calls("oracle", "_weyl_periodic")[0],
        "gaussian.self_s": selfs["gaussian"],
        "gaussian.ingleton_value.us_per_call": _per(iv_t, iv, 1e6),
        "gaussian.eigvalsh.per_candidate": _per(prof.outside_calls("numpy", "eigvalsh"), candidates),
        "gaussian.candidates.rejected_frac": _per(extra.get("rejected", 0), candidates),
        "gaussian.mc.samples_per_s": _per(extra.get("mc_samples", 0), mc_t),
        "cli.self_s": selfs["cli"],
        "trace.wall_s": traced_s,
        "trace.attributed_frac": _per(sum(selfs[m] for m in MODULES), traced_s),
    }
    for key in (
        "cli.startup_s",
        "cli.enumerate.peak_rss_mb",
        "cli.verify.peak_rss_mb",
        "cli.corpus.bytes_written",
        "cli.corpus.bytes_read",
        "trace.overhead_frac",
        "src.lines",
    ):
        out[key] = extra.get(key, 0)
    return out
