"""Run one entrokit CLI call under cProfile, for the traced CLI workloads.

    python3 perfbench/profcli.py OUT.prof <entrokit arguments...>

The package import that every CLI call pays is timed without the profiler,
because cProfile's caller records cannot follow the import machinery's
recursion to the module that asked for an import; the seconds are written to
OUT.prof.import_s.  Exits with the CLI's exit code.
"""

import cProfile
import sys
import time


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    from entrokit.cli import main as cli_main

    import_s = time.perf_counter() - t0
    prof = cProfile.Profile()
    prof.enable()
    rc = cli_main(argv)
    prof.disable()
    prof.dump_stats(out)
    with open(out + ".import_s", "w") as fh:
        fh.write(repr(import_s))
    return rc


if __name__ == "__main__":
    sys.exit(main())
