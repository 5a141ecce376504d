"""One cold pass: a fresh interpreter runs ``jumploci.cli.main`` once.

Usage: python3 cold_pass.py SRC TIMES SPANS [CLI_ARG ...]

SRC is the directory holding the ``jumploci`` package.  The pass writes
to TIMES a JSON object with the CLOCK_MONOTONIC instants at which
``jumploci.cli`` finished importing and at which ``main`` returned (after
the report was written), and the pass's peak resident set in KiB.  SPANS is ``-`` for an untraced pass, or the
file that receives the traced spans.  With no CLI arguments the pass only
imports, which measures set-up.

Exit codes: the CLI's own, or 3 when a result cache is already warm on
entry (a warm discovery cache turns a multi-second pass into ~0 s, while
every CLI user pays the cold cost).
"""

import json
import sys
import time


def peak_rss_kib():
    """VmHWM: the peak resident set of this process image since exec.

    The ru_maxrss of getrusage or wait4 would also count the peak of the
    spawning process, whose memory the child shares until exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    src, times_path, spans_path = sys.argv[1:4]
    cli_args = sys.argv[4:]
    sys.path.insert(0, src)
    import jumploci.cli as cli
    t_import = time.monotonic()

    from jumploci import discovery, twisted
    warm = [fn.__name__ for fn in (discovery._discovery_cached,
                                   twisted.presentation_data,
                                   twisted._modular_evaluator_cached)
            if fn.cache_info().currsize]
    if warm:
        print(f"cold_pass: caches warm on entry: {warm}", file=sys.stderr)
        return 3

    tracer = None
    if spans_path != "-":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install_jumploci()
    rc = cli.main(cli_args) if cli_args else 0
    t_done = time.monotonic()
    peak_kib = peak_rss_kib()
    if tracer is not None:
        tracer.dump(spans_path)
    with open(times_path, "w", encoding="utf-8") as fh:
        json.dump({"import": t_import, "done": t_done, "rc": rc,
                   "peak_rss_kib": peak_kib}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
