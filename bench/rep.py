"""One repetition of one workload, in a fresh interpreter.

    python3 bench/rep.py --workload NAME --seed N --mode MODE \
        --size full|tiny --spawned-at MONOTONIC [--cross-check REP ...]

Modes: ``timed`` (the measured call), ``serial`` (the same work in one
process), ``traced`` (serial, with every layer behind a span), ``setup``
(stop right before the first library call) and ``cross-check``.

Why a fresh interpreter per repetition: the library keeps module-level
``lru_cache``s (``hecke_words``, ``kostka``, ``marked_shifted_count``,
``_schur_q_in_m``, ``_rearrangements``) that would stay warm from one
repetition to the next in one process, and ``scans._pool`` forks workers
that inherit whatever the parent has already cached.  Each repetition
therefore starts a new interpreter that makes no library call before the
timed one, so every repetition pays what a user's first call pays.

Prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _tree_usage() -> tuple[float, float]:
    """(CPU seconds, peak resident MB) of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss) / 1024.0  # Linux: KiB


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("timed", "serial", "traced", "setup", "cross-check"))
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--cross-check", nargs="*", default=[])
    args = parser.parse_args()

    if not (SRC / "wordbialg" / "__init__.py").is_file():
        print(f"library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import wordbialg
    from wordbialg import bialgebra, characters, qsym, relations, scans, words

    if Path(wordbialg.__file__).resolve().parent != SRC / "wordbialg":
        print(f"imported {wordbialg.__file__}, not the checkout's", file=sys.stderr)
        return 2
    import tracing
    import workloads

    lib = SimpleNamespace(words=words, relations=relations, scans=scans,
                          characters=characters, qsym=qsym, bialgebra=bialgebra)
    params = workloads.PARAMS[args.workload][args.size]
    rng = random.Random(args.seed)
    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracing.install(tracer, lib)
    out: dict = {"mode": args.mode}

    if args.mode == "cross-check":
        out["answer"] = workloads.exotic_cross_check(lib, params, args.cross_check)
    else:
        run = workloads.WORKLOADS[args.workload]
        cpu0, _ = _tree_usage()
        t0 = time.perf_counter()
        out["setup_s"] = time.monotonic() - args.spawned_at
        if args.mode != "setup":
            if tracer is not None:
                tracer.start()
            answer, work = run(lib, params, rng, args.mode)
            if tracer is not None:
                tracer.stop()
            wall = time.perf_counter() - t0
            cpu1, peak = _tree_usage()
            out.update(wall_s=wall, cpu_s=cpu1 - cpu0, peak_rss_mb=peak,
                       answer=answer, work=work)
            if tracer is not None:
                out["trace"] = tracer.summary()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
