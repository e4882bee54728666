#!/usr/bin/env python3
"""Extended reproduction run: class counts at lengths 8 and 9 and the
length-9 Schur-Q positivity scan of the exotic relation.

Writes one JSON artifact for all stages.  With --cache-dir, every stage
records each content it finishes there, so an interrupted run resumes
where it stopped when started again with the same --cache-dir.  The class
counts share their cache files with ``wordbialg classes --extended``.

    python3 scripts/reproduce_extended.py --jobs 8 --out extended.json \\
        --cache-dir .extended-cache
"""

import argparse
import json
import multiprocessing
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wordbialg.cli import ContentCache, classes_cache
from wordbialg.scans import packed_class_count, positivity_scan_homogeneous

RELATION = "exotic-knuth"
CHARACTER = ("gt", "le")


def count_stage(length: int, jobs: int, cache_dir: str | None) -> tuple[int, int]:
    """(packed classes, packed words) at one length."""
    cache = classes_cache(cache_dir, RELATION, length)
    return packed_class_count(RELATION, length, jobs, cache)


def scan_stage(length: int, jobs: int, cache_dir: str | None) -> dict:
    """The Schur-Q positivity scan of the peak-character images at one length."""
    signature = {
        "command": "reproduce-extended-scan",
        "relation": RELATION,
        "character": "-".join(CHARACTER),
        "bases": ["Q"],
        "length": length,
    }
    cache = ContentCache(cache_dir, signature)
    return positivity_scan_homogeneous(RELATION, length, CHARACTER, ("Q",), jobs, cache)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--jobs", type=int, default=multiprocessing.cpu_count())
    parser.add_argument("--out", default="extended_results.json")
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--skip-scan", action="store_true")
    args = parser.parse_args()

    results = {}
    for length, expected in [(8, 6465), (9, 27021)]:
        t0 = time.time()
        classes, words = count_stage(length, args.jobs, args.cache_dir)
        results[f"d_{length}"] = {
            "classes": classes,
            "packed_words": words,
            "expected": expected,
            "match": classes == expected,
            "seconds": round(time.time() - t0, 1),
        }
        print(f"d_{length} = {classes} (expected {expected}), "
              f"{results[f'd_{length}']['seconds']}s", flush=True)

    if not args.skip_scan:
        t0 = time.time()
        rep = scan_stage(9, args.jobs, args.cache_dir)
        results["q_scan_9"] = {
            "total_classes": rep["total_classes"],
            "symmetric": rep["symmetric"],
            "non_q_positive": rep["non_positive"],
            "non_q_positive_count": len(rep["non_positive"]),
            "expected_count": 35,
            "match": len(rep["non_positive"]) == 35,
            "seconds": round(time.time() - t0, 1),
        }
        print(
            f"length-9 scan: {len(rep['non_positive'])} non-Q-positive of "
            f"{rep['total_classes']} classes (expected 35), "
            f"{results['q_scan_9']['seconds']}s",
            flush=True,
        )

    Path(args.out).write_text(json.dumps(results, indent=2, sort_keys=True))
    print(f"wrote {args.out}")
    return 0 if all(v.get("match") for v in results.values()) else 2


if __name__ == "__main__":
    sys.exit(main())
