#!/usr/bin/env python3
"""Extended reproduction run: the class counts of the exotic relation at
the given lengths (8 and 9 by default) and the Schur-Q positivity scan of
the peak-character images at the longest.

Writes one JSON artifact for all stages.  With --cache-dir, every stage
records each content it finishes there, so an interrupted run resumes
where it stopped when started again with the same --cache-dir.  The class
counts share their cache files with ``wordbialg classes --extended``.

    python3 scripts/reproduce_extended.py --jobs 8 --out extended.json \\
        --cache-dir .extended-cache
    python3 scripts/reproduce_extended.py 8 9 10 --jobs 2   # d_10 too
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
# the known answers: packed classes, and classes not Schur-Q-positive
EXPECTED_CLASSES = {8: 6465, 9: 27021, 10: 117000}
EXPECTED_EXCEPTIONS = {8: 2, 9: 35, 10: 204}


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
    parser.add_argument("lengths", nargs="*", type=int, default=[8, 9],
                        help="lengths to count, of 8, 9 and 10; the longest "
                        "is also scanned")
    parser.add_argument("--jobs", type=int, default=multiprocessing.cpu_count())
    parser.add_argument("--out", default="extended_results.json")
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--skip-scan", action="store_true")
    args = parser.parse_args()
    if not set(args.lengths) <= EXPECTED_CLASSES.keys():
        parser.error(f"lengths are among {sorted(EXPECTED_CLASSES)}")

    results = {}
    for length in sorted(set(args.lengths)):
        expected = EXPECTED_CLASSES[length]
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
        length = max(args.lengths)
        expected = EXPECTED_EXCEPTIONS[length]
        t0 = time.time()
        rep = scan_stage(length, args.jobs, args.cache_dir)
        stage = results[f"q_scan_{length}"] = {
            "total_classes": rep["total_classes"],
            "symmetric": rep["symmetric"],
            "non_q_positive": rep["non_positive"],
            "non_q_positive_count": len(rep["non_positive"]),
            "expected_count": expected,
            "match": len(rep["non_positive"]) == expected,
            "seconds": round(time.time() - t0, 1),
        }
        print(
            f"length-{length} scan: {len(rep['non_positive'])} non-Q-positive of "
            f"{rep['total_classes']} classes (expected {expected}), "
            f"{stage['seconds']}s",
            flush=True,
        )

    Path(args.out).write_text(json.dumps(results, indent=2, sort_keys=True))
    print(f"wrote {args.out}")
    return 0 if all(v.get("match") for v in results.values()) else 2


if __name__ == "__main__":
    sys.exit(main())
