"""The benchmark's workloads: inputs, the timed work, and the answers.

Each workload is a function ``(lib, params, rng, mode) -> (answer, work)``
that drives the public API of ``wordbialg`` through the module objects in
``lib``; the traced run patches those modules (see ``tracing.py``), so
the same code is timed with and without spans.

``answer`` holds the known-answer facts the gate compares with
``expected.json``; ``work`` holds work counts that must repeat exactly
from one repetition to the next.  The seed only permutes the order of
inputs, never the set of inputs, so every answer is seed-independent.

Sizes: ``full`` is what the benchmark measures; ``tiny`` runs the same
code paths in well under a second and serves the self-test.
"""

from __future__ import annotations

PEAK = ("gt", "le")

PARAMS = {
    "exotic-scan": {
        "full": {"length": 8, "jobs": 2},
        "tiny": {"length": 5, "jobs": 2},
    },
    "kknuth-images": {
        "full": {"seed_len": 4, "degree": 7, "headroom": 2},
        "tiny": {"seed_len": 2, "degree": 4, "headroom": 1},
    },
    "verify-table": {
        "full": {
            "alphabet": 3, "max_len": 6,
            "anchored": [4, 3], "duality": [4, 3], "packed": 5,
        },
        "tiny": {
            "alphabet": 3, "max_len": 3,
            "anchored": [2, 2], "duality": [2, 2], "packed": 2,
        },
    },
}

# The criterion-9 table: the seven built-ins plus the gap-2 pair-order
# relation, whose presentation is built by ``_presentation``.
TABLE_RELATIONS = (
    "commutation",
    "k-equivalence",
    "k-commutation",
    "knuth",
    "k-knuth",
    "hecke",
    "exotic-knuth",
    "coxeter-gap2",
)


def _word(w) -> str:
    return "".join(str(a) for a in w) or "()"


# --- exotic-scan ------------------------------------------------------------


def exotic_scan(lib, p, rng, mode):
    """Schur-Q positivity of every peak-character class image of the exotic
    Knuth relation at one length.  ``timed`` runs the library's content-
    sliced scan on its fork pool; ``serial`` and ``traced`` run the same
    scan in one process."""
    jobs = p["jobs"] if mode == "timed" else 1
    report = lib.scans.positivity_scan_homogeneous(
        "exotic-knuth", p["length"], PEAK, "Q", jobs=jobs
    )
    answer = {
        key: report[key]
        for key in ("total_classes", "symmetric", "positive",
                    "non_symmetric", "non_positive")
    }
    return answer, {"classes": report["total_classes"]}


def exotic_cross_check(lib, p, representatives):
    """Recompute each pinned exception through the generic path: BFS class,
    summed peak-character image, Schur-Q solve."""
    n = p["length"]
    pres = lib.relations.builtin_relation("exotic-knuth")
    out = {}
    for rep in representatives:
        members = lib.relations.bfs_class(pres, tuple(int(a) for a in rep), n)
        image = lib.characters.class_image(members, PEAK, n)
        symmetric = lib.qsym.is_symmetric(image)
        try:
            positive = lib.qsym.schur_q_positive(image).nonnegative
        except ValueError:  # outside the Schur-Q span: not Q-positive
            positive = False
        out[rep] = {"size": len(members), "symmetric": symmetric,
                    "q_positive": positive}
    return out


# --- kknuth-images -----------------------------------------------------------


def kknuth_images(lib, p, rng, mode):
    """One criterion-8b check per K-Knuth class, seeded by every packed word
    up to ``seed_len``: the class is headroom-stable, and its weakly-
    increasing image equals the sum of the stable families J_lambda over
    its increasing tableaux and is symmetric and Schur-positive."""
    words, relations = lib.words, lib.relations
    degree = p["degree"]
    limit = degree + p["headroom"]
    seeds = [w for n in range(p["seed_len"] + 1) for w in words.packed_words(n)]
    rng.shuffle(seeds)
    pres = relations.builtin_relation("k-knuth")
    seen: set = set()
    classes = {}
    work = {"classes": 0, "bfs_words": 0, "image_words": 0, "families": 0}
    for seed in seeds:
        if seed in seen:
            continue
        members = relations.bfs_class(pres, seed, limit)
        bigger = relations.bfs_class(pres, seed, limit + 1)
        stable = [w for w in members if len(w) <= degree] == [
            w for w in bigger if len(w) <= degree
        ]
        image = lib.characters.class_image(members, "le", degree)
        expected = lib.qsym.qs_zero(degree)
        for w in members:
            if len(w) <= degree and words.is_increasing_tableau(w):
                family = lib.characters.grassmannian_stable_family(
                    words.tableau_shape(w), degree
                )
                expected = expected + family["J"]
                work["families"] += 1
        symmetric = lib.qsym.is_symmetric(image)
        positive = lib.qsym.schur_positive(image).nonnegative
        seen.update(members)
        classes[_word(members[0])] = {
            "size": len(members),
            "stable": stable,
            "image_is_sum_of_J": image == expected,
            "symmetric": symmetric,
            "schur_positive": positive,
        }
        work["classes"] += 1
        work["bfs_words"] += len(members) + len(bigger)
        work["image_words"] += sum(1 for w in members if len(w) <= degree)
    answer = {
        "classes": len(classes),
        "members": sum(c["size"] for c in classes.values()),
        **{f"class {rep}": facts for rep, facts in sorted(classes.items())},
    }
    return answer, work


# --- verify-table ------------------------------------------------------------


def _presentation(lib, name):
    if name == "coxeter-gap2":
        return lib.relations.coxeter_relation(lib.relations.gap_braid_m(2))
    return lib.relations.builtin_relation(name)


def verify_table(lib, p, rng, mode):
    """The criterion-9 classifier table followed by the anchored axioms,
    the duality pairing and the packed axioms, in seed-permuted order."""
    relations, bialgebra = lib.relations, lib.bialgebra
    tasks = [("relation", name) for name in TABLE_RELATIONS]
    tasks += [("anchored", None), ("duality", None), ("packed", None)]
    rng.shuffle(tasks)
    answer = {}
    work = {"universe_words": 0, "axiom_cases": 0, "duality_cases": 0}
    for kind, name in tasks:
        if kind == "relation":
            inst = relations.close(_presentation(lib, name), p["alphabet"], p["max_len"])
            work["universe_words"] += len(inst.words)
            palg = relations.check_p_algebraic(inst)
            row = {
                "headroom_stable": relations.headroom_stability(inst)["stable"],
                "homogeneous": relations.is_homogeneous_observed(inst),
                "algebraic": relations.check_algebraic(inst)["status"],
                "uniformly_algebraic":
                    relations.check_uniformly_algebraic(inst)["status"],
                "p_algebraic": palg["status"],
                "finite_type": relations.is_finite_type_bounded(inst)["stable"],
            }
            witness = palg["conditions"][0].get("witness")
            if witness is not None:
                row["witness"] = {
                    "class_letters": sorted(set(witness["class"])),
                    "pairs": sorted(
                        [list(map(_word, witness["pair"])),
                         list(map(_word, witness["other_pair"]))]
                    ),
                    "counts": sorted(witness["counts"]),
                }
            answer[f"relation {name}"] = row
        elif kind == "duality":
            report = bialgebra.duality_pairing_check(*p["duality"])
            work["duality_cases"] += report["checked"]
            answer["duality"] = [report["status"], report["checked"]]
        else:
            bounds = p["anchored"] if kind == "anchored" else [p["packed"]]
            for report in bialgebra.verify_bialgebra_axioms(kind, *bounds):
                work["axiom_cases"] += report["checked"]
                answer[f"{kind} {report['axiom']}"] = [
                    report["status"], report["checked"]
                ]
    return answer, work


WORKLOADS = {
    "exotic-scan": exotic_scan,
    "kknuth-images": kknuth_images,
    "verify-table": verify_table,
}


def gate(answer: dict, expected: dict) -> list[tuple[str, bool]]:
    """One known-answer check per expected key; a missing or extra key fails."""
    checks = [(key, answer.get(key) == want) for key, want in expected.items()]
    checks += [(key, False) for key in answer if key not in expected]
    return checks
