"""Outside-in tracing of the library's layers for the traced benchmark run.

The traced run replaces public functions of ``wordbialg`` modules with
wrappers that open a span around each call.  Spans nest on one stack, and
every instant of the traced run is credited to exactly one span: the
innermost one open at that instant, or the root span ``unattributed``
when no library call is open.  Per-span self times therefore sum to the
traced wall time by construction; the time left in ``unattributed`` is
the benchmark's own loop and bookkeeping.

Spans are aggregated per name (calls, self time, inclusive time and the
names of the spans that caused them) in memory and handed back when the
run ends; nothing is written while the run is timed.  Work counts are
recorded at the same boundaries and are exact, unlike the timings.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

ROOT = "unattributed"


class Tracer:
    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.parents: dict[str, set[str]] = defaultdict(set)
        self.wall_s = 0.0
        self._stack: list[list] = []  # [name, start, resumed_at]

    def start(self) -> None:
        now = perf_counter()
        self._stack[:] = [[ROOT, now, now]]

    def stop(self) -> None:
        now = perf_counter()
        if len(self._stack) != 1:
            raise RuntimeError(f"unbalanced spans: {[s[0] for s in self._stack]}")
        name, start, resumed = self._stack.pop()
        self.self_s[name] += now - resumed
        self.wall_s = now - start

    def enter(self, name: str) -> None:
        now = perf_counter()
        top = self._stack[-1]
        self.self_s[top[0]] += now - top[2]
        self.parents[name].add(top[0])
        self._stack.append([name, now, now])

    def exit(self) -> None:
        now = perf_counter()
        name, start, resumed = self._stack.pop()
        self.self_s[name] += now - resumed
        self.total_s[name] += now - start
        self.calls[name] += 1
        self._stack[-1][2] = now

    def leaf(self, name: str, fn, count_key: str):
        """A span around ``fn`` that opens no other span: the hot-path form
        of ``enter``/``exit``.  Its duration is credited to ``name`` and
        taken out of the enclosing span's self time by moving that span's
        resume point forward."""
        stack, self_s, total_s = self._stack, self.self_s, self.total_s
        calls, counts, parents = self.calls, self.counts, self.parents[name]

        def wrapper(arg):
            t0 = perf_counter()
            out = fn(arg)
            dt = perf_counter() - t0
            top = stack[-1]
            top[2] += dt
            parents.add(top[0])
            self_s[name] += dt
            total_s[name] += dt
            calls[name] += 1
            counts[count_key] += len(out)
            return out

        return wrapper

    def summary(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "spans": {
                name: {
                    "calls": self.calls[name],
                    "self_s": self.self_s[name],
                    "total_s": self.total_s[name] if name != ROOT else self.wall_s,
                    "parents": sorted(self.parents.get(name, ())),
                }
                for name in sorted(self.self_s)
            },
            "counts": dict(sorted(self.counts.items())),
        }


def _span(tr: Tracer, name: str, fn, after=None):
    """Wrap ``fn`` in a span; ``after(result, args)`` records work counts."""

    def wrapper(*args, **kwargs):
        tr.enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tr.exit()
        if after is not None:
            after(out, args)
        return out

    return wrapper


def install(tr: Tracer, lib) -> None:
    """Patch the public entry points of every traced layer.

    Library code looks its collaborators up as module globals at call time,
    so patching a module attribute also traces the calls one layer makes
    into another (``close`` calling ``all_words``, ``headroom_stability``
    calling ``close``, ``content_components`` calling
    ``multiset_permutations`` and so on).  A name one module imports from
    another is a global of the importing module, so it is patched there
    too: ``scans`` binds ``multiset_permutations`` and ``compile_neighbors``
    by ``from ... import``, and its serial scan (``_init_worker``,
    ``_scan_content``) reaches every traced piece through ``scans``
    globals or through ``ScanTables``, whose ``class_verdict`` is patched
    on the class."""
    words, relations, scans = lib.words, lib.relations, lib.scans
    characters, qsym, bialgebra = lib.characters, lib.qsym, lib.bialgebra
    counts = tr.counts

    def count(key):
        def after(out, args):
            counts[key] += len(out)

        return after

    # words: enumeration of word sets and the tableau predicates
    def listing(fn):
        return lambda *a: list(fn(*a))

    scans.multiset_permutations = _span(
        tr, "words.enumerate", listing(scans.multiset_permutations),
        count("words.enumerated"),
    )
    relations.all_words = _span(
        tr, "words.enumerate", listing(relations.all_words),
        count("words.enumerated"),
    )
    words.packed_words = _span(
        tr, "words.enumerate", listing(words.packed_words),
        count("words.enumerated"),
    )
    words.tableau_shape = _span(tr, "words.tableau", words.tableau_shape)
    words.is_increasing_tableau = _span(
        tr, "words.tableau", words.is_increasing_tableau
    )

    # relations: rewrite generation, closures and classifiers
    compile_neighbors = relations.compile_neighbors

    def traced_compile(*args):
        tr.enter("relations.compile")
        try:
            fn = compile_neighbors(*args)
        finally:
            tr.exit()
        return tr.leaf("relations.neighbors", fn, "relations.candidates")

    relations.compile_neighbors = traced_compile
    scans.compile_neighbors = traced_compile

    def after_bfs(out, args):
        counts["relations.bfs_words"] += len(out)
        counts["relations.discovered"] += len(out) - 1

    def after_close(inst, args):
        counts["relations.universe_words"] += len(inst.words)
        counts["relations.discovered"] += len(inst.words) - len(set(inst.class_ids))

    relations.bfs_class = _span(tr, "relations.bfs", relations.bfs_class, after_bfs)
    relations.close = _span(tr, "relations.close", relations.close, after_close)
    for attr, name in (
        ("headroom_stability", "relations.stability"),
        ("is_homogeneous_observed", "relations.homogeneous"),
        ("check_algebraic", "relations.algebraic"),
        ("check_uniformly_algebraic", "relations.uniform"),
        ("check_p_algebraic", "relations.p_algebraic"),
        ("is_finite_type_bounded", "relations.finite_type"),
    ):
        setattr(relations, attr, _span(tr, name, getattr(relations, attr)))

    # scans: flood fill, shared tables and the class verdict
    content_components = scans.content_components

    def traced_components(content, neighbors):
        it = content_components(content, neighbors)
        while True:
            tr.enter("scans.components")
            try:
                component = next(it)
            except StopIteration:
                return
            finally:
                tr.exit()
            counts["scans.classes"] += 1
            counts["relations.discovered"] += len(component) - 1
            yield component

    scans.content_components = traced_components
    scans.packed_contents = _span(tr, "scans.contents", scans.packed_contents)
    scan_tables = scans.ScanTables
    scans.ScanTables = _span(tr, "scans.tables", scan_tables)
    scan_tables.class_verdict = _span(
        tr, "scans.verdict", scan_tables.class_verdict
    )

    # characters: class images and stable families
    families: set = set()

    def after_family(out, args):
        counts["characters.stable_family_calls"] += 1
        families.add(tuple(args))
        counts["characters.stable_family_distinct"] = len(families)

    characters.class_image = _span(
        tr, "characters.class_image", characters.class_image,
        lambda out, args: counts.update(
            {"characters.image_words": sum(1 for w in args[0] if len(w) <= args[2])}
        ),
    )
    characters.grassmannian_stable_family = _span(
        tr, "characters.stable_family", characters.grassmannian_stable_family,
        after_family,
    )

    # qsym: symmetry test and triangular solves
    def after_solve(out, args):
        counts["qsym.solves"] += 1

    qsym.is_symmetric = _span(tr, "qsym.symmetric", qsym.is_symmetric)
    qsym.schur_positive = _span(tr, "qsym.solve", qsym.schur_positive, after_solve)
    qsym.schur_q_positive = _span(
        tr, "qsym.solve", qsym.schur_q_positive, after_solve
    )

    # bialgebra: exhaustive axiom and duality checks
    bialgebra.verify_bialgebra_axioms = _span(
        tr, "bialgebra.axioms", bialgebra.verify_bialgebra_axioms,
        lambda reports, args: counts.update(
            {"bialgebra.axiom_cases": sum(r["checked"] for r in reports)}
        ),
    )
    bialgebra.duality_pairing_check = _span(
        tr, "bialgebra.duality", bialgebra.duality_pairing_check,
        lambda report, args: counts.update(
            {"bialgebra.duality_cases": report["checked"]}
        ),
    )
