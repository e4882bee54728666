"""Command-line surface: class listings, relation classification, morphism
images, bounded conjecture searches, and verification suites.

Outputs are deterministic for a fixed invocation; JSON is emitted with
sorted keys so repeated runs are byte-identical (wall-clock runtimes only
appear in text output).  Exit codes: 0 success, 2 property failure with a
witness, 3 resource cap exceeded or out of memory (a ``MemoryError``, or a
scan's forked child killed or failed before sending all its rows, as the
OOM killer would leave it), 4 usage or input error (a bad option, a
bound out of range, an unparsable word or character, an unknown relation,
a missing input), 141 standard output closed before all of it was written
(as ``| head`` does; 128 plus SIGPIPE, what a shell reports for a process
that signal ends); a cap, memory or input error prints one line to stderr
and no traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import re
import sys
import time
from collections import defaultdict

from . import bialgebra, characters, qsym, relations, scans
from .words import (
    all_words,
    eval_hecke_word,
    format_word,
    is_packed,
    parse_word,
    rsk_insert,
)

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 2
EXIT_RESOURCE_CAP = 3
EXIT_USAGE = 4
EXIT_BROKEN_PIPE = 141

EXTENDED_CLASS_LIMIT = 7  # lengths above this require --extended


def resolve_relation(spec: str) -> relations.RelationPresentation:
    """A builtin name, a ``coxeter-gapN`` shorthand, or a JSON file path."""
    if spec in relations.BUILTIN_NAMES:
        return relations.builtin_relation(spec)
    match = re.fullmatch(r"coxeter-gap(\d+)", spec)
    if match:
        gap = int(match.group(1))
        return relations.coxeter_relation(
            relations.gap_braid_m(gap), name=spec
        )
    if os.path.exists(spec):
        with open(spec) as fh:
            return relation_from_json(json.load(fh))
    raise ValueError(f"unknown relation {spec!r} (not a builtin, shorthand, or file)")


def relation_from_json(data) -> relations.RelationPresentation:
    """A presentation from its JSON form: a relation name, or an object with
    ``builtin``, ``coxeter_m`` or ``generators`` and ``union_of``.  Any
    other shape raises ``ValueError``."""
    if isinstance(data, str):
        return resolve_relation(data)
    _expect(isinstance(data, dict), "a relation is a name or an object", data)
    name = data.get("name", "custom")
    if data.get("builtin"):
        _expect(isinstance(data["builtin"], str), "builtin is a name", data)
        return relations.builtin_relation(data["builtin"])
    if data.get("coxeter_m") is not None:
        spec = data["coxeter_m"]
        _expect(isinstance(spec, dict), "coxeter_m is an object", spec)
        default = spec.get("default", 2)
        default = None if default == "inf" else default
        overrides = spec.get("overrides", ())
        _expect(
            isinstance(overrides, list)
            and all(isinstance(o, list) and len(o) == 3 for o in overrides),
            "coxeter_m overrides are [i, j, m] triples",
            overrides,
        )
        overrides = tuple(
            (i, j, (None if m == "inf" else m)) for i, j, m in overrides
        )
        return relations.coxeter_relation(
            relations.CoxeterM(default=default, overrides=overrides), name=name
        )
    union_of = data.get("union_of", [])
    _expect(isinstance(union_of, list), "union_of is a list", union_of)
    generators = data.get("generators", [])
    _expect(
        isinstance(generators, list)
        and all(
            isinstance(g, list) and len(g) == 2 and all(isinstance(w, str) for w in g)
            for g in generators
        ),
        "generators are pairs of words",
        generators,
    )
    return relations.RelationPresentation(
        name=name,
        generators=tuple((parse_word(v), parse_word(w)) for v, w in generators),
        union_of=tuple(relation_from_json(sub) for sub in union_of),
        uniform=bool(data.get("uniform", False)),
    )


def _expect(ok: bool, what: str, got) -> None:
    if not ok:
        raise ValueError(f"{what}, not {json.dumps(got)}")


def emit(payload: dict, fmt: str, runtime: float) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, default=_jsonable))
    elif fmt == "csv":
        rows = payload["rows"]
        header = list(rows[0])
        print(",".join(header))
        for row in rows:
            print(",".join(str(row[k]) for k in header))
    else:
        _emit_text(payload)
        print(f"runtime: {runtime:.2f}s")


def _jsonable(x):
    if isinstance(x, (set, frozenset)):
        return sorted(x)
    if isinstance(x, tuple):
        return list(x)
    raise TypeError(f"not JSON-serializable: {type(x)}")


def _emit_text(payload: dict, indent: str = "") -> None:
    for key, value in payload.items():
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _emit_text(value, indent + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{indent}{key}:")
            for item in value:
                _emit_text(item, indent + "  ")
                print()
        else:
            print(f"{indent}{key}: {value}")


def _cache_key(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, default=_jsonable)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# Part of every cache signature: bump it whenever the engine's results or
# the row layout change, so a cache written by an older engine is not merged.
CACHE_VERSION = 3


class ContentCache:
    """Append-only jsonl cache so interrupted extended runs lose nothing.

    Rows are read back up to the first line that is not a complete JSON
    object ending in a newline; that torn tail, left by an interrupted
    append, is cut off so its content is recomputed and appended again."""

    def __init__(self, cache_dir: str | None, signature: dict):
        self.path = None
        self.done: dict = {}
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)
            key = _cache_key({**signature, "cache_version": CACHE_VERSION})
            self.path = os.path.join(cache_dir, f"scan-{key}.jsonl")
            if os.path.exists(self.path):
                self._load()

    def _load(self) -> None:
        good = 0
        with open(self.path, "rb") as fh:
            for line in fh:
                try:
                    row = json.loads(line) if line.endswith(b"\n") else None
                except ValueError:
                    row = None
                if not isinstance(row, dict) or "content" not in row:
                    break
                self.done[tuple(row["content"])] = row
                good += len(line)
        if good < os.path.getsize(self.path):
            os.truncate(self.path, good)

    def record(self, content, payload: dict) -> None:
        if self.path is None:
            return
        row = {"content": list(content), **payload}
        with open(self.path, "a") as fh:
            fh.write(json.dumps(row, sort_keys=True, default=_jsonable) + "\n")


# --- subcommands ------------------------------------------------------------


class Refusal(Exception):
    """A command refused: ``main`` prints the message as one stderr line and
    exits with ``code``, as it does for a ``relations.ResourceCapError``."""

    def __init__(self, message: str, code: int = EXIT_RESOURCE_CAP):
        super().__init__(message)
        self.code = code


def classes_cache(cache_dir: str | None, relation: str, length: int) -> ContentCache:
    """The per-content class counts of one length, as ``classes`` caches them."""
    signature = {"command": "classes", "relation": relation, "length": length}
    return ContentCache(cache_dir, signature)


def _open_scan(pres: relations.RelationPresentation, max_len: int, cap: int, cache) -> list:
    """The caches (``cache(n)``, or None) of a content-sliced scan of the
    lengths up to ``max_len``, refused before its first length: exit 4 when
    the level fill does not run ``max_len``, before any cache directory is
    made, and exit 3 when it would hold more than ``cap`` ranks
    (:func:`scans.fill_weight`)."""
    try:
        scans.check_level_fill(pres, max_len)
    except ValueError as err:
        raise Refusal(f"--max-len {max_len}: {err}", EXIT_USAGE) from None
    caches = [cache(n) for n in range(max_len + 1)]
    weight = max(
        scans.fill_weight(n, c.done if c else {}) for n, c in enumerate(caches)
    )
    if weight > cap:
        raise Refusal(
            f"level fill of {weight} ranks exceeds cap {cap}; raise --cap or shrink bounds"
        )
    return caches


def cmd_classes(args) -> int:
    pres = args.relation
    if args.max_len > EXTENDED_CLASS_LIMIT and not args.extended:
        raise Refusal(
            f"lengths above {EXTENDED_CLASS_LIMIT} need --extended (minutes-scale run)"
        )
    t0 = time.time()
    per_length = []
    # packed words of length n use the letters 1..n, so an alphabet of
    # max_len letters holds every packed word the listing counts
    # homogeneous built-ins, named or as {"builtin": ...} files, split by
    # content unless --alphabet or --headroom asks for other bounds
    named = pres.name in relations.BUILTIN_NAMES
    split = pres.homogeneous and args.alphabet is None and args.headroom is None
    if split and named and pres == relations.builtin_relation(pres.name):
        bounds = {"alphabet": args.max_len, "max_len": args.max_len}
        caches = _open_scan(
            pres,
            args.max_len,
            args.cap,
            lambda n: classes_cache(
                args.cache_dir if n > EXTENDED_CLASS_LIMIT else None, pres.name, n
            ),
        )
        for n, cache in enumerate(caches):
            classes, words = scans.packed_class_count(pres.name, n, args.jobs, cache)
            per_length.append(
                {"length": n, "packed_words": words, "classes": classes}
            )
    else:  # one closure in one process, which keeps no cache
        if args.jobs != 1 or args.cache_dir is not None:
            flag = "--jobs" if args.jobs != 1 else "--cache-dir"
            raise Refusal(
                f"wordbialg: error: classes {flag} needs a built-in relation "
                "split by content, without --alphabet or --headroom",
                EXIT_USAGE,
            )
        alphabet = args.max_len if args.alphabet is None else args.alphabet
        inst = relations.close(
            pres, alphabet, args.max_len, args.headroom, cap=args.cap
        )
        bounds = {
            "alphabet": alphabet,
            "max_len": args.max_len,
            "headroom": inst.headroom,
        }
        for n in range(args.max_len + 1):
            classes = inst.packed_classes(n)
            words = sum(1 for w in inst.words if len(w) == n and is_packed(w))
            per_length.append(
                {
                    "length": n,
                    "packed_words": words,
                    "classes": len(classes),
                    "representatives": [format_word(c[0]) for c in classes[:50]],
                }
            )
    payload = {
        "relation": pres.name,
        "bounds": bounds,
        "lengths": per_length,
        "class_counts": [row["classes"] for row in per_length],
    }
    if args.format == "csv":
        payload["rows"] = [
            {"length": r["length"], "packed_words": r["packed_words"], "classes": r["classes"]}
            for r in per_length
        ]
    emit(payload, args.format, time.time() - t0)
    return EXIT_OK


def cmd_check(args) -> int:
    pres = args.relation
    t0 = time.time()
    inst = relations.close(pres, args.alphabet, args.max_len, args.headroom, cap=args.cap)
    # both certificates close the universe one length wider
    stability = relations.headroom_stability(inst, cap=args.cap)
    ftype = relations.is_finite_type_bounded(inst, cap=args.cap)
    alg = relations.check_algebraic(inst)
    uni = relations.check_uniformly_algebraic(inst)
    palg = relations.check_p_algebraic(inst, prime=args.prime)
    payload = {
        "relation": pres.name,
        "bounds": {
            "alphabet": args.alphabet,
            "max_len": args.max_len,
            "headroom": inst.headroom,
        },
        "headroom_stable": stability["stable"],
        "homogeneous": relations.is_homogeneous_observed(inst),
        "algebraic": alg,
        "uniformly_algebraic": uni,
        "p_algebraic": palg,
        "finite_type_certificate": ftype,
    }
    emit(payload, args.format, time.time() - t0)
    return EXIT_OK


def cmd_psi(args) -> int:
    char = args.character
    t0 = time.time()
    if args.class_of is not None:
        seed = args.class_of
        pres = args.relation
        degree = len(seed) + 2 if args.degree is None else args.degree
        headroom = args.headroom
        if headroom is None:
            headroom = relations.default_headroom(pres)
        limit = degree + headroom
        if len(seed) > limit:
            raise Refusal(
                f"--class-of word is longer than --degree plus --headroom ({limit})",
                EXIT_USAGE,
            )
        lengths = [len(seed)] if pres.homogeneous else range(len(set(seed)), degree + 1)
    elif args.word is not None:
        w = args.word
        degree = len(w) if args.degree is None else args.degree
        lengths = [len(w)]
    else:
        raise Refusal("wordbialg: error: psi needs --word or --class-of", EXIT_USAGE)
    # the image holds 2^(n-1) coefficients per length n <= degree it meets
    size = 0
    for n in itertools.takewhile(degree.__ge__, lengths):
        size += 1 << max(n - 1, 0)
        if size > args.cap:
            raise Refusal(
                f"image exceeds cap {args.cap} coefficients within degree "
                f"{degree}; raise --cap or lower --degree"
            )
    if args.class_of is not None:
        members = relations.bfs_class(pres, seed, limit, cap=args.cap)
        stable = relations.bfs_class(pres, seed, limit + 1, cap=args.cap)
        sliced = [w for w in stable if len(w) <= degree]
        if sliced != [w for w in members if len(w) <= degree]:
            raise Refusal("unstable truncation: raise --headroom", EXIT_PROPERTY_FAILURE)
        image = characters.class_image(members, char, degree)
        source = {
            "class_of": format_word(seed),
            "relation": pres.name,
            "members_within_degree": sum(1 for w in members if len(w) <= degree),
        }
    else:
        image = characters.word_image(w, char, degree)
        source = {"word": format_word(w)}
    payload = {
        **source,
        "character": characters.format_character(char),
        "degree": degree,
        "monomial": qsym.qsym_to_json(image),
        "fundamental": [
            {"comp": list(a), "coeff": qsym.format_scalar(c)}
            for a, c in sorted(qsym.to_fundamental(image).items())
        ],
    }
    if qsym.is_symmetric(image):
        payload["monomial_sym"] = qsym.sym_expansion_to_json(
            qsym.to_monomial_sym(image)
        )
        cert = qsym.schur_positive(image)
        payload["schur"] = qsym.sym_expansion_to_json(cert.expansion)
        payload["schur_positive"] = cert.nonnegative
        try:
            qcert = qsym.schur_q_positive(image)
            payload["schur_q"] = qsym.sym_expansion_to_json(qcert.expansion)
            payload["schur_q_positive"] = qcert.nonnegative
        except ValueError:
            payload["schur_q"] = None
    else:
        payload["symmetric"] = False
    emit(payload, args.format, time.time() - t0)
    return EXIT_OK


def cmd_conjectures(args) -> int:
    t0 = time.time()
    want_csv = args.format == "csv"
    if args.which in ("weak-hecke", "buch-samuel"):
        if want_csv:
            raise Refusal(
                "wordbialg: error: --format csv lists rows only for "
                "conjectures --which exotic-sym|exotic-schur-positive",
                EXIT_USAGE,
            )
        base = "hecke" if args.which == "weak-hecke" else "k-knuth"
        report = scans.doubling_check(base, args.alphabet, args.max_len, cap=args.cap)
        report["which"] = args.which
        emit(report, args.format, time.time() - t0)
        return EXIT_PROPERTY_FAILURE if report["mismatches"] else EXIT_OK
    if args.max_len > EXTENDED_CLASS_LIMIT and not args.extended:
        raise Refusal(f"lengths above {EXTENDED_CLASS_LIMIT} need --extended")
    bases = ("s", "Q") if want_csv else (
        ("Q",) if args.which == "exotic-sym" else ("s",)
    )
    signature = {
        "command": "conjectures",
        "which": args.which,
        "bases": list(bases),
        "max_len": args.max_len,
    }
    # only the longest length is cached: the shorter ones are quick
    caches = _open_scan(
        relations.builtin_relation("exotic-knuth"),
        args.max_len,
        args.cap,
        lambda n: ContentCache(args.cache_dir, signature) if n == args.max_len else None,
    )
    reports = []
    rows: list[dict] = []
    for n, cache in enumerate(caches):
        rep = scans.positivity_scan_homogeneous(
            "exotic-knuth", n, ("gt", "le"), bases, args.jobs, cache, detail=want_csv
        )
        if want_csv:
            for v in rep.pop("classes", []):
                rows.append(
                    {
                        "class_repr": v["representative"],
                        "class_size": v["size"],
                        "degree": n,
                        "symmetric": v["symmetric"],
                        "schur_positive": v["positive"].get("s"),
                        "schurQ_positive": v["positive"].get("Q"),
                    }
                )
        reports.append(rep)
    payload = {
        "which": args.which,
        "per_length": reports,
        "all_symmetric": all(not r["non_symmetric"] for r in reports),
    }
    if args.which == "exotic-schur-positive":
        payload["all_schur_positive"] = all(not r["non_positive"] for r in reports)
    if want_csv:
        payload["rows"] = sorted(rows, key=lambda r: (r["degree"], r["class_repr"]))
    emit(payload, args.format, time.time() - t0)
    return EXIT_PROPERTY_FAILURE if payload["all_symmetric"] is False else EXIT_OK


def cmd_verify(args) -> int:
    t0 = time.time()
    failures = 0
    reports: list[dict] = []

    def note(report: dict) -> None:
        nonlocal failures
        reports.append(report)
        if report.get("status") != "pass":
            failures += 1

    if args.suite == "axioms":
        for rep in bialgebra.verify_bialgebra_axioms("anchored", 4, 2):
            note(rep)
        for rep in bialgebra.verify_bialgebra_axioms("packed", 4):
            note(rep)
    elif args.suite == "duality":
        note(bialgebra.duality_pairing_check(4, 3))
    elif args.suite == "oracles":
        # each class is a fiber of an insertion or evaluation map
        for name, axiom, key in (
            ("knuth", "knuth-insertion-fibers", rsk_insert),
            ("hecke", "hecke-evaluation-fibers", lambda w: eval_hecke_word(w, 3)),
        ):
            inst = relations.close(relations.builtin_relation(name), 3, 6)
            fibers = defaultdict(set)
            for w in all_words(3, 6):
                fibers[key(w)].add(w)
            ok = {frozenset(c) for c in inst.iter_classes()} == {
                frozenset(v) for v in fibers.values()
            }
            note({"axiom": axiom, "status": "pass" if ok else "fail"})
    else:  # identities
        for n in range(1, 7):
            ok = characters.nsym_generator_image(n, "le") == qsym.homogeneous_h(n)
            note({"axiom": f"h-image-{n}", "status": "pass" if ok else "fail"})
            ok = characters.nsym_generator_image(n, ("gt", "le")) == qsym.q_function(n)
            note({"axiom": f"q-image-{n}", "status": "pass" if ok else "fail"})
        for lam in [(1,), (2,), (1, 1), (2, 1)]:
            fam = characters.grassmannian_stable_family(lam, sum(lam) + 2)
            ok = fam["J"].homogeneous(sum(lam)) == qsym.schur(lam, sum(lam))
            note({"axiom": f"stable-bottom-{lam}", "status": "pass" if ok else "fail"})

    payload = {
        "suite": args.suite,
        "checks": reports,
        "failures": failures,
    }
    emit(payload, args.format, time.time() - t0)
    return EXIT_PROPERTY_FAILURE if failures else EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with ``EXIT_USAGE``, not argparse's 2, which here
    means a property failure."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _input(parse):
    """An argparse ``type`` that reports a parser's error as the option's
    error message."""

    def convert(text: str):
        try:
            return parse(text)
        except (ValueError, TypeError, OSError) as err:
            raise argparse.ArgumentTypeError(str(err)) from None

    return convert


def _at_least(low: int):
    """An argparse ``type`` for an integer bound of at least ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"not an integer: {text!r}") from None
        if value < low:
            raise ValueError(f"{value} is below {low}")
        return value

    return _input(parse)


# each option's spec; a command lists the options its ``cmd_*`` reads, with
# the fields it sets differently
_OPTIONS = {
    "--relation": {"type": _input(resolve_relation)},
    "--alphabet": {"type": _at_least(1), "default": 3},
    "--max-len": {"type": _at_least(0), "default": 6},
    "--headroom": {"type": _at_least(0)},
    "--cap": {"type": _at_least(1), "default": relations.DEFAULT_CAP},
    "--degree": {"type": _at_least(0)},
    "--jobs": {"type": _at_least(1), "default": 1},
    "--cache-dir": {},
    "--extended": {"action": "store_true"},
    "--prime": {"type": _at_least(2)},
    "--word": {"type": _input(parse_word)},
    "--class-of": {"type": _input(parse_word)},
    "--character": {"type": _input(characters.parse_character), "default": "le"},
    "--which": {
        "required": True,
        "choices": ("weak-hecke", "buch-samuel", "exotic-sym", "exotic-schur-positive"),
    },
    "--suite": {"required": True, "choices": ("axioms", "duality", "oracles", "identities")},
    "--format": {"choices": ("json", "text"), "default": "text"},
}
_ROWS = {"choices": ("json", "text", "csv")}  # --format of the commands with rows

_COMMANDS = {
    "classes": (cmd_classes, "packed-word class counts per length", {
        "--relation": {"default": "exotic-knuth"}, "--alphabet": {"default": None},
        "--max-len": {}, "--headroom": {}, "--cap": {}, "--jobs": {},
        "--cache-dir": {}, "--extended": {}, "--format": _ROWS,
    }),
    "check": (cmd_check, "classify a relation at bounded scale", {
        "--relation": {"required": True}, "--alphabet": {}, "--max-len": {},
        "--headroom": {}, "--cap": {}, "--prime": {}, "--format": {},
    }),
    "psi": (cmd_psi, "morphism image of a word or class", {
        "--relation": {"default": "knuth"}, "--headroom": {}, "--cap": {},
        "--degree": {}, "--word": {}, "--class-of": {}, "--character": {},
        "--format": {},
    }),
    "conjectures": (cmd_conjectures, "bounded conjecture searches", {
        "--which": {}, "--alphabet": {}, "--max-len": {}, "--cap": {}, "--jobs": {},
        "--cache-dir": {}, "--extended": {}, "--format": _ROWS,
    }),
    "verify": (cmd_verify, "run a registered verification suite", {
        "--suite": {}, "--format": {},
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wordbialg",
        description="word bialgebras, word relations, and their "
        "quasi-symmetric images (exact arithmetic)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, fields in options.items():
            p.add_argument(flag, **{**_OPTIONS[flag], **fields})
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except (Refusal, relations.ResourceCapError, scans.ScanWorkerError) as err:
        print(err, file=sys.stderr)
        return getattr(err, "code", EXIT_RESOURCE_CAP)
    except MemoryError as err:
        detail = f": {err}" if str(err) else ""
        print(f"wordbialg: error: out of memory{detail}", file=sys.stderr)
        return EXIT_RESOURCE_CAP
    except BrokenPipeError:
        # the reader is gone; send what is still buffered to devnull, so
        # the interpreter's last flush raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
