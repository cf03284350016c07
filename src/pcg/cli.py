"""Command-line front end: analyze, witness, export, suite, bruteforce.

Certificates are five-line UTF-8 files that name a group, a pattern kind,
and the ordered element encodings of the pattern's vertices; they parse
back and re-verify inside the reduced graph of the freshly built group.
Graph caching stores two files per spec, the reduced and the collapsed graph
of the reduced pipeline, each as DIMACS plus a vertex encoding table under a
SHA-256 digest, written atomically; analyze --include-center skips the cache.
The PCG_CACHE_DIR environment variable supplies a default cache directory.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import cg, classify, perf, wit
from .errors import CertificateError, PcgError, SpecParseError
from .grp import _format
from .named import build, parse_spec, render_spec

CERT_VERSION = 1
CACHE_VERSION = 1


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class Certificate:
    """A named pattern with its element encodings, ready for a file."""

    spec: str
    kind: str
    length: int
    encodings: tuple[str, ...]
    version: int = CERT_VERSION

    def __post_init__(self):
        if self.length != len(self.encodings):
            raise CertificateError("certificate length disagrees with vertex count")
        if not perf.pattern_ok(self.kind, self.length):
            raise CertificateError(f"bad {self.kind} certificate of length {self.length}")


def render_certificate(c: Certificate) -> str:
    return (
        f"pcg-certificate {c.version}\n"
        f"group {c.spec}\n"
        f"kind {c.kind}\n"
        f"length {c.length}\n"
        f"vertices {';'.join(c.encodings)}\n"
    )


def parse_certificate(text: str) -> Certificate:
    lines = text.splitlines()
    if len(lines) < 5:
        raise CertificateError("certificate too short")
    m = re.fullmatch(r"pcg-certificate (\d+)", lines[0])
    if not m:
        raise CertificateError("missing pcg-certificate header")
    version = int(m.group(1))
    if version != CERT_VERSION:
        raise CertificateError(f"unsupported certificate version {version}")
    fields = {}
    for name, line in zip(("group", "kind", "length", "vertices"), lines[1:5]):
        key, sep, val = line.partition(" ")
        if key != name or not sep:
            raise CertificateError(f"bad certificate line {line!r}, wanted {name}")
        fields[name] = val
    try:
        length = int(fields["length"])
    except ValueError:
        raise CertificateError(f"bad certificate length {fields['length']!r}") from None
    return Certificate(
        spec=fields["group"],
        kind=fields["kind"],
        length=length,
        encodings=tuple(fields["vertices"].split(";")) if fields["vertices"] else (),
        version=version,
    )


def certificate_tuple(c: Certificate) -> wit.ElementTuple:
    """Decode the certificate's elements against its freshly built group."""
    return wit.decode(build(c.spec), c.spec, c.kind, c.encodings)


def verify_in_reduced(et: wit.ElementTuple, G) -> bool:
    """Re-check a tuple inside G's reduced commuting graph without building
    it.

    Every element must be a reduced vertex, or PcgError is raised.  The
    induced subgraph on those vertices is then the elements' own commuting
    pattern, which ElementTuple.verify checks with k^2 products.
    """
    reduced = set(G.reduced_vertices())
    for e in et.elements:
        if G.index_of(e) not in reduced:
            raise PcgError(f"{e.render()} is not a vertex of the reduced graph")
    return et.verify()


def verify_certificate(c: Certificate) -> bool:
    """Re-verify inside the reduced graph of the freshly built group.

    Pattern vertices always have non-abelian centralizers, so the reduced
    graph contains them all.
    """
    return verify_in_reduced(certificate_tuple(c), build(c.spec))


def _witness_certificate(report: classify.Report) -> Certificate:
    w = report.witness
    return Certificate(
        spec=report.spec,
        kind=w.kind,
        length=w.length,
        encodings=report.witness_encodings,
    )


def tuple_certificate(et: wit.ElementTuple) -> Certificate:
    return Certificate(
        spec=et.spec,
        kind=et.kind,
        length=len(et),
        encodings=tuple(et.renders()),
    )


# ---------------------------------------------------------------------------
# graph cache


def _cache_path(cache_dir: str, spec: str, include_center: bool,
                reduced: bool, collapsed: bool) -> str:
    import hashlib  # here: OpenSSL adds about 4 MB to runs that use no cache

    key = (
        f"{spec}|ic={int(include_center)}|red={int(reduced)}"
        f"|col={int(collapsed)}|v{CACHE_VERSION}"
    )
    digest = hashlib.sha256(key.encode()).hexdigest()[:12]
    safe = re.sub(r"[^A-Za-z0-9.-]+", "_", spec).strip("_") or "graph"
    return os.path.join(cache_dir, f"{safe}.{digest}.dimacs")


def _atomic_write(path: str, *parts: bytes) -> None:
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".pcg-tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_cache(path: str, graph: cg.CommGraph, spec: str):
    """DIMACS body prefixed with a vertex encoding table, under a header
    naming the format version, the spec and the SHA-256 of the rest of the
    file; returns the table's encodings as graph.render_vertices() gives
    them, rendered only as they are read.

    The body is made as bytes once, for the digest and the write: the table
    by one _format of the vertex numbers and their rows' render_ints, the
    graph by cg._dimacs."""
    import hashlib  # here: OpenSSL adds about 4 MB to runs that use no cache

    kind = graph.group.kind
    segs = kind.render_segments()
    ints = kind.render_ints(graph.group.rows[np.asarray(graph.vids, dtype=np.intp)])
    table = _format(["c v ", " " + segs[0], *segs[1:-1], segs[-1] + "\n"],
                    [np.arange(graph.n), *ints.T])
    dimacs = cg._dimacs(graph)
    sha = hashlib.sha256(table)
    sha.update(dimacs)
    head = f"c pcg-cache {CACHE_VERSION}\nc spec {spec}\nc sha256 {sha.hexdigest()}\n"
    _atomic_write(path, head.encode(), table, dimacs)
    return graph.render_vertices()


def _cache_names(spec: str) -> set[str]:
    """File names of the two graphs _load_or_build_cached writes for the
    spec: the reduced graph and its twin collapse."""
    return {_cache_path("", spec, False, True, collapsed)
            for collapsed in (False, True)}


def _cache_body(path: str) -> str | None:
    """A cache file's text below its header, or None when the file is absent
    or corrupt: another format version, a spec line that does not name the
    file, or a body that does not match its digest."""
    import hashlib  # here: OpenSSL adds about 4 MB to runs that use no cache

    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError):
        return None
    head = re.fullmatch(rf"c pcg-cache {CACHE_VERSION}\nc spec (\S+)\n"
                        r"c sha256 ([0-9a-f]{64})\n(.*)", text, re.DOTALL)
    if (head is None or os.path.basename(path) not in _cache_names(head[1])
            or hashlib.sha256(head[3].encode()).hexdigest() != head[2]):
        return None
    return head[3]


def read_cache(path: str):
    """(graph, encodings) from a cache file, or None when it is absent or
    corrupt (see _cache_body) or its body is not a leading `c v` block with
    one encoding per vertex, in vertex order, above a DIMACS graph."""
    text = _cache_body(path)
    if text is None:
        return None
    table = re.match(r"(?:c v [0-9]+ \S+\n)*", text)[0]
    encs = []
    for u, line in enumerate(table.splitlines()):
        _, _, idx, enc = line.split(" ")
        if idx != str(u):
            return None
        encs.append(enc)
    try:
        graph = cg.read_dimacs(text[len(table):])
    except PcgError:
        return None
    if graph.n != len(encs):
        return None
    return graph, tuple(encs)


def _cached_vertex_count(path: str) -> int | None:
    """The vertex count on a cache file's `p edge` line, read without parsing
    its edges; None when the file is absent or corrupt (see _cache_body),
    has no well-formed `p` line, or its count is not the number of `c v`
    lines in its leading vertex table."""
    text = _cache_body(path)
    if text is None:
        return None
    # the first line that starts with p, as in cg.read_dimacs
    line = re.search(r"^p.*$", text, re.MULTILINE)
    head = re.fullmatch(r"p edge ([0-9]+) [0-9]+", line[0]) if line else None
    if head is None:
        return None
    table = re.match(r"(?:c v [0-9]+ \S+\n)*", text)[0]
    return int(head[1]) if int(head[1]) == table.count("\n") else None


def _load_or_build_cached(cache_dir: str, spec: str):
    """The analyze pipeline's graphs, through the cache when possible: the
    pair (reduced vertex count, collapsed graph) that classify.analyze takes
    as cached and otherwise computes.

    The collapsed file's vertex table is decoded against the freshly built
    group, so a cached graph has the group and vertex ids a fresh one has.
    A table that does not decode to ascending element indices, as a fresh
    graph's vertex ids are, means a rebuild, as a corrupt file does: an
    entry that is malformed, names no element of the group, or names an
    element twice.  So does a reduced vertex count below the collapsed
    graph's, as the collapse only removes vertices.
    """
    red_path = _cache_path(cache_dir, spec, False, True, False)
    col_path = _cache_path(cache_dir, spec, False, True, True)
    G = build(spec)
    reduced_n = _cached_vertex_count(red_path)
    got_col = read_cache(col_path)
    if reduced_n is not None and got_col is not None and reduced_n >= got_col[0].n:
        graph, encodings = got_col
        try:
            vids = wit.decode_indices(G, spec, encodings)
        except PcgError:
            vids = None
        if vids is not None and vids == sorted(set(vids)):
            return reduced_n, cg.CommGraph(graph.n, graph.csr, spec=G.name,
                                           vids=vids, group=G)
    g1 = cg.build_reduced(G)
    g2 = cg.collapse_twins(g1)
    write_cache(red_path, g1, spec)
    write_cache(col_path, g2, spec)
    return g1.n, g2


# ---------------------------------------------------------------------------
# subcommands


def _yesno(b: bool) -> str:
    return "yes" if b else "no"


def cmd_analyze(args) -> int:
    spec = render_spec(parse_spec(args.spec))
    cache_dir = args.cache_dir or os.environ.get("PCG_CACHE_DIR")
    cached = None
    if cache_dir and not args.include_center:
        cached = _load_or_build_cached(cache_dir, spec)
    report = classify.analyze(
        spec,
        include_center=args.include_center,
        budget=args.budget,
        max_len=args.max_len,
        cached=cached,
    )
    print(f"spec {report.spec}")
    print(f"order {report.order}")
    print(f"center {report.center}")
    print(f"quasisimple {_yesno(report.quasisimple)}")
    print(f"ac-group {_yesno(report.ac_group)}")
    print(f"reduced {report.reduced_n}")
    print(f"collapsed {report.collapsed_n}")
    print(f"verdict {report.verdict}")
    if report.witness is not None:
        print(f"witness {report.witness.kind} {report.witness.length}")
    if report.certificate is not None:
        print(f"certificate {report.certificate}")
    if report.expected != classify.UNTABLED:
        print(f"expected {report.expected}")
        print(f"match {_yesno(bool(report.match))}")
    print(f"seconds {report.seconds:.1f}")
    if report.witness is not None and args.certificate:
        cert = _witness_certificate(report)
        _atomic_write(args.certificate, render_certificate(cert).encode())
        print(f"certificate-file {args.certificate}")
    return 2 if report.outcome == "Unknown" else 0


_WITNESS_USAGE = (
    "witness names: sym5 | alt N | sl3 Q A B | su3 Q | sp4 Q | psl2 Q | "
    "ree3 | product [K L M] | chain-product [K L] | l34"
)


class ArgumentError(PcgError):
    """Command-line arguments that do not parse."""


def _ints(params: list[str], k: int) -> list[int]:
    """The first k witness parameters as integers."""
    if len(params) < k:
        raise ArgumentError(f"expected {k} integer parameters, got {len(params)}")
    try:
        return [int(p) for p in params[:k]]
    except ValueError as e:
        raise ArgumentError(str(e)) from None


def _make_witness(name: str, params: list[str]) -> wit.ElementTuple | None:
    if name == "sym5":
        return wit.witness_sym5()
    if name == "alt":
        return wit.witness_alt_3cycles(*_ints(params, 1))
    if name == "sl3":
        return wit.witness_sl3(*_ints(params, 3))
    if name == "su3":
        return wit.witness_su3(*_ints(params, 1))
    if name == "sp4":
        return wit.witness_sp4(*_ints(params, 1))
    if name == "psl2":
        return wit.witness_psl2(*_ints(params, 1))
    if name == "ree3":
        return wit.witness_ree3()
    if name == "product":
        if len(params) not in (0, 3):
            raise ArgumentError(f"product takes zero or three specs, got {len(params)}")
        K, L, M = (build(s) for s in params or ["sym:3", "sym:3", "sym:3"])
        return wit.witness_product(K, L, M)
    if name == "chain-product":
        if len(params) > 2:
            raise ArgumentError(f"chain-product takes at most two specs, got {len(params)}")
        kspec = params[0] if len(params) > 0 else "alt:6"
        lspec = params[1] if len(params) > 1 else "sym:3"
        K = build(kspec)
        if K.name == "alt:6":
            chain = wit.chain_alt6()
        elif K.name == "sl:3:2":
            chain = wit.chain_sl32()
        else:
            graph = cg.build_reduced(K)
            quad = wit.find_4chain(graph)
            if quad is None:
                raise PcgError(f"{K.name}: no four-chain to build on")
            chain = wit.tuple_from_vertices(graph, quad, "four-chain")
        return wit.witness_chain_product(K, chain, build(lspec))
    return None


def cmd_witness(args) -> int:
    name = args.name
    if name == "l34":
        ok = wit.check_l34_label_model()
        print(f"l34 label model {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    et = _make_witness(name, args.params)
    if et is None:
        print(f"error: unknown witness {name!r}; {_WITNESS_USAGE}", file=sys.stderr)
        return 1
    cert = tuple_certificate(et)
    sys.stdout.write(render_certificate(cert))
    if args.verify:
        try:
            G = build(et.spec)
        except PcgError:
            ok = et.verify()
            print(f"verified element-level {'PASS' if ok else 'FAIL'}")
        else:
            ok = verify_in_reduced(et, G)
            print(f"verified in-graph {'PASS' if ok else 'FAIL'}")
        if not ok:
            return 1
    return 0


def cmd_export(args) -> int:
    spec = render_spec(parse_spec(args.spec))
    G = build(spec)
    if args.reduced:
        graph = cg.build_reduced(G)
    else:
        graph = cg.build_graph(G, include_center=args.include_center)
    if args.collapsed:
        graph = cg.collapse_twins(graph)
    if args.output:
        _atomic_write(args.output, cg._dimacs(graph))
        print(f"wrote {args.output} ({graph.n} vertices, {graph.edge_count()} edges)")
    else:
        sys.stdout.write(cg.to_dimacs(graph))
    return 0


def cmd_suite(args) -> int:
    summary = classify.run_suite(
        filter=args.filter, budget=args.budget, jobs=args.jobs, echo=print
    )
    print(f"passed {summary.passed} failed {summary.failed}")
    return 0 if summary.ok else 1


def cmd_bruteforce(args) -> int:
    graph = cg.read_dimacs_file(args.graph)
    verdict = perf.is_perfect_bruteforce(graph)
    print("perfect" if verdict else "not perfect")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it
    unchanged, and a build costs about a millisecond."""
    ap = argparse.ArgumentParser(
        prog="pcg",
        description="Decide perfection of commuting graphs of finite groups.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="build, reduce, and decide one group spec")
    a.add_argument("spec")
    a.add_argument("--include-center", action="store_true",
                   help="analyze the graph on all of G, not just reduced vertices")
    a.add_argument("--max-len", type=int, default=None,
                   help="cap the hole search length (capped runs may end Unknown)")
    a.add_argument("--budget", type=int, default=perf.DEFAULT_BUDGET)
    a.add_argument("--certificate", metavar="PATH",
                   help="write the witness certificate here on NotBerge")
    a.add_argument("--cache-dir", metavar="DIR",
                   help="graph cache directory (default: $PCG_CACHE_DIR)")
    a.set_defaults(func=cmd_analyze)

    w = sub.add_parser("witness", help="construct and print a named witness tuple")
    w.add_argument("name", help=_WITNESS_USAGE)
    w.add_argument("params", nargs="*")
    w.add_argument("--verify", action="store_true",
                   help="also re-verify inside the freshly built group's "
                        "reduced graph")
    w.set_defaults(func=cmd_witness)

    e = sub.add_parser("export", help="write a graph in DIMACS form")
    e.add_argument("spec")
    e.add_argument("-o", "--output", metavar="FILE")
    e.add_argument("--reduced", action="store_true")
    e.add_argument("--collapsed", action="store_true")
    e.add_argument("--include-center", action="store_true")
    e.set_defaults(func=cmd_export)

    s = sub.add_parser("suite", help="run the expected-results table")
    s.add_argument("--filter", default="")
    s.add_argument("--budget", type=int, default=perf.DEFAULT_BUDGET)
    s.add_argument("--jobs", type=int, default=1)
    s.set_defaults(func=cmd_suite)

    b = sub.add_parser("bruteforce",
                       help="exact perfection of a small external DIMACS graph")
    b.add_argument("graph", help="DIMACS file, at most 14 vertices")
    b.set_defaults(func=cmd_bruteforce)
    return ap


def main(argv=None) -> int:
    """Run one command.  Argument and spec parse errors report as bad
    arguments, other PcgError and OSError as errors, each with exit code 1;
    any other exception is a fault of the program and propagates."""
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ArgumentError, SpecParseError) as e:
        print(f"error: bad arguments: {e}", file=sys.stderr)
        return 1
    except PcgError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
