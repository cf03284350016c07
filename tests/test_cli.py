"""Command line entry points and the certificate/cache file formats."""

import hashlib
import os
import re

import pytest

from pcg import cli, grp
from pcg.cg import (
    build_reduced,
    collapse_twins,
    read_dimacs,
    read_dimacs_file,
    to_dimacs,
)
from pcg.cli import (
    Certificate,
    certificate_tuple,
    main,
    parse_certificate,
    render_certificate,
    verify_certificate,
)
from pcg.errors import CertificateError, PcgError
from pcg.named import build


def _cert(kind="odd-hole", length=5, spec="sym:5", encodings=None):
    if encodings is None:
        encodings = tuple(f"perm:{i}" for i in range(length))
    return Certificate(spec=spec, kind=kind, length=length, encodings=encodings)


def test_render_parse_roundtrip():
    c = _cert()
    text = render_certificate(c)
    lines = text.split("\n")
    assert lines[0] == "pcg-certificate 1"
    assert lines[1] == "group sym:5"
    assert lines[2] == "kind odd-hole"
    assert lines[3] == "length 5"
    assert lines[4].startswith("vertices ")
    assert text.endswith("\n")
    assert parse_certificate(text) == c


def test_certificate_validation():
    with pytest.raises(CertificateError):
        _cert(kind="pentagon")
    with pytest.raises(CertificateError):
        _cert(length=4)  # encodings disagree with length
    with pytest.raises(CertificateError):
        Certificate(spec="x", kind="odd-hole", length=4,
                    encodings=("a", "b", "c", "d"))  # even hole
    with pytest.raises(CertificateError):
        Certificate(spec="x", kind="four-chain", length=5,
                    encodings=("a",) * 5)  # chains have four vertices


def test_parse_certificate_rejects_malformed():
    good = render_certificate(_cert())
    with pytest.raises(CertificateError):
        parse_certificate(good.replace("pcg-certificate 1", "pcg-certificate 2"))
    with pytest.raises(CertificateError):
        parse_certificate(good.replace("kind ", "type "))
    with pytest.raises(CertificateError):
        parse_certificate("\n".join(good.split("\n")[:3]) + "\n")
    with pytest.raises(CertificateError):
        parse_certificate(good.replace("length 5", "length 7"))
    with pytest.raises(CertificateError):
        parse_certificate(good.replace("length 5", "length five"))
    with pytest.raises(CertificateError):
        parse_certificate("")


def test_certificate_verifies_against_fresh_graph():
    r = _analyze_report("sym:5")
    c = cli._witness_certificate(r)
    assert c.kind == "odd-hole"
    assert verify_certificate(c)
    et = certificate_tuple(c)
    assert et.verify()
    # tampering with a vertex encoding breaks verification
    bad = Certificate(spec=c.spec, kind=c.kind, length=c.length,
                      encodings=(c.encodings[1],) + c.encodings[1:])
    assert not verify_certificate(bad)


def test_certificate_outside_reduced_graph_is_rejected():
    # 5-cycles of alt:5 have abelian centralizers, so they are no vertices
    # of its reduced graph, whatever their commuting pattern
    G = build("alt:5")
    fives = [i for i in range(len(G)) if G.element_order(i) == 5][:5]
    c = _cert(spec="alt:5", encodings=tuple(
        G.kind.render(G.payload(i)) for i in fives))
    with pytest.raises(PcgError, match="not a vertex"):
        verify_certificate(c)


@pytest.mark.parametrize("spec, bad", [
    ("sym:5", "perm:1,x,3,4,5"),
    ("aut-sl2-8", "semi:x"),
])
def test_malformed_certificate_encoding_is_a_pcg_error(spec, bad):
    G = build(spec)
    encodings = [G.kind.render(G.payload(i)) for i in G.reduced_vertices()[:5]]
    encodings[2] = bad
    with pytest.raises(PcgError, match="malformed"):
        verify_certificate(_cert(spec=spec, encodings=tuple(encodings)))


def _analyze_report(spec):
    from pcg.classify import analyze

    return analyze(spec)


def test_parser_built_once_behaves_as_a_fresh_one(capsys):
    # main reuses one parser; a run of one subcommand leaves nothing behind
    # for the next: defaults, help and argument errors are a fresh parser's
    fresh = cli._build_parser.__wrapped__
    assert main(["export", "sym:3", "--reduced"]) == 0
    assert main(["analyze", "alt:5"]) == 0
    capsys.readouterr()
    assert cli._build_parser() is cli._build_parser()
    for argv in (["analyze", "sym:4"], ["export", "sym:4"], ["suite"],
                 ["witness", "alt", "5"]):
        assert vars(cli._build_parser().parse_args(argv)) == vars(fresh().parse_args(argv))
    for argv in (["analyze", "--help"], ["export", "--help"], ["--help"],
                 ["analyze"], ["export", "sym:4", "--bogus"], ["nosuch"],
                 ["analyze", "sym:4", "--budget", "x"]):
        outs = []
        for parse in (main, fresh().parse_args):
            with pytest.raises(SystemExit) as e:
                parse(argv)
            outs.append((e.value.code, capsys.readouterr()))
        assert outs[0] == outs[1], argv
        assert outs[0][0] == (0 if "--help" in argv else 2)


def test_main_analyze_perfect(capsys):
    rc = main(["analyze", "alt:5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "spec alt:5" in out
    assert "order 60" in out
    assert "verdict Perfect" in out
    assert "ac-group yes" in out
    assert "expected Perfect" in out
    assert "match yes" in out


def test_main_analyze_not_perfect_writes_certificate(tmp_path, capsys):
    cert = tmp_path / "sym5.cert"
    rc = main(["analyze", "sym:5", "--certificate", str(cert)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict NotPerfect" in out
    assert "witness odd-hole 5" in out
    assert f"certificate-file {cert}" in out
    text = cert.read_text()
    c = parse_certificate(text)
    assert c.spec == "sym:5"
    assert verify_certificate(c)


def test_main_analyze_unknown_exit_code(capsys):
    rc = main(["analyze", "sym:6", "--budget", "1"])
    out = capsys.readouterr().out
    assert rc == 2
    assert "verdict Unknown" in out


def test_main_analyze_bad_spec(capsys):
    rc = main(["analyze", "sym:99"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:")


def test_main_analyze_canonicalizes_spec(capsys):
    rc = main(["analyze", " prod( sym:3 , sym:3 , sym:3 ) "])
    out = capsys.readouterr().out
    assert rc == 0
    assert "spec prod(sym:3,sym:3,sym:3)" in out
    assert "verdict NotPerfect" in out


def test_main_analyze_cache_roundtrip(tmp_path, capsys):
    d = str(tmp_path / "cache")
    rc1 = main(["analyze", "sl:3:2", "--cache-dir", d])
    out1 = capsys.readouterr().out
    rc2 = main(["analyze", "sl:3:2", "--cache-dir", d])
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    files = sorted(os.listdir(d))
    assert len(files) == 2  # one reduced, one collapsed
    assert all(name.endswith(".dimacs") for name in files)
    strip = lambda s: [l for l in s.splitlines() if not l.startswith("seconds")]
    assert strip(out1) == strip(out2)
    assert "certificate grid" in out1
    # a cached graph is the same record a fresh one is
    fresh = collapse_twins(build_reduced(build("sl:3:2")))
    _, warm = cli._load_or_build_cached(d, "sl:3:2")
    assert (warm.rows, warm.vids, warm.spec) == (fresh.rows, fresh.vids, fresh.spec)
    assert warm.group is fresh.group


def test_main_analyze_cache_recovers_from_corruption(tmp_path, capsys):
    d = tmp_path / "cache"
    main(["analyze", "sl:3:2", "--cache-dir", str(d)])
    capsys.readouterr()
    victim = sorted(d.iterdir())[0]
    victim.write_text("p edge garbage\n")
    rc = main(["analyze", "sl:3:2", "--cache-dir", str(d)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict Perfect" in out
    # the corrupt file was rebuilt
    assert read_dimacs_file(victim).n in (21,)


def test_main_analyze_cache_rejects_tampered_graph(tmp_path, capsys):
    # one edge less, with the header count fixed, turns alt:6's collapsed
    # graph NotBerge; the digest line must send it back for a rebuild
    d = str(tmp_path / "cache")
    main(["analyze", "alt:6", "--cache-dir", d])
    capsys.readouterr()
    path = cli._cache_path(d, "alt:6", False, True, True)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines.remove(next(line for line in lines if line.startswith("e ")))
    header = next(i for i, line in enumerate(lines) if line.startswith("p "))
    _, _, n, m = lines[header].split()
    lines[header] = f"p edge {n} {int(m) - 1}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    rc = main(["analyze", "alt:6", "--cache-dir", d])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict Perfect" in out
    assert "match yes" in out


def _rewrite_cache_body(path, body):
    """Give a cache file a new body under its header and a matching digest."""
    with open(path, encoding="utf-8") as fh:
        head = fh.read().splitlines()[:2]
    digest = hashlib.sha256(body.encode()).hexdigest()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(head) + f"\nc sha256 {digest}\n{body}")


def test_main_analyze_cache_rebuilds_malformed_body(tmp_path, capsys):
    # a body that passes its digest but is not DIMACS is a corrupt file
    d = str(tmp_path / "cache")
    main(["analyze", "sl:3:2", "--cache-dir", d])
    capsys.readouterr()
    path = cli._cache_path(d, "sl:3:2", False, True, True)
    with open(path, "rb") as fh:
        good = fh.read()
    _rewrite_cache_body(path, "p edge x 0\n")
    assert cli.read_cache(path) is None
    rc = main(["analyze", "sl:3:2", "--cache-dir", d])
    out = capsys.readouterr().out
    assert rc == 0
    assert "match yes" in out
    with open(path, "rb") as fh:
        assert fh.read() == good


def test_main_analyze_cache_rebuilds_huge_vertex_count(tmp_path, capsys):
    # a digest-valid body whose p line names more vertices than a C long
    # holds is a corrupt file, not a crash
    d = str(tmp_path / "cache")
    main(["analyze", "sl:3:2", "--cache-dir", d])
    capsys.readouterr()
    path = cli._cache_path(d, "sl:3:2", False, True, True)
    with open(path, "rb") as fh:
        good = fh.read()
    with open(path, encoding="utf-8") as fh:
        body = fh.read().split("\n", 3)[3]
    bad = re.sub(r"^p edge \d+", "p edge 99999999999999999999", body, flags=re.M)
    assert bad != body
    _rewrite_cache_body(path, bad)
    assert cli.read_cache(path) is None
    rc = main(["analyze", "sl:3:2", "--cache-dir", d])
    out = capsys.readouterr().out
    assert rc == 0
    assert "match yes" in out
    with open(path, "rb") as fh:
        assert fh.read() == good


@pytest.mark.parametrize("tamper", ["digest", "p line"])
def test_main_analyze_cache_rebuilds_reduced_file(tmp_path, capsys, tamper):
    # the reduced file only gives its vertex count, read off the p line;
    # a stale digest or a malformed p line still means a rebuild
    d = str(tmp_path / "cache")
    main(["analyze", "sl:3:2", "--cache-dir", d])
    out1 = capsys.readouterr().out
    path = cli._cache_path(d, "sl:3:2", False, True, False)
    assert cli._cached_vertex_count(path) == cli.read_cache(path)[0].n
    with open(path, "rb") as fh:
        good = fh.read()
    with open(path, encoding="utf-8") as fh:
        body = fh.read().split("\n", 3)[3]
    bad = re.sub(r"^p edge (\d+)", r"p edge x\1", body, flags=re.M)
    assert bad != body
    if tamper == "digest":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(good.decode().replace(body, bad))
    else:
        _rewrite_cache_body(path, bad)
    assert cli._cached_vertex_count(path) is None
    rc = main(["analyze", "sl:3:2", "--cache-dir", d])
    out2 = capsys.readouterr().out
    assert rc == 0
    strip = lambda s: [l for l in s.splitlines() if not l.startswith("seconds")]
    assert strip(out2) == strip(out1)
    with open(path, "rb") as fh:
        assert fh.read() == good


@pytest.mark.parametrize("tamper", ["huge count", "below collapsed"])
def test_main_analyze_cache_checks_reduced_vertex_count(tmp_path, capsys, tamper):
    # the reduced file's p count is what analyze reports; a count that is
    # not its vertex table's length, or a consistent one below the collapsed
    # graph's vertex count, means a rebuild, not a report of that count
    d = str(tmp_path / "cache")
    main(["analyze", "sl:3:2", "--cache-dir", d])
    out1 = capsys.readouterr().out
    assert "reduced 21" in out1.splitlines()
    path = cli._cache_path(d, "sl:3:2", False, True, False)
    with open(path, "rb") as fh:
        good = fh.read()
    with open(path, encoding="utf-8") as fh:
        body = fh.read().split("\n", 3)[3]
    if tamper == "huge count":
        bad = re.sub(r"^p edge \d+", "p edge 99999999999999999999", body, flags=re.M)
        _rewrite_cache_body(path, bad)
        assert cli._cached_vertex_count(path) is None
    else:
        # one table line and a count of 1: consistent, but the collapse
        # cannot have more vertices than the graph it collapses
        bad = re.sub(r"^c v [1-9].*\n", "", body, flags=re.M)
        bad = re.sub(r"^p edge \d+", "p edge 1", bad, flags=re.M)
        _rewrite_cache_body(path, bad)
        assert cli._cached_vertex_count(path) == 1
        assert cli.read_cache(cli._cache_path(d, "sl:3:2", False, True, True))[0].n > 1
    rc = main(["analyze", "sl:3:2", "--cache-dir", d])
    out2 = capsys.readouterr().out
    assert rc == 0
    strip = lambda s: [l for l in s.splitlines() if not l.startswith("seconds")]
    assert strip(out2) == strip(out1)
    with open(path, "rb") as fh:
        assert fh.read() == good


def test_main_analyze_cache_with_non_integer_matrix_code(tmp_path, capsys):
    # an encoding that does not parse names no element of the group, so
    # the file is rebuilt instead of leaving the search to decide
    d = str(tmp_path / "cache")
    main(["analyze", "sl:3:2", "--cache-dir", d])
    capsys.readouterr()
    path = cli._cache_path(d, "sl:3:2", False, True, True)
    with open(path, "rb") as fh:
        good = fh.read()
    with open(path, encoding="utf-8") as fh:
        body = fh.read().split("\n", 3)[3]
    bad = re.sub(r"^(c v 0 mat:2:3:)\d+", r"\1x", body, flags=re.M)
    assert bad != body
    _rewrite_cache_body(path, bad)
    rc = main(["analyze", "sl:3:2", "--cache-dir", d])
    out = capsys.readouterr().out
    assert rc == 0
    assert "match yes" in out
    with open(path, "rb") as fh:
        assert fh.read() == good


@pytest.mark.parametrize("entry", [
    "odd permutation", "malformed code", "repeated element",
])
def test_main_analyze_cache_rebuilds_foreign_table(tmp_path, capsys, entry):
    # a digest-valid collapsed file whose vertex table names something that
    # is not an element of alt:6, or one element twice, is rebuilt to the
    # cold bytes and gives the cold report; the stored rows alone would
    # still give verdict Perfect and match yes, so the bytes are the check
    d = str(tmp_path / "cache")
    main(["analyze", "alt:6", "--cache-dir", d])
    cold = capsys.readouterr().out
    path = cli._cache_path(d, "alt:6", False, True, True)
    with open(path, "rb") as fh:
        good = fh.read()
    with open(path, encoding="utf-8") as fh:
        body = fh.read().split("\n", 3)[3]
    enc = {
        "odd permutation": "perm:2,1,3,4,5,6",
        "malformed code": "perm:1,x,3,4,5,6",
        "repeated element": re.search(r"^c v 1 (\S+)$", body, re.M)[1],
    }[entry]
    bad = re.sub(r"^c v 0 \S+$", f"c v 0 {enc}", body, flags=re.M)
    assert bad != body
    _rewrite_cache_body(path, bad)
    assert cli.read_cache(path)[1][0] == enc
    rc = main(["analyze", "alt:6", "--cache-dir", d])
    warm = capsys.readouterr().out
    assert rc == 0
    strip = lambda s: [l for l in s.splitlines() if not l.startswith("seconds")]
    assert strip(warm) == strip(cold)
    with open(path, "rb") as fh:
        assert fh.read() == good


def test_read_cache_checks_header(tmp_path):
    d = str(tmp_path)
    graph = build_reduced(build("sym:5"))
    path = cli._cache_path(d, "sym:5", False, True, False)
    encodings = cli.write_cache(path, graph, "sym:5")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert text.splitlines()[2].startswith("c sha256 ")
    got, got_encodings = cli.read_cache(path)
    assert got == graph and got_encodings == tuple(encodings)

    def read_as(name, body):
        other = os.path.join(d, name)
        with open(other, "w", encoding="utf-8") as fh:
            fh.write(body)
        return cli.read_cache(other)

    # another spec's file name, another format version, a stale digest,
    # bytes that are not UTF-8
    name = os.path.basename(path)
    other = os.path.basename(cli._cache_path(d, "sym:6", False, True, False))
    assert read_as(other, text) is None
    assert read_as(name, text.replace("c pcg-cache 1", "c pcg-cache 2")) is None
    assert read_as(name, text.replace("c v 0 ", "c v 0 x")) is None
    with open(path, "wb") as fh:
        fh.write(b"\xff" + text.encode())
    assert cli.read_cache(path) is None


def test_read_cache_rejects_unwritten_variant_name(tmp_path):
    # only the reduced graph and its collapse are ever cached, so a
    # well-formed file under any other variant's name is not a cache file
    d = str(tmp_path)
    graph = build_reduced(build("sym:5"))
    path = cli._cache_path(d, "sym:5", False, True, False)
    cli.write_cache(path, graph, "sym:5")
    other = cli._cache_path(d, "sym:5", True, True, False)
    os.replace(path, other)
    assert cli.read_cache(other) is None
    os.replace(other, path)
    assert cli.read_cache(path)[0] == graph


def test_read_cache_needs_leading_table(tmp_path):
    # the vertex table is the body's leading block of `c v` lines, one per
    # vertex in order; anything else is a corrupt file
    path = cli._cache_path(str(tmp_path), "sym:4", False, True, False)
    graph = build_reduced(build("sym:4"))
    assert graph.n == 3
    cli.write_cache(path, graph, "sym:4")
    with open(path, encoding="utf-8") as fh:
        body = fh.read().split("\n", 3)[3]
    lines = body.splitlines(keepends=True)
    table, rest = lines[:3], lines[3:]
    assert all(line.startswith("c v ") for line in table)
    for bad in (
        table[1:] + rest,                       # a vertex missing
        [table[1], table[0], table[2]] + rest,  # out of order
        table[:2] + rest + table[2:],           # an entry below the graph
    ):
        _rewrite_cache_body(path, "".join(bad))
        assert cli.read_cache(path) is None
    _rewrite_cache_body(path, body)
    got, encodings = cli.read_cache(path)
    assert got == graph
    assert encodings == tuple(graph.render_vertex(u) for u in range(3))


def test_cache_dir_from_environment(tmp_path, capsys, monkeypatch):
    d = tmp_path / "envcache"
    monkeypatch.setenv("PCG_CACHE_DIR", str(d))
    rc = main(["analyze", "sym:5"])
    capsys.readouterr()
    assert rc == 0
    assert len(list(d.iterdir())) == 2


def test_main_witness(capsys):
    rc = main(["witness", "sym5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("pcg-certificate 1\n")
    assert "kind odd-hole" in out
    assert "length 5" in out


def test_main_witness_verify(capsys):
    rc = main(["witness", "sym5", "--verify"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verified in-graph PASS" in out


def test_main_witness_element_level_fallback(capsys):
    # sl3 over GF(7) is outside the buildable guard, so verification
    # falls back to the tuple's own commutation pattern
    rc = main(["witness", "sl3", "7", "4", "3", "--verify"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verified element-level PASS" in out


def test_main_witness_parameters(capsys):
    assert main(["witness", "psl2", "13"]) == 0
    assert "length 7" in capsys.readouterr().out
    assert main(["witness", "alt", "7"]) == 0
    assert "length 7" in capsys.readouterr().out
    assert main(["witness", "product"]) == 0
    assert "group prod(sym:3,sym:3,sym:3)" in capsys.readouterr().out
    assert main(["witness", "chain-product"]) == 0
    assert "group prod(alt:6,sym:3)" in capsys.readouterr().out


def test_main_witness_l34(capsys):
    rc = main(["witness", "l34"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "l34 label model PASS" in out


def test_main_witness_unknown_name(capsys):
    rc = main(["witness", "nonsense"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "unknown witness" in err


def test_main_witness_bad_params(capsys):
    rc = main(["witness", "su3", "2"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["witness", "alt", "x"],
    ["witness", "sl3", "7"],
    ["analyze", "prod(sym:3"],
    # a product takes zero or three specs, a chain product at most two
    ["witness", "product", "sym:3"],
    ["witness", "product", "sym:3", "sym:3"],
    ["witness", "product", "sym:3", "sym:3", "sym:3", "sym:3"],
    ["witness", "chain-product", "alt:6", "sym:3", "sym:3"],
])
def test_main_unparsable_arguments(argv, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: bad arguments:")


def test_main_internal_fault_is_not_bad_arguments(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli.classify, "analyze", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["analyze", "alt:5"])
    out, err = capsys.readouterr()
    assert "bad arguments" not in out + err


def test_main_export_stdout(capsys):
    rc = main(["export", "alt:6", "--reduced"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "p edge 45 90" in out
    g = read_dimacs(out)
    assert g.n == 45


def test_main_export_full_graph(capsys):
    rc = main(["export", "sym:5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "p edge 119 241" in out


def test_main_export_file_deterministic(tmp_path, capsys):
    p1 = tmp_path / "a.dimacs"
    p2 = tmp_path / "b.dimacs"
    assert main(["export", "sl:3:2", "--reduced", "--collapsed", "-o", str(p1)]) == 0
    assert main(["export", "sl:3:2", "--reduced", "--collapsed", "-o", str(p2)]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    assert p1.read_bytes() == p2.read_bytes()
    assert read_dimacs_file(p1).n == 21


@pytest.mark.parametrize("spec", ["sl:3:2", "alt:6"])
def test_main_export_collapsed_is_the_cached_graph(spec, tmp_path, capsys):
    # export runs the cache's pipeline: the adjacency releases the
    # conjugation maps, and the file is the collapsed cache file's graph
    out = tmp_path / "g.dimacs"
    assert main(["export", spec, "--reduced", "--collapsed", "-o", str(out)]) == 0
    assert grp._CONJ == [None, None]
    d = str(tmp_path / "cache")
    assert main(["analyze", spec, "--cache-dir", d]) == 0
    capsys.readouterr()
    with open(cli._cache_path(d, spec, False, True, True), "rb") as fh:
        text = fh.read()
    body = re.fullmatch(rb"(?:c [^\n]*\n){3}(?:c v [^\n]*\n)*(.*)", text, re.DOTALL)[1]
    assert out.read_bytes() == body


def test_main_export_include_center(capsys):
    rc = main(["export", "sym:3", "--include-center"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "p edge 6 6" in out


def test_main_suite_filter(capsys):
    rc = main(["suite", "--filter", "sz"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "sz:8 Perfect Perfect" in out
    assert "passed 1 failed 0" in out


def test_main_suite_empty_filter_is_success(capsys):
    rc = main(["suite", "--filter", "no-such-row"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "passed 0 failed 0" in out


def test_main_bruteforce(tmp_path, capsys):
    c5 = tmp_path / "c5.dimacs"
    c5.write_text("p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n")
    assert main(["bruteforce", str(c5)]) == 0
    assert "not perfect" in capsys.readouterr().out
    c4 = tmp_path / "c4.dimacs"
    c4.write_text("p edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n")
    assert main(["bruteforce", str(c4)]) == 0
    assert capsys.readouterr().out.strip() == "perfect"
    bad = tmp_path / "bad.dimacs"
    bad.write_text("p edge 3 1\ne 1\n")
    assert main(["bruteforce", str(bad)]) == 1
    assert "bad DIMACS edge on line 2" in capsys.readouterr().err


def test_main_bruteforce_rejects_a_second_header(tmp_path, capsys):
    # a repeated header once dropped the edges above it, so C5 read as the
    # empty graph on five vertices, which is perfect
    c5 = tmp_path / "c5.dimacs"
    c5.write_text("p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\np edge 5 5\n")
    assert main(["bruteforce", str(c5)]) == 1
    captured = capsys.readouterr()
    assert "perfect" not in captured.out
    assert "second DIMACS header on line 7" in captured.err


def test_main_bruteforce_guard(tmp_path, capsys):
    big = tmp_path / "big.dimacs"
    big.write_text("p edge 15 0\n")
    assert main(["bruteforce", str(big)]) == 1
    assert "error:" in capsys.readouterr().err


def test_main_bruteforce_missing_file(tmp_path, capsys):
    assert main(["bruteforce", str(tmp_path / "nope.dimacs")]) == 1
    assert "error:" in capsys.readouterr().err


def test_main_bruteforce_non_ascii_file(tmp_path, capsys):
    # a byte that is not ASCII is an error naming the file and its offset,
    # not a decoding traceback
    bad = tmp_path / "bad.dimacs"
    bad.write_bytes(b"p edge 2 1\ne 1 2 \xff\n")
    assert main(["bruteforce", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err and "byte 17" in err


def test_witness_graph_verification_matches_export(tmp_path, capsys):
    # the certificate a witness prints locates inside the exported graph
    rc = main(["witness", "ree3", "--verify"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "group aut-sl2-8" in out
    assert "verified in-graph PASS" in out
