"""End-to-end acceptance checks.

Each test prints one visible `criterion N (<label>): PASS|FAIL` line, so a
full run shows the per-criterion outcomes even when capture is on.
"""

import hashlib
import json
import os
import random
import re
import time
from pathlib import Path

import numpy as np
import pytest

from pcg import classify, cli, perf, wit
from pcg.cg import _from_edges, build_graph, build_reduced, collapse_twins, twin_classes
from pcg.named import build


@pytest.fixture(scope="module")
def suite():
    """One serial run of the whole verdict table, shared by the criteria."""
    return classify.run_suite()


def _crit(capsys, num, label, ok, detail=""):
    with capsys.disabled():
        tail = f"  [{detail}]" if detail else ""
        print(f"\ncriterion {num} ({label}): {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def _graph(n, edges):
    return _from_edges(n, np.array(edges, dtype=np.int64).reshape(-1))


def test_criterion_1_verdict_table(suite, capsys):
    problems = []
    if len(suite.reports) != 33:
        problems.append(f"expected 33 rows, got {len(suite.reports)}")
    total = sum(r.seconds for r in suite.reports)
    for r in suite.reports:
        if r.match is not True:
            problems.append(f"{r.spec}: verdict {r.verdict}, expected {r.expected}")
        if r.seconds >= 300:
            problems.append(f"{r.spec}: took {r.seconds:.1f}s")
        if r.verdict == "NotPerfect":
            if r.witness is None or not r.witness_encodings:
                problems.append(f"{r.spec}: no witness recorded")
                continue
            cert = cli.Certificate(
                spec=r.spec,
                kind=r.witness.kind,
                length=r.witness.length,
                encodings=tuple(r.witness_encodings),
            )
            if not cli.verify_certificate(cert):
                problems.append(f"{r.spec}: certificate failed re-verification")
    if total >= 900:
        problems.append(f"total {total:.1f}s")
    _crit(capsys, 1, "verdict table", not problems,
          "; ".join(problems) or f"33 rows match, {total:.1f}s")


def test_criterion_2_witness_reproduction(capsys):
    makers = [
        ("sym5", lambda: wit.witness_sym5(), 5),
        ("alt-3cycles 7", lambda: wit.witness_alt_3cycles(7), 7),
        ("sl3 q=3", lambda: wit.witness_sl3(3, 1, 2), 5),
        ("sl3 q=5", lambda: wit.witness_sl3(5, 4, 2), 5),
        ("su3 q=3", lambda: wit.witness_su3(3), 5),
        ("sp4 q=3", lambda: wit.witness_sp4(3), 5),
        ("psl2 q=13", lambda: wit.witness_psl2(13), 7),
        ("psl2 q=17", lambda: wit.witness_psl2(17), 9),
        ("ree3", lambda: wit.witness_ree3(), 7),
        ("product sym3^3", lambda: wit.witness_product(
            build("sym:3"), build("sym:3"), build("sym:3")), 5),
        ("chain-product alt6 x sym3", lambda: wit.witness_chain_product(
            build("alt:6"), wit.chain_alt6(), build("sym:3")), 5),
    ]
    problems = []
    slowest = 0.0
    for name, make, length in makers:
        t0 = time.time()
        try:
            et = make()
            ok = et.verify() and len(et) == length
        except Exception as e:  # a construction error is a failure here
            problems.append(f"{name}: {e}")
            continue
        dt = time.time() - t0
        slowest = max(slowest, dt)
        if not ok:
            problems.append(f"{name}: did not verify")
        if dt >= 30:
            problems.append(f"{name}: {dt:.1f}s")
    t0 = time.time()
    if not wit.check_l34_label_model():
        problems.append("l34 label model")
    slowest = max(slowest, time.time() - t0)
    _crit(capsys, 2, "witness reproduction", not problems,
          "; ".join(problems) or f"12 constructions, slowest {slowest:.1f}s")


def test_criterion_3_quantitative_structure(suite, capsys):
    problems = []

    G6 = build("alt:6")
    r6 = build_reduced(G6)
    if r6.n != 45:
        problems.append(f"alt:6 reduced has {r6.n} vertices")
    cents = {len(G6.centralizer(r6.vids[u])) for u in range(r6.n)}
    if cents != {8}:
        problems.append(f"alt:6 centralizer orders {sorted(cents)}")

    P = build("psl:2:13")
    rp = build_reduced(P)
    if rp.n != 91:
        problems.append(f"psl:2:13 reduced has {rp.n} vertices")
    if any(rp.degree(u) != 6 for u in range(rp.n)):
        problems.append("psl:2:13 reduced graph is not 6-regular")
    for u in range(rp.n):
        for v in range(u + 1, rp.n):
            if (rp.rows[u] & rp.rows[v]).bit_count() > 1:
                problems.append(f"psl:2:13 has a 4-cycle through {u},{v}")
                break
        else:
            continue
        break
    for u in range(rp.n):
        sphere1 = rp.rows[u]
        sphere2 = 0
        for w in range(rp.n):
            if sphere1 >> w & 1:
                sphere2 |= rp.rows[w]
        sphere2 &= ~sphere1 & ~(1 << u)
        if sphere1.bit_count() != 6 or sphere2.bit_count() != 24:
            problems.append(
                f"psl:2:13 spheres from {u}: "
                f"{sphere1.bit_count()}, {sphere2.bit_count()}")
            break

    L = build("psl:3:4")
    rl = build_reduced(L)
    cl = collapse_twins(rl)
    if rl.n != 315 or cl.n != 105:
        problems.append(f"psl:3:4 reduction {rl.n} -> {cl.n}")
    sizes = {len(c) for c in twin_classes(rl.rows, (1 << rl.n) - 1)}
    if sizes != {3}:
        problems.append(f"psl:3:4 twin class sizes {sorted(sizes)}")

    S = build("sz:8")
    if len(S) != 29120:
        problems.append(f"sz:8 order {len(S)}")
    invs = [i for i in range(len(S)) if S.element_order(i) == 2]
    classes = {S.class_of(i) for i in invs}
    if len(classes) != 1:
        problems.append(f"sz:8 involutions split into {len(classes)} classes")

    _crit(capsys, 3, "quantitative structure", not problems,
          "; ".join(problems) or
          "alt:6 45x|Cent|=8, psl:2:13 91/6-regular/C4-free/6+24, "
          "psl:3:4 315->105 by 3s, sz:8 one involution class")


def test_criterion_4_ree3_fine_structure(suite, capsys):
    g = build_reduced(build("aut-sl2-8"))
    et = wit.witness_ree3()
    seven = wit.verify_in_graph(et, g) and len(et) == 7
    t0 = time.time()
    res = perf.find_odd_hole(g, min_len=5, max_len=5)
    dt = time.time() - t0
    ok = seven and res.complete and res.witness is None and dt < 60
    _crit(capsys, 4, "aut-sl2-8 7-hole and no 5-hole", ok,
          f"7-hole {'ok' if seven else 'BAD'}, 5-hole search "
          f"complete={res.complete} witness={res.witness} in {dt:.1f}s")


def test_criterion_5_random_cross_validation(capsys):
    rng = random.Random(20260816)
    checked = 0
    disagreements = 0
    for _ in range(200):
        n = rng.randrange(4, 11)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.5]
        g = _graph(n, edges)
        if perf.is_berge(g).is_berge() != perf.is_perfect_bruteforce(g):
            disagreements += 1
        checked += 1
    ok = checked >= 200 and disagreements == 0
    _crit(capsys, 5, "berge vs bruteforce", ok,
          f"{checked} graphs, {disagreements} disagreements")


def test_criterion_6_reduction_soundness(suite, capsys):
    small = [s for s in classify.SUITE_ROWS if len(build(s)) <= 400]
    expected_small = {
        "alt:5", "alt:6", "sl:2:4", "sl:2:5", "sl:2:7", "sl:3:2",
        "sym:5", "pgl:2:5", "pgl:2:7", "prod(sym:3,sym:3,sym:3)",
    }
    problems = []
    if set(small) != expected_small:
        problems.append(f"unexpected order<=400 set {sorted(small)}")
    for spec in small:
        G = build(spec)
        variants = (
            build_graph(G),
            build_graph(G, include_center=True),
            build_reduced(G),
            collapse_twins(build_reduced(G)),
        )
        outcomes = {perf.is_berge(v, budget=10**9).outcome for v in variants}
        if len(outcomes) != 1 or "Unknown" in outcomes:
            problems.append(f"{spec}: outcomes {sorted(outcomes)}")
    _crit(capsys, 6, "reduction soundness", not problems,
          "; ".join(problems) or f"{len(small)} groups x 4 variants agree")


def test_criterion_7_ac_classification(suite, capsys):
    ac_true = {
        "alt:5",  # same group as sl:2:4
        "sl:2:4", "sl:2:5", "sl:2:7", "sl:2:8", "sl:2:9", "sl:2:11",
        "sl:2:13", "fib(3a6,sl:2:9)",
    }
    named_false = {"alt:6", "3a6", "sl:3:2", "psl:3:4", "sz:8"}
    problems = []
    for spec in classify.SUITE_ROWS:
        G = build(spec)
        if not G.is_quasisimple():
            continue
        want = spec in ac_true
        if G.is_ac_group() != want:
            problems.append(f"{spec}: is_ac_group {G.is_ac_group()}")
    for spec in named_false:
        G = build(spec)
        if not G.is_quasisimple() or G.is_ac_group():
            problems.append(f"{spec}: expected quasisimple non-AC")
    _crit(capsys, 7, "AC-group classification", not problems,
          "; ".join(problems) or
          f"{len(ac_true)} AC, {len(named_false)} named non-AC as listed")


def test_criterion_8_four_chain_dichotomy(suite, capsys):
    problems = []
    for spec in ("alt:6", "sl:3:2", "sl:3:4", "psl:3:4", "3a6"):
        g = build_reduced(build(spec))
        hit = wit.find_4chain(g)
        if hit is None:
            problems.append(f"{spec}: no 4-chain found")
            continue
        et = wit.tuple_from_vertices(g, hit, "four-chain")
        if not wit.verify_in_graph(et, g):
            problems.append(f"{spec}: 4-chain failed re-verification")
    sl2_qs = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)
    for q in sl2_qs:
        g = build_reduced(build(f"sl:2:{q}"))
        if wit.find_4chain(g) is not None:
            problems.append(f"sl:2:{q}: unexpected 4-chain")
    gz = build_reduced(build("sz:8"))
    if gz.n == 0 or wit.find_4chain(gz) is not None:
        problems.append("sz:8: reduced graph empty or contains a 4-chain")
    _crit(capsys, 8, "four-chain dichotomy", not problems,
          "; ".join(problems) or
          f"5 finds, none across {len(sl2_qs)} sl:2:q and sz:8")


def test_criterion_9_cold_cache_determinism(suite, capsys, tmp_path):
    def safe(spec):
        return re.sub(r"[^A-Za-z0-9_.-]", "_", spec)

    snapshots = []
    for tag in ("first", "second"):
        root = tmp_path / tag
        cache = root / "cache"
        certs = root / "certs"
        certs.mkdir(parents=True)
        for spec in classify.SUITE_ROWS:
            rc = cli.main([
                "analyze", spec,
                "--cache-dir", str(cache),
                "--certificate", str(certs / (safe(spec) + ".cert")),
            ])
            assert rc == 0, spec
        capsys.readouterr()  # drop the per-row reports
        snap = {}
        for p in sorted(cache.iterdir()) + sorted(certs.iterdir()):
            snap[p.name] = p.read_bytes()
        snapshots.append(snap)
    first, second = snapshots
    dimacs = sum(1 for name in first if name.endswith(".dimacs"))
    cert_files = sum(1 for name in first if name.endswith(".cert"))
    ok = first == second and dimacs == 66 and cert_files == 18
    _crit(capsys, 9, "cold-cache determinism", ok,
          f"{dimacs} DIMACS + {cert_files} certificates byte-identical"
          if ok else f"mismatch: {dimacs} dimacs, {cert_files} certs, "
          f"equal={first == second}")


def _suite_digests(reports, cache_dir):
    """SHA-256 of each NotPerfect row's certificate and of the two cache
    files (reduced, collapsed) of every row, keyed by file name."""
    def sha(data):
        return hashlib.sha256(data).hexdigest()

    out = {}
    for r in reports:
        if r.witness is not None:
            cert = cli.render_certificate(cli._witness_certificate(r))
            out[f"{r.spec}.cert"] = sha(cert.encode())
        reduced = build_reduced(build(r.spec))
        for graph, collapsed in ((reduced, False), (collapse_twins(reduced), True)):
            path = cli._cache_path(str(cache_dir), r.spec, False, True, collapsed)
            cli.write_cache(path, graph, r.spec)
            out[os.path.basename(path)] = sha(Path(path).read_bytes())
    return out


def test_suite_bytes_match_manifest(suite, capsys, tmp_path):
    # criterion 9 compares two runs of one tree; this pins the bytes across
    # changes, so the manifest changes only with a deliberate format change
    manifest = Path(__file__).parent / "data" / "suite_bytes.json"
    want = json.loads(manifest.read_text())
    got = _suite_digests(suite.reports, tmp_path)
    changed = sorted(name for name in want.keys() | got.keys()
                     if want.get(name) != got.get(name))
    _crit(capsys, 10, "certificate and cache bytes", not changed,
          "; ".join(changed) or f"{len(got)} files match {manifest.name}")
