"""The `analyze` reports of every single-atom spec the guards admit.

tests/data/sweep_reports.json holds, for each spec, every Report field but
`seconds`, or the message of the error that refuses it.  It records what the
pipeline proved, not a theorem: a change that means to alter a report
regenerates it and says why.

    python tests/sweep_manifest.py --write      regenerate the manifest, one
                                                process per spec
    python tests/sweep_manifest.py SPEC ...     compare these specs' reports
                                                with the manifest

Run from the repository root with PYTHONPATH=src.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from pcg import classify, cli
from pcg.errors import PcgError

MANIFEST = Path(__file__).resolve().parent / "data" / "sweep_reports.json"

_PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)

SPECS = (
    [f"{f}:{n}" for f in ("sym", "alt") for n in range(5, 10)]
    + [f"{f}:2:{q}" for q in _PRIME_POWERS for f in ("sl", "psl")]
    + [f"{f}:2:{q}" for q in _PRIME_POWERS if q <= 9 for f in ("gl", "pgl")]
    + [f"{f}:3:{q}" for q in (2, 3, 4, 5) for f in ("sl", "psl")]
    + [f"{f}:3:{q}" for q in (2, 3, 4) for f in ("su", "psu")]
    + [f"{f}:4:{q}" for q in (2, 3) for f in ("sp", "psp")]
    + ["sz:8", "3a6", "aut-sl2-8"]
)

# above 1 s of `analyze` each; a CI step checks them instead of tier-1
SLOW = ("sym:9", "alt:9", "sl:3:5", "psl:3:5")


def report_fields(spec: str) -> dict:
    """Every Report field but seconds, or the refusal's message."""
    try:
        r = classify.analyze(spec)
    except PcgError as e:
        return {"spec": spec, "refused": f"{type(e).__name__}: {e}"}
    w = r.witness
    return {
        "spec": r.spec,
        "order": r.order,
        "center": r.center,
        "quasisimple": r.quasisimple,
        "ac_group": r.ac_group,
        "reduced_n": r.reduced_n,
        "collapsed_n": r.collapsed_n,
        "outcome": r.outcome,
        "certificate": r.certificate,
        "witness": None if w is None else {
            "kind": w.kind, "length": w.length, "vertices": list(w.vertices)},
        "witness_encodings": (None if r.witness_encodings is None
                              else list(r.witness_encodings)),
        "expected": r.expected,
        "match": r.match,
    }


def load() -> dict[str, dict]:
    return {row["spec"]: row for row in json.loads(MANIFEST.read_text())}


def problems(spec: str, want: dict) -> list[str]:
    """Differences from the manifest row, plus a NotPerfect witness that
    fails to re-verify from group elements in the reduced graph."""
    got = report_fields(spec)
    out = [f"{spec}: {k} {got.get(k)!r} != {want.get(k)!r}"
           for k in sorted(set(got) | set(want)) if got.get(k) != want.get(k)]
    if got.get("outcome") == "NotBerge":
        cert = cli.Certificate(spec=spec, kind=got["witness"]["kind"],
                               length=got["witness"]["length"],
                               encodings=tuple(got["witness_encodings"]))
        if not cli.verify_certificate(cert):
            out.append(f"{spec}: witness failed re-verification")
    return out


def _write() -> None:
    rows = []
    for spec in SPECS:
        out = subprocess.run([sys.executable, __file__, "--one", spec],
                             check=True, capture_output=True, text=True).stdout
        rows.append(json.loads(out))
        print(spec, "refused" if "refused" in rows[-1] else rows[-1]["outcome"])
    MANIFEST.write_text(json.dumps(rows, indent=1) + "\n")


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        _write()
        return 0
    if len(argv) == 2 and argv[0] == "--one":
        print(json.dumps(report_fields(argv[1])))
        return 0
    manifest = load()
    bad = [p for spec in argv for p in problems(spec, manifest[spec])]
    print("\n".join(bad) or f"{len(argv)} reports match the manifest")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
