"""Every guarded single-atom spec against its recorded report.

The four specs in sweep_manifest.SLOW take over a second each and are
compared by a CI step instead (python tests/sweep_manifest.py ...).
"""

import pytest

import sweep_manifest

_MANIFEST = sweep_manifest.load()
_FAST = [s for s in sweep_manifest.SPECS if s not in sweep_manifest.SLOW]


def test_manifest_covers_every_spec():
    assert list(_MANIFEST) == sweep_manifest.SPECS
    refused = [s for s, row in _MANIFEST.items() if "refused" in row]
    assert refused == ["psl:2:2", "psl:2:3", "psu:3:2", "psp:4:2"]
    outcomes = [row["outcome"] for row in _MANIFEST.values() if "outcome" in row]
    assert (outcomes.count("Berge"), outcomes.count("NotBerge")) == (45, 32)


@pytest.mark.parametrize("spec", _FAST)
def test_report_matches_manifest(spec):
    assert sweep_manifest.problems(spec, _MANIFEST[spec]) == []
