"""The report bundle is byte-identical to the recorded golden digests
(tests/golden_digests.py)."""

import pytest

import golden_digests


@pytest.mark.parametrize("case", golden_digests.CASES)
def test_bundle_matches_golden_digests(case, tmp_path):
    version = golden_digests.python_version()
    recorded = golden_digests.read_golden().get(version)
    if recorded is None:
        pytest.skip(
            f"tests/golden/bundle_sha256.json has no key {version!r}; record it with "
            "PYTHONPATH=src python tests/golden_digests.py"
        )
    assert golden_digests.bundle_digests(case, str(tmp_path)) == recorded[case]
