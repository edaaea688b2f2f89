import os

import pytest

from golden_cases import CASES, OUTPUTS, run_case


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_cli_output_matches_golden(tmp_path, name, argv):
    out = tmp_path / "out.json"
    assert run_case(argv, str(out)) == 0
    with open(os.path.join(OUTPUTS, name + ".json"), "rb") as fh:
        assert out.read_bytes() == fh.read()
