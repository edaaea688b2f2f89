import os

import pytest

from golden_cases import CASES, OUTPUTS, run_case


@pytest.mark.parametrize("name,argv,outputs", CASES, ids=[name for name, _, _ in CASES])
def test_cli_output_matches_golden(tmp_path, name, argv, outputs):
    assert run_case(argv, outputs, str(tmp_path)) == 0
    for _, file in outputs:
        with open(os.path.join(OUTPUTS, file), "rb") as fh:
            assert (tmp_path / file).read_bytes() == fh.read(), file
