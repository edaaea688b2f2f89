import hashlib
import json
import os

import pytest

from golden_cases import CASES, GOLDEN, OUTPUTS, run_case


@pytest.mark.parametrize("name,argv,outputs", CASES, ids=[name for name, _, _ in CASES])
def test_cli_output_matches_golden(tmp_path, name, argv, outputs):
    assert run_case(argv, outputs, str(tmp_path)) == 0
    for _, file in outputs:
        with open(os.path.join(OUTPUTS, file), "rb") as fh:
            assert (tmp_path / file).read_bytes() == fh.read(), file


def test_group_goldens_changed_only_in_their_manifest_params():
    # each group golden, with its manifest as before it recorded the inputs
    # (the op alone), is byte for byte the golden pinned by digest then
    with open(os.path.join(GOLDEN, "group-before-manifest-inputs.json")) as fh:
        before = json.load(fh)
    group = {file: argv for _, argv, outputs in CASES if argv[0] == "group" for _, file in outputs}
    assert set(before) == set(group)
    for file, argv in group.items():
        with open(os.path.join(OUTPUTS, file)) as fh:
            doc = json.load(fh)
        params = doc["manifest"]["params"]
        files = [flag[2:] for flag in argv[2::2] if flag != "--k"]
        assert sorted(params) == sorted(["op", *(["k"] if "--k" in argv else []),
                                         *(f"{f}_sha256" for f in files)]), file
        doc["manifest"]["params"] = {"op": params["op"]}
        text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == before[file], file
