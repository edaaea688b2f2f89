import json
import os
import sys
from random import Random
from types import SimpleNamespace

import pytest
from sphero import cli
from sphero.cli import main
from sphero.groups import Config, compose, element_to_json, identity_element, inverse, random_element

from conftest import make_x0
from golden_cases import GOLDEN


def run(args):
    return main(args)


def test_build_cn_json(tmp_path):
    out = tmp_path / "c5.json"
    assert run(["build-cn", "--q", "2", "--subgroup", "sym", "--n", "5",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["complex"]["vertices"]) == 10
    assert len(doc["complex"]["edges"]) == 15
    assert doc["manifest"]["command"] == "build-cn"


def test_build_cn_csv_trivial(tmp_path):
    out = tmp_path / "c3.csv"
    assert run(["build-cn", "--q", "2", "--subgroup", "triv", "--n", "3",
                "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# manifest:")
    assert lines[1] == "vertex_i,vertex_j"
    assert len(lines) == 2  # no edges


def test_build_cn_rejects_bad_q():
    assert run(["build-cn", "--q", "1", "--subgroup", "sym", "--n", "3"]) == 2


def test_build_cn_rejects_bad_generator():
    assert run(["build-cn", "--q", "2", "--subgroup", "99", "--n", "3"]) == 2


def test_usage_error_exit_code():
    assert run(["build-cn", "--q", "2"]) == 2  # missing --n


def test_byte_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        run(["build-cn", "--q", "2", "--subgroup", "triv", "--n", "4",
             "--out", str(path)])
    assert a.read_bytes() == b.read_bytes()


def test_output_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("SPHERO_OUT_DIR", str(tmp_path))
    assert run(["build-cn", "--q", "2", "--n", "3", "--out", "sub/c.json"]) == 0
    assert (tmp_path / "sub" / "c.json").exists()


def test_verify_nu_small_grid(tmp_path):
    out = tmp_path / "nu.csv"
    code = run(["verify-nu", "--q", "2", "--subgroup", "sym", "--nmax", "6",
                "--pi1-budget", "2000", "--out", str(out)])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    by_n = {int(r[0]): r for r in rows}
    assert by_n[5][4] == "pass"
    assert by_n[5][1] == "0"


def test_verify_nu_resource_guard():
    assert run(["verify-nu", "--q", "2", "--nmax", "50"]) == 3
    assert run(["verify-nu", "--q", "3", "--nmax", "10"]) == 3
    assert run(["verify-nu", "--q", "3", "--nmax", "10", "--guard", "10"]) in (0, 1)


def test_verify_nu_guard_builds_no_config(monkeypatch):
    # Sym(9) has 362,880 elements; the guard must answer before any is built
    built = []
    monkeypatch.setattr(cli, "_config_from_args", lambda args: built.append(args) or Config.make(2, 1))
    assert run(["verify-nu", "--q", "9", "--nmax", "50"]) == 3
    assert built == []


def test_verify_nu_q2_guard_stops_below_eleven(monkeypatch):
    # q=2 sym nmax 11 runs for more than ten minutes: the default guard refuses it before
    # any config is built, and --guard 11 lets it through to the build
    class Built(Exception):
        """Raised in place of the build, so nothing past the guard runs."""

    built = []

    def build(args):
        built.append(args.nmax)
        raise Built

    monkeypatch.setattr(cli, "_config_from_args", build)
    assert cli.GUARD_DEFAULTS[2] == 10
    assert run(["verify-nu", "--q", "2", "--subgroup", "sym", "--nmax", "11"]) == 3
    assert built == []
    with pytest.raises(Built):
        run(["verify-nu", "--q", "2", "--subgroup", "sym", "--nmax", "11", "--guard", "11"])
    assert built == [11]


def test_verify_nu_rejects_negative_budget(tmp_path, capsys):
    # a negative budget would skip every search and write "unknown" where a
    # proof exists (q=2 sym n=8)
    out = tmp_path / "nu.csv"
    assert run(["verify-nu", "--q", "2", "--nmax", "8", "--pi1-budget", "-1", "--out", str(out)]) == 2
    assert not out.exists()
    assert "--pi1-budget" in capsys.readouterr().err
    assert run(["verify-nu", "--q", "2", "--nmax", "8", "--pi1-budget", "0", "--out", str(out)]) == 0


NEGATIVE_COUNTS = {
    "max-dim": ["build-cn", "--q", "2", "--n", "4", "--max-dim", "-1", "--dump-matrices"],
    "nmax": ["verify-nu", "--q", "2", "--nmax", "-1", "--out"],
    "guard": ["verify-nu", "--q", "2", "--nmax", "2", "--guard", "-1", "--out"],
    "n": ["desclink", "--q", "2", "--n", "-2", "--out"],
    "cap": ["desclink", "--q", "2", "--n", "2", "--cap", "-1", "--out"],
}


@pytest.mark.parametrize("flag", NEGATIVE_COUNTS)
def test_negative_count_is_a_usage_error(tmp_path, capsys, flag):
    # refused by the parser: no resource guard is consulted and no file is written
    assert run(NEGATIVE_COUNTS[flag] + [str(tmp_path / "out")]) == 2
    assert f"--{flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_parser_is_built_once_and_commands_dispatch_by_name(tmp_path, monkeypatch):
    assert run(["desclink", "--q", "2", "--n", "1", "--out", str(tmp_path / "a.json")]) == 0
    rebuilt = []
    monkeypatch.setattr(cli, "build_parser", lambda: rebuilt.append(1))
    # a command replaced after the parser was built still runs
    monkeypatch.setattr(cli, "cmd_desclink", lambda args: 7)
    assert run(["desclink", "--q", "2", "--n", "1"]) == 7
    assert rebuilt == []


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "taken"
    target.mkdir()
    assert run(["build-cn", "--q", "2", "--n", "3", "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]  # no .sphero-* temp file left


def test_verify_nu_q3(tmp_path):
    out = tmp_path / "nu3.csv"
    assert run(["verify-nu", "--q", "3", "--subgroup", "sym", "--nmax", "6",
                "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert all(r[1] == "-1" for r in rows if int(r[0]) >= 3)  # nu = -1 from n=3 on
    assert all(r[4] == "pass" for r in rows)


def test_desclink_full_and_star(tmp_path):
    out = tmp_path / "dl.json"
    csv_out = tmp_path / "dl.csv"
    argv = ["desclink", "--q", "2", "--subgroup", "sym", "--n", "3",
            "--star", "--full", "--out", str(out), "--homology-csv", str(csv_out)]
    assert run(argv + ["--r", "1"]) == 2  # splitting posets take no r
    assert not out.exists()
    assert run(argv) == 0
    doc = json.loads(out.read_text())
    assert len(doc["full_poset"]["objects"]) == 6
    assert len(doc["star_poset"]["objects"]) == 3
    assert doc["full_components"] == 3
    assert doc["star_components"] == 3
    assert doc["homology_equal"] is True
    lines = csv_out.read_text().splitlines()
    assert lines[1] == "model,dim,betti,torsion"


def _spy(monkeypatch, module, name):
    """Record the arguments of every call to module.name, in each sphero module that binds it."""
    calls = []
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if (mod_name == "sphero" or mod_name.startswith("sphero.")) and vars(mod).get(name) is fn:
            monkeypatch.setattr(mod, name, wrapper)
    return calls


def test_desclink_full_and_star_enumerates_once(tmp_path, monkeypatch):
    # one enumeration of records and one poset build: the star model is cut out of the full
    # poset as its full subcategory on the very elementary records
    from sphero import complexes

    enumerated = _spy(monkeypatch, complexes, "split_records")
    built = _spy(monkeypatch, complexes, "split_class_poset")
    out = tmp_path / "dl.json"
    assert run(["desclink", "--q", "2", "--subgroup", "sym", "--n", "4", "--full", "--star",
                "--out", str(out)]) == 0
    assert len(enumerated) == 1
    [(records,)] = built
    assert len(records) == 36
    elementary = sorted(r.object_id() for r in records if r.is_very_elementary)
    assert json.loads(out.read_text())["star_poset"]["objects"] == elementary
    assert len(elementary) == 9


def test_desclink_star_builds_only_the_very_elementary_poset(tmp_path, monkeypatch):
    # the star model never builds the full poset's arrows
    from sphero import complexes

    built = _spy(monkeypatch, complexes, "split_class_poset")
    out = tmp_path / "dl.json"
    assert run(["desclink", "--q", "2", "--subgroup", "triv", "--n", "4", "--star",
                "--out", str(out)]) == 0
    [(records,)] = built
    assert records and all(r.is_very_elementary for r in records)
    assert len(records) == len(json.loads(out.read_text())["star_poset"]["objects"])


def test_verify_nu_reduces_each_row_once(tmp_path, monkeypatch):
    # the CSV and the pi1 report share one reduction through max(nu + 1, 1)
    from sphero import homology

    for d, nmax in (("sym", "9"), ("triv", "8")):
        calls = _spy(monkeypatch, homology, "reduced_homology")
        out = tmp_path / f"nu-{d}.csv"
        assert run(["verify-nu", "--q", "2", "--subgroup", d, "--nmax", nmax,
                    "--pi1-budget", "5000", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        nonempty = [r for r in rows if r[2]]
        assert len(nonempty) == int(nmax) - 1
        assert [through for _cx, through in calls] == [max(int(r[1]) + 1, 1) for r in nonempty]
        monkeypatch.undo()


def test_desclink_takes_no_isomorphism_quotient(tmp_path, monkeypatch):
    # split posets are honest, so their order complexes are taken as they are
    from sphero import posets

    calls = _spy(monkeypatch, posets, "underlying_poset")
    assert run(["desclink", "--q", "2", "--subgroup", "sym", "--n", "4", "--full", "--star",
                "--out", str(tmp_path / "dl.json"),
                "--homology-csv", str(tmp_path / "dl.csv")]) == 0
    assert calls == []


def test_desclink_homology_equal_compares_degree_by_degree(tmp_path, monkeypatch):
    # H~1 = Z for the full poset and H~2 = Z for the star poset: the same groups in other degrees
    results = iter([SimpleNamespace(betti=[0, 1], torsion=[(), ()]),
                    SimpleNamespace(betti=[0, 0, 1], torsion=[(), (), ()])])
    monkeypatch.setattr(cli, "reduced_homology", lambda cc, through: next(results))
    out = tmp_path / "dl.json"
    assert run(["desclink", "--q", "2", "--n", "3", "--full", "--star", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["homology_equal"] is False


def test_desclink_n1_empty(tmp_path):
    out = tmp_path / "dl1.json"
    assert run(["desclink", "--q", "2", "--n", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["full_poset"]["objects"] == []


def test_desclink_subgroup_words_parse_as_in_verify_nu(tmp_path):
    # an empty word in a comma list is dropped, as verify-nu and build-cn do
    docs = []
    for sub in ("21", "21,"):
        out = tmp_path / f"dl{len(docs)}.json"
        assert run(["desclink", "--q", "2", "--subgroup", sub, "--n", "2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc.pop("manifest")["params"]["subgroup"] == sub
        docs.append(doc)
    assert docs[0] == docs[1]
    assert run(["verify-nu", "--q", "2", "--subgroup", "21,", "--nmax", "2",
                "--out", str(tmp_path / "v.csv")]) == 0


def test_desclink_cap(tmp_path):
    assert run(["desclink", "--q", "2", "--n", "9", "--cap", "6"]) == 3


def test_desclink_order_complex_guard(tmp_path, monkeypatch, capsys):
    # (2, sym, 4): 105 chains on 36 objects in the full poset, 15 on 9 in the star
    out, csv = tmp_path / "d.json", tmp_path / "d.csv"
    argv = ["desclink", "--q", "2", "--subgroup", "sym", "--n", "4", "--star",
            "--out", str(out), "--homology-csv", str(csv)]
    for models, bits, chains in ((["--full"], 3779, "105 chains on 36 objects"),
                                 ([], 134, "15 chains on 9 objects")):
        monkeypatch.setattr(cli, "ORDER_COMPLEX_BITS", bits)
        assert run(argv + models) == 3
        assert chains in capsys.readouterr().err
        assert not out.exists() and not csv.exists()
    monkeypatch.setattr(cli, "ORDER_COMPLEX_BITS", 3780)
    assert run(argv + ["--full"]) == 0 and out.exists() and csv.exists()


def test_group_compose_and_inverse(tmp_path, triv2):
    x0 = make_x0(triv2)
    lhs = tmp_path / "x0.json"
    rhs = tmp_path / "x0inv.json"
    lhs.write_text(json.dumps(element_to_json(x0)))
    rhs.write_text(json.dumps(element_to_json(inverse(x0))))
    out = tmp_path / "out.json"
    assert run(["group", "compose", "--lhs", str(lhs), "--rhs", str(rhs),
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["element"] == element_to_json(identity_element(triv2))


def test_group_stab_and_subnormal(tmp_path, sym2):
    ident = tmp_path / "id.json"
    ident.write_text(json.dumps(element_to_json(identity_element(sym2))))
    out = tmp_path / "stab.json"
    assert run(["group", "stab", "--gamma", str(ident), "--phi", str(ident),
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["stabilizes"] is True
    out2 = tmp_path / "sn.json"
    assert run(["group", "subnormal", "--phi", str(ident), "--k", "3",
                "--out", str(out2)]) == 0
    assert json.loads(out2.read_text())["kprime"] == 3


def test_group_manifest_records_its_inputs(tmp_path):
    # --k and each element's digest are in the manifest, so runs that write
    # different answers write different manifests
    phi = os.path.join(GOLDEN, "inputs", "q2-sym-r1-a.json")
    docs = {}
    for k in ("0", "5"):
        out = tmp_path / f"k{k}.json"
        assert run(["group", "subnormal", "--phi", phi, "--k", k, "--out", str(out)]) == 0
        docs[k] = json.loads(out.read_text())
    assert docs["0"]["kprime"] != docs["5"]["kprime"]
    assert docs["0"]["manifest"] != docs["5"]["manifest"]
    assert [d["manifest"]["params"]["k"] for d in docs.values()] == [0, 5]
    # the digest is of the element, not of the file's bytes
    with open(phi) as fh:
        element = json.load(fh)
    respaced = tmp_path / "respaced.json"
    respaced.write_text(json.dumps(element, indent=4))
    out = tmp_path / "respaced-out.json"
    assert run(["group", "subnormal", "--phi", str(respaced), "--k", "0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["manifest"] == docs["0"]["manifest"]


def test_group_compose_reads_the_label_group_however_listed(tmp_path):
    a = random_element(Random(1), Config.make(3, 1, "213"))
    doc = element_to_json(a)
    assert doc["D"] == ["123", "213"]
    lhs, rhs = tmp_path / "a.json", tmp_path / "a-reordered.json"
    lhs.write_text(json.dumps(doc))
    rhs.write_text(json.dumps(dict(doc, D=["213", "123"])))
    out = tmp_path / "aa.json"
    assert run(["group", "compose", "--lhs", str(lhs), "--rhs", str(rhs), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["element"] == element_to_json(compose(a, a))


def test_group_schema_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"q": 2}')
    assert run(["group", "canon", "--input", str(bad)]) == 2


def test_trade_pipeline(tmp_path):
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps({
        "labels": ["H"],
        "stages": [
            {"cells": [[0, "H", 1]], "connectivity": 0},
            {"cells": [[0, "H", 1], [1, "H", 1]], "connectivity": 1},
            {"cells": [[1, "H", 2]]},
        ],
    }))
    out = tmp_path / "trade.json"
    assert run(["trade", "--schedule", str(sched), "--prefix", "3",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["final_inventory"] == [[0, "H", 1], [1, "H", 1], [2, "H", 1], [3, "H", 2]]
    assert doc["chi_before"]["H"] == doc["chi_after"]["H"] == -1


def test_trade_unreachable_schedule(tmp_path):
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps({
        "labels": ["H"],
        "stages": [
            {"cells": [[0, "H", 1]], "connectivity": 0},
            {"cells": [[1, "H", 1]], "connectivity": 1},
            {"cells": [[1, "H", 1]], "connectivity": 1},
            {"cells": []},
        ],
    }))
    assert run(["trade", "--schedule", str(sched), "--prefix", "4"]) == 4


def test_trade_schema_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nope": true}')
    assert run(["trade", "--schedule", str(bad), "--prefix", "1"]) == 2


def _group_doc(**changes):
    doc = element_to_json(make_x0(Config.make(2, 1, "triv")))
    doc.update(changes)
    return doc


def test_group_rejects_malformed_fields(tmp_path):
    bad = tmp_path / "bad.json"
    for doc in (_group_doc(decorations=["x"] * 3), _group_doc(decorations="xyz"),
                _group_doc(domain=[5, 5, 5]), _group_doc(codomain=[5, 5, 5])):
        bad.write_text(json.dumps(doc))
        assert run(["group", "canon", "--input", str(bad)]) == 2


def test_group_rejects_non_integers(tmp_path):
    ident = element_to_json(identity_element(Config.make(2, 1, "triv")))
    bad = tmp_path / "bad.json"
    for change in ({"q": 2.9}, {"map": [0.7]}):
        bad.write_text(json.dumps(dict(ident, **change)))
        assert run(["group", "canon", "--input", str(bad)]) == 2, change


def _schedule(tmp_path, stages):
    path = tmp_path / "sched.json"
    path.write_text(json.dumps({"labels": ["H"], "stages": stages}))
    return str(path)


def test_trade_rejects_malformed_schedules(tmp_path):
    cells = [[0, "H", 1]]
    for stages in ("abc", [5], [{"cells": 5}],
                   [{"cells": cells, "connectivity": "x"}, {"cells": cells}],
                   [{"cells": cells, "connectivity": True}, {"cells": cells}],
                   [{"cells": cells, "connectivity": 1.5}, {"cells": cells}]):
        assert run(["trade", "--schedule", _schedule(tmp_path, stages), "--prefix", "2"]) == 2
    for prefix in ("1", "2"):  # a schedule with no stages has no stage to name
        assert run(["trade", "--schedule", _schedule(tmp_path, []), "--prefix", prefix]) == 2
    ok = [{"cells": cells, "connectivity": 0}, {"cells": cells, "connectivity": None}]
    assert run(["trade", "--schedule", _schedule(tmp_path, ok), "--prefix", "2",
                "--out", str(tmp_path / "t.json")]) == 0


def test_trade_rejects_non_integer_cells(tmp_path):
    cells = [[0, "H", 1]]
    for bad in ([0, "H", 1.5], [True, "H", 1]):
        stages = [{"cells": cells + [bad], "connectivity": 0}, {"cells": cells}]
        assert run(["trade", "--schedule", _schedule(tmp_path, stages), "--prefix", "2"]) == 2, bad


@pytest.mark.parametrize("content", [None, "{"], ids=["missing", "not-json"])
@pytest.mark.parametrize("command", ["group", "trade"])
def test_unusable_input_file_is_a_usage_error(tmp_path, capsys, command, content):
    # a missing file or one that is not JSON: exit 2 on one stderr line, nothing written
    path = tmp_path / "in.json"
    if content is not None:
        path.write_text(content)
    argv = {"group": ["group", "canon", "--input", str(path)],
            "trade": ["trade", "--schedule", str(path), "--prefix", "1"]}[command]
    out = tmp_path / "out.json"
    assert run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()
