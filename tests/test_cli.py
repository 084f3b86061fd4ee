"""Command line interface: exit codes, JSON reports, determinism."""

import json
import random

import numpy as np
import pytest

from fellsem.action import verify_twisted_action
from fellsem.cli import COMMANDS, main
from fellsem.generators import busby_smith_z2, five_element_action, mutate_omega, mutation_corpus
from fellsem.groupoid import cyclic_group, pair_groupoid, z2_nontrivial_cocycle
from fellsem.tro import column_tro


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    paths = {}

    def dump(name, payload):
        p = d / name
        p.write_text(json.dumps(payload))
        paths[name] = str(p)

    dump("busby.json", busby_smith_z2().to_json())
    dump("five.json", five_element_action().to_json())
    dump("pair.json", pair_groupoid([0, 1]).to_json())
    G, tau = z2_nontrivial_cocycle()
    twisted = G.to_json()
    twisted["tau"] = {f"{G.labels[a]},{G.labels[b]}": str(tau(a, b))
                      for (a, b) in G.composable_pairs() if tau(a, b)}
    dump("z2tw.json", twisted)
    z2 = cyclic_group(2).to_json()
    dump("z2cut.json", {**z2, "carriers": {"g1": []}})
    dump("z2bad.json", {**z2, "carriers": {"g1": ["g0"]}})
    commas = _relabel(z2, {"g0": "e,0", "g1": "g,1"})
    dump("z2comma.json", {**commas, "tau": {"g,1,g,1": "1/2"}})
    dump("z2commacut.json", {**commas, "carriers": {"g,1": []}})
    ambiguous = _relabel(z2, {"g0": "a", "g1": "a,a"})
    dump("z2ambiguous.json", {**ambiguous, "tau": {"a,a,a": "1/2"}})
    dump("z3notcocycle.json", {**cyclic_group(3).to_json(), "tau": {"g1,g1": "1/2"}})
    dump("isg.json", {"table": [[0, 1], [1, 0]], "elements": ["1", "g"]})
    dump("badisg.json", {"table": [[0, 0], [1, 1]]})
    col = column_tro(2)
    dump("col.json", [[[ [v.real, v.imag] for v in row] for row in m] for m in col.basis])
    diag = [np.diag([1.0, 0]), np.diag([0, 1.0])]
    dump("diag.json", [[[ [v.real, v.imag] for v in row] for row in m] for m in diag])
    dump("e11.json", [[[ [v.real, v.imag] for v in row] for row in diag[0]]])
    dump("empty.json", [])
    (d / "broken.json").write_text("{not json")
    paths["broken.json"] = str(d / "broken.json")
    return paths


def _relabel(groupoid_json, names):
    return {**groupoid_json,
            "arrows": [{**arr, "id": names[arr["id"]]} for arr in groupoid_json["arrows"]],
            "comp": [[names[a] for a in triple] for triple in groupoid_json["comp"]]}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_isg_verify_pass_and_fail(files, capsys):
    code, report = run(capsys, "isg", "verify", files["isg.json"])
    assert code == 0 and report["status"] == "pass"
    assert report["idempotents"] == ["1"]
    code, report = run(capsys, "isg", "verify", files["badisg.json"])
    assert code == 1 and report["status"] == "fail"
    assert report["violations"]


def test_repeated_or_missing_labels(files, capsys, tmp_path):
    # the five-element semigroup with a repeated label, and with one label
    # short: a failed isg verify, and an input error in an action payload
    with open(files["five.json"]) as fh:
        five = json.load(fh)
    S = five["semigroup"]
    for elements, message in ((S["elements"][:1] + S["elements"][:1] + S["elements"][2:], "repeats"),
                              (S["elements"][:-1], "4 labels for 5 elements")):
        isg_path, action_path = tmp_path / "isg.json", tmp_path / "action.json"
        isg_path.write_text(json.dumps({**S, "elements": elements}))
        action_path.write_text(json.dumps({**five, "semigroup": {**S, "elements": elements}}))
        code, report = run(capsys, "isg", "verify", str(isg_path))
        assert code == 1 and report["status"] == "fail", report
        assert message in report["violations"][0]
        code, report = run(capsys, "action", "verify", str(action_path))
        assert code == 2 and report["status"] == "input-error", report
        assert message in report["error"]


def test_input_errors_exit_2(files, capsys):
    code, report = run(capsys, "isg", "verify", files["broken.json"])
    assert code == 2 and report["status"] == "input-error"
    code, report = run(capsys, "isg", "verify", str(files["isg.json"]) + ".missing")
    assert code == 2
    code, report = run(capsys, "action", "bogus-op", files["busby.json"])
    assert code == 2


def test_action_commands(files, capsys):
    for op in ["verify", "consequences", "sieben", "siebenize", "germs"]:
        code, report = run(capsys, "action", op, files["busby.json"])
        assert code == 0, (op, report)
        assert report["violations"] == []
    code, report = run(capsys, "action", "germs", files["five.json"])
    assert report["arrows"] == 4


def test_germs_and_siebenize_fail_on_a_non_action(tmp_path, capsys):
    # the first of test_03's mutants: one omega value moved at one point
    rng = random.Random(2)
    bases = mutation_corpus(rng)
    M = mutate_omega(bases[0], rng)
    assert not verify_twisted_action(M)[0]
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(M.to_json()))
    for op in ["verify", "germs", "siebenize"]:
        code, report = run(capsys, "action", op, str(path))
        assert code == 1 and report["status"] == "fail" and report["violations"], (op, report)


@pytest.mark.parametrize("name, part, key, point", [
    ("five.json", "theta", "{0>0}", "0"),  # theta_{0>0} undefined on U({0>0})
    ("busby.json", "omega", "g,g", "0"),  # omega(g, g) given nowhere on its carrier
])
def test_consequences_of_a_broken_structure_fail_as_verify_does(files, tmp_path, capsys, name, part, key, point):
    # one theta or omega entry dropped: the structure family fails, and the
    # consequences report that failure, as action verify does, instead of
    # the KeyError or ActionError of a value they read off its carrier
    with open(files[name]) as fh:
        data = json.load(fh)
    del data[part][key][point]
    path = tmp_path / name
    path.write_text(json.dumps(data))
    code, verify = run(capsys, "action", "verify", str(path))
    assert code == 1 and verify["violations"] and all("'structure'" in v for v in verify["violations"])
    code, report = run(capsys, "action", "consequences", str(path))
    assert code == 1 and report["status"] == "fail", report
    assert report["violations"] == verify["violations"]


def test_bundle_commands(files, capsys):
    for op in ["verify", "classify", "extract", "roundtrip"]:
        code, report = run(capsys, "bundle", op, files["five.json"])
        assert code == 0, (op, report)
    code, report = run(capsys, "bundle", "roundtrip", files["busby.json"])
    assert report["exact"] is True


def test_groupoid_commands(files, capsys):
    code, report = run(capsys, "groupoid", "bisections", files["pair.json"])
    assert code == 0 and report["semigroup_size"] == 7
    for op in ["cocycle", "to-action", "roundtrip"]:
        code, report = run(capsys, "groupoid", op, files["z2tw.json"])
        assert code == 0, (op, report)


def test_algebra_commands(files, capsys):
    code, report = run(capsys, "algebra", "blocks", files["z2tw.json"])
    assert code == 0 and report["blocks"] == [1, 1]
    code, report = run(capsys, "algebra", "blocks", files["pair.json"])
    assert code == 0 and report["blocks"] == [2]
    code, report = run(capsys, "algebra", "germ", files["five.json"])
    assert code == 0 and report["dim"] == 4


def test_rep_commands(files, capsys):
    code, report = run(capsys, "rep", "regular", files["z2tw.json"])
    assert code == 0 and report["dimension"] == 2
    code, report = run(capsys, "rep", "convert", files["z2tw.json"])
    assert code == 0


def test_refine_commands(files, capsys):
    for op in ["saturate", "verify", "germ-check", "algebra-check"]:
        code, report = run(capsys, "refine", op, files["busby.json"])
        assert code == 0, (op, report)


def test_tro_commands(files, capsys):
    code, report = run(capsys, "tro", "regular", files["col.json"])
    assert code == 1 and report["status"] == "fail"
    code, report = run(capsys, "tro", "local", files["diag.json"])
    assert code == 0
    code, report = run(capsys, "tro", "closed", files["col.json"])
    assert code == 0


def test_shipped_examples_pass_their_verify_commands(capsys):
    import pathlib
    root = pathlib.Path(__file__).resolve().parent.parent / "data"
    commands = {
        "busby_smith_z2.json": ("action", "verify"),
        "corner_tro.json": ("tro", "regular"),
        "five_element_s.json": ("action", "verify"),
        "pair_groupoid.json": ("groupoid", "verify"),
        "z2_twisted.json": ("groupoid", "cocycle"),
    }
    shipped = sorted(p.name for p in root.glob("*.json"))
    assert shipped == sorted(commands)
    for name, (cmd, op) in commands.items():
        code, report = run(capsys, cmd, op, str(root / name))
        assert code == 0 and report["status"] == "pass", (name, report)


def test_reports_are_deterministic(files, capsys):
    code1, r1 = run(capsys, "--seed", "5", "bundle", "verify", files["five.json"])
    code2, r2 = run(capsys, "--seed", "5", "bundle", "verify", files["five.json"])
    r1.pop("timings"), r2.pop("timings")
    assert code1 == code2 == 0 and r1 == r2
    assert r1["digest"] == r2["digest"]
    assert r1["seed"] == 5


def test_tolerance_and_threads_flags_accepted(files, capsys):
    code, report = run(capsys, "--tolerance", "1e-7",
                       "bundle", "verify", files["busby.json"])
    assert code == 0


def test_unsaturated_bundle_is_a_failed_check(files, capsys):
    for op in ["germ-check", "algebra-check"]:
        code, report = run(capsys, "refine", op, files["z2cut.json"])
        assert code == 1 and report["status"] == "fail", (op, report)
        assert report["violations"][0].startswith("NotSaturated")
    code, report = run(capsys, "refine", "verify", files["z2cut.json"])
    assert code == 0


def test_oversized_carrier_override_is_an_input_error(files, capsys):
    code, report = run(capsys, "refine", "verify", files["z2bad.json"])
    assert code == 2 and report["status"] == "input-error"
    assert "exceeds bisection" in report["error"]


def test_arrow_ids_may_contain_commas(files, capsys):
    code, report = run(capsys, "groupoid", "cocycle", files["z2comma.json"])
    assert code == 0 and report["status"] == "pass", report
    code, report = run(capsys, "refine", "germ-check", files["z2commacut.json"])
    assert code == 1 and report["violations"][0].startswith("NotSaturated"), report


def test_ambiguous_tau_key_is_an_input_error(files, capsys):
    # "a,a,a" is both ("a", "a,a") and ("a,a", "a")
    code, report = run(capsys, "groupoid", "cocycle", files["z2ambiguous.json"])
    assert code == 2 and report["status"] == "input-error"
    assert "exactly one way" in report["error"]


def test_empty_matrix_list_is_an_input_error(files, capsys):
    for op in ["closed", "regular", "local"]:
        code, report = run(capsys, "tro", op, files["empty.json"])
        assert code == 2 and report["status"] == "input-error", (op, report)
        assert "non-empty list of matrices" in report["error"]


def test_non_cocycle_twist_fails(files, capsys):
    for command in (["groupoid", "cocycle"], ["algebra", "build"]):
        code, report = run(capsys, *command, files["z3notcocycle.json"])
        assert code == 1 and report["status"] == "fail", (command, report)


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1e-9"])
def test_non_finite_or_negative_tolerance_is_an_input_error(files, capsys, tolerance):
    code, report = run(capsys, f"--tolerance={tolerance}", "algebra", "build",
                       files["z3notcocycle.json"])
    assert code == 2 and report["status"] == "input-error", report
    assert "tolerance" in report["error"]


def test_tolerance_from_the_environment_is_checked(files, capsys, monkeypatch):
    monkeypatch.setenv("FELLSEM_TOLERANCE", "nan")
    code, report = run(capsys, "algebra", "build", files["z3notcocycle.json"])
    assert code == 2 and report["status"] == "input-error", report


def test_unparsable_tolerance_in_the_environment_is_an_input_error(files, capsys, monkeypatch):
    monkeypatch.setenv("FELLSEM_TOLERANCE", "abc")
    code, report = run(capsys, "algebra", "build", files["z3notcocycle.json"])
    assert code == 2 and report["status"] == "input-error", report
    assert "FELLSEM_TOLERANCE" in report["error"]
    # an explicit flag takes precedence, so the variable is not read
    code, report = run(capsys, "--tolerance=1e-9", "algebra", "build",
                       files["z3notcocycle.json"])
    assert code == 1 and report["status"] == "fail", report


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_trials_below_one_are_an_input_error(files, capsys, trials):
    for op in ["regular", "local"]:
        code, report = run(capsys, f"--trials={trials}", "tro", op, files["e11.json"])
        assert code == 2 and report["status"] == "input-error", (op, report)
        assert "trials" in report["error"]
        code, report = run(capsys, "tro", op, files["e11.json"])
        assert code == 0 and report["status"] == "pass", (op, report)


def _edited_five(tmp_path, edit, part="omega"):
    """data/five_element_s.json with its omega (or another part) edited by
    edit(omega)."""
    import pathlib
    path = pathlib.Path(__file__).resolve().parent.parent / "data" / "five_element_s.json"
    data = json.loads(path.read_text())
    edit(data[part])
    out = tmp_path / "edited.json"
    out.write_text(json.dumps(data))
    return str(out)


@pytest.mark.parametrize("edit, error", [
    (lambda w: w["{0>0},{0>0}"].update({"1": "0"}), "CarrierMismatch"),
    (lambda w: w["{0>0},{0>0}"].update({"7": "0"}), "CarrierMismatch"),
    (lambda w: w["{0>0},{0>0}"].update({"0": "half"}), "ValueError"),
    (lambda w: w.pop("{0>1},{1>0}"), "KeyError"),
], ids=["outside-its-carrier", "unknown-point", "not-a-fraction", "key-deleted"])
def test_malformed_omega_values_are_input_errors(tmp_path, capsys, edit, error):
    code, report = run(capsys, "action", "verify", _edited_five(tmp_path, edit))
    assert code == 2 and report["status"] == "input-error", report
    assert report["error"].startswith(error), report


def test_a_theta_that_is_not_injective_is_an_input_error(tmp_path, capsys):
    # theta_{0>1} sends both points to 1
    edited = _edited_five(tmp_path, lambda theta: theta["{0>1}"].update({"1": "1"}), "theta")
    code, report = run(capsys, "action", "verify", edited)
    assert code == 2 and report["status"] == "input-error", report
    assert report["error"] == "ValueError: mapping is not injective", report


@pytest.mark.parametrize("part", ["U", "theta"])
def test_an_unknown_element_label_is_an_input_error(tmp_path, capsys, part):
    edited = _edited_five(tmp_path, lambda values: values.update({"zz": values.pop("{0>1}")}), part)
    code, report = run(capsys, "action", "verify", edited)
    assert code == 2 and report["status"] == "input-error", report
    assert report["error"] == "ValueError: 'zz' is not in list", report


def test_empty_omega_over_a_carrier_is_not_unit(tmp_path, capsys):
    code, report = run(capsys, "action", "verify",
                       _edited_five(tmp_path, lambda w: w.update({"{0>1},{1>0}": {}})))
    assert code == 1 and report["status"] == "fail", report
    assert report["violations"] == ["('structure', ('omega-not-unit', ('{0>1}', '{1>0}', '1')))"]


def test_every_command_rejects_an_unknown_operation(files, capsys):
    # a payload each command reads, so the lookup and not the reader fails
    payloads = {"isg": "isg.json", "tro": "col.json", "action": "busby.json", "bundle": "busby.json",
                "groupoid": "z2tw.json", "algebra": "z2tw.json", "rep": "z2tw.json", "refine": "busby.json"}
    for command in COMMANDS:
        code, report = run(capsys, command, "nope", files[payloads[command]])
        assert code == 2 and report["status"] == "input-error", (command, report)
        assert report["error"] == f"unknown {command} operation nope", (command, report)


def test_readme_lists_the_command_table():
    import pathlib
    import re
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    paragraph = readme[readme.index("\nSubcommands"):].split("\n\n")[0]
    listed = [(command, op) for command, ops in re.findall(r"`([a-z]+) ([a-z|-]+)`", paragraph)
              for op in ops.split("|")]
    assert sorted(listed) == sorted((command, op) for command, (_, ops) in COMMANDS.items() for op in ops)
