import hashlib
import json
import pathlib
import random

import pytest

from singlink import cli, scenario
from singlink.moves import apply_script
from singlink.scenario import (
    ScenarioError, load_scenario, scenario_from_json, scenario_to_json,
    script_from_json, trace_to_json,
)
from singlink.simplify import decide
from singlink.state import state_hash
from test_simplify import SCHAR, Z, ladder, three_cycles

SCENARIOS = pathlib.Path(__file__).parent.parent / "scenarios"
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def path(name):
    return str(SCENARIOS / f"{name}.json")


class TestScenarioCodec:
    @pytest.mark.parametrize("name", [
        "b3s1-odd", "b3s1-even", "s3s1", "z4-schar", "q8-typeII",
    ])
    def test_round_trip(self, name):
        sc = load_scenario(path(name))
        sc2 = scenario_from_json(scenario_to_json(sc))
        assert scenario_to_json(sc2) == scenario_to_json(sc)
        assert state_hash(sc.G, sc.state) == state_hash(sc2.G, sc2.state)

    def test_rejects_wrong_schema_version(self):
        obj = scenario_to_json(load_scenario(path("s3s1")))
        obj["schema_version"] = 99
        with pytest.raises(ScenarioError):
            scenario_from_json(obj)

    def test_rejects_garbage(self):
        with pytest.raises(ScenarioError):
            scenario_from_json({"not": "a scenario"})


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    payload = json.loads(out.strip().splitlines()[-1])
    return code, payload, out


class TestCli:
    def test_validate_ok(self, capsys):
        code, payload, _ = run(capsys, "validate", path("s3s1"))
        assert code == 0 and payload["ok"]

    def test_machine_format_is_json_only(self, capsys):
        code, payload, out = run(capsys, "--format", "machine",
                                 "validate", path("s3s1"))
        assert code == 0
        assert len(out.strip().splitlines()) == 1

    def test_invariants(self, capsys):
        code, payload, _ = run(capsys, "invariants", path("b3s1-odd"))
        assert code == 0
        assert payload["delta"] == [1]
        assert not payload["km"]["is_zero"]

    def test_decide_obstructed_exit_code(self, capsys):
        code, payload, _ = run(capsys, "decide", path("b3s1-odd"))
        assert code == 2
        assert payload["outcome"] == "Obstructed-km"
        assert payload["class"]["rep"] == [1]

    def test_decide_concordant_empty(self, capsys):
        code, payload, _ = run(capsys, "decide", path("b3s1-even"))
        assert code == 0
        assert payload["outcome"] == "Concordant"
        assert payload["final_circles"] == 0

    @pytest.mark.parametrize("name,want", [
        ("b3s1-odd", 2), ("b3s1-even", 2), ("s3s1", 1),
        ("z4-schar", 4), ("q8-typeII", 8),
    ])
    def test_bound_values(self, capsys, name, want):
        code, payload, _ = run(capsys, "bound", path(name))
        assert code == 0 and payload["bound"] == want

    def test_sweep_small(self, capsys):
        code, payload, _ = run(capsys, "--format", "machine",
                               "sweep", "--seed", "3", "--count", "20")
        assert code == 0
        assert payload["states"] == 20
        assert payload["violations"] == []

    def test_crosscheck(self, capsys):
        code, payload, _ = run(capsys, "crosscheck")
        assert code == 0
        assert all(not r["mismatches"] for r in payload["rules"].values())

    def test_missing_file_is_exit_one(self, capsys):
        code = cli.main(["validate", "/nonexistent/scenario.json"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_trace_out_replays(self, capsys, tmp_path):
        trace_file = tmp_path / "trace.json"
        code, payload, _ = run(capsys, "--format", "machine",
                               "--trace-out", str(trace_file),
                               "decide", path("b3s1-even"))
        assert code == 0
        sc = load_scenario(path("b3s1-even"))
        script = script_from_json(json.loads(trace_file.read_text()))
        final, _ = apply_script(sc.G, sc.ctx, sc.state, script)
        assert state_hash(sc.G, final) == payload["final_hash"]

    def test_simplify_reports_label(self, capsys):
        code, payload, _ = run(capsys, "simplify", path("b3s1-odd"))
        assert code == 0
        # label class of the surviving hopf pair is odd
        assert payload["label"][0] % 2 == 1


def _set(key, value):
    def mutate(obj):
        *path, last = key
        for k in path:
            obj = obj[k]
        obj[last] = value
    return mutate


def _drop_label(obj):
    del obj["state"]["circles"][0]["label"]


def _drop_version(obj):
    del obj["schema_version"]


def _duplicate_h0(obj):
    # a second circle h0, and a script that moves it: every command that
    # moves the state refuses it before the first move
    circles = obj["state"]["circles"]
    circles.append({**circles[0], "label": [5]})
    obj["script"] = [{"move": "finger_move", "params": {"a": "h0", "b": "h0"}}]


MALFORMED = {
    "scenario-not-object": ("b3s1-odd", lambda obj: [obj]),
    "state-not-object": ("b3s1-odd", _set(["state"], ["h0", "h1"])),
    "circle-not-object": ("b3s1-odd", _set(["state", "circles", 0], "h0")),
    "context-not-object": ("b3s1-odd", _set(["context"], "unframed")),
    "type2-unlabeled": ("q8-typeII", _drop_label),
    "mu_pi3-length": ("b3s1-odd", _set(["context", "mu_pi3"], [[1]])),
    "delta_self-length": ("b3s1-odd", _set(["context", "delta_self"], [[1, 0]])),
    "lk-off-clasps": ("b3s1-odd", _set(["state", "lk"], [])),
    "s_characteristic-string": (
        "b3s1-odd", _set(["context", "s_characteristic"], "false")),
    "based-string": ("b3s1-odd", _set(["context", "based"], "no")),
    "mu_pi3-string-row": ("q8-typeII", _set(["context", "mu_pi3"], ["1"])),
    "dual_sphere-capitalized": (
        "b3s1-odd", _set(["context", "dual_sphere"], "Unframed")),
    "dual_sphere-number": ("b3s1-odd", _set(["context", "dual_sphere"], 3)),
    "table-float": ("q8-typeII", _set(["group", "table", 2, 3], 0.5)),
    "table-string": ("q8-typeII", _set(["group", "table", 2, 3], "0")),
    "table-bool": ("q8-typeII", _set(["group", "table", 2, 3], False)),
    "table-huge": ("q8-typeII", _set(["group", "table", 2, 3], 2 ** 70)),
    "table-ragged": ("q8-typeII", _set(["group", "table", 2], [2, 3, 1])),
    "label-bool": ("q8-typeII", _set(["state", "circles", 0, "label"], True)),
    "generator-bool": ("b3s1-odd", _set(["group", "generators"], [[True]])),
    "table-generator-bool": ("q8-typeII", _set(["group", "generators"], [2, 4, True])),
    "tw-three": ("q8-typeII", _set(["state", "tw", 0, 1], 3)),
    "tw-string": ("q8-typeII", _set(["state", "tw", 0, 1], "1")),
    "tw-bool": ("q8-typeII", _set(["state", "tw", 0, 1], True)),
    "tw-float": ("q8-typeII", _set(["state", "tw", 0, 1], 1.7)),
    "tw-half": ("q8-typeII", _set(["state", "tw", 0, 1], 0.5)),
    "schema-bool": ("b3s1-odd", _set(["schema_version"], True)),
    "schema-string": ("b3s1-odd", _set(["schema_version"], "1")),
    "schema-float": ("b3s1-odd", _set(["schema_version"], 1.9)),
    "homology_tag-list": ("b3s1-odd", _set(["state", "homology_tag"], [1])),
    "duplicate-id": ("b3s1-odd", _duplicate_h0),
    "name-list": ("b3s1-odd", _set(["name"], [1])),
    "boundary_note-list": ("b3s1-odd", _set(["context", "boundary_note"], [1])),
    "trace-schema-word": ("trace", _set(["schema_version"], "banana")),
    "trace-schema-7": ("trace", _set(["schema_version"], 7)),
    "trace-schema-bool": ("trace", _set(["schema_version"], True)),
    "trace-schema-string": ("trace", _set(["schema_version"], "1")),
    "trace-schema-missing": ("trace", _drop_version),
}


@pytest.mark.parametrize("case,command,want", [
    ("scenario-not-object", "validate", "ScenarioError"),
    ("state-not-object", "decide", "ScenarioError"),
    ("circle-not-object", "validate", "ScenarioError"),
    ("context-not-object", "bound", "ScenarioError"),
    ("type2-unlabeled", "validate", "bad-label"),
    ("type2-unlabeled", "invariants", "GroupError"),
    ("type2-unlabeled", "decide", "GroupError"),
    ("mu_pi3-length", "invariants", "InvariantError"),
    ("mu_pi3-length", "decide", "InvariantError"),
    ("mu_pi3-length", "bound", "InvariantError"),
    ("delta_self-length", "invariants", "InvariantError"),
    ("delta_self-length", "decide", "InvariantError"),
    ("lk-off-clasps", "validate", "ScenarioError"),
    ("s_characteristic-string", "decide", "ScenarioError"),
    ("based-string", "invariants", "ScenarioError"),
    ("mu_pi3-string-row", "invariants", "ScenarioError"),
    ("dual_sphere-capitalized", "decide", "ScenarioError"),
    ("dual_sphere-number", "validate", "ScenarioError"),
    ("table-float", "decide", "ScenarioError"),
    ("table-string", "decide", "ScenarioError"),
    ("table-bool", "decide", "ScenarioError"),
    ("table-huge", "decide", "ScenarioError"),
    ("table-ragged", "decide", "ScenarioError"),
    ("label-bool", "validate", "ScenarioError"),
    ("generator-bool", "decide", "ScenarioError"),
    ("table-generator-bool", "validate", "ScenarioError"),
    ("tw-three", "validate", "ScenarioError"),
    ("tw-string", "invariants", "ScenarioError"),
    ("tw-bool", "validate", "ScenarioError"),
    ("tw-float", "decide", "ScenarioError"),
    ("tw-half", "validate", "ScenarioError"),
    ("schema-bool", "validate", "ScenarioError"),
    ("schema-string", "decide", "ScenarioError"),
    ("schema-float", "validate", "ScenarioError"),
    ("homology_tag-list", "decide", "ScenarioError"),
    ("duplicate-id", "validate", "duplicate-ids"),
    ("duplicate-id", "apply", "duplicate-ids"),
    ("duplicate-id", "decide", "duplicate-ids"),
    ("duplicate-id", "simplify", "duplicate-ids"),
    ("duplicate-id", "invariants", "duplicate-ids"),
    ("duplicate-id", "bound", "duplicate-ids"),
    ("name-list", "decide", "ScenarioError"),
    ("name-list", "validate", "ScenarioError"),
    ("boundary_note-list", "decide", "ScenarioError"),
    ("boundary_note-list", "validate", "ScenarioError"),
    ("trace-schema-word", "apply", "ScenarioError"),
    ("trace-schema-7", "apply", "ScenarioError"),
    ("trace-schema-bool", "apply", "ScenarioError"),
    ("trace-schema-string", "apply", "ScenarioError"),
    ("trace-schema-missing", "apply", "ScenarioError"),
])
def test_malformed_scenario_exits_one(capsys, tmp_path, case, command, want):
    name, mutate = MALFORMED[case]
    f = tmp_path / "bad.json"
    if name == "trace":
        # a trace file, replayed by `apply --script` on a valid scenario
        obj = {"schema_version": 1, "script": []}
        argv = [command, path("b3s1-odd"), "--script", str(f)]
    else:
        obj = json.loads((SCENARIOS / f"{name}.json").read_text())
        argv = [command, str(f)]
    obj = mutate(obj) or obj
    f.write_text(json.dumps(obj))
    code = cli.main(["--format", "machine", *argv])
    cap = capsys.readouterr()
    # an error object on stderr, or the violations of `validate` on stdout
    payload = json.loads((cap.err or cap.out).strip().splitlines()[-1])
    assert code == 1
    assert want in [payload.get("error")] + [v[0] for v in payload.get("violations", [])]


def test_trace_json_round_trip():
    sc = load_scenario(path("b3s1-even"))
    v = decide(sc.G, sc.ctx, sc.state)
    obj = trace_to_json(v.trace)
    script = script_from_json(obj)
    assert script_from_json(obj["script"]) == script    # a bare list loads too
    final, _ = apply_script(sc.G, sc.ctx, sc.state, script)
    assert state_hash(sc.G, final) == state_hash(sc.G, v.final_state)


@pytest.mark.parametrize("name,trace_sha,final_hash", [
    ("b3s1-even",
     "5960786055a8609ad17bc8696ad38e829961fbfe93d3ad023b3bdc34ba68db2a",
     "6c2bfad4d71c8051f334f1ed16f707d6069e5e68596f35fee8dd80fc3b5cedde"),
    ("b3s1-odd",
     "ccf58fa65b9f566585c211518d5150e7ee554da5e329d4d19037f34753ba6de5",
     "ff0304fec409259b7cd0f118874a212b27874886c487871856b2765c85019909"),
    ("q8-typeII",
     "2f50bee04d7385268598d8fd5239f858e39ebc747c7bcfb480d8ac5a0ae2e4c9",
     "6c2bfad4d71c8051f334f1ed16f707d6069e5e68596f35fee8dd80fc3b5cedde"),
    ("s3s1",
     "08586537e84dfe2632c9aad5d87e8736557ccc516021fa88e4ccd4ce1c213332",
     "6c2bfad4d71c8051f334f1ed16f707d6069e5e68596f35fee8dd80fc3b5cedde"),
    ("z4-schar",
     "43bac159ac4b5c67c5e1cac4cb13b43028ff456f75c791b9a07237b3ab245b19",
     "6c2bfad4d71c8051f334f1ed16f707d6069e5e68596f35fee8dd80fc3b5cedde"),
    ("ladder-64",
     "e19ad771d0afe956f4f58f8ecd4b7fffe3da6d574d6cd7e0b720ff63ab6b2b6a",
     "6c2bfad4d71c8051f334f1ed16f707d6069e5e68596f35fee8dd80fc3b5cedde"),
    ("three-cycles",
     "61413ceb422ccc6af2616338da6a06ca814281c9c3f0e0923eb2666b479d8a10",
     "8933f1b9fccb6de2c799109e0e22ea0bc1f90208c21bb9668354218af2c5077e"),
])
def test_scenario_traces_frozen(name, trace_sha, final_hash):
    # every record of decide (move, params, steps and both hashes) is
    # pinned, with the final state: on the shipped scenarios, among them
    # type II cancellation over Z/4 and Q8; on the 64-pair cycle, which
    # fixes the order of the shortenings; and on three cycles whose ids
    # use the fresh-id prefixes e and w, which fixes the order across
    # cycles and the reuse of freed ids
    if name == "ladder-64":
        G, ctx, st = Z, SCHAR, ladder(64)
    elif name == "three-cycles":
        G, ctx, st = Z, SCHAR, three_cycles(random.Random("three-cycles"))
    else:
        sc = load_scenario(path(name))
        G, ctx, st = sc.G, sc.ctx, sc.state
    v = decide(G, ctx, st)
    text = json.dumps(trace_to_json(v.trace), sort_keys=True,
                      separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == trace_sha
    assert state_hash(G, v.final_state) == final_hash


def test_full_cycle_trace_still_replays(capsys, tmp_path):
    # cycle-n8-trace.json was written by `decide --trace-out` when stage 1
    # resolved every clasp of a cycle whose clasps already matched its
    # circles, a shortening listed its whole cycle and add_hopf_pair
    # expanded a generator word: `apply --script` replays it with every
    # hash checked, and decide now reaches the same final state by
    # shortening the 8-pair cycle directly
    sc, old_file = FIXTURES / "cycle-n8.json", FIXTURES / "cycle-n8-trace.json"
    old = json.loads(old_file.read_text())
    assert max(len(e["params"]["actives"]) for e in old["script"]
               if e["move"] == "shorten_cycle") > 2
    code, payload, _ = run(capsys, "--format", "machine", "apply", str(sc),
                           "--script", str(old_file))
    assert code == 0 and payload["moves"] == len(old["script"])
    assert payload["final_hash"] == old["script"][-1]["post_hash"]

    new_file = tmp_path / "trace.json"
    code, payload, _ = run(capsys, "--format", "machine", "--trace-out",
                           str(new_file), "decide", str(sc))
    assert code == 0 and payload["final_hash"] == old["script"][-1]["post_hash"]
    new = json.loads(new_file.read_text())
    moves = [e["move"] for e in new["script"]]
    assert moves.count("shorten_cycle") == 7 and "clasp_finger" not in moves
    # add_hopf_pair expands g = y^2 as one split and one merge
    hopf = [e for e in new["script"] if e["move"] == "add_hopf_pair"]
    assert hopf
    for e in hopf:
        assert [s["move"] for s in e["steps"]] == [
            "trivial_finger", "whitney_move", "merge_hopf_pairs"]
        assert [2 * y for y in e["steps"][0]["params"]["g"]] == e["params"]["g"]
    code, payload, _ = run(capsys, "--format", "machine", "apply", str(sc),
                           "--script", str(new_file))
    assert code == 0 and payload["moves"] == len(new["script"])
    assert payload["final_hash"] == old["script"][-1]["post_hash"]


@pytest.mark.parametrize("command", ["decide", "simplify"])
def test_clasped_type2_is_a_limit(capsys, tmp_path, command):
    # no modeled move splits a type II circle under an unframed dual (a
    # clasp finger and a surgery return the same configuration), so a valid
    # s-characteristic state with a clasped type II circle stops both
    # pipelines with a precise error
    state = {"circles": [
        {"id": "e", "kind": "type1", "partner": "ep", "role": "active",
         "label": [0]},
        {"id": "ep", "kind": "type1", "partner": "e", "role": "inactive"},
        {"id": "s", "kind": "type2", "partner": "s", "label": [0]}],
        "lk": [["e", "s"], ["ep", "s"]], "clasps": [["e", "s"], ["ep", "s"]],
        "tw": [], "homology_tag": None}
    f = tmp_path / "clasped.json"
    f.write_text(json.dumps({
        "schema_version": 1, "name": "clasped-type2",
        "group": {"kind": "fg-abelian", "rank": 1, "torsion": [],
                  "generators": [[1]]},
        "context": {"s_characteristic": True, "dual_sphere": "unframed"},
        "state": state, "script": []}))
    code, payload, _ = run(capsys, "--format", "machine", "validate", str(f))
    assert code == 0 and payload["ok"]
    code = cli.main(["--format", "machine", command, str(f)])
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert code == 1 and err["error"] == "SimplifyError"
    assert err["message"].startswith("type II circle 's' is linked")


def test_clasped_type2_with_nonzero_km_is_obstructed(capsys, tmp_path):
    # the same limit with the pair labelled [1]: km of the input is
    # nonzero, so decide answers with the obstruction and records no move
    f = str(FIXTURES / "limit-km.json")
    code, payload, _ = run(capsys, "--format", "machine", "invariants", f)
    assert payload["km"] == {"is_zero": False, "rep": [1]}
    sc = load_scenario(f)
    trace_file = tmp_path / "trace.json"
    code, payload, _ = run(capsys, "--format", "machine", "--trace-out",
                           str(trace_file), "decide", f)
    assert code == 2 and payload["outcome"] == "Obstructed-km"
    assert payload["class"] == {"is_zero": False, "rep": [1]}
    assert payload["moves"] == 0
    assert payload["final_hash"] == state_hash(sc.G, sc.state)
    code, payload, _ = run(capsys, "--format", "machine", "apply", f,
                           "--script", str(trace_file))
    assert code == 0 and payload["final_hash"] == state_hash(sc.G, sc.state)
    # simplify has no verdict to give, so it still stops at the limit
    code = cli.main(["--format", "machine", "simplify", f])
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert code == 1 and err["error"] == "SimplifyError"


def test_clasped_nontrivial_type2_is_a_framed_limit(capsys, tmp_path):
    # under a framed dual no modeled crossing change touches a type II
    # circle with a homologically nontrivial label and a type I circle, so
    # the clasp (a, s) stays: decide names s before it records a move
    state = {"circles": [
        {"id": "a", "kind": "type1", "partner": "ap", "role": "active",
         "label": [0]},
        {"id": "ap", "kind": "type1", "partner": "a", "role": "inactive"},
        {"id": "s", "kind": "type2", "partner": "s", "label": [1]},
        {"id": "t", "kind": "type2", "partner": "t", "label": [1]}],
        "lk": [["a", "s"]], "clasps": [["a", "s"]],
        "tw": [[["s", "t"], 0]], "homology_tag": None}
    f = tmp_path / "framed-clasped.json"
    f.write_text(json.dumps({
        "schema_version": 1, "name": "framed-clasped-type2",
        "group": {"kind": "fg-abelian", "rank": 0, "torsion": [2],
                  "generators": [[1]]},
        "context": {"s_characteristic": False, "dual_sphere": "framed"},
        "state": state, "script": []}))
    code, payload, _ = run(capsys, "--format", "machine", "validate", str(f))
    assert code == 0 and payload["ok"]
    code, payload, _ = run(capsys, "--format", "machine", "invariants", str(f))
    assert code == 0
    code = cli.main(["--format", "machine", "decide", str(f)])
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert code == 1 and err["error"] == "SimplifyError"
    assert err["message"].startswith("type II circle 's' is clasped")


def test_many_listed_generators(capsys, tmp_path):
    # add_hopf_pair reads no generators: a table with 17 listed generators
    # decides like any other (it raised "at most 16 generators supported")
    n = 255
    sc = json.loads(pathlib.Path(path("s3s1")).read_text())
    sc["group"] = {"kind": "finite-table",
                   "table": [[(i + j) % n for j in range(n)] for i in range(n)],
                   "generators": list(range(1, 18))}
    sc["context"].update(s_characteristic=True, dual_sphere="unframed")
    sc["state"]["circles"][0]["label"] = 7
    f = tmp_path / "c255-17-generators.json"
    f.write_text(json.dumps(sc))
    code, payload, _ = run(capsys, "--format", "machine", "validate", str(f))
    assert code == 0 and payload["ok"]
    code, payload, _ = run(capsys, "--format", "machine", "decide", str(f))
    assert code == 0 and payload["outcome"] == "Concordant"


def test_large_label_decides_in_four_moves(capsys, tmp_path):
    # one Hopf pair with the label [10^12]: its one clasp is already
    # matched, and add_hopf_pair realizes the label's inverse as one
    # square, so the trace does not grow with the label
    sc = json.loads(pathlib.Path(path("s3s1")).read_text())
    sc["context"].update(s_characteristic=True, dual_sphere="unframed")
    sc["state"]["circles"][0]["label"] = [10 ** 12]
    f, trace = tmp_path / "label-1e12.json", tmp_path / "trace.json"
    f.write_text(json.dumps(sc))
    code, payload, _ = run(capsys, "--format", "machine", "--trace-out",
                           str(trace), "decide", str(f))
    assert code == 0 and payload["outcome"] == "Concordant"
    assert payload["moves"] == 4
    # a primitive record counts as one step of its own
    script = json.loads(trace.read_text())["script"]
    assert sum(len(e["steps"]) or 1 for e in script) == 8
    code, replayed, _ = run(capsys, "--format", "machine", "apply", str(f),
                            "--script", str(trace))
    assert code == 0 and replayed["final_hash"] == payload["final_hash"]
