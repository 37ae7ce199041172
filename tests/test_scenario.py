import json
import re

import pytest

from rolechain.ledger import verify_chain
from rolechain.scenario import load_scenario, run_scenario
from rolechain.store import build_genesis_state

BASE = {
    "name": "lifecycle",
    "actors": {
        "v0": {}, "v1": {}, "v2": {}, "v3": {},
        "boss": {}, "ann": {},
    },
    "validators": ["v0", "v1", "v2", "v3"],
    "orgs": [
        {
            "org_id": "acme",
            "admins": ["boss"],
            "role_catalog": {
                "member": {"self_assignable": True, "max_holders": None},
                "auditor": {"self_assignable": False, "max_holders": None},
            },
        }
    ],
    "network": {"rng_seed": 7},
    "workload": [
        {"tick": 1, "op": "register_user", "actor": "ann", "org": "acme", "role": "member"},
        {"tick": 2, "op": "update_user_role", "actor": "boss", "user": "ann",
         "org": "acme", "old_role": "member", "new_role": "auditor"},
        {"tick": 3, "op": "grant_permission", "actor": "boss", "org": "acme",
         "role": "auditor", "resource": "ledger", "action": "read"},
        {"tick": 40, "op": "revoke_permission", "actor": "boss", "org": "acme",
         "role": "auditor", "resource": "ledger", "action": "read"},
    ],
    "max_ticks": 300,
}


def test_scenario_runs_to_quiescence():
    network, report = run_scenario(load_scenario(json.loads(json.dumps(BASE))))
    assert report["quiescent"]
    assert all(s["accepted"] for s in report["submissions"])
    kinds = [e["kind"] for e in report["committed_events"]]
    assert kinds == [
        "UserRegistered", "UserRoleUpdated", "PermissionGranted", "PermissionRevoked",
    ]
    assert len({i["state_root"] for i in report["nodes"].values()}) == 1


def test_scenario_is_deterministic():
    _, r1 = run_scenario(load_scenario(json.loads(json.dumps(BASE))))
    _, r2 = run_scenario(load_scenario(json.loads(json.dumps(BASE))))
    assert r1 == r2


def test_scenario_chain_verifies(tmp_path):
    sc = load_scenario(json.loads(json.dumps(BASE)))
    network, _ = run_scenario(sc)
    first = network.nodes[sc.config.validators[0]]
    assert verify_chain(first.chain, build_genesis_state(sc.genesis)) is None


def test_scenario_with_faults_reports_partial_progress():
    doc = json.loads(json.dumps(BASE))
    doc["network"]["partition_rules"] = [
        {"from_tick": 0, "to_tick": 10_000, "groups": [[0, 1], [2, 3]]}
    ]
    doc["max_ticks"] = 120
    _, report = run_scenario(load_scenario(doc))
    assert not report["quiescent"]
    assert all(i["height"] == 0 for i in report["nodes"].values())


def test_scenario_file_loading(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(BASE), "utf-8")
    from rolechain.scenario import run_scenario_file

    _, report = run_scenario_file(path)
    assert report["scenario"] == "lifecycle"


def _with_first_item(**changes):
    doc = json.loads(json.dumps(BASE))
    doc["workload"][0].update(changes)
    doc["workload"][0] = {k: v for k, v in doc["workload"][0].items() if v is not None}
    return doc


@pytest.mark.parametrize("changes, text", [
    ({"org": None}, "'org'"),
    ({"actor": None}, "'actor'"),
    ({"op": "delete_user"}, "unknown workload op 'delete_user'"),
    ({"actor": "nobody"}, "unknown actor 'nobody'"),
    ({"via": 4}, "workload via 4"),
    ({"via": -1}, "workload via -1"),
])
def test_a_bad_workload_item_is_refused_at_load(changes, text):
    with pytest.raises(ValueError, match=re.escape(text)):
        load_scenario(_with_first_item(**changes))


def test_a_workload_item_enters_at_its_via_validator():
    sc = load_scenario(_with_first_item(via=2))
    assert sc.workload[0].via == sc.config.validators[2]
    _, report = run_scenario(sc)
    assert report["quiescent"] and all(s["accepted"] for s in report["submissions"])


@pytest.mark.parametrize("rules, text", [
    ({"crash_rules": [{"node": "1", "from_tick": 0}]}, "CrashRule node"),
    ({"crash_rules": [{"node": 9, "from_tick": 0}]}, "names node 9"),
    ({"crash_rules": [{"node": 1, "from_tick": "0"}]}, "CrashRule from_tick"),
    ({"crash_rules": [{"node": 1, "from_tick": 0, "to_tick": 5.0}]}, "CrashRule to_tick"),
    ({"crash_rules": [{"node": True, "from_tick": 0}]}, "CrashRule node"),
    ({"partition_rules": [{"from_tick": 0, "to_tick": 9, "groups": [[0, "1"], [2, 3]]}]},
     "PartitionRule group member"),
    ({"partition_rules": [{"from_tick": 0, "to_tick": 9, "groups": [[0, 1], [2, 4]]}]},
     "names node 4"),
    ({"partition_rules": [{"from_tick": 0, "to_tick": None, "groups": [[0, 1]]}]},
     "PartitionRule to_tick"),
    ({"drop_rules": [{"src": 0, "dst": -1, "from_tick": 0, "to_tick": 9}]}, "names node -1"),
    ({"drop_rules": [{"src": 0, "dst": 1, "from_tick": 0, "to_tick": "9"}]}, "DropRule to_tick"),
])
def test_a_bad_fault_rule_is_refused_at_load(rules, text):
    doc = json.loads(json.dumps(BASE))
    doc["network"].update(rules)
    with pytest.raises(ValueError, match=re.escape(text)):
        load_scenario(doc)
