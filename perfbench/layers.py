"""Per-layer metrics of a traced phase.

Each metric comes from the spans of one wrapped public function (see
``trace.FUNCTIONS``/``trace.METHODS``) or from a count the workload code keeps.
"Per tx" means per transaction committed in the traced phase and "per
block" per block committed there; a workload without commits (check_read)
reports 0 for those, and a layer a workload never calls reports 0.
Set-up metrics of node workloads (build, load, verify, append) use every
span of the node process; the rest use the spans of the timed window.
"""

from __future__ import annotations

import math
from statistics import median

from perfbench.report import E2E

# (name, unit, better)
PER_LAYER = (
    ("codec.encode_ms_per_tx", "ms", "lower"),
    ("codec.encodes_per_tx", "count", "lower"),
    ("codec.is_hex_us_per_tx", "us", "lower"),
    ("keys.verifies_per_tx", "count", "lower"),
    ("keys.verify_ms_per_tx", "ms", "lower"),
    ("wallet.envelope_checks_per_tx", "count", "lower"),
    ("payloads.tx_ids_per_tx", "count", "lower"),
    ("state.apply_us", "us", "lower"),
    ("state.applies_per_tx", "count", "lower"),
    ("state.apply_useful_ratio", "ratio", "higher"),
    ("state.root_ms", "ms", "lower"),
    ("state.root_users", "count", "higher"),
    ("state.roots_per_block", "count", "lower"),
    ("state.clone_us", "us", "lower"),
    ("sco.check_us", "us", "lower"),
    ("sco.check_ura", "count", "higher"),
    ("scu.handler_us", "us", "lower"),
    ("sco.handler_us", "us", "lower"),
    ("ledger.build_ms", "ms", "lower"),
    ("ledger.execute_ms", "ms", "lower"),
    ("ledger.executes_per_block", "count", "lower"),
    ("ledger.append_us", "us", "lower"),
    ("ledger.verify_ms_per_block", "ms", "lower"),
    ("consensus.msgs_per_tx", "count", "lower"),
    ("consensus.ticks", "count", "lower"),
    ("consensus.step_us", "us", "lower"),
    ("consensus.txs_per_block", "count", "higher"),
    ("consensus.proposals_per_block", "count", "lower"),
    ("consensus.commit_ticks_p50", "count", "lower"),
    ("consensus.commit_ticks_p90", "count", "lower"),
    ("consensus.pump_ms", "ms", "lower"),
    ("store.append_ms", "ms", "lower"),
    ("store.appends_per_tx", "count", "lower"),
    ("store.load_s", "s", "lower"),
    ("api.submit_ms", "ms", "lower"),
    ("api.submit_self_ms", "ms", "lower"),
    ("api.snapshot_ms", "ms", "lower"),
    ("api.transport_ms", "ms", "lower"),
    ("api.build_service_s", "s", "lower"),
) + tuple(
    (f"overhead.{name}", unit, "higher" if name == "ops_per_s" else "lower")
    for name, unit in E2E
)


def _quantile(values: list, q: float) -> float:
    """Nearest-rank quantile of exact counts (0 when there are none)."""
    if not values:
        return 0.0
    xs = sorted(values)
    return float(xs[max(1, math.ceil(q * len(xs))) - 1])


def compute(window, everything, info: dict, traced_e2e: dict, untraced_e2e: dict) -> dict:
    """name -> value for every PER_LAYER metric.

    *window* and *everything* are ``trace.Spans``; *info* carries the
    workload counts: committed_txs, blocks, messages, ticks (per episode or
    per pump), commit_ticks, and client_check_p50_s for node workloads.
    """
    txs = info.get("committed_txs", 0)
    blocks = info.get("blocks", 0)

    def per_tx(x):
        return x / txs if txs else 0.0

    def per_block(x):
        return x / blocks if blocks else 0.0

    w, a = window, everything
    applies = w.count("state.apply")
    verified_blocks = sum(a.sizes("ledger.verify"))
    root_users = w.sizes("state.root")
    check_ura = w.sizes("sco.check")
    server_checks = w.durations_s("api.check")
    client_p50 = info.get("client_check_p50_s")
    ticks = info.get("ticks", [])
    values = {
        "codec.encode_ms_per_tx": per_tx(w.total_s("codec.encode") * 1e3),
        "codec.encodes_per_tx": per_tx(w.count("codec.encode")),
        "codec.is_hex_us_per_tx": per_tx(w.total_s("codec.is_hex") * 1e6),
        "keys.verifies_per_tx": per_tx(w.count("keys.verify")),
        "keys.verify_ms_per_tx": per_tx(w.total_s("keys.verify") * 1e3),
        "wallet.envelope_checks_per_tx": per_tx(w.count("wallet.verify_envelope")),
        "payloads.tx_ids_per_tx": per_tx(w.count("payloads.tx_id")),
        "state.apply_us": w.mean_s("state.apply") * 1e6,
        "state.applies_per_tx": per_tx(applies),
        "state.apply_useful_ratio": txs / applies if applies else 0.0,
        "state.root_ms": w.mean_s("state.root") * 1e3,
        "state.root_users": sum(root_users) / len(root_users) if root_users else 0.0,
        "state.roots_per_block": per_block(w.count("state.root")),
        "state.clone_us": w.mean_s("state.clone") * 1e6,
        "sco.check_us": w.mean_s("sco.check") * 1e6,
        "sco.check_ura": sum(check_ura) / len(check_ura) if check_ura else 0.0,
        "scu.handler_us": w.mean_s("scu.handler") * 1e6,
        "sco.handler_us": w.mean_s("sco.handler") * 1e6,
        "ledger.build_ms": w.mean_s("ledger.build") * 1e3,
        "ledger.execute_ms": w.mean_s("ledger.execute") * 1e3,
        "ledger.executes_per_block": per_block(w.count("ledger.execute")),
        "ledger.append_us": a.mean_s("ledger.append") * 1e6,
        "ledger.verify_ms_per_block": (
            a.total_s("ledger.verify") * 1e3 / verified_blocks if verified_blocks else 0.0),
        "consensus.msgs_per_tx": per_tx(info.get("messages", 0)),
        "consensus.ticks": sum(ticks) / len(ticks) if ticks else 0.0,
        "consensus.step_us": w.mean_s("consensus.step") * 1e6,
        "consensus.txs_per_block": per_block(txs),
        "consensus.proposals_per_block": per_block(w.count("ledger.build")),
        "consensus.commit_ticks_p50": _quantile(info.get("commit_ticks", []), 0.5),
        "consensus.commit_ticks_p90": _quantile(info.get("commit_ticks", []), 0.9),
        "consensus.pump_ms": w.mean_s("consensus.pump") * 1e3,
        "store.append_ms": w.mean_s("store.append") * 1e3,
        "store.appends_per_tx": per_tx(w.count("store.append")),
        "store.load_s": a.mean_s("store.load"),
        "api.submit_ms": w.mean_s("api.submit") * 1e3,
        "api.submit_self_ms": w.mean_self_s("api.submit") * 1e3,
        "api.snapshot_ms": w.mean_s("api.snapshot") * 1e3,
        "api.transport_ms": (
            (client_p50 - median(server_checks)) * 1e3 if server_checks and client_p50 else 0.0),
        "api.build_service_s": a.mean_s("api.build_service"),
    }
    for name, _ in E2E:
        values[f"overhead.{name}"] = traced_e2e[name][0] - untraced_e2e[name][0]
    return values
