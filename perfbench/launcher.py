"""Traced node: ``rolechain node serve`` with the tracing wrappers installed first.

Usage: ``python -m perfbench.launcher --config CFG --out DIR``. It builds the
service through ``build_node_service`` with the same config the untraced
node gets, serves until SIGTERM or SIGINT, then writes the spans and a few
counters (messages delivered, ticks per pump, ticks from injection to
commit) to DIR.
"""

from __future__ import annotations

import argparse
import json
import signal
import threading
from pathlib import Path

from perfbench.trace import Tracer


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    tracer = Tracer().install()
    from rolechain import api, consensus

    server = api.build_node_service(api.ServiceConfig.load(args.config))
    handle = server.handle
    network = handle.network
    injected: dict[str, int] = {}
    commit_ticks: list[int] = []
    pump_ticks: list[int] = []
    seen = [len(handle.node.chain.blocks)]

    submit_tx, step, pump = api.submit_tx, consensus.step, api.run_until_quiescent

    def recording_submit(net, tx, via=None):
        injected[tx.tx_id] = net.tick
        return submit_tx(net, tx, via=via)

    def recording_step(net):
        result = step(net)
        blocks = handle.node.chain.blocks
        for block in blocks[seen[0]:]:
            for tx in block.transactions:
                if tx.tx_id in injected:
                    commit_ticks.append(net.tick - injected.pop(tx.tx_id))
        seen[0] = len(blocks)
        return result

    def recording_pump(net, max_ticks):
        before = net.tick
        try:
            return pump(net, max_ticks)
        finally:
            pump_ticks.append(net.tick - before)

    api.submit_tx = recording_submit
    consensus.step = recording_step
    api.run_until_quiescent = recording_pump

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    print(f"serving {handle.node_id} on {server.url}", flush=True)
    server.start()
    while not stop.wait(0.2):
        pass
    server.stop()
    tracer.enabled = False

    out = Path(args.out)
    tracer.dump(out / "spans")
    state = handle.node.state
    (out / "counters.json").write_text(json.dumps({
        "messages": len(network.trace),
        "commit_ticks": commit_ticks,
        "pump_ticks": pump_ticks,
        "users": len(state.users),
        "ura": len(state.ura),
    }))


if __name__ == "__main__":
    main()
