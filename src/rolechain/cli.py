"""Command-line client: wallet management, the full user/permission lifecycle
against a node's HTTP API, offline chain verification, and scenario driving.

Exit codes: 0 success, 2 usage error, 3 any other error (a node error, an
input file that does not decode, a wrong passphrase), 4 verification
failure. The ``main`` group turns every failure into its exit code.
Passphrases come from ROLECHAIN_PASSPHRASE or an interactive prompt, never
from argv.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import click

from . import __version__, codec
from .errors import CorruptStore, RoleChainError
from .payloads import (
    GrantPermissionPayload,
    RegisterUserPayload,
    RevokePermissionPayload,
    UpdateUserRolePayload,
)
from .state import Permission
from .wallet import create_wallet, load_wallet, save_wallet, sign_transaction

EXIT_API_ERROR = 3
EXIT_VERIFY_FAILED = 4

DEFAULT_CONFIG_PATH = "~/.rolechain.json"


def _load_cli_config(path: str | None) -> dict:
    candidate = path or os.environ.get("ROLECHAIN_CONFIG") or DEFAULT_CONFIG_PATH
    p = Path(candidate).expanduser()
    if not p.exists():
        return {}
    try:
        config = codec.loads(p.read_text("utf-8"))
    except ValueError as exc:
        raise click.UsageError(f"config file {p} is not valid JSON: {exc}")
    if not isinstance(config, dict):
        raise click.UsageError(f"config file {p} is not a JSON object")
    for key, value in config.items():
        if key not in ("node_url", "wallet_path", "output"):
            raise click.UsageError(f"config file {p} has an unknown key {key!r}")
        if not isinstance(value, str):
            raise click.UsageError(f"config file {p}: {key} must be a string, not {value!r}")
    if config.get("output", "human") not in ("human", "json"):
        raise click.UsageError(f"config file {p}: output must be human or json, not {config['output']!r}")
    return config


class Ctx:
    def __init__(self, config: dict, node: str | None, wallet: str | None, output: str | None):
        self.node_url = (node or config.get("node_url") or "http://127.0.0.1:8545").rstrip("/")
        self.wallet_path = wallet or config.get("wallet_path") or "wallet.json"
        self.output = output or config.get("output") or "human"

    def emit(self, result: dict, human: str) -> None:
        if self.output == "json":
            click.echo(json.dumps(result, sort_keys=True))
        else:
            click.echo(human)

    # --- node API ----------------------------------------------------------

    def _request(self, method: str, path: str, **kwargs) -> dict:
        """The node's JSON answer; an unreachable node or an error reply exits 3."""
        import requests  # only the client commands load it, never `node serve`

        try:
            resp = requests.request(method, self.node_url + path, timeout=60, **kwargs)
        except requests.RequestException as exc:
            click.echo(f"error: cannot reach node at {self.node_url}: {exc}", err=True)
            sys.exit(EXIT_API_ERROR)
        try:
            body = resp.json()
        except ValueError:
            body = {"code": "Malformed", "message": resp.text[:200]}
        if resp.status_code >= 400:
            click.echo(f"error [{body.get('code', '?')}]: {body.get('message', '')}", err=True)
            sys.exit(EXIT_API_ERROR)
        return body

    def submit(self, payload, nonce: int | None = None) -> None:
        """Sign *payload* with the wallet, post it, and print the node's answer."""
        wallet = self._wallet()
        if nonce is None:
            nonce = self._request("GET", f"/v1/accounts/{wallet.address}")["next_nonce"]
        tx = sign_transaction(wallet, _passphrase(), wallet.address, nonce, payload)
        result = self._request(
            "POST", "/v1/transactions",
            data=codec.canonical_dumps(tx), headers={"Content-Type": "application/json"},
        )
        committed = result.get("committed_height")
        where = f"committed at height {committed}" if committed is not None else "pending"
        self.emit(result, f"accepted tx {result['tx_id'][:16]}… ({where})")

    def _wallet(self):
        p = Path(self.wallet_path).expanduser()
        if not p.exists():
            raise click.UsageError(f"wallet file {p} not found (run `rolechain wallet create`)")
        return load_wallet(p)


def _passphrase(confirm: bool = False) -> str:
    env = os.environ.get("ROLECHAIN_PASSPHRASE")
    if env is not None:
        return env
    return click.prompt("Passphrase", hide_input=True, confirmation_prompt=confirm)


pass_ctx = click.make_pass_decorator(Ctx)


class _Main(click.Group):
    """The one place a failure becomes its exit code; click keeps usage errors (2)."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:  # stdout closed early (`| head`): click's own exit
            raise
        except RoleChainError as exc:
            message = f"error [{exc.code}]: {exc}"
        except (OSError, ValueError, RecursionError) as exc:
            message = f"error: {exc}"
        click.echo(message, err=True)
        sys.exit(EXIT_API_ERROR)


@click.group(cls=_Main)
@click.option("--node", metavar="URL", help="Node API base URL.")
@click.option("--wallet", "wallet_path", metavar="PATH", help="Wallet file path.")
@click.option("--output", type=click.Choice(["human", "json"]), default=None)
@click.option("--config", "config_path", metavar="PATH", help="CLI config file (JSON).")
@click.version_option(__version__)
@click.pass_context
def main(ctx, node, wallet_path, output, config_path):
    """Decentralized role and permission management."""
    ctx.obj = Ctx(_load_cli_config(config_path), node, wallet_path, output)


# --- wallet ------------------------------------------------------------------

@main.group()
def wallet():
    """Create and inspect wallets."""


@wallet.command("create")
@click.option("--seed-hex", metavar="HEX", help="32-byte seed (hex); random if omitted.")
@click.option("--path", "path_", metavar="PATH", help="Where to write the wallet file.")
@click.option("--force", is_flag=True, help="Overwrite an existing wallet file.")
@pass_ctx
def wallet_create(ctx: Ctx, seed_hex, path_, force):
    """Generate a wallet and write it, encrypted, to disk."""
    target = Path(path_ or ctx.wallet_path).expanduser()
    if target.exists() and not force:
        raise click.UsageError(f"{target} already exists (use --force to overwrite)")
    try:
        seed = bytes.fromhex(seed_hex) if seed_hex else os.urandom(32)
    except ValueError as exc:
        raise click.UsageError(f"--seed-hex is not hex: {exc}")
    if len(seed) != 32:
        raise click.UsageError("--seed-hex must encode exactly 32 bytes")
    w = create_wallet(seed, _passphrase(confirm=True))
    save_wallet(w, target)
    ctx.emit(
        {"address": w.address, "public_key": w.public_key, "path": str(target)},
        f"address: {w.address}\nwallet written to {target}",
    )


@wallet.command("show")
@click.option("--path", "path_", metavar="PATH")
@pass_ctx
def wallet_show(ctx: Ctx, path_):
    """Print the wallet's public identity (never its secrets)."""
    w = load_wallet(Path(path_ or ctx.wallet_path).expanduser())
    ctx.emit(
        {"address": w.address, "public_key": w.public_key},
        f"address:    {w.address}\npublic key: {w.public_key}",
    )


# --- user / role ---------------------------------------------------------------

@main.group()
def user():
    """User registration."""


@user.command("register")
@click.option("--org", required=True)
@click.option("--role", required=True)
@click.option("--nonce", type=int, default=None, help="Override the auto-fetched nonce.")
@pass_ctx
def user_register(ctx: Ctx, org, role, nonce):
    """Register this wallet's identity and request an initial role."""
    w = ctx._wallet()
    payload = RegisterUserPayload(
        user=w.address,
        public_key=w.public_key,
        password_digest=w.password_digest,
        org=org,
        requested_role=role,
    )
    ctx.submit(payload, nonce)


@main.group()
def role():
    """Role assignment changes."""


@role.command("update")
@click.option("--user", "user_addr", required=True, metavar="ADDRESS")
@click.option("--org", required=True)
@click.option("--old-role", required=True, help='Existing role, or "none" when adding.')
@click.option("--new-role", required=True)
@click.option("--nonce", type=int, default=None)
@pass_ctx
def role_update(ctx: Ctx, user_addr, org, old_role, new_role, nonce):
    """Replace one of a user's roles (signed by the user or an org admin)."""
    payload = UpdateUserRolePayload(
        user=user_addr, org=org, old_role=old_role, new_role=new_role
    )
    ctx.submit(payload, nonce)


# --- permissions ----------------------------------------------------------------

@main.group()
def perm():
    """Permission grants and checks."""


def _perm_options(fn):
    fn = click.option("--action", required=True)(fn)
    fn = click.option("--resource", required=True)(fn)
    fn = click.option("--org", required=True)(fn)
    return fn


def _perm_edit(name: str, edit, doc: str):
    """The ``perm`` command *name*, which submits one *edit* payload."""

    @perm.command(name, help=doc)
    @_perm_options
    @click.option("--role", required=True)
    @click.option("--nonce", type=int, default=None)
    @pass_ctx
    def command(ctx: Ctx, org, role, resource, action, nonce):
        ctx.submit(edit(org=org, role=role, permission=Permission(resource, action)), nonce)


_perm_edit("grant", GrantPermissionPayload, "Grant (resource, action) to a role; admin-signed.")
_perm_edit("revoke", RevokePermissionPayload, "Revoke (resource, action) from a role; admin-signed.")


@perm.command("check")
@click.option("--user", "user_addr", required=True, metavar="ADDRESS")
@_perm_options
@pass_ctx
def perm_check(ctx: Ctx, user_addr, org, resource, action):
    """Ask the node whether a user currently holds a permission."""
    result = ctx._request(
        "GET", "/v1/permissions/check",
        params={"user": user_addr, "org": org, "resource": resource, "action": action},
    )
    verdict = "granted" if result["granted"] else "denied"
    via = ", ".join(result.get("via_roles", [])) or "-"
    ctx.emit(result, f"{verdict} (via roles: {via}) at height {result['height']}")


# --- chain -------------------------------------------------------------------

@main.group()
def chain():
    """Offline chain inspection."""


@chain.command("verify")
@click.argument("chain_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--genesis", "genesis_file", type=click.Path(exists=True, dir_okay=False),
              required=True, help="Genesis file the chain must replay from.")
@click.option("--tip", "tip_hash", metavar="HASH", default=None,
              help="Trusted tip header hash to anchor the verification.")
@pass_ctx
def chain_verify(ctx: Ctx, chain_file, genesis_file, tip_hash):
    """Verify a stored chain end to end; exit 4 on any failure."""
    from .ledger import verify_chain
    from .store import build_genesis_state, load_genesis, read_chain

    genesis_state = build_genesis_state(load_genesis(genesis_file))
    try:
        loaded = read_chain(chain_file)
        failure = verify_chain(loaded, genesis_state, expected_tip_hash=tip_hash)
    except CorruptStore as exc:
        failure = exc
    if failure is not None:
        ctx.emit(
            {"ok": False, "height": failure.height, "reason": str(failure)},
            f"FAILED at height {failure.height}: {failure}",
        )
        sys.exit(EXIT_VERIFY_FAILED)
    ctx.emit(
        {"ok": True, "height": loaded.height, "blocks": len(loaded)},
        f"OK: {len(loaded)} blocks, tip height {loaded.height}",
    )


# --- events --------------------------------------------------------------------

@main.command("events")
@click.argument("mode", type=click.Choice(["tail"]))
@click.option("--kind", default=None)
@click.option("--org", default=None)
@click.option("--from-height", type=int, default=0)
@click.option("--follow", is_flag=True, help="Poll for new events until interrupted.")
@click.option("--interval", type=float, default=1.0, show_default=True)
@pass_ctx
def events(ctx: Ctx, mode, kind, org, from_height, follow, interval):
    """Print the audit event log (optionally filtered, optionally following)."""
    params = {"from_height": from_height}
    if kind:
        params["kind"] = kind
    if org:
        params["org"] = org
    seen = 0
    while True:
        body = ctx._request("GET", "/v1/events", params=params)
        for event in body["events"][seen:]:
            if ctx.output == "json":
                click.echo(json.dumps(event, sort_keys=True))
            else:
                attrs = ", ".join(f"{k}={v}" for k, v in sorted(event["attributes"].items()))
                click.echo(
                    f"[{event['height']}/{event['tx_index']}] {event['kind']}: {attrs}"
                )
        seen = len(body["events"])
        if not follow:
            break
        time.sleep(interval)


# --- simulation ------------------------------------------------------------------

@main.group()
def sim():
    """Deterministic network simulations."""


@sim.command("run")
@click.argument("scenario_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--report", "report_path", type=click.Path(dir_okay=False), default=None,
              help="Also write the JSON report here.")
@click.option("--dump-chain", "dump_path", type=click.Path(dir_okay=False), default=None,
              help="Write the first validator's chain as JSONL.")
@pass_ctx
def sim_run(ctx: Ctx, scenario_file, report_path, dump_path):
    """Run a scenario file to quiescence and print its report."""
    from .scenario import run_scenario_file
    from .store import Store

    network, result = run_scenario_file(scenario_file)
    if report_path:
        Path(report_path).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", "utf-8")
    if dump_path:
        Path(dump_path).unlink(missing_ok=True)
        Store(dump_path).extend(network.nodes[network.config.validators[0]].chain)
    if ctx.output == "json":
        click.echo(json.dumps(result, sort_keys=True))
    else:
        click.echo(f"scenario: {result['scenario']}")
        click.echo(f"quiescent: {result['quiescent']} at tick {result['tick']}")
        for node_id, info in result["nodes"].items():
            click.echo(
                f"  node {node_id[:12]}… height={info['height']} "
                f"root={info['state_root'][:12]}… ({info['status']})"
            )
        click.echo(f"committed events: {len(result['committed_events'])}")


# --- node ----------------------------------------------------------------------

@main.group()
def node():
    """Run a validator node service."""


@node.command("serve")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              required=False, help="Service config JSON (listen, data_dir, genesis, node_key).")
@pass_ctx
def node_serve(ctx: Ctx, config_path):
    """Serve one validator's HTTP API, simulating its network in-process."""
    from .api import ServiceConfig, build_node_service

    server = build_node_service(ServiceConfig.load(config_path))
    click.echo(f"serving {server.handle.node_id} on {server.url}")
    try:
        server.start()
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        server.stop()


if __name__ == "__main__":
    main()
