"""The decode side of the one record codec, ``codec.Record``.

Every wire record takes ``to_dict``/``from_dict`` from the mixin, which
decodes each field by its declared type unless the field names a decoder.
These tests pin that each record survives the wire, that the decode checks
still refuse bad input, that a document decodes only to the record it is,
and that a genesis file's bytes match a serializer written out by hand.
"""

import dataclasses
import functools
import importlib
import json
import pkgutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rolechain
from rolechain import codec
from rolechain.ledger import build_block, genesis_block
from rolechain.payloads import payload_from_dict
from rolechain.sco import PermissionCheck
from rolechain.state import UserRecord, WorldState, apply_transaction, state_root
from rolechain.store import GenesisFile, load_genesis, save_genesis

from oracles import reference_genesis_bytes


def _concrete_records(cls=codec.Record):
    for sub in cls.__subclasses__():
        if dataclasses.is_dataclass(sub) and not sub.__name__.startswith("_"):
            yield sub
        yield from _concrete_records(sub)


def _over_the_wire(record):
    """Encode *record* to canonical JSON and decode it back with its own class."""
    return type(record).from_dict(json.loads(codec.canonical_dumps(record.to_dict())))


@pytest.fixture
def samples(genesis_file, genesis_state, txf, wallets):
    txs = [
        txf.register("alice", "acme", "member"),
        txf.grant("admin_acme", "acme", "member", "ledger", "read"),
        txf.update("admin_acme", "alice", "acme", "member", "auditor"),
        txf.revoke("admin_acme", "acme", "member", "ledger", "read"),
    ]
    prev = genesis_block(genesis_state).header
    block = build_block(prev, txs, genesis_state, wallets["v0"].address, tick=1)
    acme, globex = genesis_file.orgs
    registered = txs[0].payload
    assert len(block.events) == 4
    state = genesis_state
    for i, tx in enumerate(txs[:2]):  # a registration and a grant
        state, _ = apply_transaction(state, tx, height=1, tx_index=i)
    assert all(getattr(state, name) for name in codec._field_names(type(state)))
    return [
        genesis_file,
        acme,
        globex,
        acme.role_catalog["contractor"],
        block,
        block.header,
        *block.events,
        *txs,
        *(tx.payload for tx in txs),
        txs[1].payload.permission,
        wallets["alice"],
        PermissionCheck(granted=True, via_roles=frozenset({"member", "auditor"})),
        UserRecord(
            address=registered.user, public_key=registered.public_key,
            password_digest=registered.password_digest, registered_at=(1, 0),
        ),
        state,
    ]


def test_every_record_round_trips_over_the_wire(samples):
    for record in samples:
        assert _over_the_wire(record) == record, type(record).__name__
    # A new record class must come with a sample here.
    assert {type(r) for r in samples} == set(_concrete_records())


@pytest.mark.parametrize("cls", sorted(_concrete_records(), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_a_document_that_is_not_the_record_raises_value_error(cls, samples):
    docs = [None, [], {}, "text", 7]
    valid = next(r.to_dict() for r in samples if type(r) is cls)
    docs += [{k: v for k, v in valid.items() if k != name} for name in codec._field_names(cls)]
    for doc in docs:
        # pytest.raises(ValueError) alone would let a KeyError or TypeError escape
        # as an error; naming them shows which one did.
        try:
            cls.from_dict(doc)
        except ValueError as exc:
            assert cls.__name__ in str(exc), (doc, exc)
        except (KeyError, TypeError, AttributeError, IndexError) as exc:
            pytest.fail(f"{cls.__name__}.from_dict({doc!r}) raised {exc!r}")
        else:
            pytest.fail(f"{cls.__name__}.from_dict({doc!r}) decoded")


def test_only_the_record_codec_reads_and_writes_records():
    """One way to (de)serialize a record: every class takes both from ``codec.Record``.

    Only ``_Payload`` (which adds its ``kind``) and ``Event`` (whose tuple of
    attribute pairs is an object on the wire) write their own ``to_dict``.
    """
    defines = {"from_dict": set(), "to_dict": set()}
    for info in pkgutil.iter_modules(rolechain.__path__):
        module = importlib.import_module(f"rolechain.{info.name}")
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                for name, owners in defines.items():
                    if name in vars(cls):
                        owners.add(cls.__qualname__)
    assert defines == {"from_dict": {"Record"}, "to_dict": {"Record", "_Payload", "Event"}}


def test_a_value_error_from_a_decoder_passes_through_unchanged(genesis_file):
    doc = genesis_file.to_dict()
    doc["validators"][0] = "zz" * 20
    with pytest.raises(ValueError) as raised:
        GenesisFile.from_dict(doc)
    assert str(raised.value) == "validator address must be 20 bytes of lowercase hex"


def test_every_payload_kind_round_trips_through_payload_from_dict(samples):
    payloads = [r.payload for r in samples if hasattr(r, "payload")]
    assert {p.kind for p in payloads} == {
        "register_user", "update_user_role", "grant_permission", "revoke_permission",
    }
    for payload in payloads:
        assert payload_from_dict(json.loads(codec.canonical_dumps(payload.to_dict()))) == payload


# The id fields of each payload kind: an org or a role, which the state uses as keys.
_ID_FIELDS = {
    "register_user": ("org", "requested_role"),
    "update_user_role": ("org", "old_role", "new_role"),
    "grant_permission": ("org", "role"),
    "revoke_permission": ("org", "role"),
}


@pytest.mark.parametrize("value", [["acme"], 1.5, 7, True, None, {"org": "acme"}])
def test_a_payload_id_that_is_not_a_string_is_refused(txf, value):
    for tx in (
        txf.register("alice", "acme", "member"),
        txf.update("admin_acme", "alice", "acme", "member", "auditor"),
        txf.grant("admin_acme", "acme", "member", "ledger", "read"),
        txf.revoke("admin_acme", "acme", "member", "ledger", "read"),
    ):
        wire = tx.payload.to_dict()
        for name in _ID_FIELDS[wire["kind"]]:
            with pytest.raises(ValueError, match=f"{name} must be a string"):
                payload_from_dict({**wire, name: value})
            # Only the type is checked: a string of any length still decodes.
            for text in ("", "x" * 300):
                assert getattr(payload_from_dict({**wire, name: text}), name) == text


@pytest.mark.parametrize("where", ["admin", "validator"])
@pytest.mark.parametrize("bad", ["zz" * 20, "AB" * 20, "ab" * 19, 7])
def test_genesis_with_a_non_hex_address_is_refused(tmp_path, genesis_file, where, bad):
    doc = genesis_file.to_dict()
    if where == "admin":
        doc["orgs"][0]["admins"][0] = bad
    else:
        doc["validators"][0] = bad
    with pytest.raises(ValueError, match=f"{where} address"):
        GenesisFile.from_dict(doc)
    path = tmp_path / "genesis.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError):
        load_genesis(path)


def test_self_assignable_is_a_json_boolean_only(genesis_file):
    for value in (0, 1):
        doc = genesis_file.to_dict()
        doc["orgs"][0]["role_catalog"]["member"]["self_assignable"] = value
        with pytest.raises(ValueError, match="self_assignable must be a boolean"):
            GenesisFile.from_dict(doc)


def test_permission_check_lists_its_roles_sorted():
    check = PermissionCheck(granted=True, via_roles=frozenset({"zeta", "alpha", "mid"}))
    assert check.to_dict() == {"granted": True, "via_roles": ["alpha", "mid", "zeta"]}
    assert PermissionCheck(False, frozenset()).to_dict() == {"granted": False, "via_roles": []}


def test_genesis_bytes_match_the_reference_serializer(tmp_path, genesis_file):
    ref = reference_genesis_bytes(genesis_file)
    assert codec.canonical_bytes(genesis_file.to_dict()) == ref
    path = tmp_path / "genesis.json"
    save_genesis(genesis_file, path)
    assert path.read_bytes() == ref + b"\n"
    # The order of orgs and validators is the file's, not sorted.
    swapped = dataclasses.replace(
        genesis_file,
        orgs=genesis_file.orgs[::-1],
        validators=genesis_file.validators[::-1],
    )
    assert codec.canonical_bytes(swapped.to_dict()) == reference_genesis_bytes(swapped) != ref


def _nodes(doc, path=()):
    """Every node of a JSON document, with its path (keys and indexes), the root first."""
    yield path, doc
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for step, child in children:
        yield from _nodes(child, path + (step,))


def _scalar_paths(doc):
    """The path (keys and indexes) to every scalar leaf of a JSON document."""
    return [path for path, node in _nodes(doc) if not isinstance(node, (dict, list))]


def _planted(doc, path, value):
    """A copy of *doc* whose leaf at *path* is *value*."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return doc


# One strategy per JSON type a leaf may be swapped for.
_JSON_VALUES = {
    str: st.text(max_size=70),
    int: st.integers(min_value=-3, max_value=2**64),
    bool: st.booleans(),
    type(None): st.none(),
    float: st.floats(allow_nan=False, allow_infinity=False),
    list: st.lists(st.integers(0, 3) | st.text(max_size=3), max_size=3),
}


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.fixed_dictionaries(_JSON_VALUES))
def test_what_decodes_with_one_leaf_of_another_type_also_encodes(samples, values):
    """``from_dict`` is the one check of a document: one leaf of another JSON type is refused
    with ``ValueError`` or decodes to a record that encodes (and, for a state, roots).

    Every scalar leaf of every sample is swapped, one at a time, for the drawn value of
    each other type.
    """
    for record in samples:
        cls = type(record)
        doc = json.loads(codec.canonical_dumps(record))
        for path in _scalar_paths(doc):
            leaf = functools.reduce(lambda node, step: node[step], path, doc)
            for kind, value in values.items():
                if kind is type(leaf):
                    continue
                try:
                    decoded = cls.from_dict(_planted(doc, path, value))
                except ValueError:
                    continue
                try:
                    codec.canonical_bytes(decoded)
                    if cls is WorldState:
                        state_root(decoded)
                except Exception as exc:
                    pytest.fail(f"{cls.__name__} with {value!r} at {path} decoded, then {exc!r}")


_ANY_JSON = (
    st.none() | st.booleans() | st.integers(-3, 3) | st.integers(2**63, 2**64) | st.floats()
    | st.text(max_size=8) | st.lists(st.integers(0, 3) | st.text(max_size=3), max_size=3)
    | st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2)
)
_MARK = "\0repeated"  # stands in for the object whose key repeats, until its text is spliced in


def _edited(doc, draw) -> tuple[str, object]:
    """The JSON text of *doc* after one drawn edit, and the document it stands for.

    The document is None when the text repeats a key, since no document holds that.
    """
    nodes = list(_nodes(doc))
    lists = [n for _, n in nodes if isinstance(n, list) and n]
    edit = draw(st.sampled_from(["add-key", "repeat-key", "leaf-type"] + ["list-member"] * bool(lists)))
    if edit in ("add-key", "repeat-key"):
        path, obj = draw(st.sampled_from([(p, n) for p, n in nodes if isinstance(n, dict) and n]))
        if edit == "add-key":
            obj[draw(st.text(max_size=8).filter(lambda k: k not in obj))] = draw(_ANY_JSON)
            return json.dumps(doc), doc
        key = draw(st.sampled_from(sorted(obj)))
        entries = [*obj.items(), (key, draw(st.just(obj[key]) | _ANY_JSON))]
        text = ",".join(f"{json.dumps(k)}:{json.dumps(v)}" for k, v in entries)
        marked = _planted(doc, path, _MARK) if path else _MARK
        return json.dumps(marked).replace(json.dumps(_MARK), "{" + text + "}"), None
    if edit == "list-member":  # a set's member moved or repeated; a tuple's reordered or grown
        seq = draw(st.sampled_from(lists))
        i, j = draw(st.integers(0, len(seq) - 1)), draw(st.integers(0, len(seq) - 1))
        if i != j:
            seq[i], seq[j] = seq[j], seq[i]
        else:
            seq.insert(i, seq[i])
        return json.dumps(doc), doc
    path, leaf = draw(st.sampled_from([(p, n) for p, n in nodes if not isinstance(n, (dict, list))]))
    doc = _planted(doc, path, draw(_ANY_JSON.filter(lambda v: type(v) is not type(leaf))))
    return json.dumps(doc), doc


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_a_document_decodes_only_to_the_record_it_is(samples, data):
    """One decode: a sample's JSON text after one edit (a key added or repeated, a list
    member moved or repeated, a leaf of another JSON type) is refused with ``ValueError``,
    or decodes to a record whose canonical bytes are those of the edited document.
    """
    record = data.draw(st.sampled_from(samples))
    text, doc = _edited(json.loads(codec.canonical_dumps(record)), data.draw)
    try:
        decoded = type(record).from_dict(codec.loads(text))
    except ValueError:
        return
    assert doc is not None, f"{type(record).__name__} decoded a repeated key: {text}"
    assert codec.canonical_bytes(decoded) == codec.canonical_bytes(doc), text


# Each edit plants one entry that no state holds; the decode refuses it.
_BAD_STATE_ENTRIES = {
    "nonce-str": lambda d: d["nonces"].update(a="x"),
    "nonce-float": lambda d: d["nonces"].update(a=1.5),
    "nonce-bool": lambda d: d["nonces"].update(a=True),
    "nonce-negative": lambda d: d["nonces"].update(a=-1),
    "ura-int-ids": lambda d: d["ura"].append([1, 2, 3]),
    "pra-int-role": lambda d: d["pra"].append(["acme", 7, {"resource": "r", "action": "a"}]),
    "user-under-another-key": lambda d: d["users"].update({"ab" * 20: [*d["users"].values()][0]}),
    "org-under-another-key": lambda d: d["orgs"].update(initech=d["orgs"]["acme"]),
}


@pytest.mark.parametrize("entry", sorted(_BAD_STATE_ENTRIES))
def test_a_state_document_with_a_bad_entry_is_refused(samples, entry):
    state = next(r for r in samples if type(r) is WorldState)
    doc = json.loads(codec.canonical_dumps(state))
    _BAD_STATE_ENTRIES[entry](doc)
    with pytest.raises(ValueError):
        WorldState.from_dict(doc)
