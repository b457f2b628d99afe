import copy
import gc
import json
import math
import weakref
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oscint import schemas
from oscint.cli import COMMANDS

SCHEMAS = {name: value for name, value in vars(schemas).items() if name.endswith("_SCHEMA")}


def test_every_schema_passes_its_metaschema():
    assert len(SCHEMAS) == 8
    for name, schema in SCHEMAS.items():
        jsonschema.validators.validator_for(schema).check_schema(schema)


def test_every_command_field_schema_passes_its_metaschema():
    # no run checks a schema: the constants are checked above, and the
    # inline field schemas of the CLI commands here
    inline = [schema for _, fields in COMMANDS.values() for schema in fields.values()
              if not any(schema is s for s in SCHEMAS.values())]
    assert len(inline) == 3
    for schema in inline:
        jsonschema.validators.validator_for(schema).check_schema(schema)


@pytest.mark.parametrize("obj", [
    {"m": 2},
    {"m": "2", "subspaces": []},
    {"m": 2, "subspaces": [{"label": "a", "basis": [["1", "x"]]}]},
])
def test_validate_raises_what_jsonschema_validate_raises(obj):
    with pytest.raises(jsonschema.ValidationError) as ours:
        schemas.validate(obj, schemas.SNARL_SCHEMA)
    with pytest.raises(jsonschema.ValidationError) as theirs:
        jsonschema.validate(obj, schemas.SNARL_SCHEMA)
    assert str(ours.value) == str(theirs.value)


def test_validator_built_once_per_schema(monkeypatch):
    schemas.validate({"vars": 1, "terms": []}, schemas.POLY_SCHEMA)
    cls = jsonschema.validators.validator_for(schemas.POLY_SCHEMA)
    monkeypatch.setattr(cls, "check_schema", classmethod(
        lambda c, schema: pytest.fail("schema checked again")))
    schemas.validate({"vars": 2, "terms": []}, schemas.POLY_SCHEMA)
    with pytest.raises(jsonschema.ValidationError):
        schemas.validate({"vars": 0, "terms": []}, schemas.POLY_SCHEMA)


def test_validate_never_checks_the_schema(monkeypatch):
    schema = copy.deepcopy(schemas.POLY_SCHEMA)  # a schema validate has not seen
    cls = jsonschema.validators.validator_for(schema)
    monkeypatch.setattr(cls, "check_schema", classmethod(
        lambda c, schema: pytest.fail("schema checked")))
    schemas.validate({"vars": 1, "terms": []}, schema)
    with pytest.raises(jsonschema.ValidationError):
        schemas.validate({"vars": 0, "terms": []}, schema)


def test_validate_keeps_no_reference_to_the_schema():
    class Schema(dict):  # a plain dict cannot be weakly referenced
        pass

    schema = Schema(copy.deepcopy(schemas.POLY_SCHEMA))
    ref = weakref.ref(schema)
    schemas.validate({"vars": 1, "terms": []}, schema)
    del schema
    gc.collect()
    assert ref() is None


# --- the acceptor in front of jsonschema ------------------------------------
#
# schemas.validate returns at once when the acceptor accepts, so the
# acceptor must never accept what jsonschema rejects.

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# every schema schemas.validate is given: the *_SCHEMA ones and the field
# schemas of the CLI commands
ALL_SCHEMAS = dict(SCHEMAS, **{f"{command}.{field}": schema
                               for command, (_, fields) in COMMANDS.items()
                               for field, schema in fields.items()
                               if not any(schema is s for s in SCHEMAS.values())})
NAMES = {id(schema): name for name, schema in ALL_SCHEMAS.items()}
ACCEPTORS = {name: schemas._acceptor(schema) for name, schema in ALL_SCHEMAS.items()}

RAT_HITS = ["0", "-7", "12/5", "-1/3", "007", "1\n", "٣"]
RAT_MISSES = ["", "x", "1/", "/2", "1.5", "1/2/3", "--1", " 1", "1e3", "+1"]
NOISE = st.one_of(
    st.sampled_from([True, False, None, 2.0, -0.0, 1.5, math.nan, math.inf, -math.inf,
                     0, -1, 2, 10**400, "gauss-legendre", "midpoint", "resolve"]),
    st.integers(-3, 9), st.floats(), st.sampled_from(RAT_HITS + RAT_MISSES),
    st.text(max_size=3),
    st.lists(st.sampled_from(["1", 1, True, 2.0, "x"]), max_size=3),
    st.dictionaries(st.sampled_from(["m", "label", "basis", "extra"]),
                    st.sampled_from(["1", 1, True, []]), max_size=2),
)


def check_against_jsonschema(obj, name):
    """Acceptor accepts => jsonschema accepts; and schemas.validate raises
    exactly what jsonschema.validate raises."""
    schema = ALL_SCHEMAS[name]
    accepted = ACCEPTORS[name](obj)
    try:
        jsonschema.validate(obj, schema)
    except jsonschema.ValidationError as theirs:
        assert not accepted, (name, obj)
        with pytest.raises(jsonschema.ValidationError) as ours:
            schemas.validate(obj, schema)
        assert str(ours.value) == str(theirs)
    else:
        schemas.validate(obj, schema)


_GUIDED: dict[tuple[int, bool], object] = {}


def guided(schema, noisy: bool):
    """Values shaped by schema with extra keys; when noisy, also with
    missing keys, and each node replaced by noise one time in eight."""
    key = id(schema), noisy
    if key not in _GUIDED:
        shaped = _shaped(schema, noisy)
        _GUIDED[key] = (st.integers(0, 7).flatmap(lambda i: NOISE if i == 0 else shaped)
                        if noisy else shaped)
    return _GUIDED[key]


def _shaped(schema, noisy):
    if "anyOf" in schema:
        return st.one_of([guided(sub, noisy) for sub in schema["anyOf"]])
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    types = schema.get("type", [])
    options = []
    for t in [types] if isinstance(types, str) else types:
        if t == "object":
            props = {key: guided(sub, noisy)
                     for key, sub in schema.get("properties", {}).items()}
            props.update({key: NOISE for key in schema.get("required", []) if key not in props})
            required = {key: props[key] for key in schema.get("required", [])}
            whole = st.fixed_dictionaries(required, optional={
                key: value for key, value in props.items() if key not in required})
            if noisy:
                whole = st.one_of(whole, whole, whole, st.fixed_dictionaries({}, optional=props))
            extra = st.dictionaries(st.sampled_from(["extra", "label", "m"]), NOISE, max_size=1)
            options.append(st.tuples(whole, extra).map(lambda pair: {**pair[1], **pair[0]}))
        elif t == "array":
            lo = schema.get("minItems", 0)
            options.append(st.lists(guided(schema.get("items", {}), noisy),
                                    min_size=max(lo - noisy, 0), max_size=lo + 3))
        elif t == "string":
            options.append(st.from_regex(schema["pattern"], fullmatch=True)
                           if "pattern" in schema else st.text(max_size=4))
        elif t == "integer":
            lo = schema.get("minimum", -3)
            options.append(st.integers(lo - noisy, lo + 6))
        elif t == "number":
            lo = schema.get("minimum", -3)
            options.append(st.one_of(st.integers(lo - noisy, lo + 6),
                                     st.floats(lo - noisy, lo + 1e6)))
        elif t == "boolean":
            options.append(st.booleans())
        elif t == "null":
            options.append(st.none())
    return st.one_of(options) if options else NOISE


@pytest.mark.parametrize("name", sorted(ALL_SCHEMAS))
def test_acceptor_sound_on_schema_guided_values(name):
    schema = ALL_SCHEMAS[name]

    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(st.one_of(guided(schema, False), guided(schema, True)))
    def run(obj):
        check_against_jsonschema(obj, name)

    run()


def _fixture_documents():
    """(document, schema name) for every file under fixtures/, and for the
    inputs and outputs of every committed record."""
    kinds = {"adversarial-sweep": "RUNSPEC_SCHEMA", "demo-sweep": "RUNSPEC_SCHEMA",
             "antisym-phase": "POLY_SCHEMA", "pullback-phase": "POLY_SCHEMA",
             "cltt-example": "SNARL_SCHEMA", "cltt-maps": "MAPS_SCHEMA"}
    outputs = {"degeneracy": "REPORT_SCHEMA", "sweep": "SWEEP_SCHEMA"}
    docs = [(json.loads((FIXTURES / f"{stem}.json").read_text()), name)
            for stem, name in kinds.items()]
    for path in sorted((FIXTURES / "records").glob("*.record.json")):
        rec = json.loads(path.read_text())
        docs.append((rec, "RECORD_SCHEMA"))
        docs += [(rec["input"][field], NAMES[id(schema)])
                 for field, schema in COMMANDS[rec["command"]][1].items()]
        if rec["command"] == "resolve":
            docs.append((rec["output"]["resolution"], "RESOLUTION_SCHEMA"))
        else:
            docs.append((rec["output"], outputs[rec["command"]]))
    return docs


FIXTURE_DOCUMENTS = _fixture_documents()


def _paths(obj, prefix=()):
    yield prefix
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def test_acceptor_accepts_every_fixture():
    assert {name for _, name in FIXTURE_DOCUMENTS} == set(ALL_SCHEMAS)
    for doc, name in FIXTURE_DOCUMENTS:
        assert ACCEPTORS[name](doc), name


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.data())
def test_acceptor_sound_on_single_field_mutations_of_fixtures(data):
    doc, name = data.draw(st.sampled_from(FIXTURE_DOCUMENTS))
    doc = copy.deepcopy(doc)
    path = data.draw(st.sampled_from(list(_paths(doc))))
    new = data.draw(NOISE)
    if not path:
        doc = new
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        edit = data.draw(st.sampled_from(["replace", "delete", "extra"]))
        if edit == "replace":
            parent[path[-1]] = new
        elif edit == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent["extra"] = new
        else:
            parent.append(new)
    check_against_jsonschema(doc, name)


@pytest.mark.parametrize("schema, obj", [
    ({"type": "integer"}, True),
    ({"type": "integer"}, 2.0),
    ({"type": "number"}, False),
    ({"type": "number"}, math.nan),
    ({"type": "number"}, -math.inf),
    ({"type": "number", "minimum": 0}, math.nan),
    ({"enum": ["a", 1]}, "a"),
    ({"type": "string", "maxLength": 3}, "a"),
    ({}, 1),
    (schemas.SNARL_SCHEMA["properties"]["subspaces"]["items"], {"label": 5, "basis": []}),
])
def test_acceptor_declines_doubtful_cases(schema, obj):
    assert not schemas._acceptor(schema)(obj)
