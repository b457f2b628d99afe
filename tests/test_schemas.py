import jsonschema
import pytest

from oscint import schemas

SCHEMAS = {name: value for name, value in vars(schemas).items() if name.endswith("_SCHEMA")}


def test_every_schema_passes_its_metaschema():
    assert len(SCHEMAS) == 8
    for name, schema in SCHEMAS.items():
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
