"""JSON Schemas for every file format the CLI reads or writes."""

_RAT = {"type": "string", "pattern": r"^-?\d+(/\d+)?$"}
_RAT_OR_INT = {"anyOf": [_RAT, {"type": "integer"}]}

_VECTOR = {"type": "array", "items": _RAT_OR_INT}
_MATRIX = {"type": "array", "items": _VECTOR}

SNARL_SCHEMA = {
    "type": "object",
    "required": ["m", "subspaces"],
    "properties": {
        "m": {"type": "integer", "minimum": 2},
        "subspaces": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["label", "basis"],
                "properties": {"label": {"type": "string"}, "basis": _MATRIX},
            },
        },
    },
}

POLY_SCHEMA = {
    "type": "object",
    "required": ["vars", "terms"],
    "properties": {
        "vars": {"type": "integer", "minimum": 1},
        "terms": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["exps", "coeff"],
                "properties": {
                    "exps": {"type": "array", "items": {"type": "integer", "minimum": 0}},
                    "coeff": _RAT_OR_INT,
                },
            },
        },
    },
}

MAPS_SCHEMA = {
    "type": "object",
    "required": ["maps"],
    "properties": {
        "maps": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["rows"],
                "properties": {"label": {"type": "string"}, "rows": _MATRIX},
            },
        },
    },
}

RESOLUTION_SCHEMA = {
    "type": "object",
    "required": ["chain", "steps", "terminal_general_position"],
    "properties": {
        "chain": {"type": "array", "items": SNARL_SCHEMA, "minItems": 1},
        "steps": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["alpha0", "beta1", "beta2", "partition",
                             "Wprime", "Wdoubleprime", "seeds_used"],
            },
        },
        "terminal_general_position": {"type": "boolean"},
    },
}

REPORT_SCHEMA = {
    "type": "object",
    "required": ["is_degenerate", "certificate", "quotient_norm", "residual"],
    "properties": {
        "is_degenerate": {"type": "boolean"},
        "quotient_norm": {"type": "number", "minimum": 0},
    },
}

SWEEP_SCHEMA = {
    "type": "object",
    "required": ["rows", "fit"],
    "properties": {
        "rows": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["lambda", "abs", "nodes"],
            },
        },
    },
}

RUNSPEC_SCHEMA = {
    "type": "object",
    "required": ["phase", "maps", "bumps", "lambdas", "quad"],
    "properties": {
        "phase": POLY_SCHEMA,
        "maps": MAPS_SCHEMA["properties"]["maps"],
        "bumps": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["box"],
                "properties": {"box": {"type": "array", "items": _VECTOR}},
            },
        },
        "lambdas": {"type": "array", "items": {"type": "number"}, "minItems": 4},
        "quad": {
            "type": "object",
            "required": ["nodes_per_axis", "domain_box"],
            "properties": {
                "nodes_per_axis": {"type": "integer", "minimum": 8},
                "rule": {"enum": ["gauss-legendre", "midpoint"]},
                "refine_tol": {"type": "number"},
                "max_nodes_per_axis": {"type": "integer"},
            },
        },
        "seed": {"type": "integer"},
        "tail_from": {"type": "number"},
    },
}

RECORD_SCHEMA = {
    "type": "object",
    "required": ["run_id", "command", "input", "output", "seeds",
                 "tolerance", "tool_version", "timestamp"],
    "properties": {
        "run_id": {"type": "string"},
        "command": {"enum": ["resolve", "degeneracy", "sweep"]},
        "input": {"type": "object"},
        "seeds": {"type": "array", "items": {"type": "integer"}},
        "tolerance": {"type": "number", "minimum": 0},
        "tool_version": {"type": "string"},
        "timestamp": {"type": "string"},
    },
}


_VALIDATORS: dict[int, object] = {}  # id(schema) -> validator, which keeps schema alive


def validate(obj, schema) -> None:
    """Raise the best-matching jsonschema.ValidationError if obj does not
    match schema, as jsonschema.validate does.  The schema is checked
    against its metaschema and its validator built on first use, then
    reused."""
    import jsonschema

    validator = _VALIDATORS.get(id(schema))
    if validator is None:
        cls = jsonschema.validators.validator_for(schema)
        cls.check_schema(schema)
        validator = _VALIDATORS[id(schema)] = cls(schema)
    error = jsonschema.exceptions.best_match(validator.iter_errors(obj))
    if error is not None:
        raise error
