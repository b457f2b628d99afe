"""JSON Schemas for every file format the CLI reads or writes, and their
validation: a predicate that reads the schema directly accepts what is
certainly valid, and jsonschema runs only on an input it declines, to
find the error.  Nothing is compiled or cached per schema.  The schemas
are constants; the test suite checks them against their metaschema, so
no run checks them."""

import math
import re

_RAT = {"type": "string", "pattern": r"^-?\d+(/\d*[1-9]\d*)?$"}  # nonzero denominator
_RAT_OR_INT = {"anyOf": [_RAT, {"type": "integer"}]}
_DECIMAL = {"type": "string", "pattern": r"^-?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$"}
_BOUND = {"anyOf": [_RAT, _DECIMAL, {"type": "number"}]}  # a domain_box bound

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

_NUMBER = {"type": "number"}

SWEEP_SCHEMA = {
    "type": "object",
    "required": ["rows", "fit"],
    "properties": {
        "rows": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["lambda", "abs", "nodes"],
                "properties": {"lambda": _NUMBER, "abs": _NUMBER,
                               "nodes": {"type": "integer"},
                               "error": {"type": ["string", "null"]}},
            },
        },
        "fit": {"anyOf": [{"type": "null"}, {
            "type": "object",
            "required": ["rho", "logC", "r2"],
            "properties": {"rho": _NUMBER, "logC": _NUMBER, "r2": _NUMBER},
        }]},
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
                "domain_box": {"type": "array", "items": {"type": "array", "items": _BOUND}},
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


def validate(obj, schema) -> None:
    """Raise the best-matching jsonschema.ValidationError if obj does not
    match schema, as jsonschema.validate does.

    _accepts decides: obj is valid when it accepts.  Only when it declines
    is jsonschema imported, and it raises the error it finds, if any."""
    if _accepts(schema, obj):
        return
    import jsonschema

    validator = jsonschema.validators.validator_for(schema)(schema)
    error = jsonschema.exceptions.best_match(validator.iter_errors(obj))
    if error is not None:
        raise error


# ---------------------------------------------------------------------------
# The acceptor: a predicate that is True only on instances jsonschema
# certainly accepts.  It declines (is False) on anything it does not decide
# for certain: a keyword it does not know, a non-string enum value, a float
# for "integer", a bool, NaN or infinity for "number".  A keyword that
# applies to one type (required, properties, items, pattern, minimum,
# minItems) declines instances of other types, which jsonschema would pass.
# Schemas reach it unchecked: the test suite checks each against its
# metaschema.


def _is_number(x) -> bool:
    return type(x) is int or (type(x) is float and math.isfinite(x))


_TYPES = {
    "object": lambda x: type(x) is dict,
    "array": lambda x: type(x) is list,
    "string": lambda x: type(x) is str,
    "integer": lambda x: type(x) is int,
    "number": _is_number,
    "boolean": lambda x: type(x) is bool,
    "null": lambda x: x is None,
}


def _accepts(schema, x) -> bool:
    """The acceptor: True if x meets each keyword of schema in turn."""
    if not isinstance(schema, dict) or not schema:
        return False
    for key, value in schema.items():
        if key == "type":
            if not (_TYPES[value](x) if isinstance(value, str)
                    else any(_TYPES[name](x) for name in value)):
                return False
        elif key == "pattern":
            if type(x) is not str or re.search(value, x) is None:
                return False
        elif key == "anyOf":
            for sub in value:
                if _accepts(sub, x):
                    break
            else:
                return False
        elif key == "items":
            if type(x) is not list:
                return False
            for item in x:
                if not _accepts(value, item):
                    return False
        elif key == "properties":
            if type(x) is not dict:
                return False
            for name, sub in value.items():
                if name in x and not _accepts(sub, x[name]):
                    return False
        elif key == "required":
            if type(x) is not dict:
                return False
            for name in value:
                if name not in x:
                    return False
        elif key == "minimum":
            if not (_is_number(x) and x >= value):
                return False
        elif key == "minItems":
            if type(x) is not list or len(x) < value:
                return False
        elif key == "enum":
            if type(x) is not str or x not in value or not all(
                    type(v) is str for v in value):
                return False
        else:
            return False
    return True


def _acceptor(schema):
    return lambda x: _accepts(schema, x)
