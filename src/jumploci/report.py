"""Deterministic JSON reports and a small structural schema checker.

Reports are serialized with sorted keys and canonical array orders so
identical inputs and configuration produce byte-identical files.
"""

from __future__ import annotations

import io
import json
from itertools import islice

from . import __version__


def build_report(command, config, results):
    return {
        "tool": "jumploci",
        "version": __version__,
        "command": command,
        "config": config,
        "results": results,
    }


def dumps_canonical(report):
    """json.dumps(report, sort_keys=True, indent=2) plus a newline.  The
    encoder's chunks are joined 4,096 at a time, not all in one list,
    which for a large report held as much memory again as its text."""
    out = io.StringIO()
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(report)
    while batch := "".join(islice(chunks, 4096)):
        out.write(batch)
    out.write("\n")
    return out.getvalue()


def write_report(report, path):
    data = dumps_canonical(report)
    if path == "-":
        import sys
        sys.stdout.write(data)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(data)
    return data


class SchemaError(ValueError):
    pass


def check_schema(instance, schema, path="$"):
    """Validate against the subset of JSON Schema the shipped schema
    uses: type, required, properties, items, enum."""
    stype = schema.get("type")
    if stype:
        if not _type_ok(instance, stype):
            raise SchemaError(f"{path}: expected {stype}, got {type(instance).__name__}")
    if "enum" in schema and instance not in schema["enum"]:
        raise SchemaError(f"{path}: {instance!r} not in enum")
    if stype == "object":
        for key in schema.get("required", []):
            if key not in instance:
                raise SchemaError(f"{path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in instance:
                check_schema(instance[key], sub, f"{path}.{key}")
    if stype == "array" and "items" in schema:
        for i, item in enumerate(instance):
            check_schema(item, schema["items"], f"{path}[{i}]")
    return True


_JSON_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
               "integer": int, "number": (int, float), "null": type(None)}


def _type_ok(value, stype):
    # bool is an int subclass, but JSON true is no integer or number.
    types = stype if isinstance(stype, list) else [stype]
    return any(isinstance(value, _JSON_TYPES.get(t, ()))
               and (t == "boolean" or not isinstance(value, bool))
               for t in types)


# The report schema the CLI checks; schema/report.schema.json publishes it.
REPORT_SCHEMA = {
    "type": "object",
    "required": ["tool", "version", "command", "config", "results"],
    "properties": {
        "tool": {"type": "string", "enum": ["jumploci"]},
        "version": {"type": "string"},
        "command": {"type": "string"},
        "config": {"type": "object"},
        "results": {"type": ["object", "array"]},
    },
}
