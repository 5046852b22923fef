"""Scene files: the on-disk description of a stratified-map setup.

A scene is a single JSON document declaring the ambient dimension, the
stratifying map (expression text), the strata (chart text plus domain
predicates), declared incidences, optional plan overrides, and optional
experiment blocks.  Everything downstream (validation, checking,
experiments) starts from a scene.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from .dsl import DslError, SmoothMap, parse_map
from .strata import ApproachPlan, Incidence, Prestratification, StratifiedMapContext, Stratum

__all__ = [
    "Scene",
    "SceneError",
    "SCENE_SCHEMA",
    "scene_from_dict",
    "load_scene",
    "canonical_json",
    "scene_hash",
]


class SceneError(Exception):
    pass


_BOX = {
    "type": "array",
    "minItems": 1,
    "items": {
        "type": "array",
        "items": {"type": "number"},
        "minItems": 2,
        "maxItems": 2,
    },
}

SCENE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["ambient_dim", "map", "strata"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string"},
        "description": {"type": "string"},
        "ambient_dim": {"type": "integer", "minimum": 1},
        "map": {"type": "string"},
        "strata": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["name", "dim", "chart"],
                "additionalProperties": False,
                "properties": {
                    "name": {"type": "string"},
                    "dim": {"type": "integer", "minimum": 1},
                    "chart": {"type": "string"},
                    "domain": {"type": "array", "items": {"type": "string"}},
                    "inverse": {"type": "string"},
                    "sample_box": _BOX,
                },
            },
        },
        "incidences": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["x", "y", "point"],
                "additionalProperties": False,
                "properties": {
                    "x": {"type": "string"},
                    "y": {"type": "string"},
                    "point": {"type": "array", "items": {"type": "number"}},
                },
            },
        },
        "plan": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "ratio": {"type": "number"},
                "terms": {"type": "integer"},
                "directions": {"type": "integer"},
                "window": {"type": "integer"},
                "angle_tol": {"type": "number"},
            },
        },
        "witness": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "arc": {"type": "string"},
                "t0": {"type": "number"},
                "ratio": {"type": "number"},
                "count": {"type": "integer"},
            },
        },
        "experiments": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "mode": {"enum": ["stability", "instability", "nongeneric"]},
                "g": {"type": "string"},
                "g_dim": {"type": "integer", "minimum": 1},
                "k_box": _BOX,
                "grid": {"type": "array", "items": {"type": "integer", "minimum": 2}},
                "eps": {"type": "number"},
                "trials": {"type": "integer", "minimum": 0},
                "count": {"type": "integer", "minimum": 1},
                "radius": {"type": "number"},
                "bumps": {"type": "integer", "minimum": 1},
                "domain_topology": {"enum": ["line", "circle", "fold"]},
            },
        },
    },
}


@dataclass(frozen=True)
class Scene:
    raw: dict = field(repr=False)
    name: str
    ambient: int
    f: SmoothMap
    prestratification: Prestratification
    plan: ApproachPlan | None
    experiments: dict | None

    def build_context(self, seed: int = 0) -> StratifiedMapContext:
        return StratifiedMapContext.build(self.f, self.prestratification, seed=seed)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# the JSON types of SCENE_SCHEMA.  Two are stricter than JSON Schema's:
# a number is finite (Python's json reads NaN, Infinity and 1e999), and
# an integer is a JSON integer, so 2.0 is not one
_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "integer": lambda value: isinstance(value, int) and not isinstance(value, bool),
    "number": lambda value: _is_number(value) and abs(value) <= sys.float_info.max,
}


def _type(name, value, schema, path):
    if not _TYPES[name](value):
        if name == "number" and _is_number(value):
            yield path, f"{value!r} is not a finite number"
        else:
            yield path, f"{value!r} is not of type {name!r}"


def _required(names, value, schema, path):
    if isinstance(value, dict):
        for name in names:
            if name not in value:
                yield path, f"{name!r} is a required property"


def _additional_properties(allowed, value, schema, path):
    if isinstance(value, dict) and not allowed:
        extras = sorted((key for key in value if key not in schema.get("properties", {})), key=str)
        if extras:
            verb = "was" if len(extras) == 1 else "were"
            listed = ", ".join(repr(key) for key in extras)
            yield path, f"Additional properties are not allowed ({listed} {verb} unexpected)"


def _properties(subschemas, value, schema, path):
    if isinstance(value, dict):
        for name, subschema in subschemas.items():
            if name in value:
                yield from _errors(value[name], subschema, (*path, name))


def _items(subschema, value, schema, path):
    if isinstance(value, list):
        for index, item in enumerate(value):
            yield from _errors(item, subschema, (*path, index))


def _min_items(least, value, schema, path):
    if isinstance(value, list) and len(value) < least:
        yield path, f"{value!r} {'should be non-empty' if least == 1 else 'is too short'}"


def _max_items(most, value, schema, path):
    if isinstance(value, list) and len(value) > most:
        yield path, f"{value!r} {'is expected to be empty' if most == 0 else 'is too long'}"


def _minimum(least, value, schema, path):
    if _is_number(value) and value < least:
        yield path, f"{value!r} is less than the minimum of {least!r}"


def _enum(options, value, schema, path):
    if value not in options:
        yield path, f"{value!r} is not one of {options!r}"


# every keyword SCENE_SCHEMA uses, each checking one value against its
# argument with jsonschema 4's error texts; "$schema" only names the draft
_KEYWORDS = {
    "$schema": lambda *_: (),
    "type": _type,
    "required": _required,
    "additionalProperties": _additional_properties,
    "properties": _properties,
    "items": _items,
    "minItems": _min_items,
    "maxItems": _max_items,
    "minimum": _minimum,
    "enum": _enum,
}


def _errors(value, schema: dict, path: tuple = ()):
    """The (path, message) of every violation of ``schema`` by ``value``,
    in jsonschema's order: keyword by keyword as the schema lists them,
    depth first."""
    for keyword, argument in schema.items():
        yield from _KEYWORDS[keyword](argument, value, schema, path)


def _schema_violation(data) -> tuple[str, str] | None:
    """The (JSON pointer, message) of the violation of SCENE_SCHEMA that
    ``jsonschema.exceptions.best_match`` picks, or None: the shallowest,
    then the last in path order, then the first found.  Every location
    in a scene has one subschema, so best_match's other tie-breaks
    (weak keywords, a matching type) never separate two errors."""
    errors = _errors(data, SCENE_SCHEMA)
    best = max(errors, key=lambda error: (-len(error[0]), error[0]), default=None)
    if best is None:
        return None
    path, message = best
    return "/" + "/".join(str(p) for p in path), message


def scene_from_dict(data: dict) -> Scene:
    violation = _schema_violation(data)
    if violation is not None:
        pointer, message = violation
        raise SceneError(f"scene schema violation at {pointer}: {message}")
    n = data["ambient_dim"]
    try:
        f = parse_map(data["map"], n)
    except DslError as exc:
        raise SceneError(f"map does not parse: {exc}") from exc
    strata = []
    for spec in data["strata"]:
        try:
            chart = parse_map(spec["chart"], spec["dim"], domain=tuple(spec.get("domain", ())))
        except DslError as exc:
            raise SceneError(f"chart of {spec['name']!r} does not parse: {exc}") from exc
        if chart.m != n:
            raise SceneError(
                f"chart of {spec['name']!r} maps into R^{chart.m}, scene is in R^{n}"
            )
        inverse = None
        if "inverse" in spec:
            try:
                inverse = parse_map(spec["inverse"], n)
            except DslError as exc:
                raise SceneError(f"inverse hint of {spec['name']!r} does not parse: {exc}") from exc
            if inverse.m != spec["dim"]:
                raise SceneError(f"inverse hint of {spec['name']!r} has wrong output dimension")
        box = tuple(tuple(float(b) for b in pair) for pair in spec.get("sample_box", ()))
        try:
            strata.append(Stratum(name=spec["name"], chart=chart, inverse_hint=inverse, sample_box=box))
        except ValueError as exc:
            raise SceneError(f"stratum {spec['name']!r}: {exc}") from exc
    incidences = tuple(
        Incidence(x=i["x"], y=i["y"], point=tuple(float(c) for c in i["point"]))
        for i in data.get("incidences", ())
    )
    try:
        prestrat = Prestratification(ambient=n, strata=tuple(strata), incidences=incidences)
    except (ValueError, KeyError) as exc:
        raise SceneError(str(exc)) from exc
    plan = _plan_from(ApproachPlan(), data["plan"]) if "plan" in data else None
    _check_experiments(data.get("experiments", {}), n)
    return Scene(
        raw=data,
        name=data.get("name", "scene"),
        ambient=n,
        f=f,
        prestratification=prestrat,
        plan=plan,
        experiments=data.get("experiments"),
    )


def _check_experiments(exp: dict, n: int) -> None:
    """SceneError unless the experiment block's grid, box and map agree
    in dimension, its map ``g`` (the non-genericity scene's map, or the
    stability run's base map) parses on its inputs into the ambient
    space, its radius (the instability run's) and its eps are positive,
    and a non-genericity block has every key it reads and the shape its
    witness search reads: a plane curve for the slope search on a line
    or circle, a plane map of a 2-D domain for the fold search."""
    if exp.get("mode") == "nongeneric":
        missing = [key for key in ("g", "g_dim", "k_box", "grid") if key not in exp]
        if missing:
            raise SceneError(f"the nongeneric experiment block has no {', '.join(missing)}")
        topology = exp.get("domain_topology", "line")
        g_dim = 2 if topology == "fold" else 1
        if (exp["g_dim"], n) != (g_dim, 2):
            raise SceneError(
                f"a nongeneric {topology!r} block needs g_dim {g_dim} in a 2-dimensional "
                f"ambient space, got g_dim {exp['g_dim']} in R^{n}"
            )
    if "g" in exp:
        try:
            g = parse_map(exp["g"], exp.get("g_dim", n))
        except DslError as exc:
            raise SceneError(f"experiment map g does not parse: {exc}") from exc
        if g.m != n:
            raise SceneError(f"experiment map g maps into R^{g.m}, scene is in R^{n}")
    if exp.get("radius", 1.0) <= 0:
        raise SceneError(f"experiment radius must be positive, got {exp['radius']}")
    if exp.get("eps", 1.0) <= 0:
        raise SceneError(f"experiment eps must be positive, got {exp['eps']}")
    if "k_box" not in exp:
        return
    box_dim = len(exp["k_box"])
    if "grid" in exp and len(exp["grid"]) != box_dim:
        raise SceneError(
            f"experiment grid has {len(exp['grid'])} entries, k_box has {box_dim} intervals"
        )
    map_dim, source = (exp.get("g_dim", n), "g") if "g" in exp else (n, "the ambient space")
    if box_dim != map_dim:
        raise SceneError(
            f"experiment k_box has {box_dim} intervals, but the input dimension "
            f"of {source} is {map_dim}"
        )


# the plan keys of a scene, which are also `strathom check` options,
# and the ApproachPlan fields they set
_PLAN_FIELDS = {
    "ratio": "ratio",
    "terms": "terms",
    "directions": "total_directions",
    "window": "window",
    "angle_tol": "angle_tol",
}


def _plan_from(base: ApproachPlan, values: dict) -> ApproachPlan:
    """``base`` with a field replaced for every plan key present (and
    not None) in ``values``; an out-of-range value is a SceneError."""
    fields = {f: values[k] for k, f in _PLAN_FIELDS.items() if values.get(k) is not None}
    try:
        return replace(base, **fields)
    except ValueError as exc:
        raise SceneError(f"approach plan: {exc}") from exc


def load_scene(path: str | Path) -> Scene:
    """The scene in the JSON file at ``path``.  A path that is not a
    readable file raises its OSError (FileNotFoundError when there is
    none); text that is not JSON in UTF-8, -16 or -32, or that nests
    deeper than the interpreter's recursion limit, is a SceneError."""
    p = Path(path)
    try:
        data = json.loads(p.read_bytes())
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8/16/32, or nested too deep
        raise SceneError(f"{p} is not valid JSON: {exc}") from exc
    return scene_from_dict(data)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def scene_hash(data: dict) -> str:
    return hashlib.sha256(canonical_json(data).encode()).hexdigest()
