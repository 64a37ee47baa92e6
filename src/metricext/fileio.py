"""JSON exchange formats for complexes, metrics, points and witnesses.

Complex file:   {"vertices": ["a", ...], "maximal_simplices": [["a","b"], ...]}
Metric file:    {"type": "word"}
             or {"type": "explicit", "order": [...], "matrix": [[...], ...],
                 "A": ..., "B": ..., "C": ...}   (constants optional)
Point literal:  {"a": 0.25, "b": 0.75}
Point list:     [{"a": 1.0}, {"a": 0.5, "b": 0.5}, ...]   (dd four, gp three)
Probe slots:    [{"ray": ["a","b",...]}, {"point": {"a": 1.0}}, ...]
"""

from __future__ import annotations

import json
import math
from itertools import chain, repeat
from pathlib import Path
from typing import Any

import numpy as np

from .complexes import BarycentricPoint, SimplicialComplex, build_complex, make_point
from .errors import InvalidParameters
from .pathmetric import PathWitness
from .probes import Slot, make_ray
from .vertexmetrics import VertexMetric, validate_vertex_metric, word_vertex_metric


def complex_to_dict(K: SimplicialComplex) -> dict:
    return {
        "vertices": list(K.vertices),
        "maximal_simplices": [list(s) for s in K.maximal_simplices],
    }


def _is_labels(value: Any) -> bool:
    return isinstance(value, list) and all(map(isinstance, value, repeat(str)))


def _is_label_lists(value: Any) -> bool:
    """Whether value is a list of lists of strings: one pass over the lists, then one over every label."""
    lists = isinstance(value, list) and all(map(isinstance, value, repeat(list)))
    return lists and all(map(isinstance, chain.from_iterable(value), repeat(str)))


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)  # bool is an int subclass


def _is_finite_number(value: Any) -> bool:
    return _is_number(value) and math.isfinite(value)  # Python's json reads NaN and Infinity


def complex_from_dict(data: Any) -> SimplicialComplex:
    if not isinstance(data, dict):
        raise InvalidParameters(f"a complex must be a JSON object, got {type(data).__name__}")
    try:
        vertices, simplices = data["vertices"], data["maximal_simplices"]
    except KeyError as exc:
        raise InvalidParameters(f"complex file missing key {exc}") from exc
    if not _is_labels(vertices):
        raise InvalidParameters("vertices must be a JSON array of strings")
    if not _is_label_lists(simplices):
        raise InvalidParameters("maximal_simplices must be a JSON array of arrays of strings")
    return build_complex(vertices, simplices)


def load_complex(path: str | Path) -> SimplicialComplex:
    return complex_from_dict(json.loads(Path(path).read_text()))


def save_complex(K: SimplicialComplex, path: str | Path) -> None:
    Path(path).write_text(json.dumps(complex_to_dict(K), indent=2) + "\n")


def metric_from_spec(K: SimplicialComplex, spec: Any) -> VertexMetric:
    """Build a vertex metric from "word", a dict, or a JSON file path."""
    if isinstance(spec, (str, Path)):
        if str(spec) == "word":
            return word_vertex_metric(K)
        spec = json.loads(Path(spec).read_text())
    if not isinstance(spec, dict):
        raise InvalidParameters(f"cannot interpret metric spec {spec!r}")
    kind = spec.get("type", "explicit")
    if kind == "word":
        return word_vertex_metric(K)
    if kind != "explicit":
        raise InvalidParameters(f"unknown metric type {kind!r}")
    try:
        order, matrix = spec["order"], spec["matrix"]
    except KeyError as exc:
        raise InvalidParameters(f"metric file missing key {exc}") from exc
    if not _is_labels(order):
        raise InvalidParameters("order must be a JSON array of strings")
    if not isinstance(matrix, list) or not all(
        isinstance(row, list) and all(map(_is_finite_number, row)) for row in matrix
    ):
        raise InvalidParameters("matrix must be a JSON array of arrays of finite numbers")
    for name in ("C", "A", "B"):
        if name in spec and not _is_finite_number(spec[name]):
            raise InvalidParameters(f"{name} must be a finite JSON number, got {spec[name]!r}")
    return validate_vertex_metric(
        K,
        np.asarray(matrix, dtype=float),
        tuple(order),
        C=spec.get("C"),
        A=spec.get("A"),
        B=spec.get("B"),
    )


def _parsed(text: Any) -> Any:
    """JSON text parsed, or an already parsed value as it is."""
    return json.loads(text) if isinstance(text, str) else text


def point_from_json(K: SimplicialComplex, text: Any) -> BarycentricPoint:
    data = _parsed(text)
    if not isinstance(data, dict):
        raise InvalidParameters(f"point literal must be a JSON object, got {data!r}")
    for k, v in data.items():
        if not _is_number(v):
            raise InvalidParameters(f"weight of {k!r} must be a JSON number, got {v!r}")
    return make_point(K, {str(k): float(v) for k, v in data.items()})


def points_from_json(K: SimplicialComplex, text: Any, count: int) -> list[BarycentricPoint]:
    """A JSON array of exactly `count` point literals."""
    data = _parsed(text)
    if not isinstance(data, list) or len(data) != count:
        raise InvalidParameters(
            f"points must be a JSON array of {count} point objects, got {json.dumps(data)}"
        )
    return [point_from_json(K, p) for p in data]


def point_to_dict(x: BarycentricPoint) -> dict:
    return {v: w for v, w in x.items}


def witness_to_dict(w: PathWitness) -> dict:
    return {
        "length": w.length,
        "points": [point_to_dict(p) for p in w.points],
        "carriers": [list(c) for c in w.carriers],
    }


def slots_from_json(K: SimplicialComplex, text: Any) -> list[Slot]:
    data = _parsed(text)
    if not isinstance(data, list):
        raise InvalidParameters("slots must be a JSON array")
    slots: list[Slot] = []
    for entry in data:
        if not isinstance(entry, dict):
            raise InvalidParameters(f"slot {entry!r} must be a JSON object")
        if "ray" in entry:
            ray = entry["ray"]
            if not _is_labels(ray):
                raise InvalidParameters(f"ray {ray!r} must be a JSON array of vertex names")
            slots.append(make_ray(K, ray))
        elif "point" in entry:
            slots.append(point_from_json(K, entry["point"]))
        else:
            raise InvalidParameters(f"slot {entry!r} needs a 'ray' or 'point' key")
    return slots
