"""File formats: JSON graph interchange, DOT export, scenario and report files.

The interchange document is versioned and round-trips: importing an exported
graph and exporting again yields byte-identical JSON.  Open-ended validity is
encoded by omitting ``t_end``.
"""

from __future__ import annotations

import json
import math
import os
from typing import Optional

from .core import EdgeRecord, GraphView, SnapshotView, TemporalMultiLayerGraph, VertexRecord
from .crossopt import (
    CouplingEdge,
    DomainSpec,
    OptimizationReport,
    Scenario,
    SharedLink,
    SharedNode,
    auto_coupling,
)
from .errors import ValidationError

FORMAT_VERSION = 1


def graph_to_dict(g: TemporalMultiLayerGraph) -> dict:
    layers = [{"id": lid, "name": name} for lid, name in sorted(g.layer_names.items())]
    vertices = []
    for vid in sorted(g.vertex_records):
        v = g.vertex_records[vid]
        rec = {
            "id": v.id,
            "roles": sorted(v.roles),
            "layers": sorted(v.layers),
            "attrs": dict(sorted(v.attrs.items())),
            "t_start": v.t_start,
        }
        if v.t_end is not None:
            rec["t_end"] = v.t_end
        vertices.append(rec)
    edges = []
    for eid in sorted(g.edge_records):
        e = g.edge_records[eid]
        rec = {
            "id": e.id,
            "src": e.src,
            "dst": e.dst,
            "layer_src": e.layer_src,
            "layer_dst": e.layer_dst,
            "directed": e.directed,
            "weight": e.weight,
            "relation": e.relation,
            "t_start": e.t_start,
        }
        if e.t_end is not None:
            rec["t_end"] = e.t_end
        edges.append(rec)
    return {"version": FORMAT_VERSION, "layers": layers, "vertices": vertices, "edges": edges}


def graph_from_dict(doc: dict) -> TemporalMultiLayerGraph:
    version = doc.get("version") if isinstance(doc, dict) else None
    if version != FORMAT_VERSION:
        raise ValidationError(f"unsupported interchange version {version!r}")
    try:
        return _graph_from_dict(doc)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed graph file: {exc!r}") from exc


def _graph_from_dict(doc: dict) -> TemporalMultiLayerGraph:
    g = TemporalMultiLayerGraph()
    names = set()
    for i, layer in enumerate(doc.get("layers", [])):
        if layer["id"] != i:
            raise ValidationError(f"layer ids must be dense and ordered; got {layer['id']} at {i}")
        if layer["name"] in names:
            raise ValidationError(f"duplicate layer name {layer['name']!r}")
        names.add(layer["name"])
        g.create_layer(layer["name"])
    layer_ids = set(g.layer_names)
    vrecs: dict[int, VertexRecord] = {}
    for v in doc.get("vertices", []):
        vid = int(v["id"])
        if vid in vrecs:
            raise ValidationError(f"duplicate vertex id {vid}")
        layers = frozenset(int(x) for x in v["layers"])
        if not layers:
            raise ValidationError(f"vertex {vid} has an empty layer set")
        if not layers <= layer_ids:
            raise ValidationError(f"vertex {vid} references unregistered layers")
        t_start = int(v["t_start"])
        t_end = v.get("t_end")
        if t_end is not None and int(t_end) < t_start:
            raise ValidationError(f"vertex {vid}: t_end must not precede t_start")
        vrecs[vid] = VertexRecord(
            vid, frozenset(v.get("roles", [])), layers, dict(v.get("attrs", {})),
            t_start, None if t_end is None else int(t_end),
        )
    erecs: dict[int, EdgeRecord] = {}
    for e in doc.get("edges", []):
        eid = int(e["id"])
        if eid in erecs:
            raise ValidationError(f"duplicate edge id {eid}")
        weight = float(e["weight"])
        if not math.isfinite(weight):
            raise ValidationError(f"edge {eid}: non-finite weight {weight}")
        if weight < 0:
            raise ValidationError(f"edge {eid}: negative weight {weight}")
        src, dst = int(e["src"]), int(e["dst"])
        for vid in (src, dst):
            if vid not in vrecs:
                raise ValidationError(f"edge {eid}: dangling endpoint {vid}")
        ls, ld = int(e["layer_src"]), int(e["layer_dst"])
        if ls == ld:
            for vid in (src, dst):
                if ls not in vrecs[vid].layers:
                    raise ValidationError(f"edge {eid}: vertex {vid} not in layer {ls}")
        else:
            if ls not in vrecs[src].layers:
                raise ValidationError(f"edge {eid}: src {src} not in layer {ls}")
            if ld not in vrecs[dst].layers:
                raise ValidationError(f"edge {eid}: dst {dst} not in layer {ld}")
        t_start = int(e["t_start"])
        t_end = e.get("t_end")
        if t_end is not None and int(t_end) < t_start:
            raise ValidationError(f"edge {eid}: t_end must not precede t_start")
        for vid in (src, dst):
            v = vrecs[vid]
            covered = v.t_start <= t_start and (
                v.t_end is None or (t_end is not None and int(t_end) <= v.t_end)
            )
            if not covered:
                raise ValidationError(
                    f"edge {eid}: endpoint {vid} inactive during the edge's validity"
                )
        erecs[eid] = EdgeRecord(
            eid, src, dst, ls, ld, bool(e["directed"]), weight,
            str(e.get("relation", "")), t_start, None if t_end is None else int(t_end),
        )
    g._vertices = vrecs
    g._edges = erecs
    g._next_vertex = max(vrecs, default=-1) + 1
    g._next_edge = max(erecs, default=-1) + 1
    # canonical event log: creations by (t_start, id), retirements by (t, id)
    events: list[tuple] = []
    for v in sorted(vrecs.values(), key=lambda v: (v.t_start, v.id)):
        events.append(("vertex+", v.id, v.roles, v.layers, v.attrs, v.t_start))
    for e in sorted(erecs.values(), key=lambda e: (e.t_start, e.id)):
        events.append(
            ("edge+", e.id, e.src, e.dst, e.layer_src, e.layer_dst, e.directed,
             e.weight, e.relation, e.t_start)
        )
    for v in sorted((v for v in vrecs.values() if v.t_end is not None), key=lambda v: (v.t_end, v.id)):
        events.append(("vertex-", v.id, v.t_end))
    for e in sorted((e for e in erecs.values() if e.t_end is not None), key=lambda e: (e.t_end, e.id)):
        events.append(("edge-", e.id, e.t_end))
    g.events.extend(events)
    return g


def write_text(path: str, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path``, overwriting the file in place.

    The file is opened without ``O_TRUNC`` and cut to the new length only if
    it was longer.  On ext4, truncating a just-written file makes the next
    truncate or unlink of it wait for writeback; rewriting in place does not.
    The inode is kept, so symlinks are followed, hard links see the new
    bytes and an existing file keeps its mode.  New files get 0o666 & ~umask.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if os.fstat(fd).st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def dump_json(doc, path: str) -> None:
    write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_json(path: str):
    """Parse a JSON file; ``NaN`` and ``Infinity`` literals are rejected."""

    def non_finite(name: str):
        raise ValidationError(f"{path}: {name} found; every number must be finite")

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=non_finite)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from exc


def export_graph(g: TemporalMultiLayerGraph, path: str) -> None:
    dump_json(graph_to_dict(g), path)


def import_graph(path: str) -> TemporalMultiLayerGraph:
    return graph_from_dict(load_json(path))


# ---------------------------------------------------------------------------
# DOT
# ---------------------------------------------------------------------------

def snapshot_to_dot(
    s: SnapshotView, edge_highlights: Optional[dict[int, str]] = None
) -> str:
    """Render a snapshot as a digraph with one DOT cluster per layer.

    A vertex is drawn inside its lowest-id layer's cluster.  Undirected edges
    are drawn with ``dir=none``.  ``edge_highlights`` maps edge ids to a color.
    """
    edge_highlights = edge_highlights or {}
    lines = ["digraph snapshot {"]
    for lid in sorted(s.layers):
        lines.append(f'  subgraph cluster_{lid} {{')
        lines.append(f'    label="{s.layers[lid]}";')
        for vid, v in s.vertices.items():
            if min(v.layers) == lid:
                roles = ",".join(sorted(v.roles))
                lines.append(f'    v{vid} [label="{vid}\\n{roles}"];')
        lines.append("  }")
    for e in s.edges:
        attrs = [f'label="{e.relation}"'] if e.relation else []
        if not e.directed:
            attrs.append("dir=none")
        if not e.intra_layer:
            attrs.append("style=dashed")
        if e.id in edge_highlights:
            attrs.append(f'color="{edge_highlights[e.id]}"')
        attr_str = f' [{", ".join(attrs)}]' if attrs else ""
        lines.append(f"  v{e.src} -> v{e.dst}{attr_str};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def view_to_dot(g: GraphView, edge_highlights: Optional[dict[int, str]] = None) -> str:
    edge_highlights = edge_highlights or {}
    lines = ["digraph view {"]
    for v in g.vertices:
        lines.append(f'  v{v} [label="{v}"];')
    for e in g.edges:
        attrs = []
        if not e.directed:
            attrs.append("dir=none")
        if e.id in edge_highlights:
            attrs.append(f'color="{edge_highlights[e.id]}"')
        attr_str = f' [{", ".join(attrs)}]' if attrs else ""
        lines.append(f"  v{e.src} -> v{e.dst}{attr_str};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Optimization scenario and report files
# ---------------------------------------------------------------------------

def scenario_from_dict(doc: dict) -> Scenario:
    try:
        domains = [
            DomainSpec(str(d["id"]), float(d["gamma"]), float(d["lambda"]),
                       float(d["r_min"]), float(d["r_max"]))
            for d in doc["domains"]
        ]
        links = [
            SharedLink(str(l["id"]), float(l["capacity"]),
                       {str(k): float(a) for k, a in l.get("coeffs", {}).items()})
            for l in doc.get("links", [])
        ]
        nodes = [
            SharedNode(str(n["id"]), float(n["eps_tx"]), float(n["eps_rx"]),
                       {str(i["link"]): float(i["distance"]) for i in n.get("incident", [])})
            for n in doc.get("nodes", [])
        ]
        coupling_doc = doc.get("coupling", "auto")
        edges = []
        if coupling_doc != "auto":
            for e in coupling_doc.get("edges", []):
                w = e.get("weights", [1.0, 1.0, 1.0])
                edges.append(
                    CouplingEdge(str(e["m"]), str(e["n"]), bool(e.get("utility", False)),
                                 float(w[0]), float(w[1]), float(w[2]),
                                 float(e.get("sign", 1.0)))
                )
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed scenario file: {exc}") from exc
    scenario = Scenario(domains, links, nodes, edges)
    if coupling_doc == "auto":
        scenario.coupling = auto_coupling(scenario)
    return scenario


def load_scenario(path: str) -> Scenario:
    return scenario_from_dict(load_json(path))


def report_to_dict(rep: OptimizationReport) -> dict:
    return {
        "seed": rep.seed,
        "r_isolated": list(rep.r_isolated),
        "r_coupled": list(rep.r_coupled),
        "objectives": rep.objectives,
        "slack_isolated": rep.slack_isolated,
        "slack_coupled": rep.slack_coupled,
        "gap": rep.gap,
    }


def trace_to_csv(trace: list[tuple[int, float, float]]) -> str:
    lines = ["iter,objective,max_violation"]
    for it, obj, viol in trace:
        lines.append(f"{it},{obj!r},{viol!r}")
    return "\n".join(lines) + "\n"
