"""Plain-text serialization for SerreGraph.

Format:
    sgf 1 <nv> <ne>
    e <id> <src> <dst> <inv_id>
One e-line per directed edge, ids consecutive from 0. Lines starting with
'#' and blank lines are ignored. The loader refuses graphs whose involution
is incoherent; use core.validate on a hand-built graph to inspect problems.
"""

from __future__ import annotations

import io

from .core import SerreGraph, validate

FORMAT_VERSION = 1


class SGFError(ValueError):
    pass


def dumps(g: SerreGraph) -> str:
    out = [f"sgf {FORMAT_VERSION} {g.nv} {g.ne}"]
    if g.name:
        out.append(f"# {g.name}")
    for e, (u, w, i) in enumerate(zip(g.src, g.dst, g.inv)):
        out.append(f"e {e} {u} {w} {i}")
    return "\n".join(out) + "\n"


def loads(text: str, name=None) -> SerreGraph:
    header = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if parts[0] != "sgf":
                raise SGFError(f"line {lineno}: expected 'sgf' header")
            if len(parts) != 4:
                raise SGFError(f"line {lineno}: header needs version, nv, ne")
            try:
                version, nv, ne = (int(x) for x in parts[1:])
            except ValueError:
                raise SGFError(f"line {lineno}: non-integer header field") from None
            if version != FORMAT_VERSION:
                raise SGFError(f"line {lineno}: unsupported version {version}")
            if nv < 0 or ne < 0:
                raise SGFError(f"line {lineno}: negative count")
            header = (nv, ne)
            continue
        if parts[0] != "e" or len(parts) != 5:
            raise SGFError(f"line {lineno}: expected 'e <id> <src> <dst> <inv>'")
        try:
            eid, src, dst, inv = (int(x) for x in parts[1:])
        except ValueError:
            raise SGFError(f"line {lineno}: non-integer edge field") from None
        if eid != len(rows):
            raise SGFError(f"line {lineno}: edge id {eid}, expected {len(rows)}")
        rows.append((src, dst, inv))
    if header is None:
        raise SGFError("missing 'sgf' header")
    nv, ne = header
    if len(rows) != ne:
        raise SGFError(f"header declares {ne} edges, found {len(rows)}")
    try:
        g = SerreGraph(nv, [r[0] for r in rows], [r[1] for r in rows],
                       [r[2] for r in rows], name=name)
    except ValueError as exc:
        raise SGFError(str(exc)) from None
    rep = validate(g)
    if not rep.ok:
        raise SGFError("involution violation: " + rep.problems[0])
    return g


def load_path(path) -> SerreGraph:
    with io.open(path, "r", encoding="utf-8") as fp:
        return loads(fp.read(), name=str(path))


def dump_path(g: SerreGraph, path) -> None:
    with io.open(path, "w", encoding="utf-8") as fp:
        fp.write(dumps(g))
