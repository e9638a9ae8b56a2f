"""On-disk character-table cache.

One JSON file per group, keyed by the canonical hash of (degree, sorted
element list), so the key is independent of the generating set.  Values are
stored in the cyclotomic text syntax.  A cached table is revalidated on load
against the group's class data, its degrees against the identity column,
and its shape and both orthogonality families by `verify_orthogonality`;
anything unreadable or invalid is recomputed and overwritten.  Writes go
through a temporary file and an atomic rename.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from .chartab import CharacterTable, character_table, verify_orthogonality
from .exact import format_cyclotomic, parse_cyclotomic
from .groups import PermGroup


def default_cache_dir() -> Path:
    env = os.environ.get("ORBIRR_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "orbirr"


def _table_payload(table: CharacterTable) -> dict:
    G = table.group
    return {
        "degree": G.degree,
        "order": G.order,
        "classes": [
            {
                "rep": [v + 1 for v in c.representative],
                "size": c.size,
                "rep_order": c.rep_order,
                "centralizer_order": len(c.centralizer),
            }
            for c in G.conjugacy_classes()
        ],
        "degrees": list(table.degrees),
        "prime": table.prime,
        "rows": [[format_cyclotomic(v) for v in row] for row in table.rows],
    }


def _table_from_payload(G: PermGroup, payload: dict) -> CharacterTable | None:
    if payload.get("degree") != G.degree or payload.get("order") != G.order:
        return None
    classes = G.conjugacy_classes()
    stored = payload.get("classes", [])
    if len(stored) != len(classes):
        return None
    for c, s in zip(classes, stored):
        if (list(s["rep"]) != [v + 1 for v in c.representative]
                or s["size"] != c.size or s["rep_order"] != c.rep_order
                or s["centralizer_order"] != len(c.centralizer)):
            return None
    rows = tuple(tuple(parse_cyclotomic(v) for v in row)
                 for row in payload["rows"])
    table = CharacterTable(group=G, rows=rows,
                           degrees=tuple(int(d) for d in payload["degrees"]),
                           prime=int(payload["prime"]))
    # each stored degree must be its row's value at the identity class; then
    # the column family at the identity also proves sum d^2 = |G|
    if len(table.degrees) != len(rows) or any(
            not row or row[0].as_integer() != d
            for d, row in zip(table.degrees, rows)):
        return None
    if not verify_orthogonality(table):
        return None
    return table


def cache_get_or_compute(G: PermGroup, cache_dir: Path | str | None = None
                         ) -> CharacterTable:
    """Serve the table from cache when valid, otherwise compute and store."""
    directory = Path(cache_dir) if cache_dir else default_cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{G.canonical_hash()}.json"
    if path.exists():
        try:
            payload = json.loads(path.read_text())
            table = _table_from_payload(G, payload)
        except (OSError, ValueError, KeyError, TypeError):
            table = None
        if table is not None:
            G._char_table = table
            return table
    table = character_table(G)
    tmp = tempfile.NamedTemporaryFile(
        "w", dir=directory, prefix=".tmp-", suffix=".json", delete=False)
    try:
        json.dump(_table_payload(table), tmp, indent=1)
        tmp.close()
        os.replace(tmp.name, path)
    finally:
        if os.path.exists(tmp.name):
            os.unlink(tmp.name)
    return table
