"""Seeded fuzzing of the three input-file kinds through the CLI.

Every file under data/ is mutated deterministically: one key dropped, the
bytes truncated, or one value replaced.  Whatever the mutant, the CLI must
write a JSON report and exit with a code from 0 to 3, never a traceback.
"""

import io
import json
import random
from pathlib import Path

import pytest

from cychom.cli import JobSpec, run

DATA = Path(__file__).resolve().parent.parent / "data"
COMMANDS = {"algebras": "hh", "towers": "tower", "components": "orbifold"}
FILES = sorted(p.relative_to(DATA).as_posix() for p in DATA.glob("*/*.json"))
REPLACEMENTS = (-1, 0, 7, True, None, "x", "1/0", [], {}, "7" * 5000)
MUTANTS_PER_FILE = 30


def _children(value):
    if isinstance(value, dict):
        return sorted(value)
    if isinstance(value, list):
        return list(range(len(value)))
    return []


def _objects(node, path=()):
    """(path, object) for every nonempty JSON object in a document."""
    if isinstance(node, dict) and node:
        yield path, node
    for key in _children(node):
        yield from _objects(node[key], path + (key,))


def _walk(doc, rng):
    """A nonempty container reached by a random walk from the root.

    The walk stops at each level with probability 1/2, so keys near the top
    are hit about as often as single table entries.
    """
    path, node = (), doc
    while True:
        inner = [k for k in _children(node) if _children(node[k])]
        if not inner or rng.random() < 0.5:
            return path, node
        key = rng.choice(inner)
        path, node = path + (key,), node[key]


def mutate(raw, rng):
    """One mutant of a file's bytes and a short note of what changed."""
    kind = rng.choice(("drop", "truncate", "replace"))
    if kind == "truncate":
        cut = rng.randrange(len(raw))
        return raw[:cut], f"truncate at byte {cut}"
    doc = json.loads(raw)
    if kind == "drop":
        path, node = rng.choice(list(_objects(doc)))
    else:
        path, node = _walk(doc, rng)
    key = rng.choice(_children(node))
    if kind == "drop":
        del node[key]
        return json.dumps(doc).encode(), f"drop {path + (key,)}"
    value = rng.choice(REPLACEMENTS)
    node[key] = value
    return json.dumps(doc).encode(), \
        f"replace {path + (key,)} with {str(value)[:8]}"


@pytest.mark.parametrize("name", FILES)
def test_mutants_get_a_json_report(tmp_path, name):
    raw = (DATA / name).read_bytes()
    command = COMMANDS[name.split("/")[0]]
    path = tmp_path / "mutant.json"
    for i in range(MUTANTS_PER_FILE):
        mutant, what = mutate(raw, random.Random(f"{name}:{i}"))
        path.write_bytes(mutant)
        out = io.StringIO()
        code = run(JobSpec(command=command, path=str(path), max_degree=1,
                           fmt="json"), out=out)
        report = json.loads(out.getvalue())
        assert 0 <= code <= 3, (i, what, report)
