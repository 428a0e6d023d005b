"""Every file the program reads is refused as a RulensError, never crashed
on: each entry of ensemble.json, of member 0's header and of the archive's
manifest.json, at every nesting level, is deleted or replaced, one at a
time, and the file is loaded again."""

import json
import shutil

import pytest

from rulens.checkpoints import load_ensemble, member_path
from rulens.cmapss import load_archive
from rulens.errors import RulensError

DELETE = object()
EDITS = [DELETE, None, 5, -1, "x", [], {}, True, 1e308, [5], {"a": 1}]


def _entries(node, prefix=()):
    """The path of every entry in a JSON value, parents before children."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _entries(value, prefix + (key,))


def _edited(manifest, path, edit):
    """A deep copy of manifest with the entry at path deleted or replaced;
    None where the edit would leave it as it is."""
    copy = json.loads(json.dumps(manifest))
    *parents, key = path
    node = copy
    for parent in parents:
        node = node[parent]
    if edit is DELETE:
        del node[key]
    elif type(node[key]) is type(edit) and node[key] == edit:
        return None
    else:
        node[key] = edit
    return copy


def _header(blob):
    nl = blob.index(b"\n")
    return json.loads(blob[:nl]), blob[nl:]


# per file: where it lies in a copy of the run, how to write an edited
# manifest into it, and what loads it
FILES = {
    "ensemble.json": (
        lambda run: run["checkpoint"] / "ensemble.json",
        lambda path, manifest, _: path.write_text(json.dumps(manifest)),
        lambda run: load_ensemble(run["checkpoint"])),
    "member_000.ckpt": (
        lambda run: member_path(run["checkpoint"], 0),
        lambda path, manifest, blob: path.write_bytes(
            json.dumps(manifest, sort_keys=True).encode() + _header(blob)[1]),
        lambda run: load_ensemble(run["checkpoint"])),
    "manifest.json": (
        lambda run: run["archive"] / "manifest.json",
        lambda path, manifest, _: path.write_text(json.dumps(manifest)),
        lambda run: load_archive(run["archive"])),
}


@pytest.mark.parametrize("name", FILES)
def test_every_edit_loads_or_is_refused(trained_run, tmp_path, name):
    run = {key: tmp_path / key for key in ("checkpoint", "archive")}
    for key, target in run.items():
        shutil.copytree(trained_run[key], target)
    locate, write, load = FILES[name]
    path = locate(run)
    blob = path.read_bytes()
    original = _header(blob)[0] if name.endswith(".ckpt") else json.loads(blob)
    load(run)
    edits, escaped = 0, []
    for entry in _entries(original):
        for edit in EDITS:
            manifest = _edited(original, entry, edit)
            if manifest is None:
                continue
            edits += 1
            write(path, manifest, blob)
            try:
                load(run)
            except RulensError:
                pass
            except Exception as exc:
                escaped.append(f"{entry} = {edit!r}: {exc!r}")
    assert edits > 100
    assert not escaped, (f"{len(escaped)} of {edits} edits of {name} "
                         "escaped as another exception:\n"
                         + "\n".join(escaped))

