"""Exception types shared across the package, and the one reader and entry
check of a JSON manifest."""

import json


class RulensError(Exception):
    """Base class for errors raised by this package."""


class CmapssFormatError(RulensError, ValueError):
    """A CMAPSS text file does not match the expected 26-column layout.

    Carries the offending line number (1-based) when known.
    """

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class DataIntegrityError(RulensError, ValueError):
    """Parsed data violates a structural invariant (cycle gaps, count
    mismatches, constant features, fingerprint mismatches)."""


class DivergenceError(RulensError, RuntimeError):
    """Training or gradient evaluation produced a non-finite loss.

    ``sample_index`` / ``epoch`` locate the failure when known.
    """

    def __init__(self, message, sample_index=None, epoch=None, member=None):
        super().__init__(message)
        self.sample_index = sample_index
        self.epoch = epoch
        self.member = member


# the command that writes each kind of file read_manifest reads
_WRITTEN_BY = {"rulens-dataset": "rulens ingest",
               "pnn-ensemble": "rulens train", "pnn-member": "rulens train"}


def read_manifest(path, kind: str, version: int, entries: dict,
                  text=None) -> dict:
    """The JSON object in text (the bytes of path that hold it) or else in
    the file at path, a kind manifest of format version whose entries
    check_entries takes; anything else is refused, naming path, the entry
    and the command that rewrites the file."""
    def refused(problem):
        return DataIntegrityError(f"{path}: {problem}; re-run "
                                  f"`{_WRITTEN_BY[kind]}` to rewrite it")
    if text is None:
        if not path.is_file():
            raise FileNotFoundError(f"no {path.name} at {path.parent}")
        text = path.read_bytes()
    try:
        manifest = json.loads(text)
    except ValueError as exc:
        raise refused(f"not JSON ({exc})") from None
    if not isinstance(manifest, dict):
        raise refused("not a JSON object")
    for key, want in (("kind", kind), ("format_version", version)):
        got = json.dumps(manifest[key]) if key in manifest else "missing"
        if got != json.dumps(want):     # by type too: true is not 1
            raise refused(f"{key!r} is {got}, expected {json.dumps(want)}")
    try:
        check_entries(manifest, entries)
    except DataIntegrityError as exc:
        raise refused(exc) from None
    return manifest


_JSON_TYPES = {dict: "an object", list: "a list", int: "an integer",
               float: "a float", str: "a string"}
# the entry forms of check_entries that the manifests' tables share
INT, STR = ((int,), None), ((str,), None)
INTS, FLOATS, STRS = ((list,), (int,)), ((list,), (float, int)), ((list,), (str,))


def check_entries(manifest: dict, entries: dict, within: str = "") -> None:
    """Refuse a JSON manifest whose entries a reader cannot take, naming
    the entry. entries maps each key to the JSON types its value may have,
    then what the value holds: an object's entries, in the same form, or
    the types of a list's items."""
    for key, (types, inner) in entries.items():
        if within and key not in manifest:
            raise DataIntegrityError(f"{within!r} lacks {key!r}")
        name = f"{within}.{key}" if within else key
        value = manifest.get(key)
        if key not in manifest or not isinstance(value, types):
            got = json.dumps(value) if key in manifest else "missing"
            raise DataIntegrityError(
                f"{name!r} must be "
                f"{' or '.join(_JSON_TYPES[t] for t in types)}, got {got}")
        if isinstance(value, dict):
            check_entries(value, inner, name)
        if isinstance(value, list) and not all(isinstance(item, inner)
                                               for item in value):
            raise DataIntegrityError(
                f"every item of {name!r} must be "
                f"{' or '.join(_JSON_TYPES[t] for t in inner)}")
