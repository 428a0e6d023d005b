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


def read_manifest(path, what: str) -> dict:
    """The JSON object at path, the manifest of a what; anything else is
    refused, naming path."""
    if not path.is_file():
        raise FileNotFoundError(f"no {what} at {path}")
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataIntegrityError(f"{path}: not JSON ({exc})") from None
    if not isinstance(manifest, dict):
        raise DataIntegrityError(f"{path}: not a JSON object")
    return manifest


_JSON_TYPES = {dict: "an object", list: "a list", int: "an integer",
               float: "a float", str: "a string"}
# the entry forms of check_entries that the manifests' tables share
INT, STR = ((int,), None), ((str,), None)
INTS, FLOATS, STRS = ((list,), (int,)), ((list,), (float, int)), ((list,), (str,))


def check_entries(manifest: dict, entries: dict, path, within: str = "") -> None:
    """Refuse a JSON manifest whose entries a reader cannot take, naming
    path and the entry. entries maps each key to the JSON types its value
    may have, then what the value holds: an object's entries, in the same
    form, or the types of a list's items."""
    for key, (types, inner) in entries.items():
        if within and key not in manifest:
            raise DataIntegrityError(f"{path}: {within!r} lacks {key!r}")
        name = f"{within}.{key}" if within else key
        value = manifest.get(key)
        if key not in manifest or not isinstance(value, types):
            got = json.dumps(value) if key in manifest else "missing"
            raise DataIntegrityError(
                f"{path}: {name!r} must be "
                f"{' or '.join(_JSON_TYPES[t] for t in types)}, got {got}")
        if isinstance(value, dict):
            check_entries(value, inner, path, name)
        if isinstance(value, list) and not all(isinstance(item, inner)
                                               for item in value):
            raise DataIntegrityError(
                f"{path}: every item of {name!r} must be "
                f"{' or '.join(_JSON_TYPES[t] for t in inner)}")
