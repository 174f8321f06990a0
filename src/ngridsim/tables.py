"""The file formats the package reads and writes. Tables are CSV: a header
row, LF line endings, floats written with 10 significant digits. Fleet and
model files are JSON, where a key may appear once per object: a repeated one
is reported (the C decoder in ``json`` gives no position for a key)."""

from __future__ import annotations

import csv
import json


class ValidationError(ValueError):
    """Scenario or input-file contents violate the schema or an invariant."""


def read_table(path, required, types):
    """Yield the data rows of the CSV at ``path`` as dicts keyed by its header.

    The header must name every column in ``required``, and every row needs
    exactly one cell per header column. ``types(column)`` gives the callable
    that converts that column's cells, or None to keep them as text. A
    missing, extra or unconvertible cell, or a file that is not UTF-8,
    raises ValidationError naming the file and, for a cell, its line.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or not set(required).issubset(header):
                raise ValidationError(f"{path}: expected header with columns {sorted(required)}")
            converters = [(name, convert) for name in header
                          if (convert := types(name)) is not None]
            for row in filter(None, reader):  # blank lines hold no row
                if len(row) < len(header):
                    raise ValidationError(f"{path}: line {reader.line_num}, "
                                          f"column {header[len(row)]!r}: missing cell")
                if len(row) > len(header):
                    raise ValidationError(f"{path}: line {reader.line_num}, {len(row)} cells for "
                                          f"{len(header)} columns: extra after column {header[-1]!r}")
                rec = dict(zip(header, row))
                for name, convert in converters:
                    try:
                        rec[name] = convert(rec[name])
                    except ValueError as exc:
                        raise ValidationError(f"{path}: line {reader.line_num}, "
                                              f"column {name!r}: {exc}") from None
                yield rec
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text: {exc}") from None


def read_feeder_hours(path, columns) -> dict[tuple[str, int], float]:
    """The ``columns`` ``(feeder_id, hour, value)`` CSV at ``path`` as
    ``{(feeder_id, hour): value}``; a (feeder, hour) given twice is refused."""
    entries: dict[tuple[str, int], float] = {}
    feeder, hour, value = columns
    for rec in read_table(path, columns, {hour: int, value: float}.get):
        key = (rec[feeder], rec[hour])
        if key in entries:
            raise ValidationError(f"{path}: duplicate entry for feeder {key[0]!r} hour {key[1]}")
        entries[key] = rec[value]
    return entries


def _unique_keys(pairs: list) -> dict:
    """A JSON object, refusing a key that repeats within it instead of
    keeping its last value."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValidationError(f"repeated key {key!r}")
            seen.add(key)
    return doc


def read_json(path):
    """The JSON document at ``path``. A repeated key, malformed JSON or a
    file that is not UTF-8 raises ValidationError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: malformed JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text: {exc}") from None


def write_table(path, header, rows) -> None:
    """Write ``header`` and ``rows`` to ``path``; float cells as ``.10g``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([format(x, ".10g") if isinstance(x, float) else x for x in row]
                         for row in rows)
