"""The CSV format of every table the package reads or writes: a header row,
LF line endings, floats written with 10 significant digits."""

from __future__ import annotations

import csv


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


def write_table(path, header, rows) -> None:
    """Write ``header`` and ``rows`` to ``path``; float cells as ``.10g``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([format(x, ".10g") if isinstance(x, float) else x for x in row]
                         for row in rows)
