"""The input text boundary: UTF-8 decoding, CSV tables, ISO-8601 dates and
study periods.

It imports the standard library alone, so a command that reads only text,
such as ``report``, loads no numpy.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable, Iterator, Sequence
from datetime import date, datetime
from itertools import repeat
from pathlib import Path

from .record import Record


class DataError(ValueError):
    """Raised for malformed or inconsistent market data inputs."""


def _date(text: str) -> date | None:
    """The ISO-8601 date a text spells, or None when it spells none."""
    try:
        # ``fromisoformat`` reads exactly what ``strptime`` reads of ten ASCII
        # characters shaped DDDD-DD-DD, and never imports ``_strptime``.
        if (len(text) == 10 and text.isascii() and text[4] == text[7] == "-"
                and (text[:4] + text[5:7] + text[8:]).isdigit()):
            return date.fromisoformat(text)
        return datetime.strptime(text.strip(), "%Y-%m-%d").date()
    except (AttributeError, TypeError, ValueError):  # AttributeError, TypeError: not a string
        return None


def _invalid_date(text: str) -> str:
    return f"invalid ISO-8601 date {text!r}"


def _parse_date(text: str, where: str) -> date:
    parsed = _date(text)
    if parsed is None:
        raise DataError(f"{where}: {_invalid_date(text)}")
    return parsed


def _blank(row: list[str]) -> bool:
    """A CSV row with no fields or one empty field; readers skip it."""
    return not row or (len(row) == 1 and not row[0].strip())


class StudyPeriod(Record):
    label: str
    start: date
    end: date

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise DataError(f"period {self.label}: start must precede end")


def _decode(path: str | Path, data: bytes) -> tuple[str, str | None]:
    """A file's bytes as UTF-8 text, and the located message of the first
    byte that does not decode, if one does not: then the text stops at the
    start of that byte's line."""
    try:
        return data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        cut = data.rfind(b"\n", 0, exc.start) + 1
        line = data.count(b"\n", 0, cut) + 1
        return data[:cut].decode("utf-8"), (
            f"{path}:{line}: cannot decode byte 0x{data[exc.start]:02x} as UTF-8 ({exc.reason})")


# Characters of text split into fields at a time: each chunk's field strings
# are freed before the next chunk is split, so no reader holds a string per
# field of a whole file.
CHUNK = 1 << 14
# Every byte but a comma and a line break.
_OTHER_BYTES = bytes(sorted(set(range(256)) - set(b",\n")))


def _read_text(path: str | Path) -> tuple[str, DataError | None]:
    """A file's text, read once, and the error of the byte it stops before,
    if one does not decode; the file's bytes are freed once decoded."""
    with open(path, "rb") as fh:
        text, bad = _decode(path, fh.read())
    stop = None if bad is None else DataError(bad)
    if stop is not None and not text:
        raise stop
    return text, stop


def read_table(path: str | Path, header: tuple[str, ...]
               ) -> tuple[Sequence[int], tuple[list[str], ...], DataError | None]:
    """Read a UTF-8 CSV file whose header must be ``header``, in one pass.

    Returns the file line each row starts on, one text list per header
    field, and the located error of the line that ended the read early, if
    one did: a row of the wrong width, an undecodable byte or a malformed
    field (such as one longer than ``csv.field_size_limit()``). Blank rows
    are skipped; a wrong header raises at once.

    The file is read once, and its text goes to one of two parsers. A text
    that is one record per line (no ``"``, carriage return or NUL, every
    line after the header of ``len(header)`` comma-separated fields, none
    longer than ``csv.field_size_limit()``) is split with ``str.split``,
    which reads it as ``csv.reader`` does, ``CHUNK`` characters at a time.
    Any other text goes to ``csv.reader``, so that alone reads quoted
    fields, CRLF and blank lines, and locates a wrong width or an overlong
    field.
    """
    text, stop = _read_text(path)
    lines = _record_lines(text, len(header))
    if lines is None:
        return _read_rows(path, io.StringIO(text, newline=""), header, stop)
    del text  # freed before the fields are built
    return _split_rows(path, lines, header, stop)


def read_chunks(path: str | Path, header: tuple[str, ...]
                ) -> tuple[Sequence[int], Iterable[tuple[list[str], ...]], DataError | None]:
    """``read_table``'s rows, columns and stop, the columns given as chunks
    of consecutive rows, one text list per header field each. A text that is
    one record per line is split a chunk at a time as the chunks are taken,
    so only one chunk's fields are held at once; any other text is one
    chunk."""
    text, stop = _read_text(path)
    lines = _record_lines(text, len(header))
    if lines is None:
        rows, columns, stop = _read_rows(path, io.StringIO(text, newline=""), header, stop)
        return rows, [columns], stop
    del text
    return (*_split_chunks(path, lines, header), stop)


def _check_header(path: str | Path, head: list[str] | None, header: tuple[str, ...]) -> None:
    if head is None or tuple(h.strip() for h in head) != header:
        raise DataError(f"{path}: expected header '{','.join(header)}'")


def _record_lines(text: str, width: int) -> list[str] | None:
    """The lines of a CSV text that is one record per line, each line of
    ``width`` fields, in chunks: the header line, then runs of whole lines
    of about ``CHUNK`` characters, each without its final line break. None
    for any other text."""
    # A line of one field may be empty, which ``csv.reader`` skips.
    if width < 2 or '"' in text or "\r" in text or "\0" in text:
        return None
    if not text:
        return []
    chunks, limit = [], csv.field_size_limit()
    line = b"," * (width - 1)  # what a line holds of commas and line breaks
    end = len(text) - text.endswith("\n")  # before the final line break
    start = 0
    while start <= end:
        # The header line alone, then a chunk's worth of text and the rest
        # of the line it stops in.
        cut = text.find("\n", start + CHUNK if chunks else start, end)
        if cut < 0:
            cut = end
        chunk = text[start:cut]
        # Every line has width - 1 commas when the chunk's commas and line
        # breaks alone spell that, in C: no byte of the UTF-8 of another
        # character is a comma or a line break. Only a chunk longer than
        # the limit can hold a longer line.
        if (chunk.encode().translate(None, _OTHER_BYTES)
                != (line + b"\n") * chunk.count("\n") + line
                or len(chunk) > limit and max(map(len, chunk.split("\n"))) > limit):
            return None
        chunks.append(chunk)
        start = cut + 1
    return chunks


def _split_chunks(path: str | Path, lines: list[str], header: tuple[str, ...]
                  ) -> tuple[range, Iterator[tuple[list[str], ...]]]:
    """The rows of a text's ``_record_lines``, row i on line i + 2, and their
    columns a chunk at a time; the chunks are taken from ``lines`` as they
    are split."""
    _check_header(path, lines[0].split(",") if lines else None, header)
    rows = sum(map(str.count, lines, repeat("\n"))) + len(lines) - 1
    lines.reverse()
    lines.pop()  # the header
    return range(2, rows + 2), _columns(lines, len(header))


def _columns(chunks: list[str], width: int) -> Iterator[tuple[list[str], ...]]:
    """The columns of each chunk of ``width`` fields a line, taken from the
    end of ``chunks``."""
    while chunks:
        flat = chunks.pop().replace("\n", ",").split(",")
        yield tuple(flat[k::width] for k in range(width))
        del flat  # freed before the next chunk is split


def _split_rows(path: str | Path, lines: list[str], header: tuple[str, ...],
                stop: DataError | None
                ) -> tuple[Sequence[int], tuple[list[str], ...], DataError | None]:
    """``read_table`` of a text's ``_record_lines``, which it empties: row i
    is on line i + 2."""
    rows, chunks = _split_chunks(path, lines, header)
    columns = tuple([] for _ in header)
    for chunk in chunks:
        for column, texts in zip(columns, chunk):
            column.extend(texts)
    return rows, columns, stop


def _read_rows(path: str | Path, text: Iterable[str], header: tuple[str, ...],
               stop: DataError | None
               ) -> tuple[list[int], tuple[list[str], ...], DataError | None]:
    """``read_table`` of these lines of the file by ``csv.reader``; ``stop``
    ends the read unless a line does first."""
    width, flat, lines = len(header), [], []
    reader = csv.reader(text)
    try:
        _check_header(path, next(reader, None), header)
        # One flat list, sliced into columns at the end, costs less than an
        # append per field. A row is named by the line its record starts on:
        # a quoted field may hold line breaks.
        extend, add = flat.extend, lines.append
        start = reader.line_num + 1
        for row in reader:
            lineno, start = start, reader.line_num + 1
            if len(row) == width:
                extend(row)
                add(lineno)
            elif not _blank(row):
                stop = DataError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
                break
    except csv.Error as exc:
        stop = DataError(f"{path}:{reader.line_num}: {exc}")
    return lines, tuple(flat[k::width] for k in range(width)), stop
