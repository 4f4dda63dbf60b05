"""The input text boundary: UTF-8 decoding, CSV tables, ISO-8601 dates and
study periods.

It imports the standard library alone, so a command that reads only text,
such as ``report``, loads no numpy.
"""

from __future__ import annotations

import csv
import io
from array import array
from collections.abc import Iterator, Sequence
from datetime import date, datetime
from itertools import chain, repeat
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


# Characters of text split into fields at a time: each chunk's field strings
# are freed before the next chunk is split, so no reader holds a string per
# field of a whole file.
CHUNK = 1 << 14
# Every byte but a comma and a line break.
_OTHER_BYTES = bytes(sorted(set(range(256)) - set(b",\n")))


def _line_ends(text: str) -> int:
    """A text's line ends as ``csv.reader`` counts them: each LF, CR and CRLF."""
    return text.count("\n") + text.count("\r") - text.count("\r\n")


def _read_text(path: str | Path) -> tuple[str, DataError | None]:
    """A file's UTF-8 text, read once, and the located error of the first
    byte that does not decode, if one does not: then the text stops at the
    start of that byte's line. The file's bytes are freed once decoded."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        cut = max(data.rfind(b"\n", 0, exc.start), data.rfind(b"\r", 0, exc.start)) + 1
        text = data[:cut].decode("utf-8")
        return text, DataError(f"{path}:{_line_ends(text) + 1}: cannot decode byte "
                               f"0x{data[exc.start]:02x} as UTF-8 ({exc.reason})")


def read_table(path: str | Path, header: tuple[str, ...]
               ) -> tuple[Sequence[int], tuple[list[str], ...], DataError | None]:
    """``read_chunks`` joined: the file line each row starts on (a range
    when the text is split), one text list per header field, and the stop."""
    parts, columns = [], tuple([] for _ in header)
    for lines, chunk, stop in read_chunks(path, header)[1]:
        parts.append(lines)
        for column, texts in zip(columns, chunk):
            column.extend(texts)
    if isinstance(parts[0], range):
        return range(parts[0].start, parts[-1].stop), columns, stop
    return list(chain.from_iterable(parts)), columns, stop


def read_chunks(path: str | Path, header: tuple[str, ...]
                ) -> tuple[int, Iterator[tuple[Sequence[int], tuple[list[str], ...],
                                              DataError | None]]]:
    """Read a UTF-8 CSV file whose header must be ``header``, in one pass.

    Returns the most rows the file can hold (its rows when it is split, or
    else its count of line ends) and its chunks of rows: the
    file line each row starts on, one text list per header field, and the
    located error of the line that ended the read early (a row of the wrong
    width, an undecodable byte or a malformed field, such as one longer
    than ``csv.field_size_limit()``), given with the last chunk only. Blank
    rows are skipped; a wrong header raises.

    A text that is one record per line (no ``"`` or NUL, every carriage
    return part of a CRLF, every line after the header of ``len(header)``
    comma-separated fields, none longer than ``csv.field_size_limit()``) is
    split with ``str.split``, which reads it as ``csv.reader`` does. Any
    other text goes to one ``csv.reader``, so that alone reads quoted
    fields, lone carriage returns and blank lines, and locates a wrong
    width or an overlong field. Either way ``CHUNK`` characters of text are
    read at a time, and only one chunk's fields are held at once.
    """
    text, stop = _read_text(path)
    if stop is not None and not text:
        raise stop
    chunks = _record_lines(text, len(header))
    if chunks is None:
        return _line_ends(text), _read_rows(path, text, header, stop)
    _check_header(path, chunks[0].split(",") if chunks else None, header)
    return (sum(map(str.count, chunks, repeat("\n"))) + len(chunks) - 1,
            _split_rows(chunks, len(header), stop))


def _check_header(path: str | Path, head: list[str] | None, header: tuple[str, ...]) -> None:
    if head is None or tuple(h.strip() for h in head) != header:
        raise DataError(f"{path}: expected header '{','.join(header)}'")


def _record_lines(text: str, width: int) -> list[str] | None:
    """The lines of a CSV text that is one record per line, each line of
    ``width`` fields, in chunks: the header line, then runs of whole lines
    of about ``CHUNK`` characters, each without its final line break and
    with LF line ends. None for any other text."""
    # A line of one field may be empty, which ``csv.reader`` skips.
    if width < 2 or '"' in text or "\0" in text:
        return None
    # A CRLF reads as an LF; a lone carriage return is left to csv.reader.
    crlf = "\r" in text
    if crlf and text.count("\r") != text.count("\r\n"):
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
        chunk = text[start:cut].replace("\r", "") if crlf else text[start:cut]
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


def _lines(text: str) -> Iterator[io.StringIO]:
    """The lines of a text, line ends kept, as ``io.StringIO`` reads them,
    in one ``io.StringIO`` of about ``CHUNK`` characters at a time: each
    ends after a line feed, so no line spans two."""
    start = 0
    while start < len(text):
        cut = text.find("\n", start + CHUNK) + 1 or len(text)
        yield io.StringIO(text[start:cut], newline="")
        start = cut


def _split_rows(chunks: list[str], width: int, stop: DataError | None
                ) -> Iterator[tuple[range, tuple[list[str], ...], DataError | None]]:
    """``read_chunks`` of a text's ``_record_lines``, which it empties: each
    chunk is split as it is taken, and row i is on line i + 2."""
    chunks.reverse()
    chunks.pop()  # the header
    line = 2
    while True:
        flat = chunks.pop().replace("\n", ",").split(",") if chunks else []
        lines = range(line, line + len(flat) // width)
        yield lines, tuple(flat[k::width] for k in range(width)), None if chunks else stop
        if not chunks:
            return
        line, flat = lines.stop, None  # freed before the next chunk is split


def _read_rows(path: str | Path, text: str, header: tuple[str, ...], stop: DataError | None
               ) -> Iterator[tuple[array, tuple[list[str], ...], DataError | None]]:
    """``read_chunks`` of a text by one ``csv.reader``, a chunk of the rows
    of about ``CHUNK // 32`` lines at a time; ``stop`` ends the read unless
    a line does first."""
    width, flat, lines = len(header), [], array("q")
    reader = csv.reader(chain.from_iterable(_lines(text)))
    try:
        _check_header(path, next(reader, None), header)
        # One flat list, sliced into columns at the end of a chunk, costs
        # less than an append per field. A row is named by the line its
        # record starts on: a quoted field may hold line breaks.
        extend, add = flat.extend, lines.append
        start = reader.line_num + 1
        end = start + CHUNK // 32
        for row in reader:
            lineno, start = start, reader.line_num + 1
            if len(row) == width:
                extend(row)
                add(lineno)
                if start > end:
                    yield lines, tuple(flat[k::width] for k in range(width)), None
                    flat, lines = [], array("q")
                    extend, add, end = flat.extend, lines.append, start + CHUNK // 32
            elif not _blank(row):
                stop = DataError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
                break
    except csv.Error as exc:
        stop = DataError(f"{path}:{reader.line_num}: {exc}")
    yield lines, tuple(flat[k::width] for k in range(width)), stop
