"""The input text boundary: UTF-8 decoding, CSV tables, ISO-8601 dates and
study periods.

It imports the standard library alone, so a command that reads only text,
such as ``report``, loads no numpy.
"""

from __future__ import annotations

import codecs
import csv
import io
from array import array
from collections.abc import Iterable, Iterator, Sequence
from datetime import date, datetime
from functools import partial
from itertools import chain
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


# Characters of text read into fields at a time: each chunk's field strings
# are freed before the next chunk is read, so no reader holds a string per
# field of a whole file.
CHUNK = 1 << 14
# Every byte but a comma and a line end.
_OTHER_BYTES = bytes(sorted(set(range(256)) - set(b",\n\r")))


def _line_ends(text: str) -> int:
    """A text's line ends as ``csv.reader`` counts them: each LF, CR and CRLF."""
    ends = text.count("\n")
    if "\r" in text:
        ends += text.count("\r") - text.count("\r\n")
    return ends


def _read_text(path: str | Path, data: bytes | None = None) -> tuple[str, DataError | None]:
    """A file's UTF-8 text, without a leading byte order mark, and the
    located error of the first byte that does not decode, if one does not:
    then the text stops at the start of that byte's line. ``data`` is the
    file's bytes when the caller has read them; else the file is read once
    here and its bytes are freed once decoded."""
    if data is None:
        with open(path, "rb") as fh:
            data = fh.read()
    data = data.removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        cut = max(data.rfind(b"\n", 0, exc.start), data.rfind(b"\r", 0, exc.start)) + 1
        text = data[:cut].decode("utf-8")
        return text, DataError(f"{path}:{_line_ends(text) + 1}: cannot decode byte "
                               f"0x{data[exc.start]:02x} as UTF-8 ({exc.reason})")


def read_chunks(path: str | Path, header: tuple[str, ...], data: bytes | None = None
                ) -> tuple[int, Iterator[tuple[Sequence[int], tuple[list[str], ...],
                                              DataError | None]]]:
    """Read a UTF-8 CSV file whose header must be ``header``, in one pass;
    ``data`` is its bytes when the caller has read them (see ``_read_text``).

    Returns the most rows the file can hold (its count of line ends) and
    its chunks of rows: the file line each row starts on, one text list per
    header field, and the located error of the line that ended the read
    early (a row of the wrong width, an undecodable byte or a malformed
    field, such as one longer than ``csv.field_size_limit()``), given with
    the last chunk only. Blank rows are skipped; a wrong header raises.

    The text is read in runs of whole lines: the header line, then about
    ``CHUNK`` characters at a time, so only one chunk's fields are held at
    once. A run that is one record per line (see ``_fields``) is split
    with ``str.split``, which reads it as ``csv.reader`` does, and its
    lines are a ``range``. The first run that is not goes to one
    ``csv.reader`` with the rest of the text, so that alone reads quoted
    fields, lone carriage returns and blank lines, and locates a wrong
    width or an overlong field.
    """
    text, stop = _read_text(path, data)
    if stop is not None and not text:
        raise stop
    return _line_ends(text), _chunks(path, text, header, stop)


def _check_header(path: str | Path, head: list[str] | None, header: tuple[str, ...]) -> None:
    if head is None or tuple(h.strip() for h in head) != header:
        raise DataError(f"{path}: expected header '{','.join(header)}'")


def _runs(text: str) -> Iterator[str]:
    """A text's header line, then runs of its whole lines of about ``CHUNK``
    characters, line ends kept: each run but the last ends after a line
    feed, so no line (and no CRLF) spans two."""
    start, cut = 0, text.find("\n") + 1 or len(text)
    while True:
        yield text[start:cut]
        if cut == len(text):
            return
        start, cut = cut, text.find("\n", cut + CHUNK) + 1 or len(text)


def _fields(run: str, width: int) -> list[str] | None:
    """The fields of a run of whole lines, in order, when it is one record
    per line: no ``"`` or NUL, every carriage return part of a CRLF, every
    line of ``width`` comma-separated fields and none longer than
    ``csv.field_size_limit()``. None for any other run."""
    # A line of one field may be empty, which ``csv.reader`` skips.
    if width < 2 or '"' in run or "\0" in run:
        return None
    # Every line has width - 1 commas, and every carriage return is part of
    # a CRLF (which reads as an LF; a lone one is left to csv.reader), when
    # the run's commas and line ends alone spell that, in C: no byte of the
    # UTF-8 of another character is a comma or a line end.
    shape = run.encode().translate(None, _OTHER_BYTES)
    if b"\r" in shape:
        shape = shape.replace(b"\r\n", b"\n")
    line, ends = b"," * (width - 1), run.endswith("\n")
    if shape != (line + b"\n") * shape.count(b"\n") + (b"" if ends else line):
        return None
    run = run.replace("\r", "")
    # Only a run longer than the limit can hold a longer line.
    limit = csv.field_size_limit()
    if len(run) > limit and max(map(len, run.split("\n"))) > limit:
        return None
    flat = run.replace("\n", ",").split(",")
    if ends:
        flat.pop()  # the empty text after the last line break
    return flat


def _chunks(path: str | Path, text: str, header: tuple[str, ...], stop: DataError | None
            ) -> Iterator[tuple[Sequence[int], tuple[list[str], ...], DataError | None]]:
    """``read_chunks`` of a text: its runs split while each is one record
    per line, and from the first that is not on, read by ``csv.reader``."""
    width, line = len(header), 1
    runs = _runs(text)
    for run in runs:
        flat = _fields(run, width)
        if flat is None:
            yield from _read_rows(path, chain([run], runs), line, header, stop)
            return
        if line == 1:
            _check_header(path, flat, header)
            line = 2
            continue
        lines = range(line, line + len(flat) // width)
        yield lines, tuple(flat[k::width] for k in range(width)), None
        line, flat = lines.stop, None  # freed before the next run is split
    yield range(line, line), tuple([] for _ in header), stop


def _read_rows(path: str | Path, runs: Iterable[str], line: int, header: tuple[str, ...],
               stop: DataError | None
               ) -> Iterator[tuple[array, tuple[list[str], ...], DataError | None]]:
    """``read_chunks`` of the runs of a text from its line ``line`` on (the
    header line when that is 1) by one ``csv.reader``, a chunk of the rows
    of about ``CHUNK // 32`` lines at a time; ``stop`` ends the read unless
    a line does first."""
    width, flat, lines, before = len(header), [], array("q"), line - 1
    reader = csv.reader(chain.from_iterable(map(partial(io.StringIO, newline=""), runs)))
    try:
        if line == 1:
            _check_header(path, next(reader, None), header)
        # One flat list, sliced into columns at the end of a chunk, costs
        # less than an append per field. A row is named by the line its
        # record starts on: a quoted field may hold line breaks.
        extend, add = flat.extend, lines.append
        start = before + reader.line_num + 1
        end = start + CHUNK // 32
        for row in reader:
            lineno, start = start, before + reader.line_num + 1
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
        stop = DataError(f"{path}:{before + reader.line_num}: {exc}")
    yield lines, tuple(flat[k::width] for k in range(width)), stop
