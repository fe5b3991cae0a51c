"""The one CSV format of every table the package writes.

A file is a header row, then one row per index of its columns.  A cell is
`str` of the column's `.tolist()` value, so a float is its shortest
round-trip `repr` and a numpy scalar prints as the Python number it holds.
Lines end in CRLF, as `csv.writer` ends them, and nothing is quoted: a cell
holding ',', '"', CR or LF would split or merge rows, so it raises
`ValueError` before the file is opened.
"""

import re

import numpy as np

_UNSAFE = re.compile(r'[,"\r\n]')
# rows formatted and written per write call, which bounds the text held
_CHUNK_ROWS = 1 << 16


def write_csv(path, header, columns) -> None:
    """Write `header` and the rows of `columns` to `path`.

    Each column is a 1-d sequence of one type (numbers or strings), and all
    have the header's length in rows.
    """
    arrays = [np.asarray(column) for column in columns]
    rows = arrays[0].shape[0] if arrays else 0
    if len(arrays) != len(header) \
            or any(a.shape != (rows,) for a in arrays):
        raise ValueError("need one 1-d column per header entry, all of "
                         "equal length")
    # str of an int, float or bool never holds an unsafe character; text is
    # checked once per distinct value, in order of first appearance
    for cells in [header] + [dict.fromkeys(a.tolist()) for a in arrays
                             if a.dtype.kind not in "biuf"]:
        cells = list(map(str, cells))
        if _UNSAFE.search("".join(cells)):
            bad = next(c for c in cells if _UNSAFE.search(c))
            raise ValueError(f"CSV cell {bad!r} holds ',', '\"', CR or LF; "
                             f"the format does not quote")
    write_rows(path, header, arrays)


def cell_text(column: np.ndarray) -> list[str]:
    """The cells of a 1-d numeric array as `write_csv` writes them, none
    of them unsafe.  A column that several files share is rendered once and
    passed to `write_rows` for each file."""
    return list(map(str, column.tolist()))


def write_rows(path, header, columns) -> None:
    """Write `header` and the rows of `columns`, unchecked: each column is
    an array or a list of `cell_text`, all of one length, and no cell
    holds an unsafe character."""
    line = ",".join(["%s"] * len(columns)) + "\r\n"
    rows = len(columns[0]) if columns else 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, rows, _CHUNK_ROWS):
            # the cells row by row, formatted by one `%` of the whole chunk
            chunk = [c[start:start + _CHUNK_ROWS] for c in columns]
            chunk = [c if isinstance(c, list) else c.tolist() for c in chunk]
            cells = [None] * (len(chunk[0]) * len(chunk))
            for i, column in enumerate(chunk):
                cells[i::len(chunk)] = column
            fh.write(line * len(chunk[0]) % tuple(cells))
