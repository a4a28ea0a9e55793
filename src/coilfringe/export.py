"""Deterministic output: the lines of CSV and JSON files, and their writing.

One rule writes every emitted number, emitted(value): a float is
"%.8e", scientific notation with 9 significant digits and locale
independent, and an int, bool or string stays as it is; dicts,
lists and tuples are written item by item. Callers pass raw values:
json_text, key_value_lines and the fringe rows apply the rule, and
csv_rows gives its bytes for whole float arrays. Identical inputs thus
yield byte-identical files. CSV files, built by csv_lines, carry a
'#'-prefixed "key = value" header echoing the originating parameters.
Every file is written to a temporary file beside its resolved path and
then moved into place, so a failed write leaves no partial file. write_all
takes a command's files in order, writing each or removing the stale
file it names, then writes its stdout, and removes the files written
when a later entry or stdout fails.

Arrays of values are formatted by csv_rows, which gives the bytes of
"%.8e" % x for every float x without a Python call per value. A finite
x = +-m * 10**(e - 8) with 10**8 <= m < 10**9 has e = floor(log10|x|)
and m = rint(s) for s = |x| * 10**(8 - e). The power of ten is the
correctly rounded double, so s is within 2.2e-7 of the exact value, and
rint(s) is the correctly rounded m unless the fraction of s lies within
1e-5 of one half. Where log10 rounds up to a power of ten just above
|x|, s is a few ulps below 1e8 and m = 1e8 is right. Near halves, an m
of 1e9 or more (log10 one too low, or rounding up to the next exponent),
exponents beyond +-290 (subnormals among them) and +-inf go through
Python's "%.8e" instead; +-0 is written from m = 0, e = 0, and NaN as
"nan", as Python does. Ryu printf (Adams, Proc. ACM Program.
Lang. 3, OOPSLA, 169 (2019)) is the exact general method; at 9 of
float64's 17 digits this scale, round and fall back scheme suffices.
"""

import contextlib
import errno
import functools
import json
import os
import sys

from .errors import ScenarioError

_EXP_LIMIT = 290  # values of larger |exponent| use Python's "%.8e"
_TIE_WINDOW = 1e-5  # and so do scaled values this close to a half-integer
_EXPONENTS = range(-_EXP_LIMIT, _EXP_LIMIT + 1)
_BLOCK_VALUES = 2**16  # values formatted at a time, which bounds the temporaries


def emitted(value):
    """value as the package emits it: a float as "%.8e", a dict, list or
    tuple item by item (a tuple as a list), anything else as it is."""
    if isinstance(value, float):
        return f"{value:.8e}"
    if isinstance(value, dict):
        return {key: emitted(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [emitted(item) for item in value]
    return value


def key_value_lines(pairs, prefix=""):
    """A line "<prefix>key = value" for each item of the dict pairs, the
    value emitted."""
    return [f"{prefix}{key} = {emitted(value)}" for key, value in pairs.items()]


def _words(texts):
    """uint32 array holding the ASCII of each text, 0-padded to 4 bytes."""
    import numpy as np

    return np.frombuffer(b"".join(t.ljust(4, b"\0") for t in texts), dtype=np.uint32)


@functools.cache
def _tables():
    """The double nearest 10**(8 - e) for each of _EXPONENTS, and the four
    words of a "%.8e" field: sign, two digits and the point between them;
    four digits; three digits and 'e'; the exponent's sign and digits."""
    import numpy as np

    scales = np.array([float(f"1e{8 - e}") for e in _EXPONENTS])
    head = _words([b"%s%d.%d" % (sign, i // 10, i % 10) for sign in (b"", b"-")
                   for i in range(100)])
    digits = _words([b"%04d" % i for i in range(10000)])
    tail = _words([b"%03de" % i for i in range(1000)])
    exponent = _words([b"%+03d" % e for e in _EXPONENTS])
    return scales, head, digits, tail, exponent


def _e8_fields(x, out):
    """Write "%.8e" % v for each non-NaN v of the 1-d array x into the
    (len(x), 4) uint32 array out, as ASCII padded with zero bytes."""
    import numpy as np

    scales, head, digits, tail, exponent = _tables()
    row0 = -_EXPONENTS[0]  # table row of exponent 0
    a = np.abs(x)
    e = np.zeros(len(x), dtype=np.int64)
    normal = np.isfinite(a) & (a > 0)
    e[normal] = np.floor(np.log10(a[normal]))
    vectorised = normal & (np.abs(e) <= _EXP_LIMIT)
    a[~vectorised] = 0.0  # zeros, and placeholders for NaN and the fallback
    e[~vectorised] = 0
    s = a * scales[e + row0]
    m = np.rint(s)
    fallback = (m >= 1e9) | (np.abs(s - m) > 0.5 - _TIE_WINDOW)
    fallback |= ~vectorised & (x != 0) & ~np.isnan(x)
    m = m.astype(np.int64)
    m[fallback] = 0
    hi, lo = np.divmod(m, 1000)
    out[:, 0] = head[np.signbit(x) * 100 + hi // 10**4]
    out[:, 1] = digits[hi % 10**4]
    out[:, 2] = tail[lo]
    out[:, 3] = exponent[e + row0]
    for i in np.flatnonzero(fallback).tolist():
        out[i] = np.frombuffer((b"%.8e" % x[i]).ljust(16, b"\0"), dtype=np.uint32)


def csv_rows(rows, nan_text="nan"):
    """The lines of an (n, c) float array as CSV, for csv_lines.

    Each value is written as emitted(value), and a NaN as nan_text. Returns
    the lines in blocks of consecutive rows, each block one string of
    lines joined by '\\n'; no rows give no blocks.
    """
    import numpy as np

    rows = np.asarray(rows, dtype=float)
    n, c = rows.shape
    # a cell is 4-byte words: 4 for the field and 1 for its ',' or '\n',
    # or as many as nan_text and its separator need
    width = max(5, (len(nan_text) + 4) // 4)
    comma, newline = _words([b",", b"\n"])
    nan_comma, nan_newline = (
        np.frombuffer((nan_text.encode("ascii") + sep).ljust(4 * width, b"\0"), np.uint32)
        for sep in (b",", b"\n")
    )
    blocks = []
    step = max(1, _BLOCK_VALUES // c)
    for i in range(0, n, step):
        block = rows[i:i + step]
        cells = np.zeros((len(block), c, width), dtype=np.uint32)
        _e8_fields(block.ravel(), cells.reshape(-1, width)[:, :4])
        cells[:, :, 4] = comma
        cells[:, -1, 4] = newline
        nan = np.isnan(block)
        cells[:, :-1][nan[:, :-1]] = nan_comma
        cells[:, -1][nan[:, -1]] = nan_newline
        blocks.append(cells.tobytes().translate(None, b"\0")[:-1].decode("ascii"))
    return blocks


def csv_lines(header, columns, body):
    """The lines of a CSV file: the dict header as "# key = value"
    comments, the column names joined by ',', then the lines of body."""
    return key_value_lines(header, prefix="# ") + [",".join(columns), *body]


def write_lines(path, lines):
    """Write lines as UTF-8 text with '\\n' endings, the last one included.

    The text goes to a temporary file beside os.path.realpath(path), the
    target, which then replaces it, so a symlink keeps its link; if
    anything fails, the target is left as it was and the temporary file
    is removed. Returns the target. A target that exists and is not a
    regular file (a directory, a FIFO) is refused before anything is opened.
    An OSError, such as a missing directory, is a ScenarioError naming path.
    """
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        reason = os.strerror(errno.EISDIR) if os.path.isdir(target) else "not a regular file"
        raise ScenarioError(f"cannot write {path}: {reason}")
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")
        os.replace(tmp, target)
        return target
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError, NotADirectoryError):  # tmp never made
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise ScenarioError(f"cannot write {path}: {exc.strerror}") from exc
        raise


def write_all(files, text):
    """Take each (path, lines) of files in turn: write it with
    write_lines, or, where lines is None, remove the stale file at path
    if it exists. Then write the lines of text to stdout, and flush it.
    If any of it fails, the files already written are removed and the
    error is raised, so a command leaves all of its output or none, and a
    failed file leaves stdout unwritten. A stdout that raises an OSError,
    or is None (fd 1 closed), is a ScenarioError; its descriptor, if it
    has one, is first pointed at os.devnull, to keep the flush at exit
    quiet."""
    written = []
    try:
        for path, lines in files:
            if lines is not None:
                written.append(write_lines(path, lines))
            elif os.path.lexists(path):
                try:
                    os.remove(path)
                except OSError as exc:
                    raise ScenarioError(f"cannot remove {path}: {exc.strerror}") from exc
        try:
            if sys.stdout is None:
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            sys.stdout.write("".join(f"{line}\n" for line in text))
            sys.stdout.flush()
        except OSError as exc:
            # None, a fake without fileno, or one whose fileno raises
            with contextlib.suppress(AttributeError, ValueError):
                fd, devnull = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, fd)
                os.close(devnull)
            raise ScenarioError(f"cannot write stdout: {exc.strerror}") from exc
    except BaseException:
        for path in written:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        raise


def json_text(data):
    """The fixed JSON layout of every emitted JSON document."""
    return json.dumps(emitted(data), indent=2, sort_keys=True)
