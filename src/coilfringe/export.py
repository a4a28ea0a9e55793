"""Deterministic file emission: CSV field maps, fringe tables, sweeps.

All floats are written in scientific notation with 9 significant
digits, locale independent, so identical inputs yield byte-identical
files. CSV files carry a '#'-prefixed comment header echoing the
originating parameters. Every file is written to a temporary file beside
its path and then moved into place, so a failed write leaves no partial
file.

Arrays of values are formatted by csv_rows, which gives the bytes of
"%.8e" % x for every float x without a Python call per value. A finite
x = +-m * 10**(e - 8) with 10**8 <= m < 10**9 has e = floor(log10|x|),
corrected by one where the scaled value s = |x| * 10**(8 - e) falls
outside [1e8, 1e9), and m = rint(s), with a carry to 10**9 moving to
the next exponent. The power of ten is the correctly rounded double, so
s is within 2.2e-7 of the exact value, and rint(s) is the correctly
rounded m unless the fraction of s lies within 1e-5 of one half. Those
values, the exponents beyond +-290 (subnormals among them) and +-inf
go through Python's "%.8e" instead; +-0 is written from m = 0, e = 0,
and NaN as "nan", as Python does. Ryu printf (Adams, Proc. ACM Program.
Lang. 3, OOPSLA, 169 (2019)) is the exact general method; at 9 of
float64's 17 digits this scale, round and fall back scheme suffices.
"""

import contextlib
import functools
import json
import os

from .errors import ScenarioError
from .ideal_field import CoilWindingSpec

_EXP_LIMIT = 290  # values of larger |exponent| use Python's "%.8e"
_TIE_WINDOW = 1e-5  # and so do scaled values this close to a half-integer
_EXPONENTS = range(-_EXP_LIMIT - 2, _EXP_LIMIT + 3)  # room for a correction and a carry
_BLOCK_VALUES = 2**16  # values formatted at a time, which bounds the temporaries


def fmt(x):
    """Fixed float format: scientific, 9 significant digits."""
    return f"{float(x):.8e}"


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
    off = (s < 1e8) & vectorised
    off |= s >= 1e9
    if off.any():  # log10 misjudged the exponent next to a power of ten
        e[off] += np.where(s[off] >= 1e9, 1, -1)
        s[off] = a[off] * scales[e[off] + row0]
    m = np.rint(s)
    fallback = (s >= 1e9) | (np.abs(s - m) > 0.5 - _TIE_WINDOW) | (vectorised & (s < 1e8))
    fallback |= ~vectorised & (x != 0) & ~np.isnan(x)
    m = m.astype(np.int64)
    m[fallback] = 0
    carry = m == 10**9
    m[carry] = 10**8
    e[carry] += 1
    hi, lo = np.divmod(m, 1000)
    out[:, 0] = head[np.signbit(x) * 100 + hi // 10**4]
    out[:, 1] = digits[hi % 10**4]
    out[:, 2] = tail[lo]
    out[:, 3] = exponent[e + row0]
    for i in np.flatnonzero(fallback).tolist():
        out[i] = np.frombuffer((b"%.8e" % x[i]).ljust(16, b"\0"), dtype=np.uint32)


def csv_rows(rows, nan_text="nan"):
    """The lines of an (n, c) float array as CSV, for write_lines.

    Each value is written as fmt(value), and a NaN as nan_text. Returns
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


def _coil_comment_lines(coil):
    if isinstance(coil, CoilWindingSpec):
        return [
            "# coil_type = winding",
            f"# R1_m = {fmt(coil.R1)}",
            f"# R2_m = {fmt(coil.R2)}",
            f"# L_m = {fmt(coil.L)}",
            f"# turn_density_per_m = {fmt(coil.turn_density)}",
            f"# layers = {coil.layers}",
            f"# helicity = {list(coil.helicity_sign_per_layer)}",
            f"# wire_diameter_m = {fmt(coil.wire_diameter)}",
            f"# I_A = {fmt(coil.I)}",
        ]
    return [
        "# coil_type = ideal",
        f"# R1_m = {fmt(coil.R1)}",
        f"# R2_m = {fmt(coil.R2)}",
        f"# N_turns = {coil.N}",
        f"# I_A = {fmt(coil.I)}",
    ]


def write_lines(path, lines):
    """Write lines as UTF-8 text with '\\n' endings, the last one included.

    The text goes to a temporary file beside path, which then replaces
    path; if anything fails, path is left as it was and the temporary
    file is removed. An OSError, such as a missing directory, is raised
    as a ScenarioError naming path.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise ScenarioError(f"cannot write {path}: {exc.strerror}") from exc
        raise


def write_field_map(path, coil, rows):
    """Write a field-map CSV from an (n, 9) array of x,y,z,Ax,Ay,Az,Bx,By,Bz rows."""
    lines = _coil_comment_lines(coil) + ["x,y,z,Ax,Ay,Az,Bx,By,Bz"]
    write_lines(path, lines + csv_rows(rows))


def write_fringe_csv(path, pattern, scenario_comment=()):
    """CSV of fringe orders: k, theta_k_rad, y_k_m, ring_radius_m."""
    lines = list(scenario_comment) + ["k,theta_k_rad,y_k_m,ring_radius_m"]
    for o in pattern.orders:
        lines.append(
            f"{o.k},{fmt(o.theta_k)},{fmt(o.y_k)},{fmt(o.ring_radius)}"
        )
    write_lines(path, lines)


def fringe_summary(pattern):
    return {
        "lambda_m": fmt(pattern.wavelength),
        "P_eff": fmt(pattern.P_eff),
        "interfringe_m": fmt(pattern.interfringe_small_angle),
        "interfringe_exact_m": fmt(pattern.interfringe_i),
        "small_angle_valid": pattern.small_angle_valid,
    }


def json_text(data):
    """The fixed JSON layout of every emitted JSON document."""
    return json.dumps(data, indent=2, sort_keys=True)


def write_json(path, data):
    write_lines(path, [json_text(data)])
