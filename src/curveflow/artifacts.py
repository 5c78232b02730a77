"""Every file the CLI writes or reads back, in one place.

Tables are CSV, written from columns: a header line, LF line ends, floats
as %.17g, ints and bools as %d, None as an empty cell and a str as it is.
Documents are JSON indented by 2 with sorted keys, complex numbers as
[re, im] and non-finite floats as null, so strict JSON.  A curve or a loop
is JSON on one line; save_curves writes from two processes (POSIX fork).
"""

import json
import math
import os

import numpy as np

from .curves import Curve, Monodromy
from .errors import DegenerateInputError


def _write(path, text):
    with open(path, "w", newline="") as f:
        f.write(text)


def _cell(value):
    # floats first: they are most cells
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value
    if value is None:
        return ""
    return value if isinstance(value, str) else "%d" % value


def _column(values):
    """(format, cells): a numeric column's one format and its Python
    scalars, or any other column's cells as str."""
    values = np.asarray(values)
    if values.dtype.kind in "fiub":
        return "%.17g" if values.dtype.kind == "f" else "%d", values.tolist()
    return "%s", [_cell(v) for v in values.tolist()]


def write_table(path, header, columns):
    """CSV of the header line (comma-separated names) and one row per
    element of the columns, each row formatted at once."""
    columns = [_column(c) for c in columns]
    row = ",".join(fmt for fmt, _ in columns)
    lines = [header]
    lines.extend(row % cells for cells in zip(*[c for _, c in columns]))
    _write(path, "\n".join(lines) + "\n")


def _strict(value):
    """value with complex numbers as [re, im] and non-finite floats None."""
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    if isinstance(value, complex):
        return [_strict(value.real), _strict(value.imag)]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def write_document(path, data):
    """JSON document indented by 2 with sorted keys."""
    _write(path, json.dumps(_strict(data), indent=2, sort_keys=True))


def save_curve(curve, path):
    # json.dumps runs the C encoder, json.dump the slower Python one
    _write(path, json.dumps({
        "samples": curve.samples.tolist(),
        "seg_len": curve.seg_len,
        "monodromy": {
            "rotation": curve.monodromy.rotation.tolist(),
            "translation": curve.monodromy.translation.tolist(),
        },
        # the basepoint is sample 0; the key keeps the file layout
        "basepoint_index": 0,
    }))


def save_curves(curves, paths):
    """save_curve of each curve to its path; with two usable cores a forked
    child writes every other one, and its failure (errno or 1) raises here."""
    w = min(2, len(os.sched_getaffinity(0)))
    pid = os.fork() if w == 2 else None
    if pid == 0:
        status = 1
        try:
            for i in range(1, len(paths), w):
                save_curve(curves[i], paths[i])
            status = 0
        except OSError as e:
            status = e.errno or 1
        finally:
            os._exit(status)
    try:
        for i in range(0, len(paths), w):
            save_curve(curves[i], paths[i])
    finally:
        status = pid and os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status:
        raise OSError(status, "snapshot writer: " + os.strerror(status))


def load_curve(path):
    """Inverse of save_curve; rejects misshapen or non-finite data."""
    with open(path) as f:
        data = json.load(f)
    rotation = np.array(data["monodromy"]["rotation"], dtype=float)
    translation = np.array(data["monodromy"]["translation"], dtype=float)
    samples = np.array(data["samples"], dtype=float)
    seg_len = float(data["seg_len"])
    if (rotation.shape != (4,) or translation.shape != (3,)
            or samples.ndim != 2 or samples.shape[1] != 3):
        raise DegenerateInputError("curve data has the wrong shape")
    if not (np.isfinite(samples).all() and np.isfinite(translation).all()
            and np.isfinite(seg_len)):
        raise DegenerateInputError("curve data is not finite")
    return Curve(samples, seg_len, Monodromy(rotation, translation))


def save_loop(coeffs, path):
    """A loop element's (d+1, 3) coefficients, complex ones as [re, im]."""
    _write(path, json.dumps({"degree": len(coeffs) - 1,
                             "coeffs": _strict(coeffs.tolist()),
                             "real": not np.iscomplexobj(coeffs)}))


def load_loop(path):
    """The coefficient array save_loop wrote."""
    with open(path) as f:
        data = json.load(f)
    if data.get("real", True):
        return np.array(data["coeffs"], dtype=float)
    return np.array([[complex(re, im) for re, im in row]
                     for row in data["coeffs"]])
