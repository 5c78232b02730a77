"""Every file the CLI writes or reads back, in one place.

Tables are CSV: a header line, LF line ends, floats as %.17g, ints and
bools as %d, None as an empty cell and a str as it is.  Documents are JSON
indented by 2 with sorted keys, complex numbers as [re, im] and non-finite
floats as null, so strict JSON.  A curve or a loop is JSON on one line.
"""

import json
import math

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


def write_table(path, header, rows):
    """CSV of the header line (comma-separated names) and the rows."""
    lines = [header]
    lines.extend(",".join(map(_cell, row)) for row in rows)
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
