"""JSON schema for states, observables, scenarios and reports.

One format for configs and reports keeps the determinism contract auditable:
complex numbers are [re, im] pairs, matrices are row-major nested lists, and
reports are dumped with sorted keys so equal values give equal bytes.
"""

from __future__ import annotations

import dataclasses
import io
import math
import struct
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

from .nosignal import (
    Certificate,
    ChordColumns,
    PsdDeficitRecord,
    SubspaceMeasureRecord,
    TraceFitRecord,
)
from .observables import power, quadratic
from .signaling import ChannelReport, Scenario, SignalReport
from .states import EntangledState


def complex_from_json(data) -> complex:
    """A complex number from an [re, im] pair of JSON numbers: the type of
    each part is int or float, so a string or a bool is rejected."""
    if not (isinstance(data, (list, tuple)) and len(data) == 2
            and type(data[0]) in (int, float) and type(data[1]) in (int, float)):
        raise ValueError(f"a complex number must be a [re, im] pair of numbers, got {data!r}")
    return complex(float(data[0]), float(data[1]))


def vector_to_json(v) -> list:
    """[re, im] pairs of a complex array, built in one pass: a vector gives a
    list of pairs, a matrix a list of rows of pairs.  The floats are each
    entry's ``[z.real, z.imag]``, signed zeros included."""
    a = np.asarray(v, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def vector_from_json(data) -> np.ndarray:
    return np.array([complex_from_json(z) for z in data], dtype=complex)


matrix_to_json = vector_to_json


def matrix_from_json(data) -> np.ndarray:
    rows = [[complex_from_json(z) for z in row] for row in data]
    lengths = [len(row) for row in rows]
    if len(set(lengths)) > 1:
        raise ValueError(f"matrix rows must share one length, got {lengths}")
    return np.array(rows)


def entangled_to_json(s: EntangledState) -> dict:
    return {
        "alphas": vector_to_json(s.alphas),
        "alice_basis": matrix_to_json(s.alice_basis),
        "bob_states": matrix_to_json(s.bob_states),
    }


def _only_keys(data, keys, where: str = "") -> None:
    """Reject an object, or a key of it outside ``keys``: a misspelt
    optional key would otherwise drop its setting silently."""
    if not isinstance(data, dict):
        raise ValueError(f"{where}must be an object, got {data!r}")
    for key in data:
        if key not in keys:
            raise ValueError(f"{where}unknown key {key!r}")


def entangled_from_json(data) -> EntangledState:
    _only_keys(data, ("alphas", "alice_basis", "bob_states"), "state: ")
    return EntangledState(
        vector_from_json(data["alphas"]),
        matrix_from_json(data["alice_basis"]),
        matrix_from_json(data["bob_states"]),
    )


def observable_to_json(f) -> dict:
    if f.kind == "quadratic":
        desc = {"kind": "quadratic", "F": matrix_to_json(f.matrix)}
    elif f.kind == "power":
        desc = {"kind": "power", "P": matrix_to_json(f.matrix), "k": int(f.exponent)}
    else:
        raise ValueError("only quadratic and power observables serialize")
    if f.counting:
        desc["counting"] = True
    return desc


def observable_from_json(data):
    """The observable of a descriptor: an object whose ``k`` is an integer,
    whose ``counting``, when present, is true or false, and which holds no
    key its kind does not take."""
    if not isinstance(data, dict):
        raise ValueError(f"an observable must be an object, got {data!r}")
    kind = data.get("kind")
    if kind == "quadratic":
        _only_keys(data, ("kind", "F", "counting"))
        obs = quadratic(matrix_from_json(data["F"]))
    elif kind == "power":
        _only_keys(data, ("kind", "P", "k", "counting"))
        k = data["k"]
        if not isinstance(k, int) or isinstance(k, bool):
            raise ValueError(f"k must be an integer, got {k!r}")
        obs = power(matrix_from_json(data["P"]), k)
    else:
        raise ValueError(f"unknown observable kind {kind!r}")
    counting = data.get("counting", False)
    if not isinstance(counting, bool):
        raise ValueError(f"counting must be true or false, got {counting!r}")
    return dataclasses.replace(obs, counting=True) if counting else obs


def scenario_to_json(sc: Scenario) -> dict:
    return {
        "state": entangled_to_json(sc.state),
        "basis_a": matrix_to_json(sc.basis_a),
        "basis_a_prime": matrix_to_json(sc.basis_a_prime),
        "observable": observable_to_json(sc.observable),
    }


def scenario_from_json(data) -> Scenario:
    """The scenario of an object with no key but its four fields; an error
    in its observable names it (``observable: unknown key 'countng'``)."""
    _only_keys(data, ("state", "basis_a", "basis_a_prime", "observable"))
    try:
        observable = observable_from_json(data["observable"])
    except ValueError as err:
        raise ValueError(f"observable: {err}") from err
    return Scenario(
        state=entangled_from_json(data["state"]),
        basis_a=matrix_from_json(data["basis_a"]),
        basis_a_prime=matrix_from_json(data["basis_a_prime"]),
        observable=observable,
    )


def chords_to_json(w: ChordColumns, rows: slice = slice(None)) -> list[dict]:
    """One "chord" object per witness row (or per row of the slice ``rows``),
    built from the columns."""
    rows = zip(*(
        getattr(w, name)[rows].tolist()
        for name in ("x1", "x2", "x1p", "x2p", "p1", "p2", "p1p", "p2p",
                     "x", "lhs", "rhs", "violation", "values")
    ))
    return [
        {
            "type": "chord",
            "x1": x1, "x2": x2, "x1p": x1p, "x2p": x2p,
            "p1": p1, "p2": p2, "p1p": p1p, "p2p": p2p,
            "x": x,
            "lhs": lhs, "rhs": rhs, "violation": violation,
            "values": values,
            "affine": False,
        }
        for x1, x2, x1p, x2p, p1, p2, p1p, p2p, x, lhs, rhs, violation, values
        in rows
    ]


def witness_to_json(w) -> dict:
    if isinstance(w, SubspaceMeasureRecord):
        return {
            "type": "subspace-measure",
            "basis": matrix_to_json(w.basis),
            "mu": w.mu,
            "basis_spread": w.basis_spread,
        }
    if isinstance(w, TraceFitRecord):
        return {
            "type": "trace-fit",
            "subspace_dim": w.subspace_dim,
            "mu": w.mu,
            "trace_value": w.trace_value,
            "residual": w.residual,
        }
    if isinstance(w, PsdDeficitRecord):
        return {
            "type": "psd-deficit",
            "eigenvalue": w.eigenvalue,
            "eigenvector": vector_to_json(w.eigenvector),
        }
    raise ValueError(f"cannot serialize witness of type {type(w).__name__}")


def witnesses_to_json(c: Certificate) -> list[dict]:
    """Every witness of a certificate, one object each, in order: the table
    that ``--witnesses`` writes and ``--format csv`` renders."""
    if isinstance(c.witnesses, ChordColumns):
        return chords_to_json(c.witnesses)
    return [witness_to_json(w) for w in c.witnesses]


def _record_bytes(w) -> bytes:
    if isinstance(w, SubspaceMeasureRecord):
        basis = np.array(w.basis, dtype="<c16")
        return (b"S" + struct.pack("<2q", *basis.shape) + basis.tobytes()
                + struct.pack("<2d", w.mu, w.basis_spread))
    return b"T" + struct.pack("<q3d", w.subspace_dim, w.mu, w.trace_value, w.residual)


def witness_digest(c: Certificate) -> str:
    """SHA-256 (hex) of the witness table in the byte layout README gives:
    the 13 ``ChordColumns`` arrays in field order as C-contiguous ``<f8``, or
    each subspace and trace record in order."""
    import hashlib  # only certificates pay for the import

    h = hashlib.sha256()
    if isinstance(c.witnesses, ChordColumns):
        for col in dataclasses.fields(ChordColumns):
            h.update(np.ascontiguousarray(getattr(c.witnesses, col.name), "<f8").tobytes())
    else:
        for w in c.witnesses:
            h.update(_record_bytes(w))
    return h.hexdigest()


def _check_to_json(c: Certificate, check) -> dict:
    out = {"worst": check.worst, "count": check.count}
    w = check.witness
    if isinstance(w, int):  # a row of the witness table
        out["index"] = w
        if isinstance(c.witnesses, ChordColumns):
            out["witness"] = chords_to_json(c.witnesses, slice(w, w + 1))[0]
            return out
        w = c.witnesses[w]
        if isinstance(w, SubspaceMeasureRecord):
            out["rotations"] = {"max": list(w.max_rotation), "min": list(w.min_rotation)}
    out["witness"] = None if w is None else witness_to_json(w)
    return out


def certificate_to_json(c: Certificate) -> dict:
    """The certificate's verdict, worst violation and per-check worst rows,
    with the witness table as its row count and digest only."""
    out = {
        "verdict": c.verdict,
        "worst_violation": c.worst_violation,
        "worst_check": c.worst_check,
        "tolerance": c.tolerance,
        "seed": c.seed,
        "checks": {name: _check_to_json(c, check) for name, check in c.checks.items()},
        "witness_count": len(c.witnesses),
        "witness_digest": witness_digest(c),
    }
    if c.operator is not None:
        out["operator"] = matrix_to_json(c.operator)
    return out


def _fields(r) -> dict:
    # a report's fields by name, without the deep copy of dataclasses.asdict
    return {f.name: getattr(r, f.name) for f in dataclasses.fields(r)}


def signal_report_to_json(r: SignalReport) -> dict:
    """Report fields by name; an infinite z (constant samples at different
    means) is written as null with ``"z_infinite": true``, as JSON has no
    infinity."""
    out = _fields(r)
    if r.z is not None and math.isinf(r.z):
        out["z"] = None
        out["z_infinite"] = True
    if r.convergence is not None:
        out["convergence"] = [
            {"n": n, "mc_gap": g, "pooled_stderr": s} for n, g, s in r.convergence
        ]
    else:
        out.pop("convergence")
    return out


def channel_report_to_json(r: ChannelReport) -> dict:
    return _fields(r)


def _finite(text: str) -> str:
    """``text``, one or more joined float reprs, unless one of them is "nan",
    "inf" or "-inf" (the only float reprs with an n), which JSON lacks."""
    if "n" in text:
        raise ValueError("out of range float values are not JSON compliant")
    return text


def _scalar(o) -> str:
    """The JSON text of a str, None, bool, int or float."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _finite(float.__repr__(o))
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _column(values: list, types: set):
    """The JSON texts of one column of scalars, whose value types are
    ``types``: floats by one ``float.__repr__`` map checked once for NaN and
    infinities, exact ints by one ``int.__repr__`` map, anything else value
    by value."""
    if all(issubclass(t, float) for t in types):
        text = list(map(float.__repr__, values))
        _finite("".join(text))
        return text
    if types == {int}:
        return map(int.__repr__, values)
    return map(_scalar, values)


def dumps_canonical(obj) -> str:
    """Deterministic, strict JSON text: sorted keys, one space of indent per
    level, shortest round-trip floats, newline end.

    The bytes are those of ``json.dumps(obj, sort_keys=True, indent=1,
    separators=(",", ": "))`` plus the newline, for trees of str-keyed dicts,
    lists, tuples, str, int, float, bool and None; other types raise
    ``TypeError`` and NaN or an infinity raises ``ValueError``.  The text is
    streamed into one buffer.  Each key order is sorted, and its ``"key": ``
    prefixes encoded, once per call; a list of floats is formatted by one join.
    A row table, a list of dicts that share one non-empty key set and hold
    only scalars, is built column by column and its rows joined at once.
    """
    buf = io.StringIO()
    write = buf.write
    layouts: dict[tuple, list[tuple[str, str]]] = {}

    def layout(d: dict) -> list[tuple[str, str]]:
        names = tuple(d)
        found = layouts.get(names)
        if found is None:
            for key in names:
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
            found = [(key, encode_basestring_ascii(key) + ": ") for key in sorted(names)]
            layouts[names] = found
        return found

    def table(o: list, pad: str) -> str | None:
        # the text of a row table, or None for any other list
        first = o[0]
        if not first or any(isinstance(v, (dict, list, tuple)) for v in first.values()):
            return None
        if set(map(type, o)) != {dict} or set(map(len, o)) != {len(first)}:
            return None
        fields = layout(first)
        try:  # rows of one length lack a key of the first row iff their keys differ
            columns = [list(map(itemgetter(key), o)) for key, _ in fields]
        except KeyError:
            return None
        types = [set(map(type, column)) for column in columns]
        if any(issubclass(t, (dict, list, tuple)) for ts in types for t in ts):
            return None
        inner = pad + " "
        lead = "{" + inner + " "
        parts = []
        for (_, prefix), column, ts in zip(fields, columns, types):
            parts += (repeat(lead + prefix), _column(column, ts))
            lead = "," + inner + " "
        rows = map("".join, zip(*parts, repeat(inner + "}")))
        return "[" + inner + ("," + inner).join(rows) + pad + "]"

    def encode(o, pad: str) -> None:
        # pad: newline plus the indent of the line that o starts on
        if isinstance(o, dict):
            if not o:
                write("{}")
                return
            inner = pad + " "
            comma = "," + inner
            sep = "{" + inner
            for key, prefix in layout(o):
                item = o[key]
                if type(item) is float:
                    write(sep + prefix + _finite(float.__repr__(item)))
                elif isinstance(item, (dict, list, tuple)):
                    write(sep + prefix)
                    encode(item, inner)
                else:
                    write(sep + prefix + _scalar(item))
                sep = comma
            write(pad + "}")
        elif isinstance(o, (list, tuple)):
            if not o:
                write("[]")
                return
            inner = pad + " "
            comma = "," + inner
            try:  # float.__repr__ raises TypeError on an item that is not a float
                text = comma.join(map(float.__repr__, o))
            except TypeError:
                text = table(o, pad) if type(o[0]) is dict else None
                if text is not None:
                    write(text)
                    return
                sep = "[" + inner
                for item in o:
                    write(sep)
                    encode(item, inner)
                    sep = comma
                write(pad + "]")
            else:
                write("[" + inner + _finite(text) + pad + "]")
        else:
            write(_scalar(o))

    encode(obj, "\n")
    write("\n")
    return buf.getvalue()
