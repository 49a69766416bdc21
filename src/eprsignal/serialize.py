"""JSON schema for states, observables, scenarios and reports.

One format for configs and reports keeps the determinism contract auditable:
complex numbers are [re, im] pairs, matrices are row-major nested lists, and
reports are dumped with sorted keys so equal values give equal bytes.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii

import numpy as np

from .nosignal import Certificate, RayColumns
from .observables import FunctionalObservable, power, quadratic
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
        desc = {"kind": "quadratic", "F": matrix_to_json(f.matrices[0])}
    elif f.kind == "power":
        desc = {"kind": "power", "P": matrix_to_json(f.matrices[0]), "k": len(f.terms[0][1])}
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
    if counting:
        obs = FunctionalObservable(obs.dim, obs.matrices, obs.terms, counting=True)
    return obs


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


def rays_to_json(w: RayColumns, rows: slice = slice(None)) -> list[dict]:
    """One "ray" object per residual row (or per row of the slice ``rows``),
    built from the columns; over every row, the table that ``--witnesses``
    writes."""
    rows = zip(vector_to_json(w.rays[rows]), w.values[rows].tolist(),
               w.expectation[rows].tolist(), w.residual[rows].tolist())
    return [
        {"type": "ray", "ray": ray, "value": value, "expectation": e, "residual": r}
        for ray, value, e, r in rows
    ]


def witness_digest(c: Certificate) -> str:
    """SHA-256 (hex) of the witness table in the byte layout README gives:
    the ``RayColumns`` arrays in field order as C-contiguous little-endian
    arrays, the rays ``<c16`` and the rest ``<f8``."""
    import hashlib  # only certificates pay for the import

    w = c.witnesses
    h = hashlib.sha256(np.ascontiguousarray(w.rays, "<c16"))
    for col in (w.values, w.expectation, w.residual):
        h.update(np.ascontiguousarray(col, "<f8"))
    return h.hexdigest()


def _check_to_json(c: Certificate, check) -> dict:
    out = {"worst": check.worst, "count": check.count}
    w = check.witness
    if isinstance(w, int):  # a row of the witness table
        out["index"] = w
        out["witness"] = rays_to_json(c.witnesses, slice(w, w + 1))[0]
    else:  # the psd-deficit record
        out["witness"] = {"type": "psd-deficit", "eigenvalue": w.eigenvalue,
                          "eigenvector": vector_to_json(w.eigenvector)}
    return out


def certificate_to_json(c: Certificate) -> dict:
    """The certificate's verdict, worst violation and per-check worst rows,
    with the witness table as its row count and digest only."""
    return {
        "verdict": c.verdict,
        "worst_violation": c.worst_violation,
        "worst_check": c.worst_check,
        "tolerance": c.tolerance,
        "scale": c.scale,
        "floor": c.floor,
        "seed": c.seed,
        "checks": {name: _check_to_json(c, check) for name, check in c.checks.items()},
        "witness_count": len(c.witnesses),
        "witness_digest": witness_digest(c),
        "operator": matrix_to_json(c.operator),
    }


def signal_report_to_json(r: SignalReport) -> dict:
    """Report fields by name; an infinite z (constant samples at different
    means) is written as null with ``"z_infinite": true``, as JSON has no
    infinity."""
    out = r._asdict()
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
    return r._asdict()


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


def dumps_canonical(obj) -> str:
    """Deterministic, strict JSON text: sorted keys, one space of indent per
    level, shortest round-trip floats, newline end.

    The bytes are those of ``json.dumps(obj, sort_keys=True, indent=1,
    separators=(",", ": "))`` plus the newline, for trees of str-keyed dicts,
    lists, tuples, str, int, float, bool and None; other types raise
    ``TypeError`` and NaN or an infinity raises ``ValueError``.  One speed
    path: a list of floats is formatted by one join, checked once for NaN
    and infinities.
    """
    return _encode(obj, "\n") + "\n"


def _encode(o, pad: str) -> str:
    # the text of o, where pad is a newline plus the indent of o's first line
    if not isinstance(o, (dict, list, tuple)):
        return _scalar(o)
    if not o:
        return "{}" if isinstance(o, dict) else "[]"
    inner = pad + " "
    comma = "," + inner
    if isinstance(o, dict):
        items = [encode_basestring_ascii(key) + ": " + _encode(o[key], inner)
                 for key in sorted(o)]
        return "{" + inner + comma.join(items) + pad + "}"
    try:  # float.__repr__ raises TypeError on an item that is not a float
        text = _finite(comma.join(map(float.__repr__, o)))
    except TypeError:
        text = comma.join([_encode(item, inner) for item in o])
    return "[" + inner + text + pad + "]"
