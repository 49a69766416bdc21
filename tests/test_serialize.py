import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprsignal import (
    Ensemble,
    Scenario,
    certify,
    combine,
    custom,
    monte_carlo_report,
    power,
    quadratic,
)
from eprsignal.cli import bundled_config_names, load_config, parse_config, run
from eprsignal.serialize import (
    certificate_to_json,
    complex_from_json,
    dumps_canonical,
    entangled_from_json,
    entangled_to_json,
    matrix_from_json,
    matrix_to_json,
    observable_from_json,
    observable_to_json,
    rays_to_json,
    scenario_from_json,
    scenario_to_json,
    signal_report_to_json,
    vector_from_json,
    vector_to_json,
)
from helpers import (
    PROJ0_2,
    bell_power_scenario,
    complex_to_json,
    counting,
    ensemble_from_json,
    ensemble_to_json,
    random_projector,
    random_entangled,
    random_hermitian,
    random_pure,
    state_vector,
)


def test_complex_pairs_round_trip():
    z = 1.25 - 0.75j
    assert complex_from_json(complex_to_json(z)) == z
    with pytest.raises(ValueError):
        complex_from_json([1.0])


@pytest.mark.parametrize(
    "data", [["1", True], ["1", 0], [True, 0], [0, False], [None, 0], [1, "0"]]
)
def test_complex_parts_must_be_numbers(data):
    # a part that float() would take, a string or a bool, is not a number
    with pytest.raises(ValueError, match="pair of numbers"):
        complex_from_json(data)
    assert complex_from_json([1, -2.5]) == 1 - 2.5j
    identity = [[["1", "0"], [0, 0]], [[0, 0], [True, 0]]]
    with pytest.raises(ValueError):
        observable_from_json({"kind": "quadratic", "F": identity})


def test_vector_and_matrix_round_trip():
    rng = np.random.default_rng(70)
    v = random_pure(4, rng)
    np.testing.assert_array_equal(vector_from_json(vector_to_json(v)), v)
    m = random_hermitian(3, rng)
    np.testing.assert_array_equal(matrix_from_json(matrix_to_json(m)), m)


def test_array_encoding_matches_per_entry_pairs():
    # the one-pass [re, im] encoding gives the floats complex_to_json gives
    # entry by entry, signed zeros and extreme magnitudes included
    rng = np.random.default_rng(74)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m[0, 0] = complex(-0.0, 0.0)
    m[0, 1] = complex(0.0, -0.0)
    m[1, 2] = complex(5e-324, -5e-324)
    m[2, 3] = complex(1e16, -1e16)
    m[3, 0] = complex(-0.0, 1e-7)
    per_entry = [[complex_to_json(z) for z in row] for row in m]
    assert dumps_canonical(matrix_to_json(m)) == dumps_canonical(per_entry)
    for row, expected in zip(m, per_entry):
        assert dumps_canonical(vector_to_json(row)) == dumps_canonical(expected)


def test_ensemble_round_trip():
    rng = np.random.default_rng(71)
    w = rng.random(3)
    ens = Ensemble(w / w.sum(), [random_pure(2, rng) for _ in range(3)])
    back = ensemble_from_json(ensemble_to_json(ens))
    np.testing.assert_array_equal(back.weights, ens.weights)
    for a, b in zip(back.states, ens.states):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("weights", [("0.5", 0.5), (True, False)])
def test_ensemble_weights_must_be_numbers(weights):
    # float() would make a valid ensemble of both, [0.5, 0.5] and [1.0, 0.0]
    state = [[1.0, 0.0], [0.0, 0.0]]
    members = [{"weight": w, "state": state} for w in weights]
    with pytest.raises(ValueError, match="weights must be numbers"):
        ensemble_from_json({"members": members})


def test_entangled_round_trip():
    s = random_entangled(np.random.default_rng(72), 3, 2, 2)
    back = entangled_from_json(entangled_to_json(s))
    np.testing.assert_allclose(state_vector(back), state_vector(s), atol=1e-15)


def test_observable_descriptors():
    q = quadratic(PROJ0_2)
    desc = observable_to_json(q)
    assert desc["kind"] == "quadratic" and "F" in desc
    assert observable_from_json(desc).kind == "quadratic"

    p = power(PROJ0_2, 2)
    desc = observable_to_json(p)
    assert desc["kind"] == "power" and desc["k"] == 2 and "P" in desc
    back = observable_from_json(desc)
    assert back.kind == "power" and back.terms == ((1.0, (0, 0)),)

    c = counting(power(PROJ0_2, 2))
    desc = observable_to_json(c)
    assert desc["counting"] is True
    assert observable_from_json(desc).counting

    # a polynomial other than these two, and a custom observable, have no
    # descriptor yet
    twin = custom(p.values, 2, batch=True)
    for f in (combine([1.0, 0.5], [q, p]), twin):
        with pytest.raises(ValueError, match="only quadratic and power observables serialize"):
            observable_to_json(f)

    with pytest.raises(ValueError):
        observable_from_json({"kind": "mystery"})
    with pytest.raises(ValueError, match="^unknown key 'countng'$"):
        observable_from_json({**desc, "countng": True})


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 5),
    k=st.integers(1, 4),
    flag=st.booleans(),
)
def test_counting_flag_survives_observable_round_trip(seed, d, k, flag):
    # a projector keeps <P> and its powers in [0, 1], so either flag holds
    p = random_projector(d, np.random.default_rng(seed))
    f = quadratic(p) if k == 1 else power(p, k)
    if flag:
        f = counting(f)
    desc = observable_to_json(f)
    assert ("counting" in desc) == flag
    back = observable_from_json(json.loads(json.dumps(desc)))
    assert back.counting == flag and back.kind == f.kind
    assert observable_to_json(back) == desc


def test_scenario_round_trip_preserves_gap():
    from eprsignal import exact_gap

    sc = bell_power_scenario()
    back = scenario_from_json(scenario_to_json(sc))
    assert exact_gap(back).gap == exact_gap(sc).gap


def test_certificate_serialization_contains_witnesses():
    cert = certify(power(PROJ0_2, 2), 50, seed=73)
    data = certificate_to_json(cert)
    assert data["verdict"] == "non-quadratic"
    assert data["seed"] == 73
    assert data["operator"] == matrix_to_json(cert.operator)
    # the witness table is the sidecar's; the report holds its size
    data["witnesses"] = rays_to_json(cert.witnesses)
    assert len(data["witnesses"]) == len(cert.witnesses) == data["witness_count"]
    row = data["witnesses"][0]
    assert list(row) == ["type", "ray", "value", "expectation", "residual"]
    assert row["type"] == "ray"
    # one object per row of the columns, in row order
    cols = cert.witnesses
    for i in (0, 2, 3, len(cols) - 1):
        w = data["witnesses"][i]
        assert w["ray"] == vector_to_json(cols.rays[i])
        assert (w["value"], w["expectation"]) == (cols.values[i], cols.expectation[i])
        assert w["residual"] == cols.residual[i]
    # serialized certificates must be canonical-JSON clean
    text = dumps_canonical(data)
    assert text.endswith("\n")


def test_dumps_canonical_is_stable():
    a = dumps_canonical({"b": 1.5, "a": [1, 2]})
    b = dumps_canonical({"a": [1, 2], "b": 1.5})
    assert a == b


def test_dumps_canonical_matches_json_dumps(tmp_path):
    cert = certify(power(PROJ0_2, 2), 300, seed=74)
    data = {"result": certificate_to_json(cert), "witnesses": rays_to_json(cert.witnesses),
            "name": "é", "none": None}
    reference = json.dumps(data, sort_keys=True, separators=(",", ": "), indent=1)
    assert dumps_canonical(data) == reference + "\n"
    # the report that the CLI writes for each bundled config: convergence
    # rows, nested operators and bases, capacity and gap results
    for name in bundled_config_names():
        config = parse_config(load_config(name), {"out": str(tmp_path / f"{name}.json")})
        report = run(config)[1]
        reference = json.dumps(report, sort_keys=True, separators=(",", ": "), indent=1)
        assert dumps_canonical(report) == reference + "\n", name


def _reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, 0.1, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), _FLOATS, st.text(),
)
_TREES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(_FLOATS, max_size=5),
        st.dictionaries(st.text(), inner, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_TREES)
def test_dumps_canonical_equals_json_dumps_on_random_trees(obj):
    assert dumps_canonical(obj) == _reference(obj)


def test_dumps_canonical_edge_cases_match_json_dumps():
    obj = {
        "floats": [-0.0, 5e-324, 1e16, 1e-7, np.float64(0.1)],
        "mixed": [True, 1, 1.0, None, "x", [], {}, (2.5, False)],
        "empty": {}, "none": [], "bool": False, "int": True,
        "text": 'é "q" \\ \n \t \u2028 \U0001f600 \x00',
        'k"é\n': {"b": (1.5,), "a": [[0.5, 1], [2.0]]},
    }
    assert dumps_canonical(obj) == _reference(obj)
    assert dumps_canonical([]) == "[]\n" and dumps_canonical(1e-7) == "1e-07\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
@pytest.mark.parametrize(
    "wrap",
    [lambda x: x, lambda x: [0.5, x], lambda x: {"v": x}, lambda x: ["s", x]],
    ids=["bare", "float-list", "dict-value", "mixed-list"],
)
def test_dumps_canonical_rejects_non_finite(bad, wrap):
    with pytest.raises(ValueError):
        dumps_canonical(wrap(bad))


@pytest.mark.parametrize(
    "bad", [np.int64(1), np.bool_(True), {1, 2}, b"x", object(), {1: "a"}, {None: 0}]
)
def test_dumps_canonical_rejects_unsupported_types(bad):
    with pytest.raises(TypeError):
        dumps_canonical({"a": [bad]})


# row tables: lists of dicts with one key set, encoded column by column.
# Keys hold the characters a %-format or a naive quote would break on.
_ROW_KEYS = st.text(alphabet=st.sampled_from('ab%s"\\é\n\u2028\U0001f600'), max_size=4)
_ROW_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-(2**70), 2**70),
                         _FLOATS, st.text(max_size=5))
# a column of one type takes the one-map paths; a mixed one goes value by value
_ROW_COLUMNS = st.sampled_from([_FLOATS, st.integers(-(2**70), 2**70), st.booleans(),
                                st.none(), st.text(max_size=5), _ROW_SCALARS])


@st.composite
def _row_tables(draw):
    keys = draw(st.lists(_ROW_KEYS, min_size=1, max_size=5, unique=True))
    columns = {key: draw(_ROW_COLUMNS) for key in keys}
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        order = draw(st.permutations(keys))  # rows need not share an insertion order
        rows.append({key: draw(columns[key]) for key in order})
    tail = draw(st.sampled_from(["none", "ragged", "non-dict", "nested", "empty"]))
    if tail == "ragged":  # one row with another key set
        rows.append({**rows[0], draw(_ROW_KEYS.filter(lambda k: k not in keys)): 1.5})
    elif tail == "non-dict":
        rows.append(draw(st.sampled_from([1.0, "s", None, [1.0], (2, 3)])))
    elif tail == "nested":  # a value that is not a scalar
        rows.append({**rows[0], keys[0]: draw(st.sampled_from([[0.5], {"a": 1}, (), {}]))})
    elif tail == "empty":
        rows.append({})
    for _ in range(draw(st.integers(0, 2))):  # at some depth of a report
        rows = draw(st.sampled_from([{"t": rows}, [rows], [0.5, rows]]))
    return rows


@settings(max_examples=300, deadline=None)
@given(_row_tables())
def test_dumps_canonical_equals_json_dumps_on_row_tables(obj):
    assert dumps_canonical(obj) == _reference(obj)


@pytest.mark.parametrize("obj", [
    [{}], [{}, {}], [{"a": 1}, {}], [{"a": 1}, {"b": 1}], [{"a": 1, "b": 2}, {"a": 1}],
    [{"a": 1}, {"a": 1, "b": 2}], [{"a": 1.5}, 2.5], [{"a": 1}, [1]],
    [{"%s": -0.0, 'x"y': 5e-324, "é": np.float64(0.1)}] * 3,
    [{"n": True, "m": 1}, {"n": 2, "m": False}],
], ids=repr)
def test_dumps_canonical_row_table_edge_cases_match_json_dumps(obj):
    assert dumps_canonical(obj) == _reference(obj)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
@pytest.mark.parametrize("row", [0, 1, 2])
@pytest.mark.parametrize("column", ["floats", "mixed"])
def test_dumps_canonical_rejects_non_finite_in_row_tables(bad, row, column):
    rows = [{"f": 0.5, "m": None if i % 2 else "s"} for i in range(3)]
    rows[row]["f" if column == "floats" else "m"] = bad
    with pytest.raises(ValueError):
        dumps_canonical(rows)
    with pytest.raises(ValueError):
        dumps_canonical({"t": rows})


@pytest.mark.parametrize("row", [0, 2])
@pytest.mark.parametrize("others", [1, 1.5, None], ids=["ints", "floats", "nulls"])
def test_dumps_canonical_rejects_numpy_ints_in_row_tables(row, others):
    rows = [{"a": others, "b": "s"} for _ in range(3)]
    rows[row]["a"] = np.int64(1)
    with pytest.raises(TypeError):
        dumps_canonical(rows)


def _refuse(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_infinite_z_is_strict_json():
    # both letters emit states of one f value each (1 and 0): the standard
    # errors vanish at a real gap, so z is infinite
    base = bell_power_scenario()
    sc = Scenario(base.state, base.basis_a, base.basis_a_prime,
                  observable=power(np.diag([1.0, -1.0]).astype(complex), 2))
    report = monte_carlo_report(sc, 1000, seed=0)
    assert report.z == math.inf
    data = json.loads(dumps_canonical(signal_report_to_json(report)), parse_constant=_refuse)
    assert data["z"] is None and data["z_infinite"] is True and data["gap"] == 1.0

    finite = signal_report_to_json(monte_carlo_report(bell_power_scenario(), 1000, seed=0))
    assert math.isfinite(finite["z"]) and "z_infinite" not in finite


def test_report_encoding_matches_asdict():
    # the reports are encoded from their ``_asdict``; the bytes must be
    # those of their fields, paired by name with their values
    from eprsignal import channel_capacity, exact_gap
    from eprsignal.serialize import channel_report_to_json

    def via_asdict(r):
        out = dict(zip(r._fields, r))
        if r.z is not None and math.isinf(r.z):
            out["z"] = None
            out["z_infinite"] = True
        if r.convergence is None:
            out.pop("convergence")
        else:
            out["convergence"] = [
                {"n": n, "mc_gap": g, "pooled_stderr": s} for n, g, s in r.convergence
            ]
        return out

    sc = bell_power_scenario()
    infinite = Scenario(sc.state, sc.basis_a, sc.basis_a_prime,
                        observable=power(np.diag([1.0, -1.0]).astype(complex), 2))
    reports = [
        monte_carlo_report(sc, 30000, seed=3, track_convergence=True),
        monte_carlo_report(infinite, 1000, seed=0, track_convergence=True),
        monte_carlo_report(sc, 1000, seed=0),
        exact_gap(sc),  # every Monte-Carlo field None
    ]
    assert math.isinf(reports[1].z) and reports[3].mc_fb is None
    for r in reports:
        assert dumps_canonical(signal_report_to_json(r)) == dumps_canonical(via_asdict(r))
    ch = channel_capacity(sc, 10, 500, seed=4)
    assert dumps_canonical(channel_report_to_json(ch)) == dumps_canonical(dict(zip(ch._fields, ch)))


# the violation that each check reads off one row of the witness table
_CHECK_VIOLATION = {
    "residual": lambda r: r["residual"],
}


def _digest_of_table(rows) -> str:
    """SHA-256 of a parsed witness table in the byte layout README gives."""
    import hashlib

    h = hashlib.sha256()
    h.update(np.array([vector_from_json(r["ray"]) for r in rows], dtype="<c16").tobytes())
    for name in ("value", "expectation", "residual"):
        h.update(np.array([r[name] for r in rows], dtype="<f8").tobytes())
    return h.hexdigest()


@settings(max_examples=25, deadline=None)
@given(
    route=st.sampled_from(["residual", "quadratic", "power"]),
    size=st.integers(1, 600),
    seed=st.integers(0, 2**32 - 1),
)
def test_report_digest_and_checks_replay_from_the_sidecar(route, size, seed):
    rng = np.random.default_rng(seed)
    if route == "residual":
        f = quadratic(random_hermitian(2, rng)) if size % 2 else power(PROJ0_2, 2)
    else:
        d = 3 + size % 2
        f = quadratic(random_hermitian(d, rng)) if route == "quadratic" \
            else power(random_hermitian(d, rng), 3)
    cert = certify(f, size, seed=seed)
    report = json.loads(dumps_canonical(certificate_to_json(cert)))
    table = json.loads(dumps_canonical({"witnesses": rays_to_json(cert.witnesses)}))["witnesses"]

    assert report["witness_count"] == len(table) == len(cert.witnesses)
    assert report["witness_digest"] == _digest_of_table(table)
    assert report["checks"]
    for name, check in report["checks"].items():
        row = check["witness"]
        assert table[check["index"]] == row, name
        violations = [_CHECK_VIOLATION[name](r) for r in table]
        assert check["worst"] == _CHECK_VIOLATION[name](row) == max(violations), name
        assert check["index"] == violations.index(check["worst"]), name
        assert check["count"] == len(table), name
    assert report["checks"][report["worst_check"]]["worst"] == report["worst_violation"]
