import copy
import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dualfrac import (
    FractionalOrders,
    GaussianSpec,
    Grid3,
    Monomial,
    Nonlinearity,
    ProblemSpec,
    Spectrum,
    demo_config_text,
    eval_nonlinearity,
    field_norms,
    forward_transform,
    load_problem,
    realize_gaussian,
    serialize_problem,
)
from dualfrac.problems import CLEARANCE_WIDTHS, ConfigError, realize_gaussian_sum
from dualfrac.spectral import spectrum_l2


def demo_dict():
    return json.loads(demo_config_text())


def test_demo_config_loads(demo):
    assert demo.n_components == 2
    assert demo.orders.s1 == (0.4, 0.5)
    assert demo.orders.s2 == (0.8, 0.9)
    assert demo.grid == Grid3(20.0, 64)
    assert demo.rho == 1.0
    assert all(m.degree == 2 for comp in demo.nonlinearity.components for m in comp)
    assert demo.is_nonlinear


def test_round_trip_identity(demo):
    again = load_problem(serialize_problem(demo))
    assert again == demo


def test_supercritical_order_rejected_in_nonlinear_mode():
    doc = demo_dict()
    doc["orders"]["s1"][0] = 0.8
    doc["orders"]["s2"][0] = 0.9
    with pytest.raises(ConfigError, match="^orders.s1: .*window"):
        load_problem(json.dumps(doc))


def test_supercritical_order_allowed_when_uncoupled():
    doc = demo_dict()
    doc["orders"]["s1"][0] = 0.8
    doc["orders"]["s2"][0] = 0.9
    doc["epsilon"] = [0.0, 0.0]
    problem = load_problem(json.dumps(doc))
    assert not problem.is_nonlinear


def test_linear_coupling_term_rejected():
    doc = demo_dict()
    doc["g"][0]["monomials"].append({"powers": [1, 0], "coeff": 0.1})
    with pytest.raises(ConfigError, match="degree"):
        load_problem(json.dumps(doc))


def test_unknown_keys_rejected():
    doc = demo_dict()
    doc["extra"] = 1
    with pytest.raises(ConfigError, match="unknown keys"):
        load_problem(json.dumps(doc))

    doc = demo_dict()
    doc["kernels"][0][0]["b"] = 2.0
    with pytest.raises(ConfigError, match=r"kernels\[0\]\[0\]"):
        load_problem(json.dumps(doc))


def test_all_zero_influx_rejected():
    doc = demo_dict()
    for fs in doc["influxes"]:
        for g in fs:
            g["A"] = 0.0
    with pytest.raises(ConfigError, match="^influxes: .*influx"):
        load_problem(json.dumps(doc))


def _set_rho(doc, value):
    doc["rho"] = value


def _set_epsilon(doc, value):
    doc["epsilon"][1] = value


def _set_s1(doc, value):
    doc["orders"]["s1"][0] = value
    doc["orders"]["s2"][0] = 0.9


@pytest.mark.parametrize(
    "mutate, value, path, message",
    [
        (_set_rho, 0, "rho", r"must lie in \(0, 1\], got 0\.0"),
        (_set_rho, 1.5, "rho", r"must lie in \(0, 1\], got 1\.5"),
        (_set_rho, -1, "rho", r"must lie in \(0, 1\], got -1\.0"),
        (_set_epsilon, -0.001, "epsilon", "coupling factors must be nonnegative"),
        (
            _set_s1,
            0.2,
            "orders.s1",
            r"the certificate needs every first order in the open window \(0\.25, 0\.75\); got s1_min=0\.2, S1_max=0\.5$",
        ),
    ],
    ids=["rho-0", "rho-1.5", "rho-negative", "epsilon-negative", "s1-below-window"],
)
def test_range_error_names_its_field(mutate, value, path, message):
    doc = demo_dict()
    mutate(doc, value)
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}: {message}") as excinfo:
        load_problem(json.dumps(doc))
    assert excinfo.value.path == path


DEMO_SPEC = load_problem(demo_config_text())
FIRST_ORDERS = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.sampled_from([0.25, 0.75, np.nextafter(0.25, 1.0), np.nextafter(0.75, 0.0)]),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    s1=st.lists(FIRST_ORDERS, min_size=2, max_size=2),
    epsilon=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e3)), min_size=2, max_size=2),
    trivial=st.booleans(),
    route=st.sampled_from(["construct", "with_epsilon", "with_nonlinearity"]),
)
@example(s1=[0.4, 0.75], epsilon=[0.0, 1e-3], trivial=False, route="with_epsilon")
@example(s1=[0.25, 0.5], epsilon=[1e-3, 0.0], trivial=False, route="construct")
@example(s1=[0.8, 0.5], epsilon=[1e-3, 1e-3], trivial=True, route="construct")
def test_a_spec_is_refused_exactly_when_coupled_outside_the_window(s1, epsilon, trivial, route):
    # the invariant that lets the solution map and the solves leave the
    # orders unchecked: no coupled spec, however built, has an s1 outside
    # (1/4, 3/4), and an uncoupled one takes any 0 < s1 < s2 < 1
    s2 = [0.5 * (1.0 + a) for a in s1]
    assume(all(a < b < 1.0 for a, b in zip(s1, s2)))
    g = Nonlinearity(((), ())) if trivial else DEMO_SPEC.nonlinearity
    coupled = any(e > 0.0 for e in epsilon) and not trivial
    outside = not all(0.25 < a < 0.75 for a in s1)

    def spec(eps, nonlinearity):
        return ProblemSpec(
            orders=FractionalOrders(tuple(s1), tuple(s2)),
            epsilon=tuple(eps),
            kernels=DEMO_SPEC.kernels,
            influxes=DEMO_SPEC.influxes,
            nonlinearity=nonlinearity,
            grid=DEMO_SPEC.grid,
            rho=DEMO_SPEC.rho,
        )

    def build():
        if route == "with_epsilon":
            return spec([0.0, 0.0], g).with_epsilon(epsilon)
        if route == "with_nonlinearity":
            return spec(epsilon, Nonlinearity(((), ()))).with_nonlinearity(g)
        return spec(epsilon, g)

    if coupled and outside:
        with pytest.raises(ConfigError, match=r"^orders\.s1: .*\(0\.25, 0\.75\)") as excinfo:
            build()
        assert excinfo.value.path == "orders.s1"
    else:
        assert build().is_nonlinear == coupled


def test_malformed_json_rejected():
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_problem("{not json")


def test_missing_required_key_rejected():
    doc = demo_dict()
    del doc["orders"]
    with pytest.raises(ConfigError, match="missing keys"):
        load_problem(json.dumps(doc))


# Every object of a configuration: where it sits in the demo, the path an
# error names it by, and its required keys.
CONFIG_OBJECTS = [
    ((), "$", ("N", "orders", "epsilon", "kernels", "influxes", "g")),
    (("grid",), "grid", ()),
    (("orders",), "orders", ("s1", "s2")),
    (("kernels", 1, 0), "kernels[1][0]", ("A", "a", "center")),
    (("g", 0), "g[0]", ()),
    (("g", 1, "monomials", 0), "g[1].monomials[0]", ("powers", "coeff")),
]
OBJECT_FAULTS = [
    (where, path, fault)
    for where, path, required in CONFIG_OBJECTS
    for fault in ["not an object", "unknown key"] + [f"missing {key}" for key in required]
]


@pytest.mark.parametrize("where, path, fault", OBJECT_FAULTS, ids=[f"{p}-{f}" for _, p, f in OBJECT_FAULTS])
def test_every_config_object_is_refused_in_one_wording_at_its_path(where, path, fault):
    doc = demo_dict()
    obj = doc
    for key in where:
        obj = obj[key]
    if fault == "not an object":
        if where:
            _set_leaf(doc, where, [1.0])
        else:
            doc = [1.0]
        message = "expected an object"
    elif fault == "unknown key":
        obj["extra"] = 1
        message = "unknown keys ['extra']"
    else:
        key = fault.removeprefix("missing ")
        del obj[key]
        message = f"missing keys [{key!r}]"
    with pytest.raises(ConfigError) as excinfo:
        load_problem(json.dumps(doc))
    assert excinfo.value.path == path
    assert str(excinfo.value) == f"{path}: {message}"


@pytest.mark.parametrize("field", ["epsilon", "kernels", "influxes", "g", "orders.s1", "orders.s2"])
def test_a_list_whose_length_is_not_n_is_refused_naming_it(field):
    for extra in (False, True):
        doc = demo_dict()
        *parents, last = field.split(".")
        obj = doc
        for key in parents:
            obj = obj[key]
        if extra:
            obj[last].append(copy.deepcopy(obj[last][0]))
        else:
            obj[last].pop()
        with pytest.raises(ConfigError) as excinfo:
            load_problem(json.dumps(doc))
        assert excinfo.value.path == field


def test_n_components_is_the_orders_count(demo):
    # the component count is stated once, by the orders
    assert "n_components" not in {f.name for f in dataclasses.fields(ProblemSpec)}
    assert demo.n_components == demo.orders.n_components == 2
    assert demo.with_epsilon(0.0).n_components == 2


def test_grid_defaults_applied():
    doc = demo_dict()
    del doc["grid"]
    del doc["rho"]
    problem = load_problem(json.dumps(doc))
    assert problem.grid == Grid3(20.0, 64)
    assert problem.rho == 1.0


def test_epsilon_length_mismatch_rejected():
    doc = demo_dict()
    doc["epsilon"] = [0.1]
    with pytest.raises(ConfigError, match="epsilon"):
        load_problem(json.dumps(doc))


def _set_n(doc, value):
    doc["N"] = value


def _set_grid_n(doc, value):
    doc["grid"]["n"] = value


def _set_powers(doc, value):
    doc["g"][0]["monomials"][0]["powers"] = [value, value]


@pytest.mark.parametrize(
    "mutate,path",
    [(_set_n, "N"), (_set_grid_n, "grid.n"), (_set_powers, "g[0].monomials[0].powers")],
    ids=["N", "grid.n", "powers"],
)
def test_boolean_where_integer_expected_rejected(mutate, path):
    # JSON true is a Python int; it must not load as 1
    doc = demo_dict()
    mutate(doc, True)
    with pytest.raises(ConfigError) as excinfo:
        load_problem(json.dumps(doc))
    assert excinfo.value.path == path


@pytest.mark.parametrize(
    "path,value",
    [
        (("influxes", 0, 0, "A"), None),
        (("influxes", 0, 0, "A"), "2.5"),
        (("kernels", 1, 0, "a"), True),
        (("g", 0, "monomials", 1, "coeff"), {}),
        (("epsilon", 0), float("nan")),
        (("influxes", 1, 0, "center", 2), float("inf")),
        (("grid", "L"), 10**400),
        (("rho",), [1.0]),
        (("orders", "s1", 1), False),
    ],
    ids=["A-null", "A-string", "a-bool", "coeff-dict", "epsilon-nan", "center-inf", "L-huge", "rho-list", "s1-bool"],
)
def test_non_number_leaf_rejected_naming_it(path, value):
    doc = demo_dict()
    _set_leaf(doc, path, value)
    with pytest.raises(ConfigError, match="expected a finite number") as excinfo:
        load_problem(json.dumps(doc))
    assert excinfo.value.path == _leaf_name(path)


def _leaves(node, path=()):
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _leaves(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _leaves(child, path + (i,))
    else:
        yield path


def _set_leaf(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _leaf_name(path):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


DEMO_DOC = demo_dict()
DEMO_LEAVES = list(_leaves(DEMO_DOC))

LEAF_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=5),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 2), max_size=2),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(path=st.sampled_from(DEMO_LEAVES), value=LEAF_VALUES)
def test_loader_raises_only_config_error_and_round_trips(path, value):
    doc = copy.deepcopy(DEMO_DOC)
    _set_leaf(doc, path, value)
    try:
        problem = load_problem(json.dumps(doc))
    except ConfigError:
        return
    assert load_problem(serialize_problem(problem)) == problem


# --- gaussian realization -----------------------------------------------------


def test_realized_gaussian_l1(grid64):
    spec = GaussianSpec(1.0, 1.0)
    f = realize_gaussian(spec, grid64)
    assert abs(field_norms(f).l1 - spec.analytic_l1()) <= 1e-8
    assert spec.analytic_l1() == pytest.approx(np.pi**1.5)


def test_separable_gaussian_matches_dense_exponential(grid64):
    spec = GaussianSpec(-0.7, 0.8, (1.5, -0.5, 2.0))
    x, y, z = grid64.meshes
    r_sq = (x - 1.5) ** 2 + (y + 0.5) ** 2 + (z - 2.0) ** 2
    dense = spec.amplitude * np.exp(-spec.width * r_sq)
    f = realize_gaussian(spec, grid64)
    # the factored product rounds differently: a few ulp of the peak
    assert np.max(np.abs(f.values - dense)) <= 1e-15 * abs(spec.amplitude)


def test_zero_amplitude_gaussian(grid64):
    f = realize_gaussian(GaussianSpec(0.0, 1.0), grid64)
    assert np.all(f.values == 0.0)


def test_shifted_gaussian_keeps_l1_and_gains_phase(grid64):
    spec = GaussianSpec(1.0, 1.0, (1.5, -0.5, 2.0))
    f = realize_gaussian(spec, grid64)
    assert abs(field_norms(f).l1 - spec.analytic_l1()) <= 1e-8
    coeff = forward_transform(f).coefficients
    p = grid64.frequency_axis
    # five lattice frequencies, including the origin
    for idx in [(0, 0, 0), (1, 0, 0), (0, 2, 0), (3, 1, 0), (0, 0, 5)]:
        expected = spec.analytic_transform(*(p[k] for k in idx))
        assert abs(coeff[idx] - expected) <= 1e-8


def test_clearance_warning_reports_truncation():
    grid = Grid3(10.0, 16)
    with pytest.warns(UserWarning, match="truncated mass"):
        realize_gaussian(GaussianSpec(1.0, 0.05, (0.0, 0.0, 0.0)), grid)


@pytest.mark.parametrize(
    "spec", [GaussianSpec(1.0, 1e-300), GaussianSpec(1.0, 1.0, (1e100, 0.0, 0.0))], ids=["tiny_width", "far_centre"]
)
def test_clearance_warning_stays_one_short_line(spec):
    # a tiny width needs a clearance of about 1e150 and a far centre leaves a
    # margin of about -1e100: fixed-point formats printed them in full
    grid = Grid3(10.0, 16)
    with pytest.warns(UserWarning, match="face clearance") as record:
        realize_gaussian(spec, grid)
    message = str(record[0].message)
    assert "\n" not in message and len(message) < 200
    assert f"< {CLEARANCE_WIDTHS / np.sqrt(spec.width):.3g};" in message


def test_analytic_l1_saturates_beyond_the_float_range():
    # (pi / a)^{3/2} overflows below a ~ 1e-205; the clearance warning reads it
    assert GaussianSpec(2.0, 1e-300).analytic_l1() == np.inf
    assert GaussianSpec(0.0, 1e-300).analytic_l1() == 0.0


def test_gaussian_width_validation():
    with pytest.raises(ValueError, match="width"):
        GaussianSpec(1.0, 0.0)


# --- coupling evaluation --------------------------------------------------------


def test_coupling_vanishes_at_origin(demo):
    value, grad = eval_nonlinearity(demo.nonlinearity, np.zeros(2))
    assert np.all(value == 0.0)
    assert np.all(grad == 0.0)


def test_square_coupling_point_values():
    g = Nonlinearity(((Monomial((2,), 1.0),),))
    value, grad = eval_nonlinearity(g, [3.0])
    assert value[0] == 9.0
    assert grad[0, 0] == 6.0


def test_gradient_matches_central_differences(rng):
    g = Nonlinearity(
        (
            (Monomial((2, 0, 0), 0.7), Monomial((1, 1, 1), -0.4)),
            (Monomial((0, 3, 0), 0.2),),
            (Monomial((0, 1, 2), 1.1), Monomial((2, 1, 0), 0.6)),
        )
    )
    for _ in range(10):
        z = rng.uniform(-2.0, 2.0, size=3)
        _, grad = eval_nonlinearity(g, z)
        h = 1e-5
        for j in range(3):
            zp, zm = z.copy(), z.copy()
            zp[j] += h
            zm[j] -= h
            vp, _ = eval_nonlinearity(g, zp)
            vm, _ = eval_nonlinearity(g, zm)
            fd = (vp - vm) / (2 * h)
            scale = np.maximum(np.abs(grad[:, j]), 1.0)
            assert np.all(np.abs(grad[:, j] - fd) <= 1e-6 * scale)


def test_coupling_multilinear_in_coefficients():
    g1 = Nonlinearity(((Monomial((2, 0), 0.3),), ()))
    g2 = Nonlinearity(((Monomial((2, 0), 0.5),), ()))
    gsum = Nonlinearity(((Monomial((2, 0), 0.8),), ()))
    z = np.array([1.7, -0.3])
    v1, _ = eval_nonlinearity(g1, z)
    v2, _ = eval_nonlinearity(g2, z)
    vs, _ = eval_nonlinearity(gsum, z)
    assert vs[0] == pytest.approx(v1[0] + v2[0], rel=1e-14)


def test_field_evaluation_matches_pointwise(demo, rng):
    g = demo.nonlinearity
    z1 = rng.standard_normal((4, 4, 4))
    z2 = rng.standard_normal((4, 4, 4))
    fields = g.eval_components([z1, z2])
    for i in np.ndindex(4, 4, 4):
        value, _ = eval_nonlinearity(g, [z1[i], z2[i]])
        assert fields[0][i] == pytest.approx(value[0], rel=1e-13, abs=1e-15)
        assert fields[1][i] == pytest.approx(value[1], rel=1e-13, abs=1e-15)


def test_stacked_evaluation_matches_monomial_by_monomial(rng):
    g = Nonlinearity(
        (
            (Monomial((3, 0), 0.7), Monomial((1, 2), -0.4), Monomial((0, 2), 1.1)),
            (Monomial((1, 1), 0.5), Monomial((2, 1), 0.3), Monomial((0, 3), -0.9)),
        )
    )
    z = rng.standard_normal((2, 6, 6, 6))
    ref = np.zeros_like(z)
    for m, comp in enumerate(g.components):
        for mono in comp:
            ref[m] += mono.coeff * z[0] ** mono.powers[0] * z[1] ** mono.powers[1]
    stacked = g.eval_components(z)
    assert stacked.shape == z.shape
    assert np.max(np.abs(stacked - ref)) <= 1e-15 * np.max(np.abs(ref))
    assert np.array_equal(g.eval_components(list(z)), stacked)


def test_evaluation_is_bitwise_the_coefficient_times_power_product(rng):
    monomials = [((2, 0), 0.5), ((1, 1), -0.3), ((1, 2), 1.7), ((3, 0), 0.9), ((0, 2), 0.4), ((2, 3), -1.1)]
    g = Nonlinearity((tuple(Monomial(p, c) for p, c in monomials), (Monomial((1, 1), 2.5),)))
    z = 3.0 * rng.standard_normal((2, 6, 6, 6))
    ref = np.zeros_like(z)
    term = np.empty(z.shape[1:])
    for acc, comp in zip(ref, g.components):
        for mono in comp:
            term.fill(mono.coeff)
            for zi, power in zip(z, mono.powers):
                if power:
                    term *= zi**power
            acc += term
    assert np.array_equal(g.eval_components(z), ref)


def test_component_evaluation_is_bitwise_the_stacked_one(rng):
    # a later factor of power 2 or more, a one-monomial and an empty component
    monomials = [((2, 0, 1), 0.5), ((1, 1, 0), -0.3), ((1, 2, 0), 1.7), ((0, 2, 3), -1.1)]
    g = Nonlinearity(
        (tuple(Monomial(p, c) for p, c in monomials), (Monomial((1, 0, 1), 2.5),), ())
    )
    z = 3.0 * rng.standard_normal((3, 6, 6, 6))
    z[:, 0, 0, 0] = -0.0
    stacked = g.eval_components(z)
    for m in range(g.n_components):
        single = g.eval_component(z, m)
        assert single.shape == z.shape[1:]
        # the same bits, signs of zero included
        assert np.array_equal(single.view(np.uint64), stacked[m].view(np.uint64))
        assert np.array_equal(g.eval_component(list(z), m).view(np.uint64), stacked[m].view(np.uint64))


def test_coupling_difference_merges_like_terms(demo):
    g = demo.nonlinearity
    diff = g.scaled(1.1) - g
    for comp_d, comp_g in zip(diff.components, g.components):
        assert len(comp_d) == len(comp_g)
        for mono_d in comp_d:
            base = next(m for m in comp_g if m.powers == mono_d.powers)
            assert mono_d.coeff == pytest.approx(0.1 * base.coeff, rel=1e-12)
    cancel = g - g
    assert cancel.is_trivial


def test_eval_rejects_nonfinite_point(demo):
    with pytest.raises(ValueError, match="finite"):
        eval_nonlinearity(demo.nonlinearity, [np.nan, 0.0])


# --- bundled-problem integrability checks ---------------------------------------


def test_demo_fields_satisfy_integrability(demo32):
    for m in range(demo32.n_components):
        s1 = demo32.orders.s1[m]
        kernel = realize_gaussian_sum(demo32.kernels[m], demo32.grid)
        for field in (realize_gaussian_sum(demo32.influxes[m], demo32.grid), kernel):
            rep = field_norms(field)
            assert np.isfinite(rep.l1) and rep.l1 > 0
            pm = demo32.grid.wavenumbers
            filtered = Spectrum(demo32.grid, pm ** (2.0 * (1.0 - s1)) * forward_transform(field).coefficients)
            assert np.isfinite(spectrum_l2(filtered))
