"""Scalar arithmetic over the rationals and prime fields."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from entwiner.fields import QQ, FieldError, PrimeField, Rationals, field_from_tag
from entwiner.linalg import LinearMap, space
from entwiner.serial import document, emit

F7 = PrimeField(7)


def test_rational_parse_render_roundtrip():
    for s in ("0", "7", "-3", "1/2", "-3/2", "22/7"):
        assert QQ.render(QQ.parse(s)) == s


def test_rational_parse_normalizes():
    assert QQ.parse("4/2") == 2
    assert isinstance(QQ.parse("4/2"), int)
    assert QQ.render(Fraction(6, 3)) == "2"
    assert QQ.parse("-6/4") == Fraction(-3, 2)


def test_render_gives_every_digit_of_a_value_beyond_the_digit_limit_of_str():
    # 10**5000 + 7 has 5,001 digits, more than `str` of an int converts by default
    n = 10**5000 + 7
    digits = "1" + "0" * 4997 + "007"
    assert QQ.render(n) == digits and QQ.render(-n) == "-" + digits
    assert QQ.render(Fraction(n, 3)) == digits + "/3"
    assert QQ.render(Fraction(-3, n)) == "-3/" + digits
    assert F7.render(n) == F7.render(F7.from_int(n)) == str((10**5000 + 7) % 7)


def test_rational_parse_rejects_garbage():
    for s in ("", "x", "1.5", "1/0", "1/2/3", "--1"):
        with pytest.raises(FieldError):
            QQ.parse(s)


def test_rational_div():
    assert QQ.div(1, 3) == Fraction(1, 3)
    assert QQ.div(Fraction(1, 2), Fraction(1, 2)) == 1
    with pytest.raises(ZeroDivisionError):
        QQ.div(1, 0)


def test_prime_field_wraps():
    assert F7.from_int(10) == F7.from_int(3)
    assert F7.from_int(-1) == F7.from_int(6)
    assert int(F7.from_int(3) + F7.from_int(5)) == 1
    assert int(F7.from_int(3) * F7.from_int(5)) == 1
    assert int(-F7.from_int(3)) == 4
    assert not F7.from_int(7)


def test_prime_field_parse():
    assert F7.parse("1/2") == F7.from_int(4)
    assert F7.parse("-1") == F7.from_int(6)
    assert F7.render(F7.parse("-1")) == "6"
    with pytest.raises(FieldError):
        F7.parse("1/7")
    with pytest.raises(FieldError):
        F7.parse("2.5")


@pytest.mark.parametrize("field", (QQ, F7), ids=("q", "fp7"))
@pytest.mark.parametrize("form", ("{}", "-{}", "1/{}", "{}/3"))
def test_parse_refuses_more_digits_than_int_converts(field, form):
    # 4,301 digits is one past the default limit of `int` on a string
    s = form.format("1" * 4301)
    with pytest.raises(FieldError, match=f"scalar string of {len(s)} characters has too many digits"):
        field.parse(s)
    assert field.parse(form.format("1" * 100)) is not None


PARSE_EDGES = (" 1", "+1", "01", "-0", "1/1", "1_0", "", "1/0", "10", "-10", "9 ", "1/-1")


def regex_only(field):
    """A copy of the field that parses through the regex alone, with no table."""
    plain = Rationals() if field == QQ else PrimeField(field.p)
    plain._small = {}
    return plain


@pytest.mark.parametrize("field", (QQ, F7), ids=("q", "fp7"))
def test_parse_table_gives_what_the_regex_gives(field):
    slow = regex_only(field)
    table = tuple(str(n) for n in range(-9, 10))
    assert set(field._small) == set(table)
    for s in table + PARSE_EDGES:
        try:
            want = slow.parse(s)
        except FieldError:
            with pytest.raises(FieldError):
                field.parse(s)
            continue
        got = field.parse(s)
        assert (got, type(got)) == (want, type(want)), s
    assert [field.parse(s) for s in ("-9", "0", "9")] == [field.from_int(n) for n in (-9, 0, 9)]
    assert type(QQ.parse("-0")) is int and type(F7.parse("7")) is F7.elem


def test_prime_field_div():
    a, b = F7.from_int(6), F7.from_int(2)
    assert F7.div(a, b) == F7.from_int(3)
    with pytest.raises(ZeroDivisionError):
        F7.div(a, F7.zero)


def test_prime_field_requires_prime():
    for n in (0, 1, 4, 6, 9):
        with pytest.raises(FieldError):
            PrimeField(n)


def test_field_from_tag():
    assert field_from_tag("q") is QQ
    assert field_from_tag(" Q ") == QQ
    assert field_from_tag("fp:7") == PrimeField(7)
    assert field_from_tag("fp:7").tag == "fp:7"
    assert field_from_tag("fp:2147483647").p == 2**31 - 1
    for tag in ("r", "fp:", "fp:x", "fp:6", "", "fp:2147483659", "fp:1000000000000000003"):
        with pytest.raises(FieldError):
            field_from_tag(tag)


def test_field_equality_and_hash():
    assert QQ == field_from_tag("q")
    assert PrimeField(7) == PrimeField(7)
    assert PrimeField(7) != PrimeField(5)
    assert QQ != PrimeField(7)
    assert hash(PrimeField(7)) == hash(PrimeField(7))


small_ints = st.integers(min_value=-20, max_value=20)


@given(small_ints, small_ints, small_ints)
def test_prime_field_ring_laws(x, y, z):
    a, b, c = F7.from_int(x), F7.from_int(y), F7.from_int(z)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == F7.zero
    assert a * F7.one == a


@given(small_ints, small_ints)
def test_prime_field_division_inverts(x, y):
    a, b = F7.from_int(x), F7.from_int(y)
    if b:
        assert F7.div(a * b, b) == a


@given(st.fractions(min_value=-9, max_value=9, max_denominator=12))
def test_rational_render_is_fraction_string(x):
    s = QQ.render(x)
    assert "." not in s
    assert QQ.parse(s) == x


F5 = PrimeField(5)
V = space("v0", "v1")


def in_f7(x):
    return isinstance(x, F7.elem) and 0 <= int(x) < 7


@given(small_ints, small_ints, st.integers(min_value=0, max_value=12))
def test_prime_field_ops_stay_in_the_field(x, y, e):
    a = F7.from_int(x)
    for got, want in (
        (a + y, x + y),
        (y + a, x + y),
        (a - y, x - y),
        (y - a, y - x),
        (a * y, x * y),
        (y * a, x * y),
        (a * F7.from_int(y), x * y),
        (-a, -x),
        (a**e, x**e),
    ):
        assert in_f7(got)
        assert int(got) == want % 7


@given(small_ints, st.sampled_from((Fraction(1, 2), 2.5, F5.from_int(4), True, "3")))
def test_prime_field_refuses_foreign_operands(x, other):
    a = F7.from_int(x)
    for op in (
        lambda: a + other,
        lambda: a - other,
        lambda: a * other,
        lambda: a**other,
    ):
        with pytest.raises(FieldError):
            op()
    with pytest.raises(FieldError):
        F5.from_int(x) + a
    # nor does one get into a product kernel, a rendered residue, a division,
    # an element or a map
    f = LinearMap(F7, V, V, ((F7.one, F7.zero), (F7.zero, F7.one)))
    for op in (
        lambda: F7.plain(other),
        lambda: f.apply((other, a)),
        lambda: F7.render(other),
        lambda: F7.div(other, a),
        lambda: F7.div(a, other),
        lambda: F7.div(F7.one, other),
        lambda: F7.from_int(other),
        lambda: LinearMap(F7, V, V, ((a, F7.zero), (other, F7.one))),
        lambda: LinearMap(F7, V, V, ((x, 0), (0, other))),
    ):
        with pytest.raises(FieldError):
            op()


@pytest.mark.parametrize("other", (2.5, True, F7.from_int(3)), ids=("float", "bool", "f7"))
def test_a_map_over_q_refuses_a_foreign_entry(other):
    # the same rule as over F_p: an entry whose type is not in QQ.types is
    # refused when the map is built, so no residual can report it
    V = space("v0", "v1")
    assert type(other) not in QQ.types
    for rows in (((other, 0), (0, 1)), ((1, 0), (0, other))):
        with pytest.raises(FieldError, match="a map over Q"):
            LinearMap(QQ, V, V, rows)
    assert LinearMap(QQ, V, V, ((Fraction(1, 2), 0), (0, Fraction(4, 2)))).apply((2, 1)) == (1, 2)


@pytest.mark.parametrize(
    "op",
    (
        lambda: QQ.div(2.5, 1),
        lambda: QQ.div(1, 2.5),
        lambda: QQ.div(F7.from_int(3), 2),
        lambda: QQ.div(2, F7.from_int(3)),
        lambda: QQ.from_int(True),
        lambda: QQ.from_int(2.0),
        lambda: QQ.render(2.5),
        lambda: QQ.render(F7.from_int(3)),
        lambda: LinearMap(QQ, V, V, ((1, 0), (0, 1))).apply((2.5, True)),
        lambda: LinearMap(QQ, V, V, ((1, 0), (0, 1))).apply((1, F7.from_int(3))),
    ),
    ids=(
        "div-float-num",
        "div-float-den",
        "div-f7-num",
        "div-f7-den",
        "from_int-bool",
        "from_int-float",
        "render-float",
        "render-f7",
        "apply-float-bool",
        "apply-f7",
    ),
)
def test_q_refuses_a_foreign_scalar_outside_map_construction(op):
    # each of these used to give a value: Fraction(5, 2), Fraction(3, 2), True,
    # '2.5', (2.5, 1), ...
    with pytest.raises(FieldError):
        op()


def test_q_scalar_methods_still_take_ints_and_fractions():
    assert QQ.div(Fraction(5, 2), 1) == Fraction(5, 2)
    assert QQ.div(3, 6) == Fraction(1, 2) and QQ.div(4, 2) == 2
    assert QQ.from_int(-3) == -3
    assert QQ.render(Fraction(-3, 2)) == "-3/2" and QQ.render(Fraction(4, 2)) == "2"
    with pytest.raises(ZeroDivisionError):
        QQ.div(1, Fraction(0))
    f = LinearMap(QQ, V, V, ((1, 0), (0, 1)))
    assert f.apply((Fraction(1, 2), 3)) == (Fraction(1, 2), 3)
    # over F_7 apply refuses by the same rule, with the same message
    with pytest.raises(FieldError, match="a map over F7 cannot take float 2.5"):
        LinearMap(F7, V, V, ((1, 0), (0, 1))).apply((2.5, 1))


@pytest.mark.parametrize("other", (Fraction(1, 2), 2.5, True), ids=("fraction", "float", "bool"))
def test_structure_files_refuse_a_foreign_scalar_in_an_f_p_map(other):
    # the map is refused when it is built, so no file can hold it as some residue
    sf = document(F7)
    sf.add("V", V)
    with pytest.raises(FieldError):
        sf.add("f", LinearMap(F7, V, V, ((other, 0), (0, 1))))
    assert '"f"' not in emit(sf)


@given(small_ints, small_ints)
def test_prime_field_division_operators_point_to_div(x, y):
    a = F7.from_int(x)
    for op in (
        lambda: a / y,
        lambda: y / a,
        lambda: a // y,
        lambda: y // a,
        lambda: a % y,
        lambda: y % a,
        lambda: a / a,
        lambda: divmod(a, y),
    ):
        with pytest.raises(FieldError, match=r"field\.div"):
            op()


def test_prime_field_negative_power_inverts():
    assert F7.from_int(3) ** -1 == F7.div(F7.one, F7.from_int(3))
    with pytest.raises(ZeroDivisionError):
        F7.zero**-1


@given(st.lists(st.integers(min_value=-60, max_value=60), max_size=6))
def test_kernel_scalars_are_plain_and_reduced_once(xs):
    # F_7 elements enter the kernels as ints in [0, 7), a kernel column is
    # reduced once with its zeros dropped, and elem makes elements again
    col = dict(enumerate(xs))
    out = F7.nonzero(col)
    assert out == {k: x % 7 for k, x in col.items() if x % 7}
    assert all(type(x) is int for x in out.values())
    assert QQ.nonzero(col) == {k: x for k, x in col.items() if x}
    for x in xs:
        a = F7.from_int(x)
        assert type(F7.plain(a)) is int and F7.plain(a) == F7.plain(x) == x % 7
        assert type(F7.elem(x)) is F7.elem and F7.elem(x) == a
        assert F7.render(x) == F7.render(a) == str(x % 7)
        assert QQ.plain(x) == QQ.elem(x) == x
