"""Runtime mirror of the static R2 invariant: the kernel surface is sealed.

:class:`PolynomialBackend` has 46 public kernels in two kinds.  The 27
``PRIMITIVES`` are what a backend implements, once each; the 19
``DERIVED`` names are one-expression conveniences defined in ``base.py``
over the primitives and overridden nowhere.  A backend that overrode a
derived name, or a derived name that re-derived itself through another
derived name, would bring back the hazard the old wrap-everything rule
policed (``decompose`` escaped the counters for five PRs that way).
``repro.lint``'s R2 rule checks the split on the AST; these tests check
it at runtime, and check that every derived name still computes what
its own implementations used to -- against big-int arithmetic, on both
backends, through the counting wrapper included.
"""

import ast
import inspect
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.backend import CountingBackend, create_backend
from repro.ckks.backend.base import DERIVED, PRIMITIVES, PolynomialBackend
from repro.ckks.backend.numpy_backend import NumpyBackend
from repro.ckks.backend.reference import ReferenceBackend
from repro.ckks.ntt import NTTTables, bit_reverse
from repro.ckks.primes import make_modulus_chain

SHIPPED = (ReferenceBackend, NumpyBackend, CountingBackend)

#: Public helpers an implementation may add beyond the kernels.
EXTRAS = {"reset", "supports"}


def _public_kernels(cls):
    """Public instance-method names declared anywhere on ``cls``."""
    names = set()
    for name, member in inspect.getmembers(cls):
        if name.startswith("_"):
            continue
        if isinstance(inspect.getattr_static(cls, name), (property, staticmethod, classmethod)):
            continue
        if inspect.isfunction(member):
            names.add(name)
    return names


def _own_methods(cls):
    """Public instance methods ``cls`` defines in its *own* body."""
    return {
        name
        for name, member in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(member)
    }


def test_kernel_surface_is_sealed():
    primitives, derived = set(PRIMITIVES), set(DERIVED)
    assert (len(PRIMITIVES), len(DERIVED)) == (27, 19)
    assert not primitives & derived
    assert primitives | derived == _public_kernels(PolynomialBackend)
    # abc refuses a backend that forgets a primitive; the only concrete
    # ones are the wire kernels, whose bytes no representation changes
    wire = {"pack_rows", "unpack_rows", "pack_rows_bits", "unpack_rows_bits"}
    assert PolynomialBackend.__abstractmethods__ == primitives - wire
    for backend in SHIPPED:
        own = _own_methods(backend) - EXTRAS
        assert not own & derived, f"{backend.__name__} overrides {own & derived}"
        assert own <= primitives, f"{backend.__name__} adds {own - primitives}"
        assert primitives - own <= wire, f"{backend.__name__} lacks {primitives - own}"
    # the instrument wraps all 27: an inherited wire kernel would lift
    # into the wrapper, not into the inner backend's native form
    assert _own_methods(CountingBackend) - EXTRAS == primitives


def test_derived_names_are_one_expression_over_primitives():
    """Defined in ``base.py`` only, a single ``return``, and every public
    ``self.<kernel>`` it reaches is a primitive -- so counts and residency
    notes flow through the counted primitives by construction."""
    for name in DERIVED:
        fn = vars(PolynomialBackend)[name]
        (func,) = ast.parse(textwrap.dedent(inspect.getsource(fn))).body
        assert len(func.body) == 1 and isinstance(func.body[0], ast.Return), name
        reached = {
            node.attr
            for node in ast.walk(func)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and not node.attr.startswith("_")
        }
        assert reached and reached <= set(PRIMITIVES), (name, reached)


def test_counting_backend_adds_no_unknown_kernels():
    base = _public_kernels(PolynomialBackend)
    extra = sorted(_own_methods(CountingBackend) - base - {"reset"})
    assert not extra, (
        "CountingBackend defines public methods outside the "
        "PolynomialBackend kernel surface: %s" % extra
    )


def _shape(fn):
    """Parameter names, kinds and which carry a default, annotations
    ignored -- the same comparison R2 performs on the AST (overrides may
    tighten type annotations, but not rename, reorder or default
    parameters)."""
    return tuple(
        (p.name, p.kind, p.default is not p.empty)
        for p in inspect.signature(fn).parameters.values()
    )


def test_backend_signatures_match_base():
    """Every override in every backend must keep the base parameter
    shape -- positional drift would break call sites that treat
    backends as interchangeable."""
    base_shapes = {
        name: _shape(inspect.getattr_static(PolynomialBackend, name))
        for name in _public_kernels(PolynomialBackend)
    }
    for backend in SHIPPED:
        for name, fn in vars(backend).items():
            if name.startswith("_") or not inspect.isfunction(fn):
                continue
            if name not in base_shapes:
                continue
            got = _shape(fn)
            assert got == base_shapes[name], (
                "%s.%s parameters %s drifted from base %s"
                % (backend.__name__, name, got, base_shapes[name])
            )


# ----------------------------------------------------------------------
# the 19 derived names against big-int arithmetic
# ----------------------------------------------------------------------
N = 16
#: a Shoup-regime prime, a float-regime prime, and one past the numpy
#: envelope (every kernel takes the reference fallback)
MODULI = [make_modulus_chain(N, [bits], 64)[0] for bits in (30, 50, 61)]
BACKEND_NAMES = ("reference", "numpy")


def _is_canonical(row):
    return type(row) is list and all(type(v) is int for v in row)


def _rows(data, p, count):
    """``count`` reduced rows plus the form a derived kernel receives
    them in: canonical lists or uint64 arrays, drawn per row."""
    rows = [
        data.draw(st.lists(st.integers(0, p - 1), min_size=N, max_size=N))
        for _ in range(count)
    ]
    given_as = [
        np.array(r, dtype=np.uint64) if data.draw(st.booleans()) else list(r)
        for r in rows
    ]
    return rows, given_as


@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
@pytest.mark.parametrize("modulus", MODULI, ids=["30bit", "50bit", "61bit"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_derived_row_kernels_match_bigint_arithmetic(backend_name, modulus, data):
    be = create_backend(backend_name)
    p = modulus.value
    (a, b, acc), (ga, gb, gacc) = _rows(data, p, 3)
    s = data.draw(st.integers(0, p - 1))
    want = {
        "add": [(x + y) % p for x, y in zip(a, b)],
        "sub": [(x - y) % p for x, y in zip(a, b)],
        "negate": [-x % p for x in a],
        "dyadic_mul": [x * y % p for x, y in zip(a, b)],
        "dyadic_mac": [(z + x * y) % p for z, x, y in zip(acc, a, b)],
        "scalar_mul": [x * s % p for x in a],
        "scalar_mac": [(z + x * s) % p for z, x in zip(acc, a)],
    }
    got = {
        "add": be.add(modulus, ga, gb),
        "sub": be.sub(modulus, ga, gb),
        "negate": be.negate(modulus, ga),
        "dyadic_mul": be.dyadic_mul(modulus, ga, gb),
        "dyadic_mac": be.dyadic_mac(modulus, gacc, ga, gb),
        "scalar_mul": be.scalar_mul(modulus, ga, s),
        "scalar_mac": be.scalar_mac(modulus, gacc, ga, s),
    }
    for name in want:
        assert got[name] == want[name], name
        assert _is_canonical(got[name]), name

    # the transform at slot i evaluates the polynomial at psi^(2 brv(i) + 1)
    tables = NTTTables(N, modulus)
    bits = N.bit_length() - 1
    spectrum = [
        sum(c * pow(tables.psi, (2 * bit_reverse(i, bits) + 1) * j, p) for j, c in enumerate(a)) % p
        for i in range(N)
    ]
    forward = be.ntt_forward(tables, ga)
    assert forward == spectrum and _is_canonical(forward)
    inverse = be.ntt_inverse(tables, forward)
    assert inverse == a and _is_canonical(inverse)


@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_derived_base_conversion_takes_signed_and_multiword_integers(backend_name, data):
    """Encoder output at large scales: ``reduce_mod`` / ``decompose`` are
    derived from ``decompose_native``, not from ``reduce_mod_stack``."""
    be = create_backend(backend_name)
    bound = data.draw(st.sampled_from([1 << 20, 1 << 62, 1 << 64, 1 << 130]))
    coeffs = data.draw(st.lists(st.integers(-bound, bound), min_size=N, max_size=N))
    for form in (coeffs, tuple(coeffs)):
        rows = be.decompose(MODULI, form)
        assert rows == [[c % m.value for c in coeffs] for m in MODULI]
        assert all(_is_canonical(row) for row in rows)
        for m in MODULI:
            row = be.reduce_mod(m, form)
            assert row == [c % m.value for c in coeffs] and _is_canonical(row)
    if bound <= 1 << 62:  # an integer ndarray is a coefficient vector too
        assert be.decompose(MODULI, np.array(coeffs, dtype=np.int64)) == rows


@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
@pytest.mark.parametrize("modulus", MODULI, ids=["30bit", "50bit", "61bit"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_derived_stack_and_handle_kernels_match_bigint_arithmetic(backend_name, modulus, data):
    be = create_backend(backend_name)
    p = modulus.value
    count = data.draw(st.integers(1, 3))
    rows, given_as = _rows(data, p, 3 * count)
    a, b, acc = (rows[i * count : (i + 1) * count] for i in range(3))
    ga, gb, gacc = (given_as[i * count : (i + 1) * count] for i in range(3))
    lower = be.to_rows

    assert lower(be.add_stack(modulus, ga, gb)) == [
        [(x + y) % p for x, y in zip(r, t)] for r, t in zip(a, b)
    ]
    assert lower(be.negate_stack(modulus, ga)) == [[-x % p for x in r] for r in a]
    assert lower(be.dyadic_mul_stack(modulus, ga, gb)) == [
        [x * y % p for x, y in zip(r, t)] for r, t in zip(a, b)
    ]
    assert lower(be.dyadic_mac_stack(modulus, gacc, ga, gb)) == [
        [(z + x * y) % p for z, x, y in zip(u, r, t)] for u, r, t in zip(acc, a, b)
    ]
    # a second operand of one row serves every row of the stack
    assert lower(be.add_stack(modulus, ga, gb[0])) == [
        [(x + y) % p for x, y in zip(r, b[0])] for r in a
    ]
    assert lower(be.dyadic_mac_stack(modulus, gacc, ga, gb[0])) == [
        [(z + x * y) % p for z, x, y in zip(u, r, b[0])] for u, r in zip(acc, a)
    ]

    g = data.draw(st.sampled_from([3, 5, 2 * N - 1]))
    mapping = [(i * g % (2 * N) % N, i * g % (2 * N) >= N) for i in range(N)]
    permuted = []
    for r in a:
        out = [0] * N
        for i, (dest, flip) in enumerate(mapping):
            out[dest] = -r[i] % p if flip else r[i]
        permuted.append(out)
    assert lower(be.apply_galois_stack(modulus, ga, mapping)) == permuted

    assert lower(be.make_rows(count, N)) == [[0] * N] * count
    handle = be.from_rows(a)
    index = data.draw(st.integers(0, count))
    assert list(be.get_row(handle, count - 1)) == a[-1]
    assert lower(be.insert_row(handle, index, gb[0])) == a[:index] + [b[0]] + a[index:]
    assert lower(handle) == a  # neither touched the handle


@pytest.mark.parametrize("inner", BACKEND_NAMES)
def test_counting_charges_derived_names_through_the_primitives(inner):
    """What the deleted per-row wrappers charged: the kernel's rows, and
    on an array backend one lift per list operand plus one lower for the
    canonical result; a list-native backend converts nothing."""
    be = CountingBackend(inner)
    plain = create_backend(inner)
    modulus = MODULI[0]
    tables = NTTTables(N, modulus)
    a = [(7 * i + 1) % modulus.value for i in range(N)]
    b = [(11 * i + 3) % modulus.value for i in range(N)]
    array = inner == "numpy"

    def charged(call, lifted, **counts):
        be.reset()
        assert call(be) == call(plain)
        for key, rows in counts.items():
            assert be.counts[key] == rows, (key, dict(be.counts))
        assert be.counts["lift_rows"] == (lifted if array else 0), dict(be.counts)
        assert be.counts["lower_rows"] == (1 if array else 0), dict(be.counts)

    charged(lambda k: k.ntt_forward(tables, a), 1, ntt_forward=1, ntt_inverse=0)
    charged(lambda k: k.ntt_inverse(tables, a), 1, ntt_inverse=1)
    charged(lambda k: k.add(modulus, a, b), 2)
    charged(lambda k: k.negate(modulus, a), 1)
    charged(lambda k: k.dyadic_mul(modulus, a, b), 2, dyadic_mul=1)
    charged(lambda k: k.dyadic_mac(modulus, a, a, b), 3, dyadic_mac=1)
    charged(lambda k: k.scalar_mul(modulus, a, 5), 1)
    charged(lambda k: k.scalar_mac(modulus, b, a, 5), 2)

    # the stack twins count in rows, as the *_rows kernels they run on
    be.reset()
    stack = be.from_rows([a, b, a])
    be.dyadic_mul_stack(modulus, stack, stack)
    be.apply_galois_stack(modulus, stack, [(i, False) for i in range(N)])
    assert be.counts["dyadic_mul"] == 3 and be.counts["galois_permute"] == 3
