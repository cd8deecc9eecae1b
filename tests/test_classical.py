"""Classical hypergeometric families as a verdict oracle independent of the theorem.

Each family states its configuration A, derives its map from the classical
parameters to beta from the operators alone, and checks the verdict of
classify against the classical irreducibility criterion on seeded
parameters, integer boundary cases included.

The conventions are the package's: the Euler operators are
sum_j a_ij x_j dx_j - beta_i (shift -beta_i), and the toric operators are
the binomials dx^u+ - dx^u- of the kernel vectors u = u+ - u-.  A
solution is a Gamma series (Gelfand, Kapranov and Zelevinsky 1990)

    Phi = sum_k x^(gamma + k u) / prod_j Gamma(gamma_j + k u_j + 1),

with A gamma = beta, so that every term has A-degree beta.  Choosing
gamma_j = 0 for one j with u_j = 1 starts the series at k = 0, and the
ratio of consecutive coefficients identifies the classical function and
its parameters.  The Gauss criterion is the case n = 2, alpha = (a, b),
beta = (1, c) of Beukers and Heckman, "Monodromy for the hypergeometric
function nFn-1" (Invent. Math. 1989), which is also checked for n = 3, 4;
the Kummer criterion is the classical one for z f'' + (c - z) f' - a f = 0.
"""

import random
from fractions import Fraction

import pytest

from gkzmono import IRREDUCIBLE, REDUCIBLE, GaussRat, IntMatrix, classify

DENOMINATORS = (2, 3, 4, 5, 7)


def rational(rng):
    """A rational that is not an integer."""
    q = rng.choice(DENOMINATORS)
    return Fraction(rng.randint(-6, 6) * q + rng.randint(1, q - 1), q)


def parameter(rng):
    """A Gaussian rational that is not an integer; one in four is not real."""
    return GaussRat(rational(rng), rational(rng) if rng.random() < 0.25 else 0)


def integer(rng):
    return GaussRat(rng.randint(-6, 6))


def gauss_beta(a, b, c):
    """beta for 2F1(a, b; c; z) on A = [[1,1,1,1],[0,1,0,1],[0,0,1,1]].

    The kernel is spanned by u = (1, -1, -1, 1): the toric operator is
    dx_1 dx_4 - dx_2 dx_3, and z = x_1 x_4 / (x_2 x_3) has A-degree 0.
    With gamma_4 = 0, A gamma = beta gives gamma_2 = beta_2,
    gamma_3 = beta_3 and gamma_1 = beta_1 - beta_2 - beta_3.  From
    1/Gamma(g - k + 1) = (-1)^k (-g)_k / Gamma(g + 1) and
    1/Gamma(g + k + 1) = 1 / (Gamma(g + 1) (g + 1)_k), the k-th
    coefficient is a constant times (-gamma_2)_k (-gamma_3)_k /
    ((gamma_1 + 1)_k k!), so

        Phi = x^gamma 2F1(-gamma_2, -gamma_3; gamma_1 + 1; z).

    Hence a = -beta_2, b = -beta_3, c = beta_1 - beta_2 - beta_3 + 1, that
    is beta = (c - 1 - a - b, -a, -b).
    """
    return [c - GaussRat(1) - a - b, -a, -b]


def kummer_beta(a, c):
    """beta for 1F1(a; c; z) on A = [[1,0,1],[0,1,1]].

    The kernel is spanned by u = (1, 1, -1): the toric operator is
    dx_1 dx_2 - dx_3, and z = x_1 x_2 / x_3 has A-degree 0.  With
    gamma_1 = 0, A gamma = beta gives gamma_3 = beta_1 and
    gamma_2 = beta_2 - beta_1.  The k-th coefficient is a constant times
    (-1)^k (-gamma_3)_k / ((gamma_2 + 1)_k k!), so

        Phi = x^gamma 1F1(-gamma_3; gamma_2 + 1; -z).

    Hence a = -beta_1, c = beta_2 - beta_1 + 1, that is
    beta = (-a, c - 1 - a).
    """
    return [-a, c - GaussRat(1) - a]


def circuit(n):
    """A_n = [I_(2n-1) | v] with v = (1^n, -1^(n-1)), the configuration of nFn-1.

    Its kernel is spanned by u = (1^n, -1^n), the entries of every column
    sum to 1 (so A_n is homogeneous), and its normalized volume is n.  The
    product of simplices Delta_(n-1) x Delta_1 is not it for n >= 3: its
    kernel has rank n - 1 (Appell F1 for n = 3).
    """
    v = [1] * n + [-1] * (n - 1)
    return IntMatrix([[int(i == j) for j in range(2 * n - 1)] + [v[i]] for i in range(2 * n - 1)])


def nfn1_beta(alpha, b):
    """beta for nFn-1(alpha_1, ..., alpha_n; b_1, ..., b_(n-1); z) on circuit(n).

    With u = (1^n, -1^n) and gamma_n = 0, A gamma = beta gives
    gamma_2n = beta_n, gamma_j = beta_j - beta_n for j < n and
    gamma_(n+i) = beta_(n+i) + beta_n for i < n.  The columns with u_j = 1
    contribute 1 / ((gamma_j + 1)_k) (k! for j = n), those with u_j = -1
    contribute (-1)^k (-gamma_j)_k, so

        Phi = x^gamma nFn-1(-gamma_(n+1), ..., -gamma_2n;
                             gamma_1 + 1, ..., gamma_(n-1) + 1; (-1)^n z)

    with z = x^u.  Hence alpha_i = -gamma_(n+i), b_j = gamma_j + 1 and
    b_n = 1, that is beta = (b_1 - 1 - alpha_n, ..., b_(n-1) - 1 - alpha_n,
    -alpha_n, alpha_n - alpha_1, ..., alpha_n - alpha_(n-1)).
    """
    *head, last = alpha
    return [bj - GaussRat(1) - last for bj in b] + [-last] + [last - ai for ai in head]


def nfn1_cases(n, seed, count):
    """(alpha, b) with each kind of integer boundary, plus generic parameters.

    An integral alpha_i (alpha_i - b_n) or alpha_i - b_j makes the monodromy
    reducible; integral b_j, b_j - b_k or alpha_i - alpha_k do not.
    """
    rng = random.Random(seed)
    cases = []
    for k in range(count):
        alpha = [parameter(rng) for _ in range(n)]
        b = [parameter(rng) for _ in range(n - 1)]
        i, i2 = rng.sample(range(n), 2)
        j, j2 = rng.choice(range(n - 1)), rng.choice(range(n - 1))
        kind = k % 8
        if kind == 1:
            alpha[i] = integer(rng)
        elif kind == 2:
            b[j] = alpha[i] + integer(rng)
        elif kind == 3:
            b[j] = integer(rng)
        elif kind == 4:
            b[j] = b[j2] + integer(rng)
        elif kind == 5:
            alpha[i] = alpha[i2] + integer(rng)
        elif kind == 6:
            alpha[i], b[j] = integer(rng), alpha[i2] + integer(rng)
        elif kind == 7:
            b = [integer(rng) for _ in range(n - 1)]
        cases.append((alpha, b))
    return cases


def gauss_cases(seed, count):
    """(a, b, c) with each kind of integer boundary, plus generic triples.

    c and c - a - b integral are boundaries of the local exponents at 0
    and 1 that leave the monodromy irreducible.
    """
    rng = random.Random(seed)
    cases = []
    for k in range(count):
        a, b, c = parameter(rng), parameter(rng), parameter(rng)
        kind = k % 8
        if kind == 1:
            a = integer(rng)
        elif kind == 2:
            b = integer(rng)
        elif kind == 3:
            c = a + integer(rng)
        elif kind == 4:
            c = b + integer(rng)
        elif kind == 5:
            c = integer(rng)
        elif kind == 6:
            c = a + b + integer(rng)
        elif kind == 7:
            a, c = integer(rng), b + integer(rng)
        cases.append((a, b, c))
    return cases


def kummer_cases(seed, count):
    """(a, c) with a, c - a or c integral, plus generic pairs."""
    rng = random.Random(seed)
    cases = []
    for k in range(count):
        a, c = parameter(rng), parameter(rng)
        kind = k % 5
        if kind == 1:
            a = integer(rng)
        elif kind == 2:
            c = a + integer(rng)
        elif kind == 3:
            c = integer(rng)
        elif kind == 4:
            a, c = integer(rng), integer(rng)
        cases.append((a, c))
    return cases


def expected(*differences):
    """Irreducible iff none of the given parameters is an integer."""
    return REDUCIBLE if any(x.is_integer for x in differences) else IRREDUCIBLE


GAUSS = IntMatrix([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
KUMMER = IntMatrix([[1, 0, 1], [0, 1, 1]])


@pytest.mark.parametrize("seed", [2, 3])
def test_gauss_2f1(seed):
    """Irreducible iff none of a, b, c - a, c - b is an integer."""
    verdicts = []
    for a, b, c in gauss_cases(seed, 120):
        want = expected(a, b, c - a, c - b)
        assert classify(GAUSS, gauss_beta(a, b, c)).verdict == want, (a, b, c)
        verdicts.append(want)
    assert verdicts.count(IRREDUCIBLE) > 30 and verdicts.count(REDUCIBLE) > 30


@pytest.mark.parametrize("seed", [2, 3])
def test_kummer_1f1(seed):
    """Irreducible iff neither a nor c - a is an integer (the confluent case)."""
    verdicts = []
    for a, c in kummer_cases(seed, 120):
        want = expected(a, c - a)
        assert classify(KUMMER, kummer_beta(a, c)).verdict == want, (a, c)
        verdicts.append(want)
    assert verdicts.count(IRREDUCIBLE) > 30 and verdicts.count(REDUCIBLE) > 30


@pytest.mark.parametrize("n", [3, 4])
def test_nfn1(n):
    """Irreducible iff no alpha_i - b_j is an integer, with b_n = 1."""
    A = circuit(n)
    verdicts = []
    for alpha, b in nfn1_cases(n, n, 200):
        want = expected(*(ai - bj for ai in alpha for bj in [*b, GaussRat(1)]))
        result = classify(A, nfn1_beta(alpha, b))
        assert result.verdict == want, (alpha, b)
        assert result.generic_rank == n
        verdicts.append(want)
    assert verdicts.count(IRREDUCIBLE) > 50 and verdicts.count(REDUCIBLE) > 50
