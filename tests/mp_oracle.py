"""40-digit reference QFI values and states, independent of the library's
derivative and propagation routes.

Each model is written out again in mpmath: the Hamiltonian, its eigenbasis
(mpmath's eigensolver, ascending), the jump operators and rates of the
kind, and the column-stacking Liouvillian as a plain Kronecker sum.  The
state is `mp.expm(L t) vec(rho0)`; its b_z derivative is a central
difference at b_z +- 1e-15 (truncation ~1e-30, rounding ~1e-25 at 40
digits); the QFI is the spectral SLD sum over pairs with
lam_i + lam_j > 1e-25.  No finite-difference step of the library, no
Liouvillian derivative, no eigenframe split and no block exponential is
used.  At the long-time points (|L t| up to ~1e8) the states agree with a
100-digit run within 1e-36, so 40 digits are enough there too.  Past
t = 1e6 a point is computed with one more digit per decade of t (334
digits at t = 1e300), so that the rounding of L, amplified t-fold by the
exponential, stays below 1e-40; `mp.expm` adds its own guard bits for
its squarings.

The ground-state QFI of the two-spin Hamiltonian (figA1) is 2 Tr[(dP)^2]
of the ground projector P = |g><g| (mpmath's eigensolver, which fixes no
phase that P would see), dP a central difference at b_z +- 1e-15: no sum
over states and no eigenvector derivative.

Regenerate the QFI table (about 2 s per point, a minute for the long
times), the table of states (every entry of rho, real and imaginary
parts, at the long-time points) and the ground-state table (instant):

    python tests/mp_oracle.py > tests/data/oracle.csv
    python tests/mp_oracle.py --states > tests/data/oracle_states.csv
    python tests/mp_oracle.py --ground > tests/data/oracle_ground.csv

`tests/test_oracle.py` checks the library against the three tables.
"""

import csv
import sys

from mpmath import mp

mp.dps = 40
STEP = mp.mpf("1e-15")
SLD_EPS = mp.mpf("1e-25")
COLUMNS = ("kind", "b_z", "b_x", "eta", "dipole", "t_e", "t", "qfi")

# (kind, b_z, b_x, eta, dipole, t_e, t), as decimal strings

# fig5's two-spin-coop parameters at b_z = 1, long after the steady state:
# rows of both tables
LONG_TIMES = [("two-spin-coop", "1", "0.1", "0", "10", "0", t) for t in ("1000", "10000")]

POINTS = [
    # fig5 (two-spin-coop, b_x 0.1, dipole 10, t 1): the points whose golden
    # value the exact derivative moves by more than 5e-8
    *(("two-spin-coop", b_z, "0.1", "0", "10", "0", "1") for b_z in (
        "0.5", "0.585", "1.14", "1.145", "1.15", "1.16", "1.165",
        "1.17", "1.18", "1.215", "1.22", "1.225", "1.24", "1.25",
    )),
    # a bench field-sweep point (seed 9928) where the old stencil was 1e-6 off
    ("two-spin-coop", "1.2613426", "0.055063", "0", "10.094851", "0", "1.163839"),
    # ground level and singlet 2.7e-10 apart, uncoupled by the b_z derivative
    ("two-spin-coop", "0.5", "1e-5", "0", "10", "0", "1"),
    ("coop-thermal", "0.3", "0.1", "0", "2", "0.1", "1.5"),
    # the same, long after the steady state, and far past it, where
    # e^{-kappa t} (kappa = 1.35) underflows a float to 0
    ("coop-thermal", "0.3", "0.1", "0", "2", "0.1", "1e6"),
    ("coop-thermal", "0.3", "0.1", "0", "2", "0.1", "1e12"),
    ("coop-thermal", "0.3", "0.1", "0", "2", "0.1", "1e300"),
    ("coop-deph", "0.1", "0.1", "0.5", "0", "0", "2"),
    *LONG_TIMES,
    # two-spin total decay rates of levels 3 and 4 (0-based 2 and 3) that
    # nearly coincide, k2/k3 - 1 = -2.5e-7 and 1.5e-4 at k t ~ 0.83, and a
    # dipole so small that k2 t ~ 3e-8 and k3 t ~ 2e-4, the Taylor branch of
    # the closed-form populations
    *(("two-spin-coop", b_z, "0.22", "0", "1", "0", "0.05") for b_z in ("0.130026", "0.13")),
    ("two-spin-coop", "1", "0.1", "0", "1e-3", "0", "1"),
    # tiny two-spin fields, b_x = b_z / 2, b_z and 2 b_z: the smallest b_z
    # whose upper levels' gap (~4 b_z) passes the 1e-6 max|E| degeneracy
    # rule, and b_z = 1e-6
    *(("two-spin-coop", b_z, b_x, "0", "1", "0", "1") for b_z, b_x in (
        ("2.6e-7", "1.3e-7"), ("2.6e-7", "2.6e-7"), ("2.6e-7", "5.2e-7"),
        ("1e-6", "5e-7"), ("1e-6", "1e-6"), ("1e-6", "2e-6"),
    )),
    # ground level and singlet 2.7e-12 apart, which eigh mixes by ~6e-5
    ("two-spin-coop", "0.5", "1e-6", "0", "10", "0", "1"),
]

# figA1's ground-state QFI (b_x 0.1): the grid's ends, its peak at b_z = 1
# and points on either flank
GROUND_POINTS = [(b_z, "0.1") for b_z in ("0.5", "0.75", "0.95", "1", "1.05", "1.5")]


def kron(a, b):
    n, m = a.rows, b.rows
    out = mp.matrix(n * m, n * m)
    for i in range(n):
        for j in range(n):
            for k in range(m):
                for l in range(m):
                    out[i * m + k, j * m + l] = a[i, j] * b[k, l]
    return out


def dagger(a):
    return a.transpose_conj()


def conj(a):
    return dagger(a).T


def ket_bra(a, b):
    """|a><b| of two column vectors."""
    return a * dagger(b)


SZ = mp.matrix([[1, 0], [0, -1]])
SX = mp.matrix([[0, 1], [1, 0]])
I2 = mp.eye(2)


def hamiltonian(kind, b_z, b_x):
    if kind == "two-spin-coop":
        return kron(SZ, SZ) + b_z * (kron(SZ, I2) + kron(I2, SZ)) + b_x * (kron(SX, I2) + kron(I2, SX))
    return b_z * SZ + b_x * SX


def channels(kind, h, b_z, b_x, eta, dipole, t_e):
    """(rate, jump) of each dissipative channel."""
    values, vectors = mp.eighe(mp.matrix(h))
    v = [vectors[:, k] for k in range(h.rows)]
    if kind == "coop-deph":
        return [(eta / 2, h / mp.sqrt(b_z**2 + b_x**2))]
    if kind == "coop-thermal":
        omega = 2 * mp.sqrt(b_z**2 + b_x**2)
        gamma0 = 4 * omega**3 * dipole**2 / 3
        n = 0 if t_e == 0 else 1 / mp.expm1(omega / t_e)
        return [(gamma0 * (n + 1), ket_bra(v[0], v[1])), (gamma0 * n, ket_bra(v[1], v[0]))]
    if kind == "two-spin-coop":
        # decay |E_i> -> |E_j>, levels 1-based ascending, at rate 4 omega^3 |d|^2 / 3
        pairs = ((4, 3), (4, 2), (3, 2), (3, 1))
        return [
            (4 * (values[i - 1] - values[j - 1]) ** 3 * dipole**2 / 3, ket_bra(v[j - 1], v[i - 1]))
            for i, j in pairs
        ]
    raise ValueError(f"no oracle for kind {kind!r}")


def liouvillian(h, chans):
    """-i(I ⊗ H) + i(H^T ⊗ I) + sum r (conj(J) ⊗ J - (I ⊗ J†J)/2 - ((J†J)^T ⊗ I)/2)."""
    d = h.rows
    ident = mp.eye(d)
    gen = -1j * kron(ident, h) + 1j * kron(h.T, ident)
    for rate, jump in chans:
        jj = dagger(jump) * jump
        gen += rate * (kron(conj(jump), jump) - kron(ident, jj) / 2 - kron(jj.T, ident) / 2)
    return gen


def state(kind, b_z, b_x, eta, dipole, t_e, t):
    h = hamiltonian(kind, b_z, b_x)
    d = h.rows
    rho0 = mp.matrix(d, d)
    for i in (0, d - 1):
        for j in (0, d - 1):
            rho0[i, j] = mp.mpf(1) / 2
    v = mp.expm(liouvillian(h, channels(kind, h, b_z, b_x, eta, dipole, t_e)) * t) * mp.matrix(
        [rho0[i, j] for j in range(d) for i in range(d)]
    )
    return mp.matrix([[v[i + j * d] for j in range(d)] for i in range(d)])


def qfi(kind, b_z, b_x, eta, dipole, t_e, t):
    rho = state(kind, b_z, b_x, eta, dipole, t_e, t)
    hi = state(kind, b_z + STEP, b_x, eta, dipole, t_e, t)
    lo = state(kind, b_z - STEP, b_x, eta, dipole, t_e, t)
    drho = (hi - lo) / (2 * STEP)
    values, vectors = mp.eighe((rho + dagger(rho)) / 2)
    m = dagger(vectors) * ((drho + dagger(drho)) / 2) * vectors
    total = mp.mpf(0)
    for i in range(rho.rows):
        for j in range(rho.rows):
            if values[i] + values[j] > SLD_EPS:
                total += 2 * abs(m[i, j]) ** 2 / (values[i] + values[j])
    return total


def ground_projector(b_z, b_x):
    values, vectors = mp.eighe(hamiltonian("two-spin-coop", b_z, b_x))
    return ket_bra(vectors[:, 0], vectors[:, 0])


def ground_qfi(b_z, b_x):
    """2 Tr[(dP)^2] of the ground projector, the QFI of a pure state."""
    d_projector = (ground_projector(b_z + STEP, b_x) - ground_projector(b_z - STEP, b_x)) / (2 * STEP)
    square = d_projector * d_projector
    return 2 * mp.re(sum(square[k, k] for k in range(square.rows)))


def digits(t):
    """Working digits for a point at time t > 0: 40, plus one per decade past 1e6."""
    return 40 + max(0, int(mp.nint(mp.log10(mp.mpf(t)))) - 6)


def main():
    if sys.argv[1:] == ["--ground"]:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(("b_z", "b_x", "qfi"))
        for b_z, b_x in GROUND_POINTS:
            writer.writerow((b_z, b_x, mp.nstr(ground_qfi(mp.mpf(b_z), mp.mpf(b_x)), 20)))
        return
    states = sys.argv[1:] == ["--states"]
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow((*COLUMNS[:-1], "i", "j", "re", "im") if states else COLUMNS)
    for point in LONG_TIMES if states else POINTS:
        kind, *numbers = point
        with mp.workdps(digits(point[-1])):
            numbers = [mp.mpf(x) for x in numbers]
            if states:
                rho = state(kind, *numbers)
                for i in range(rho.rows):
                    for j in range(rho.cols):
                        writer.writerow((*point, i, j, mp.nstr(mp.re(rho[i, j]), 20), mp.nstr(mp.im(rho[i, j]), 20)))
            else:
                writer.writerow((*point, mp.nstr(qfi(kind, *numbers), 20)))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
