"""Walk through the SU(2) -> spin-j correspondence that powers everything else.

A d-level system whose Hamiltonian is a control vector dotted into the
angular-momentum operators behaves exactly like a spin-1/2 driven by the same
control vector.  Any two-level unitary [[a, -b*], [b, a*]] therefore has a
d-level counterpart, and the map between them is a group homomorphism.
"""

import numpy as np

from spinlift import (
    angular_momentum_ops,
    lift_unitary,
    named_state,
    rotation_unitary,
    state_fidelity,
)

np.set_printoptions(precision=4, suppress=True, linewidth=100)

# --- the spin-1 operators in the (|-1>, |0>, |+1>) basis --------------------
ops = angular_momentum_ops(3)
print("Jz diagonal (m ascending):", np.diag(ops.jz).real)
print("Jx:")
print(ops.jx.real)

# --- a pi/2 rotation about y walks |0> onto the dark state ------------------
r = rotation_unitary(3, (0, 1, 0), np.pi / 2)
psi = named_state(3, "0")
print("\nfour consecutive pi/2 rotations about y, starting from |0>:")
for step in range(4):
    psi = r @ psi
    fid_dark = state_fidelity(psi, named_state(3, "D"))
    fid_zero = state_fidelity(psi, named_state(3, "0"))
    print(f"  step {step + 1}: |<D|psi>|^2 = {fid_dark:.6f}, "
          f"|<0|psi>|^2 = {fid_zero:.6f}")

# --- the lift reproduces the familiar qutrit matrix -------------------------
a = b = 1 / np.sqrt(2)
u3 = lift_unitary(a, b, 3)
print("\nlift of (a, b) = (1/sqrt2, 1/sqrt2) to d = 3:")
print(u3.mat.real)
print("middle column is |0> -> |D| up to the basis signs:",
      u3.mat[:, 1].real)

# --- and it is a homomorphism: lift(U1 U2) = lift(U1) lift(U2) --------------
rng = np.random.default_rng(1)
v = rng.normal(size=4)
v /= np.linalg.norm(v)
w = rng.normal(size=4)
w /= np.linalg.norm(w)
u1 = np.array([[v[0] + 1j * v[1], -(v[2] - 1j * v[3])],
               [v[2] + 1j * v[3], v[0] - 1j * v[1]]])
u2 = np.array([[w[0] + 1j * w[1], -(w[2] - 1j * w[3])],
               [w[2] + 1j * w[3], w[0] - 1j * w[1]]])
u12 = u1 @ u2
# the lift holds at any d: 40 and 100 are far past small qudits
for d in (3, 4, 5, 6, 40, 100):
    lhs = lift_unitary(u12[0, 0], u12[1, 0], d).mat
    rhs = lift_unitary(u1[0, 0], u1[1, 0], d).mat @ lift_unitary(
        u2[0, 0], u2[1, 0], d).mat
    unitarity = np.max(np.abs(lhs.conj().T @ lhs - np.eye(d)))
    print(f"d = {d}: max |lift(U1 U2) - lift(U1) lift(U2)| = "
          f"{np.max(np.abs(lhs - rhs)):.2e}, max |U^dag U - I| = {unitarity:.2e}")
