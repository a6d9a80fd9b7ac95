#include "stabilizer.h"

#include <cmath>
#include <numbers>
#include <vector>

namespace caqrbench {

namespace {

using caqr::circuit::GateKind;
using caqr::circuit::Instruction;

/// Rows 0..n-1 are destabilizers, n..2n-1 stabilizers, row 2n scratch.
class Tableau
{
  public:
    explicit Tableau(int n)
        : n_(n), x_(rows() * n, 0), z_(rows() * n, 0), r_(rows(), 0)
    {
        for (int i = 0; i < n_; ++i) {
            x(i, i) = 1;
            z(n_ + i, i) = 1;
        }
    }

    void
    h(int a)
    {
        for (int i = 0; i < 2 * n_; ++i) {
            r_[i] ^= x(i, a) & z(i, a);
            std::swap(x(i, a), z(i, a));
        }
    }

    void
    s(int a)
    {
        for (int i = 0; i < 2 * n_; ++i) {
            r_[i] ^= x(i, a) & z(i, a);
            z(i, a) ^= x(i, a);
        }
    }

    void
    cx(int a, int b)
    {
        for (int i = 0; i < 2 * n_; ++i) {
            r_[i] ^= x(i, a) & z(i, b) & (x(i, b) ^ z(i, a) ^ 1);
            x(i, b) ^= x(i, a);
            z(i, a) ^= z(i, b);
        }
    }

    void
    pauli_x(int a)
    {
        for (int i = 0; i < 2 * n_; ++i) r_[i] ^= z(i, a);
    }

    void
    pauli_z(int a)
    {
        for (int i = 0; i < 2 * n_; ++i) r_[i] ^= x(i, a);
    }

    int
    measure(int a, std::uint64_t& rng)
    {
        int p = -1;
        for (int i = n_; i < 2 * n_ && p < 0; ++i) {
            if (x(i, a)) p = i;
        }
        if (p >= 0) {
            for (int i = 0; i < 2 * n_; ++i) {
                if (i != p && x(i, a)) rowsum(i, p);
            }
            copy_row(p - n_, p);
            clear_row(p);
            z(p, a) = 1;
            rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
            r_[p] = static_cast<unsigned char>(rng >> 63);
            return r_[p];
        }
        const int scratch = 2 * n_;
        clear_row(scratch);
        for (int i = 0; i < n_; ++i) {
            if (x(i, a)) rowsum(scratch, i + n_);
        }
        return r_[scratch];
    }

  private:
    std::size_t rows() const { return 2 * static_cast<std::size_t>(n_) + 1; }

    unsigned char&
    x(int row, int col)
    {
        return x_[static_cast<std::size_t>(row) * n_ + col];
    }

    unsigned char&
    z(int row, int col)
    {
        return z_[static_cast<std::size_t>(row) * n_ + col];
    }

    /// Phase exponent (of i) contributed by multiplying Pauli (x1,z1)
    /// into (x2,z2).
    static int
    g(int x1, int z1, int x2, int z2)
    {
        if (x1 == 0 && z1 == 0) return 0;
        if (x1 == 1 && z1 == 1) return z2 - x2;
        if (x1 == 1) return z2 * (2 * x2 - 1);
        return x2 * (1 - 2 * z2);
    }

    void
    rowsum(int h, int i)
    {
        int phase = 2 * r_[h] + 2 * r_[i];
        for (int j = 0; j < n_; ++j) {
            phase += g(x(i, j), z(i, j), x(h, j), z(h, j));
            x(h, j) ^= x(i, j);
            z(h, j) ^= z(i, j);
        }
        r_[h] = ((phase % 4) + 4) % 4 == 0 ? 0 : 1;
    }

    void
    copy_row(int to, int from)
    {
        for (int j = 0; j < n_; ++j) {
            x(to, j) = x(from, j);
            z(to, j) = z(from, j);
        }
        r_[to] = r_[from];
    }

    void
    clear_row(int row)
    {
        for (int j = 0; j < n_; ++j) x(row, j) = z(row, j) = 0;
        r_[row] = 0;
    }

    int n_;
    std::vector<unsigned char> x_, z_, r_;
};

/// Quarter turns in @p angle (mod 4), or -1 when it is not a multiple
/// of pi/2.
int
quarter_turns(double angle)
{
    const double turns = angle / (std::numbers::pi / 2.0);
    const double nearest = std::round(turns);
    if (std::abs(turns - nearest) > 1e-6) return -1;
    return static_cast<int>(((static_cast<long long>(nearest) % 4) + 4) % 4);
}

/// Applies Rz(angle); false when it is not Clifford.
bool
rz(Tableau& t, int q, double angle)
{
    const int k = quarter_turns(angle);
    if (k < 0) return false;
    for (int i = 0; i < k; ++i) t.s(q);
    return true;
}

bool
rx(Tableau& t, int q, double angle)
{
    t.h(q);
    const bool ok = rz(t, q, angle);
    t.h(q);
    return ok;
}

/// Ry(a) = S Rx(a) S^dagger.
bool
ry(Tableau& t, int q, double angle)
{
    for (int i = 0; i < 3; ++i) t.s(q);
    const bool ok = rx(t, q, angle);
    t.s(q);
    return ok;
}

/// Applies one instruction; false when it is not Clifford.
bool
apply(Tableau& t, const Instruction& op, std::vector<char>& clbits,
      std::uint64_t& rng)
{
    const auto& q = op.qubits;
    switch (op.kind) {
      case GateKind::kH: t.h(q[0]); return true;
      case GateKind::kX: t.pauli_x(q[0]); return true;
      case GateKind::kY: t.pauli_x(q[0]); t.pauli_z(q[0]); return true;
      case GateKind::kZ: t.pauli_z(q[0]); return true;
      case GateKind::kS: t.s(q[0]); return true;
      case GateKind::kSdg:
        for (int i = 0; i < 3; ++i) t.s(q[0]);
        return true;
      case GateKind::kRx: return rx(t, q[0], op.params[0]);
      case GateKind::kRy: return ry(t, q[0], op.params[0]);
      case GateKind::kRz: return rz(t, q[0], op.params[0]);
      case GateKind::kU:  // U(theta, phi, lambda) = Rz(phi) Ry(theta) Rz(lambda)
        return rz(t, q[0], op.params[2]) && ry(t, q[0], op.params[0]) &&
               rz(t, q[0], op.params[1]);
      case GateKind::kCx: t.cx(q[0], q[1]); return true;
      case GateKind::kCz:
        t.h(q[1]);
        t.cx(q[0], q[1]);
        t.h(q[1]);
        return true;
      case GateKind::kRzz: {
        t.cx(q[0], q[1]);
        const bool ok = rz(t, q[1], op.params[0]);
        t.cx(q[0], q[1]);
        return ok;
      }
      case GateKind::kSwap:
        t.cx(q[0], q[1]);
        t.cx(q[1], q[0]);
        t.cx(q[0], q[1]);
        return true;
      case GateKind::kMeasure:
        clbits[static_cast<std::size_t>(op.clbit)] =
            static_cast<char>(t.measure(q[0], rng));
        return true;
      case GateKind::kReset:
        if (t.measure(q[0], rng) == 1) t.pauli_x(q[0]);
        return true;
      case GateKind::kBarrier: return true;
      case GateKind::kT:
      case GateKind::kTdg:
      case GateKind::kCcx: return false;
    }
    return false;
}

}  // namespace

std::optional<std::string>
run_clifford(const caqr::circuit::Circuit& circuit, std::uint64_t seed)
{
    Tableau tableau(circuit.num_qubits());
    std::vector<char> clbits(static_cast<std::size_t>(circuit.num_clbits()),
                             0);
    std::uint64_t rng = seed | 1;
    for (const Instruction& op : circuit.instructions()) {
        if (op.has_condition() &&
            clbits[static_cast<std::size_t>(op.condition_bit)] !=
                op.condition_value) {
            continue;
        }
        if (!apply(tableau, op, clbits, rng)) return std::nullopt;
    }
    std::string out;
    out.reserve(clbits.size());
    for (char bit : clbits) out.push_back(bit != 0 ? '1' : '0');
    return out;
}

}  // namespace caqrbench
