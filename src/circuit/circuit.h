/**
 * @file
 * The quantum circuit IR: a linear sequence of instructions over
 * indexed qubits and classical bits, with first-class support for the
 * dynamic-circuit primitives (mid-circuit measurement, reset, and
 * classically-conditioned gates) that qubit reuse is built on.
 */
#ifndef CAQR_CIRCUIT_CIRCUIT_H
#define CAQR_CIRCUIT_CIRCUIT_H

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "circuit/gate.h"
#include "graph/undirected_graph.h"
#include "util/small_vector.h"

namespace caqr::circuit {

/// Index of a named symbolic parameter in the owning circuit's
/// parameter table (`Circuit::params()`), or `kNoParam` for a concrete
/// angle.
using ParamRef = int;
inline constexpr ParamRef kNoParam = -1;

/// A named symbolic parameter and its currently bound value. The reuse
/// analysis, layout, and routing passes depend only on circuit
/// *structure*, so a circuit with symbolic parameters compiles once and
/// rebinds angles without recompiling (the template → bind model).
struct Param
{
    std::string name;
    double value = 0.0;
};

/// Operand qubit ids, inline up to a CCX's three; only a barrier
/// given explicit operands can spill.
using Qubits = util::SmallVector<int, 3>;
/// Rotation angles, inline up to a U gate's three.
using Angles = util::SmallVector<double, 3>;

/// One operation in a circuit.
struct Instruction
{
    GateKind kind = GateKind::kBarrier;
    Qubits qubits;             ///< operand qubit ids
    Angles params;             ///< rotation angles, if any
    int clbit = -1;            ///< measurement result bit (kMeasure only)
    int condition_bit = -1;    ///< classical control bit, or -1 if none
    int condition_value = 1;   ///< required value of the control bit
    /// Symbolic-parameter reference for single-angle rotations
    /// (kRx/kRy/kRz/kRzz): `params[0]` then mirrors the parameter's
    /// current value, and angle-sensitive simplifications must leave
    /// the instruction alone so rebinding stays valid.
    ParamRef param_ref = kNoParam;

    bool has_condition() const { return condition_bit >= 0; }
    bool is_symbolic() const { return param_ref != kNoParam; }
    bool
    uses_qubit(int q) const
    {
        for (int operand : qubits) {
            if (operand == q) return true;
        }
        return false;
    }
};

// Circuits hold and copy millions of these; keep them small.
static_assert(sizeof(Instruction) <= 80);

/**
 * A quantum circuit over `num_qubits()` qubits and `num_clbits()`
 * classical bits. Instructions execute in program order subject to the
 * usual commutation of operations on disjoint (qu)bits; `Schedule` and
 * the router's `GateGraph` derive the dependency structure.
 */
class Circuit
{
  public:
    Circuit() = default;
    Circuit(int num_qubits, int num_clbits);

    int num_qubits() const { return num_qubits_; }
    int num_clbits() const { return num_clbits_; }

    /// Appends @p count fresh qubits / classical bits; returns the
    /// first one's id.
    int
    add_qubit(int count = 1)
    {
        return std::exchange(num_qubits_, num_qubits_ + count);
    }
    int
    add_clbit(int count = 1)
    {
        return std::exchange(num_clbits_, num_clbits_ + count);
    }

    /// @name Symbolic parameters
    /// @{

    /// Registers a named symbolic parameter with an initial value and
    /// returns its ref. Names must be unique within the circuit.
    ParamRef add_param(std::string name, double value = 0.0);
    int num_params() const { return static_cast<int>(params_.size()); }
    const std::vector<Param>& params() const { return params_; }
    const std::string& param_name(ParamRef ref) const;
    double param_value(ParamRef ref) const;
    /// Ref of the parameter named @p name, or kNoParam.
    ParamRef find_param(std::string_view name) const;

    /// Rebinds parameter @p ref: updates the table entry and the angle
    /// of every instruction referencing it.
    void bind_param(ParamRef ref, double value);
    /// Rebinds every parameter in table order; @p values must have
    /// exactly `num_params()` entries.
    void bind_params(const std::vector<double>& values);

    /// O(1) angle write for slot-addressed binding: instruction
    /// @p index must be a single-angle rotation. Does not touch the
    /// parameter table — callers binding by slot update it via
    /// `set_param_value`.
    void set_angle(std::size_t index, double value);
    /// Updates only the table entry for @p ref (slot-addressed binding
    /// keeps instructions in sync itself).
    void set_param_value(ParamRef ref, double value);

    /// Copies @p other's parameter table into this circuit, which must
    /// not have registered parameters of its own. Passes that rebuild a
    /// circuit instruction-by-instruction call this first so surviving
    /// `param_ref`s stay resolvable.
    void copy_params_from(const Circuit& other);
    /// @}

    const std::vector<Instruction>& instructions() const { return instrs_; }
    /// Makes room for @p n instructions without changing the circuit.
    void reserve(std::size_t n) { instrs_.reserve(n); }
    std::size_t size() const { return instrs_.size(); }
    const Instruction& at(std::size_t i) const { return instrs_[i]; }

    /// Appends an arbitrary instruction after validating operand ranges
    /// and arity.
    void append(Instruction instr);

    /// @name Builder helpers
    /// @{
    void h(int q) { append_simple(GateKind::kH, {q}); }
    void x(int q) { append_simple(GateKind::kX, {q}); }
    void y(int q) { append_simple(GateKind::kY, {q}); }
    void z(int q) { append_simple(GateKind::kZ, {q}); }
    void s(int q) { append_simple(GateKind::kS, {q}); }
    void sdg(int q) { append_simple(GateKind::kSdg, {q}); }
    void t(int q) { append_simple(GateKind::kT, {q}); }
    void tdg(int q) { append_simple(GateKind::kTdg, {q}); }
    void rx(double theta, int q) { append_param(GateKind::kRx, {theta}, {q}); }
    void ry(double theta, int q) { append_param(GateKind::kRy, {theta}, {q}); }
    void rz(double theta, int q) { append_param(GateKind::kRz, {theta}, {q}); }
    /// Symbolic rotations: the instruction records @p ref and carries
    /// the parameter's current value as its concrete angle.
    void rx_sym(ParamRef ref, int q) { append_sym(GateKind::kRx, ref, {q}); }
    void ry_sym(ParamRef ref, int q) { append_sym(GateKind::kRy, ref, {q}); }
    void rz_sym(ParamRef ref, int q) { append_sym(GateKind::kRz, ref, {q}); }
    void
    rzz_sym(ParamRef ref, int a, int b)
    {
        append_sym(GateKind::kRzz, ref, {a, b});
    }
    void
    u(double theta, double phi, double lambda, int q)
    {
        append_param(GateKind::kU, {theta, phi, lambda}, {q});
    }
    void cx(int control, int target)
    {
        append_simple(GateKind::kCx, {control, target});
    }
    void cz(int a, int b) { append_simple(GateKind::kCz, {a, b}); }
    void
    rzz(double theta, int a, int b)
    {
        append_param(GateKind::kRzz, {theta}, {a, b});
    }
    void swap_gate(int a, int b) { append_simple(GateKind::kSwap, {a, b}); }
    void ccx(int c0, int c1, int target)
    {
        append_simple(GateKind::kCcx, {c0, c1, target});
    }
    void measure(int q, int clbit);
    void reset(int q) { append_simple(GateKind::kReset, {q}); }
    void barrier();

    /// Classically-conditioned X: applies X(q) iff clbit == value.
    /// This is the fast "measure + conditional reset" idiom of paper
    /// Fig 2(b); emit it right after measure(q, clbit) to reuse q.
    void x_if(int q, int clbit, int value = 1);

    /// Classically-conditioned Z (feed-forward phase correction, e.g.
    /// the teleportation protocol's second correction).
    void z_if(int q, int clbit, int value = 1);
    /// @}

    /// Number of two-qubit unitary gates (CX/CZ/RZZ/SWAP count once).
    int two_qubit_gate_count() const;

    /// Number of SWAP gates.
    int swap_count() const;

    /// Number of measurement operations.
    int measure_count() const;

    /// Qubits touched by at least one instruction.
    int active_qubit_count() const;

    /**
     * Qubit interaction graph: one node per qubit, an edge wherever some
     * two-qubit gate acts on the pair (paper Fig 5). Barriers and
     * measurements contribute nothing.
     */
    graph::UndirectedGraph interaction_graph() const;

    /// Indices (into instructions()) of the operations touching qubit q,
    /// in program order. Barriers are excluded.
    std::vector<int> instructions_on_qubit(int q) const;

    /**
     * Returns a copy with qubit ids remapped through @p mapping
     * (mapping[old] = new). The target qubit count is
     * max(mapping)+1 unless @p new_num_qubits >= 0 overrides it.
     */
    Circuit remap_qubits(const std::vector<int>& mapping,
                         int new_num_qubits = -1) const;

    /**
     * Returns an equivalent circuit with idle wires removed: active
     * qubits are renumbered densely in ascending order. If
     * @p old_of_new is non-null it receives the original qubit id of
     * each new wire. Classical bits are untouched.
     */
    Circuit compacted(std::vector<int>* old_of_new = nullptr) const;

    /// Returns a copy with the instructions in reverse order: its ASAP
    /// schedule runs the original's dependences backward, from the
    /// last gate to the first.
    Circuit reversed() const;

    /// Human-readable multi-line listing (debugging aid).
    std::string to_string() const;

  private:
    void append_simple(GateKind kind, Qubits qubits);
    void append_param(GateKind kind, Angles params, Qubits qubits);
    void append_sym(GateKind kind, ParamRef ref, Qubits qubits);

    int num_qubits_ = 0;
    int num_clbits_ = 0;
    std::vector<Instruction> instrs_;
    std::vector<Param> params_;
};

}  // namespace caqr::circuit

#endif  // CAQR_CIRCUIT_CIRCUIT_H
