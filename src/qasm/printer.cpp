#include "qasm/printer.h"

#include <iomanip>
#include <sstream>
#include <string>

namespace caqr::qasm {

namespace {

/// True if any instruction carries a classical condition.
bool
has_any_condition(const circuit::Circuit& circuit)
{
    for (const auto& instr : circuit.instructions()) {
        if (instr.has_condition()) return true;
    }
    return false;
}

std::string
to_qasm_impl(const circuit::Circuit& circuit, bool symbolic_names)
{
    // OpenQASM 2.0 only allows whole-register conditions
    // (`if (creg == v)`). Dynamic circuits condition on single bits,
    // so — Qiskit-style — each classical bit becomes its own 1-bit
    // register (c0, c1, ...) whenever a condition is present; plain
    // measurement-only circuits keep the single flat register.
    const bool split_cregs = has_any_condition(circuit);

    std::ostringstream os;
    os << "OPENQASM 2.0;\n";
    os << "include \"qelib1.inc\";\n";
    if (circuit.num_qubits() > 0) {
        os << "qreg q[" << circuit.num_qubits() << "];\n";
    }
    if (circuit.num_clbits() > 0) {
        if (split_cregs) {
            for (int b = 0; b < circuit.num_clbits(); ++b) {
                os << "creg c" << b << "[1];\n";
            }
        } else {
            os << "creg c[" << circuit.num_clbits() << "];\n";
        }
    }

    os << std::setprecision(17);
    for (const auto& instr : circuit.instructions()) {
        if (instr.kind == circuit::GateKind::kBarrier) {
            os << "barrier q;\n";
            continue;
        }
        if (instr.has_condition()) {
            // Spec-compliant register-level condition on the 1-bit
            // register that holds the condition bit.
            os << "if (c" << instr.condition_bit
               << " == " << instr.condition_value << ") ";
        }
        if (instr.kind == circuit::GateKind::kMeasure) {
            os << "measure q[" << instr.qubits[0] << "] -> ";
            if (split_cregs) {
                os << "c" << instr.clbit << "[0];\n";
            } else {
                os << "c[" << instr.clbit << "];\n";
            }
            continue;
        }
        os << circuit::gate_name(instr.kind);
        if (symbolic_names && instr.is_symbolic()) {
            os << "(" << circuit.param_name(instr.param_ref) << ")";
        } else if (!instr.params.empty()) {
            os << "(";
            for (std::size_t i = 0; i < instr.params.size(); ++i) {
                if (i) os << ",";
                os << instr.params[i];
            }
            os << ")";
        }
        for (std::size_t i = 0; i < instr.qubits.size(); ++i) {
            os << (i ? "," : " ") << "q[" << instr.qubits[i] << "]";
        }
        os << ";\n";
    }
    return os.str();
}

}  // namespace

std::string
to_qasm(const circuit::Circuit& circuit)
{
    return to_qasm_impl(circuit, /*symbolic_names=*/false);
}

std::string
to_qasm_template(const circuit::Circuit& circuit)
{
    return to_qasm_impl(circuit, /*symbolic_names=*/true);
}

}  // namespace caqr::qasm
