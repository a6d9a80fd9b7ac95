#include "circuit/circuit.h"

#include <algorithm>
#include <sstream>

#include "util/logging.h"

namespace caqr::circuit {

Circuit::Circuit(int num_qubits, int num_clbits)
    : num_qubits_(num_qubits), num_clbits_(num_clbits)
{
    CAQR_CHECK(num_qubits >= 0, "qubit count must be non-negative");
    CAQR_CHECK(num_clbits >= 0, "clbit count must be non-negative");
}

void
Circuit::append(Instruction instr)
{
    const int arity = gate_arity(instr.kind);
    if (instr.kind != GateKind::kBarrier) {
        CAQR_CHECK(static_cast<int>(instr.qubits.size()) == arity,
                   "instruction operand count does not match gate arity");
    }
    for (int q : instr.qubits) {
        CAQR_CHECK(q >= 0 && q < num_qubits_, "qubit operand out of range");
    }
    if (instr.kind == GateKind::kMeasure) {
        CAQR_CHECK(instr.clbit >= 0 && instr.clbit < num_clbits_,
                   "measure clbit out of range");
    }
    if (instr.has_condition()) {
        CAQR_CHECK(instr.condition_bit < num_clbits_,
                   "condition bit out of range");
    }
    if (is_two_qubit(instr.kind)) {
        CAQR_CHECK(instr.qubits[0] != instr.qubits[1],
                   "two-qubit gate with identical operands");
    }
    if (instr.is_symbolic()) {
        CAQR_CHECK(instr.param_ref >= 0 && instr.param_ref < num_params(),
                   "symbolic parameter ref out of range");
        CAQR_CHECK(instr.kind == GateKind::kRx ||
                       instr.kind == GateKind::kRy ||
                       instr.kind == GateKind::kRz ||
                       instr.kind == GateKind::kRzz,
                   "symbolic parameters only attach to single-angle "
                   "rotations");
        CAQR_CHECK(instr.params.size() == 1,
                   "symbolic rotation must carry exactly one angle");
    }
    instrs_.push_back(std::move(instr));
}

ParamRef
Circuit::add_param(std::string name, double value)
{
    CAQR_CHECK(!name.empty(), "parameter name must be non-empty");
    CAQR_CHECK(find_param(name) == kNoParam,
               "duplicate parameter name '" + name + "'");
    params_.push_back(Param{std::move(name), value});
    return static_cast<ParamRef>(params_.size()) - 1;
}

const std::string&
Circuit::param_name(ParamRef ref) const
{
    CAQR_CHECK(ref >= 0 && ref < num_params(), "parameter ref out of range");
    return params_[static_cast<std::size_t>(ref)].name;
}

double
Circuit::param_value(ParamRef ref) const
{
    CAQR_CHECK(ref >= 0 && ref < num_params(), "parameter ref out of range");
    return params_[static_cast<std::size_t>(ref)].value;
}

ParamRef
Circuit::find_param(std::string_view name) const
{
    for (std::size_t i = 0; i < params_.size(); ++i) {
        if (params_[i].name == name) return static_cast<ParamRef>(i);
    }
    return kNoParam;
}

void
Circuit::bind_param(ParamRef ref, double value)
{
    set_param_value(ref, value);
    for (auto& instr : instrs_) {
        if (instr.param_ref == ref) instr.params[0] = value;
    }
}

void
Circuit::bind_params(const std::vector<double>& values)
{
    CAQR_CHECK(static_cast<int>(values.size()) == num_params(),
               "bind_params value count does not match parameter count");
    for (std::size_t i = 0; i < params_.size(); ++i) {
        params_[i].value = values[i];
    }
    for (auto& instr : instrs_) {
        if (instr.is_symbolic()) {
            instr.params[0] =
                values[static_cast<std::size_t>(instr.param_ref)];
        }
    }
}

void
Circuit::set_angle(std::size_t index, double value)
{
    CAQR_CHECK(index < instrs_.size(), "set_angle index out of range");
    Instruction& instr = instrs_[index];
    CAQR_CHECK(gate_num_params(instr.kind) == 1 &&
                   instr.params.size() == 1,
               "set_angle targets a single-angle rotation");
    instr.params[0] = value;
}

void
Circuit::set_param_value(ParamRef ref, double value)
{
    CAQR_CHECK(ref >= 0 && ref < num_params(), "parameter ref out of range");
    params_[static_cast<std::size_t>(ref)].value = value;
}

void
Circuit::copy_params_from(const Circuit& other)
{
    if (other.params_.empty()) return;
    CAQR_CHECK(params_.empty(),
               "copy_params_from target already has parameters");
    params_ = other.params_;
}

void
Circuit::measure(int q, int clbit)
{
    Instruction instr;
    instr.kind = GateKind::kMeasure;
    instr.qubits = {q};
    instr.clbit = clbit;
    append(std::move(instr));
}

void
Circuit::barrier()
{
    Instruction instr;
    instr.kind = GateKind::kBarrier;
    append(std::move(instr));
}

void
Circuit::x_if(int q, int clbit, int value)
{
    Instruction instr;
    instr.kind = GateKind::kX;
    instr.qubits = {q};
    instr.condition_bit = clbit;
    instr.condition_value = value;
    append(std::move(instr));
}

void
Circuit::z_if(int q, int clbit, int value)
{
    Instruction instr;
    instr.kind = GateKind::kZ;
    instr.qubits = {q};
    instr.condition_bit = clbit;
    instr.condition_value = value;
    append(std::move(instr));
}

void
Circuit::append_simple(GateKind kind, Qubits qubits)
{
    Instruction instr;
    instr.kind = kind;
    instr.qubits = std::move(qubits);
    append(std::move(instr));
}

void
Circuit::append_param(GateKind kind, Angles params, Qubits qubits)
{
    Instruction instr;
    instr.kind = kind;
    instr.params = std::move(params);
    instr.qubits = std::move(qubits);
    append(std::move(instr));
}

void
Circuit::append_sym(GateKind kind, ParamRef ref, Qubits qubits)
{
    Instruction instr;
    instr.kind = kind;
    instr.params = {param_value(ref)};
    instr.param_ref = ref;
    instr.qubits = std::move(qubits);
    append(std::move(instr));
}

int
Circuit::two_qubit_gate_count() const
{
    int count = 0;
    for (const auto& instr : instrs_) {
        if (is_two_qubit(instr.kind)) ++count;
    }
    return count;
}

int
Circuit::swap_count() const
{
    int count = 0;
    for (const auto& instr : instrs_) {
        if (instr.kind == GateKind::kSwap) ++count;
    }
    return count;
}

int
Circuit::measure_count() const
{
    int count = 0;
    for (const auto& instr : instrs_) {
        if (instr.kind == GateKind::kMeasure) ++count;
    }
    return count;
}

int
Circuit::active_qubit_count() const
{
    std::vector<bool> active(static_cast<std::size_t>(num_qubits_), false);
    for (const auto& instr : instrs_) {
        for (int q : instr.qubits) active[q] = true;
    }
    return static_cast<int>(
        std::count(active.begin(), active.end(), true));
}

graph::UndirectedGraph
Circuit::interaction_graph() const
{
    graph::UndirectedGraph graph(num_qubits_);
    for (const auto& instr : instrs_) {
        if (!is_two_qubit(instr.kind)) continue;
        graph.add_edge(instr.qubits[0], instr.qubits[1]);
    }
    return graph;
}

std::vector<int>
Circuit::instructions_on_qubit(int q) const
{
    std::vector<int> result;
    for (std::size_t i = 0; i < instrs_.size(); ++i) {
        if (instrs_[i].kind == GateKind::kBarrier) continue;
        if (instrs_[i].uses_qubit(q)) result.push_back(static_cast<int>(i));
    }
    return result;
}

Circuit
Circuit::remap_qubits(const std::vector<int>& mapping,
                      int new_num_qubits) const
{
    CAQR_CHECK(static_cast<int>(mapping.size()) == num_qubits_,
               "qubit mapping size mismatch");
    int target = new_num_qubits;
    if (target < 0) {
        target = 0;
        for (int m : mapping) target = std::max(target, m + 1);
    }
    Circuit result(target, num_clbits_);
    result.copy_params_from(*this);
    for (const auto& instr : instrs_) {
        Instruction copy = instr;
        for (auto& q : copy.qubits) {
            CAQR_CHECK(mapping[q] >= 0 && mapping[q] < target,
                       "qubit mapping target out of range");
            q = mapping[q];
        }
        result.append(std::move(copy));
    }
    return result;
}

Circuit
Circuit::compacted(std::vector<int>* old_of_new) const
{
    std::vector<bool> active(static_cast<std::size_t>(num_qubits_), false);
    for (const auto& instr : instrs_) {
        for (int q : instr.qubits) active[q] = true;
    }
    std::vector<int> mapping(static_cast<std::size_t>(num_qubits_), 0);
    std::vector<int> old_ids;
    int next = 0;
    for (int q = 0; q < num_qubits_; ++q) {
        if (active[q]) {
            mapping[q] = next++;
            old_ids.push_back(q);
        } else {
            mapping[q] = 0;  // never referenced
        }
    }
    if (old_of_new != nullptr) *old_of_new = old_ids;
    return remap_qubits(mapping, std::max(next, 1));
}

Circuit
Circuit::reversed() const
{
    Circuit result = *this;
    std::reverse(result.instrs_.begin(), result.instrs_.end());
    return result;
}

std::string
Circuit::to_string() const
{
    std::ostringstream os;
    os << "circuit(" << num_qubits_ << " qubits, " << num_clbits_
       << " clbits, " << instrs_.size() << " ops)\n";
    for (const auto& instr : instrs_) {
        if (instr.has_condition()) {
            os << "  if (c[" << instr.condition_bit
               << "] == " << instr.condition_value << ") ";
        } else {
            os << "  ";
        }
        os << gate_name(instr.kind);
        if (instr.is_symbolic()) {
            os << "(" << param_name(instr.param_ref) << "="
               << instr.params[0] << ")";
        } else if (!instr.params.empty()) {
            os << "(";
            for (std::size_t i = 0; i < instr.params.size(); ++i) {
                if (i) os << ", ";
                os << instr.params[i];
            }
            os << ")";
        }
        for (int q : instr.qubits) os << " q" << q;
        if (instr.kind == GateKind::kMeasure) os << " -> c" << instr.clbit;
        os << "\n";
    }
    return os.str();
}

}  // namespace caqr::circuit
